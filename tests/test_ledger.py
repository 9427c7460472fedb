"""The same-bits ledger (``ledger.py``) on a few of its runs.

Two passes in one process give the same digests, and a bound moved by one
ulp changes the digest of its run and is named, with its difference, by
``compare``.  The full ledger compares two trees from the command line.
"""

from __future__ import annotations

from itertools import islice

import numpy as np
import pytest

import ledger
from troprelu import AbsDomain, AnalysisOptions, ChainMode

SETTINGS = [AnalysisOptions(), AnalysisOptions(domain=AbsDomain.OCTAGON, track_all=True)]


@pytest.fixture(scope="module")
def nets():
    return list(islice(ledger.battery(), 4))


def digests(nets):
    return [
        ledger.record(ledger.run_arrays(net, box, objectives, opts))["digest"]
        for net, box, objectives in nets
        for opts in SETTINGS
    ]


def test_two_passes_give_the_same_digests(nets):
    first = digests(nets)
    assert len(set(first)) == len(first)  # every run is told apart
    assert digests(nets) == first


@pytest.mark.parametrize("opts", SETTINGS + [AnalysisOptions(mode=ChainMode.EXTERNAL)], ids=["zone", "octagon", "external"])
def test_one_ulp_on_one_bound_changes_the_digest(nets, opts):
    net, box, objectives = nets[0]
    arrays = ledger.run_arrays(net, box, objectives, opts)
    nudged = [(label, a.copy()) for label, a in arrays]
    i = next(i for i, (label, _) in enumerate(nudged) if label == "bounds[1].hi")
    nudged[i][1][0] = np.nextafter(nudged[i][1][0], np.inf)
    assert ledger.record(nudged)["digest"] != ledger.record(arrays)["digest"]
    (line,) = ledger.compare(ledger.ledger([("run", arrays)]), ledger.ledger([("run", nudged)]))
    gap = np.spacing(arrays[i][1][0])
    assert line == f"run: array 'bounds[1].hi': largest difference {gap:.3g}"


def test_a_signed_zero_changes_the_digest():
    plus, minus = np.zeros(3), np.zeros(3)
    minus[1] = -0.0
    assert ledger.array_digest("zone", plus) != ledger.array_digest("zone", minus)
    assert ledger.array_digest("zone", plus) != ledger.array_digest("zone", plus.reshape(1, 3))
