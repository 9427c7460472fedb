"""A sum bound that overflows bounds nothing.

The octagon domain adds sums of two bounds: the layer constants' sum_hi
and sum_lo (``layers._constants``), the factored meet's sums through slot
0 (``dbm._factored_meet``) and strengthening's half-sums
(``dbm._strengthen``).  A sum of two finite bounds can overflow.  An upper
bound that overflows is +inf and a lower bound -inf, never the other way
round, so no entry of a doubled matrix is -inf (a cycle of -inf would read
as an empty octagon) and no inf - inf makes a NaN.  The 1->1->1 net whose
first bias is 1e308 then raises ``UnboundedVariable`` where its doubled
bound 2e308 cannot be stored, with no numpy warning (pytest turns them
into errors); the zone domain, which doubles nothing, returns its bounds.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from troprelu import network
from troprelu.dbm import INF, Box, _upper_sum
from troprelu.errors import UnboundedVariable
from troprelu.layers import AffineLayer, oct_constants
from troprelu.network import AbsDomain, AnalysisOptions, Network, analyze
from troprelu.subdivision import SubdivisionGrid

NET = Network(([[1.0]], [[1.0]]), ([1e308], [0.0]))
UNIT = Box([0.0], [1.0])


@pytest.fixture
def steps(monkeypatch):
    """Every matrix the octagon steps return, and every layer octagon."""
    seen = []
    step, entries = network._oct_step, network._oct_entries

    def spy_step(*args):
        nxt, pre_zone = step(*args)
        seen.extend([nxt.entries, pre_zone.entries])
        return nxt, pre_zone

    def spy_entries(*args, **kwargs):
        e = entries(*args, **kwargs)
        seen.append(e)
        return e

    monkeypatch.setattr(network, "_oct_step", spy_step)
    monkeypatch.setattr(network, "_oct_entries", spy_entries)
    return seen


@pytest.mark.parametrize("track_all", [False, True])
@pytest.mark.parametrize("grid", [None, [2]])
def test_octagon_raises_unbounded_without_warning(steps, track_all, grid):
    subdiv = None if grid is None else SubdivisionGrid.uniform(UNIT, grid)
    options = AnalysisOptions(domain=AbsDomain.OCTAGON, track_all=track_all, subdiv=subdiv)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnboundedVariable, match="octagon has an unbounded variable"):
            analyze(NET, UNIT, options)
    assert steps
    for m in steps:
        assert not np.isnan(m).any()
        assert not (m == -INF).any()


def test_zone_domain_returns_the_bounds():
    res = analyze(NET, UNIT)
    assert res.bounds[1].lo.tolist() == res.bounds[1].hi.tolist() == [1e308]
    assert res.bounds[2].lo.tolist() == res.bounds[2].hi.tolist() == [1e308]


def test_sum_bounds_of_the_layer_constants():
    # y0 + y0 overflows above, then below: an upper bound that overflows is
    # +inf and a lower bound -inf, whichever way the sum went
    for bias in (1e308, -1e308):
        layer = AffineLayer([[1.0], [1.0]], [bias, 0.0], UNIT)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = oct_constants(layer)
        assert k.sum_hi[0, 0] == INF and k.sum_lo[0, 0] == -INF
        # y0 + y1 stays finite: bias + 2x over x in [0, 1]
        assert k.sum_hi[0, 1] == k.sum_lo[0, 1] == bias


def test_upper_sum():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _upper_sum(np.array([1e308, -1e308, 1.0, -0.0]), np.array([1e308, -1e308, INF, -0.0]))
    assert got[:3].tolist() == [INF, INF, INF]
    assert got[3] == 0.0 and np.signbit(got[3])  # bits of a finite sum kept
