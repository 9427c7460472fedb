"""One rule for the comparison tolerance eps: a finite number >= 0.

The library enforces it where eps enters, ``AnalysisOptions`` and
``speccheck.check``, with the helper the CLI calls for ``--eps`` (whose
message ``tests/test_cli.py`` checks).  An infinite eps would turn any
assertion into Verified (the false assertion below had minimum -101),
and a negative one empties the sound abstraction of a nonempty box.
"""

from __future__ import annotations

import numpy as np
import pytest

from troprelu import AnalysisOptions, LinearAssertion, SubdivisionGrid, analyze, check, check_with_subdivision
from troprelu.errors import InvalidTolerance

BAD = [float("inf"), float("-inf"), float("nan"), -1.0, -1e-300, "1e-9", None]


def false_assertion():
    # -y1 - 100 >= 0 is false everywhere: the final ReLU keeps y1 >= 0
    return LinearAssertion([0.0, 0.0], [-1.0, 0.0], -100.0)


class TestEpsRule:
    @pytest.mark.parametrize("eps", BAD)
    def test_options_reject(self, eps):
        with pytest.raises(InvalidTolerance, match="eps must be a finite number >= 0"):
            AnalysisOptions(eps=eps)

    @pytest.mark.parametrize("eps", BAD)
    def test_check_rejects(self, eps, running_net, unit_box2):
        res = analyze(running_net, unit_box2)
        with pytest.raises(InvalidTolerance):
            check(false_assertion(), res, eps=eps)

    def test_subdivided_check_rejects(self, running_net, unit_box2):
        grid = SubdivisionGrid.uniform(unit_box2, 2)
        with pytest.raises(InvalidTolerance):
            check_with_subdivision(false_assertion(), running_net, unit_box2, grid, eps=float("nan"))

    @pytest.mark.parametrize("eps", [0, 0.0, 1e-12, 0.5, np.float64(1e-6)])
    def test_finite_nonnegative_accepted(self, eps, running_net, unit_box2):
        res = analyze(running_net, unit_box2, AnalysisOptions(eps=eps))
        assert not check(false_assertion(), res, eps=eps).verified
