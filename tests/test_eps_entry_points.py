"""The eps rule at the library's closure and minimisation entry points.

``min_over_zone``, ``dbm_close`` and ``oct_close`` take eps directly, not
through ``AnalysisOptions`` or ``speccheck.check``, so each checks it on
entry.  An infinite eps made an empty meet look nonempty: minimising x
over [0, 1] restricted to [2, 3] returned about 3 instead of raising.
"""

from __future__ import annotations

import pytest

from troprelu import Box, min_over_zone
from troprelu.dbm import dbm_close, oct_close
from troprelu.errors import EmptyFeasibleSet, InvalidTolerance
from troprelu.network import _oct_from_box

from test_eps_rule import BAD

ENTRY_POINTS = {
    "min_over_zone": lambda eps: min_over_zone(Box([0], [1]).to_dbm(), Box([2], [3]), [1.0], eps=eps),
    "dbm_close": lambda eps: dbm_close(Box([0, 0], [1, 1]).to_dbm(), eps=eps),
    "oct_close": lambda eps: oct_close(_oct_from_box(Box([0, 0], [1, 1])), eps=eps),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
@pytest.mark.parametrize("eps", BAD)
def test_rejected(name, eps):
    with pytest.raises(InvalidTolerance, match="eps must be a finite number >= 0"):
        ENTRY_POINTS[name](eps)


@pytest.mark.parametrize("name", ["dbm_close", "oct_close"])
def test_accepted(name):
    assert ENTRY_POINTS[name](0.0).closed


def test_empty_meet_raises():
    with pytest.raises(EmptyFeasibleSet):
        ENTRY_POINTS["min_over_zone"](1e-9)
