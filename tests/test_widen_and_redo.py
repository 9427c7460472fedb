"""The one rounding rule: ``dbm._widen_and_redo``.

A closure returns a stack of matrices and the mask of those whose diagonal
fell low.  Only the flagged matrices are redone, once, on their operands
widened by size ulps of the largest finite entry of all their operands (a
matrix's diagonal no further than 0); the others keep their bytes, and the
returned mask names the redone matrices that are still low.
"""

from __future__ import annotations

import numpy as np
import pytest

from troprelu.dbm import INF, _widen_and_redo

from test_stacked_cells import same_bits


def operands():
    rng = np.random.default_rng(3)
    a = rng.uniform(-4, 4, (3, 4, 4))
    b = rng.uniform(-4, 4, (3, 4, 4))
    v = rng.uniform(-4, 4, (3, 4))
    a[1, 0, 2] = -3e7  # the largest finite entry of the middle matrix's operands
    b[1, 2, 1] = INF
    i = np.arange(4)
    b[:, i, i] = 0.0
    b[1, 3, 3] = -1e-300  # a diagonal below 0 rises to 0, not above
    b[1, 1, 1] = 5.0  # one above 0 falls to 0
    return a, b, v


@pytest.mark.parametrize("still", [False, True])
def test_only_the_flagged_matrix_is_redone(still):
    a, b, v = operands()
    calls = []

    def close(a, b, v):
        calls.append((a.copy(), b.copy(), v.copy()))
        m = a + b + v[..., None]
        low = np.array([False, True, False]) if len(calls) == 1 else np.array([still])
        return m, low

    m, mask = _widen_and_redo(close, (a, b, v), (1, 2))
    first = a + b + v[..., None]
    slack = 4 * np.spacing(3e7)
    assert len(calls) == 2
    ra, rb, rv = calls[1]
    assert same_bits(ra, a[1:2])  # not widened
    want_b = b[1:2] + slack
    i = np.arange(4)
    want_b[0, i, i] = 0.0  # -1e-300 + slack and 5 + slack both end at 0
    assert same_bits(rb, want_b)
    assert same_bits(rv, v[1:2] + slack)
    assert same_bits(m[[0, 2]], first[[0, 2]])  # the others keep their bytes
    assert same_bits(m[1], ra[0] + rb[0] + rv[0][:, None])
    assert mask.tolist() == [False, still, False]


def test_nothing_flagged_runs_once():
    a, b, v = operands()
    calls = []

    def close(a, b):
        calls.append(1)
        return a + b, np.zeros(3, dtype=bool)

    m, mask = _widen_and_redo(close, (a, b), (1,))
    assert len(calls) == 1 and not mask.any()
    assert same_bits(m, a + b)


def test_one_matrix_without_a_stack():
    e = np.array([[0.0, 1e12], [np.nextafter(-1e12, -INF), 0.0]])  # a cycle one ulp below 0
    seen = []

    def close(e):
        seen.append(e.copy())
        m = e.copy()
        return m, (m + m.swapaxes(-2, -1) < 0).any(axis=(-2, -1))

    m, mask = _widen_and_redo(close, (e,), (0,))
    assert seen[1].shape == (1, 2, 2)
    slack = 2 * np.spacing(-e[1, 0])
    assert same_bits(seen[1][0], [[0.0, 1e12 + slack], [e[1, 0] + slack, 0.0]])
    assert same_bits(m, seen[1][0])
    assert mask.shape == () and not mask  # the redone cycle is no longer low
