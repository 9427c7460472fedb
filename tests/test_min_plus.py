"""The blocked min-plus kernel and the octagon meet's copies.

``dbm._min_plus`` takes the product in cache-sized blocks with the inner
index outermost; ``reference.reference_min_plus`` is the kernel it
replaced, one broadcast sum per block of rows reduced over its middle axis.
The two add the same pairs of floats and take the min of the same values,
so they agree bit for bit, but for the sign of a zero where +0.0 and -0.0
tie: which of the two a min keeps depends on the order the reduction
visits them in.  Inputs with no signed-zero tie are compared with
``tobytes``; inputs with ±0 entries with ``==``.

The octagon coherence step reads the mirrored matrix as a view
(``dbm._mirrored``) and ``network._oct_meet`` reorders the meet with a row
take and a column take; both must give the floats of the index gathers
they replaced.
"""

from __future__ import annotations

import numpy as np
import pytest

from troprelu import network
from troprelu.dbm import INF, Box, _coherence_min, _min_plus, _mirror
from troprelu.network import AbsDomain, AnalysisOptions, Network, analyze
from troprelu.subdivision import SubdivisionGrid

from reference import reference_min_plus
from test_layer_kernels import _traced_peak

LEADS = [(), (3,), (2, 3)]


def draw(rng, shape, values=None):
    """Normal floats (no sum is a zero tie), or a draw from ``values``."""
    if values is None:
        return rng.normal(size=shape)
    return rng.choice(np.asarray(values, dtype=float), size=shape)


def same_bits(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("lead", LEADS)
class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_shapes(self, lead, seed):
        rng = np.random.default_rng(seed)
        r, k, j = rng.integers(1, 20, size=3)
        p, q = draw(rng, lead + (r, k)), draw(rng, lead + (k, j))
        same_bits(_min_plus(p, q), reference_min_plus(p, q))

    @pytest.mark.parametrize("r, k, j", [(1, 5, 1), (1, 7, 4), (6, 1, 1), (4, 3, 1), (1, 1, 1)])
    def test_one_row_or_column(self, lead, r, k, j):
        rng = np.random.default_rng(r * 100 + k * 10 + j)
        p, q = draw(rng, lead + (r, k)), draw(rng, lead + (k, j))
        same_bits(_min_plus(p, q), reference_min_plus(p, q))

    @pytest.mark.parametrize("r, j", [(3, 2), (0, 2), (3, 0), (0, 0)])
    def test_empty_inner_dimension_is_inf(self, lead, r, j):
        got = _min_plus(np.zeros(lead + (r, 0)), np.zeros(lead + (0, j)))
        assert got.shape == lead + (r, j)
        assert (got == INF).all()

    @pytest.mark.parametrize("r, j", [(0, 4), (5, 0), (0, 0)])
    def test_empty_result(self, lead, r, j):
        got = _min_plus(np.ones(lead + (r, 6)), np.ones(lead + (6, j)))
        assert got.shape == lead + (r, j)

    def test_infinite_entries(self, lead):
        # +inf and -inf against finite entries, then +inf against +inf
        # (never inf - inf, which is NaN)
        rng = np.random.default_rng(11)
        p = draw(rng, lead + (9, 8), [-2.5, 1.0, 3.25, INF, -INF])
        q = draw(rng, lead + (8, 7), [-1.5, 0.5, 2.0])
        same_bits(_min_plus(p, q), reference_min_plus(p, q))
        p = draw(rng, lead + (9, 8), [-2.5, 1.0, INF])
        q = draw(rng, lead + (8, 7), [-1.5, 0.5, INF])
        same_bits(_min_plus(p, q), reference_min_plus(p, q))
        same_bits(_min_plus(np.full(lead + (2, 8), INF), q), np.full(lead + (2, 7), INF))

    @pytest.mark.parametrize("seed", range(40))
    def test_signed_zeros_equal(self, lead, seed):
        # ±0 ties: the same values, a zero's sign may differ
        rng = np.random.default_rng(500 + seed)
        r, k, j = rng.integers(1, 7, size=3)
        values = [0.0, -0.0, 1.0, -1.0, INF]
        p, q = draw(rng, lead + (r, k), values), draw(rng, lead + (k, j), values)
        got, want = _min_plus(p, q), reference_min_plus(p, q)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


class TestBlocks:
    """Products past one block of 2^15 floats, each with a ragged last block."""

    def test_rows_of_one_matrix(self):
        # k * j = 4096 floats a row, 8 rows a block: 10 full blocks and 3 rows
        rng = np.random.default_rng(1)
        p, q = draw(rng, (83, 64)), draw(rng, (64, 64))
        same_bits(_min_plus(p, q), reference_min_plus(p, q))

    def test_rows_of_stacked_cells(self):
        rng = np.random.default_rng(2)
        p, q = draw(rng, (3, 83, 64)), draw(rng, (3, 64, 64))
        same_bits(_min_plus(p, q), reference_min_plus(p, q))

    def test_whole_cells(self):
        # 16 * 13 * 12 floats a cell, 13 cells a block: 2 full blocks and 4 cells
        rng = np.random.default_rng(3)
        p, q = draw(rng, (30, 16, 13)), draw(rng, (30, 13, 12))
        same_bits(_min_plus(p, q), reference_min_plus(p, q))

    def test_cells_on_two_axes(self):
        rng = np.random.default_rng(4)
        p, q = draw(rng, (5, 7, 16, 13)), draw(rng, (5, 7, 13, 12))
        same_bits(_min_plus(p, q), reference_min_plus(p, q))

    def test_one_row_past_the_budget(self):
        # k * j = 40000 floats: a block is one row
        rng = np.random.default_rng(5)
        p, q = draw(rng, (3, 200)), draw(rng, (200, 200))
        same_bits(_min_plus(p, q), reference_min_plus(p, q))

    def test_infinite_entries(self):
        rng = np.random.default_rng(6)
        p = draw(rng, (2, 41, 64), [-2.5, 1.0, 3.25, INF, -INF])
        q = draw(rng, (2, 64, 64), [-1.5, 0.5, 2.0])
        same_bits(_min_plus(p, q), reference_min_plus(p, q))
        p = draw(rng, (2, 41, 64), [-2.5, 1.0, INF])
        q = draw(rng, (2, 64, 64), [-1.5, 0.5, INF])
        same_bits(_min_plus(p, q), reference_min_plus(p, q))


def test_peak_no_higher_than_reference():
    rng = np.random.default_rng(7)
    p, q = draw(rng, (160, 128)), draw(rng, (128, 128))
    assert _traced_peak(lambda: _min_plus(p, q)) <= _traced_peak(lambda: reference_min_plus(p, q))


def gather_coherence_min(m, n):
    """The coherence step as an index gather of the mirrored transpose."""
    perm = _mirror(n)
    return np.minimum(m, m[..., perm[:, None], perm].swapaxes(-2, -1))


@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("seed", range(10))
def test_coherence_min_equals_gather(lead, seed):
    rng = np.random.default_rng(900 + seed)
    n = int(rng.integers(1, 7))
    m = draw(rng, lead + (2 * n, 2 * n), [0.0, -0.0, 1.0, -1.0, 2.5, INF])
    same_bits(_coherence_min(m, n), gather_coherence_min(m, n))
    t = m.swapaxes(-2, -1)  # a strided operand
    same_bits(_coherence_min(t, n), gather_coherence_min(t, n))


@pytest.mark.parametrize("cuts", [None, 2])
def test_oct_meet_reorder_equals_gather(monkeypatch, cuts):
    # the matrix strengthening receives is the meet, gathered by ``back``
    calls = []
    oct_meet, meet, strengthen = network._oct_meet, network._meet, network._strengthen

    def record_oct_meet(a, c, b, back, n, eps):
        calls.append({"back": back})
        return oct_meet(a, c, b, back, n, eps)

    def record_meet(a, c, b):
        calls[-1]["meet"] = meet(a, c, b)
        return calls[-1]["meet"].copy()

    def record_strengthen(m, n, eps):
        calls[-1]["ordered"] = m.copy()
        return strengthen(m, n, eps)

    monkeypatch.setattr(network, "_oct_meet", record_oct_meet)
    monkeypatch.setattr(network, "_meet", record_meet)
    monkeypatch.setattr(network, "_strengthen", record_strengthen)
    rng = np.random.default_rng(8)
    net = Network(
        (rng.uniform(-1, 1, (4, 3)), rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, (2, 3))),
        (rng.uniform(-0.5, 0.5, 4), rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.5, 0.5, 2)),
    )
    box = Box(-np.ones(3), np.ones(3))
    grid = None if cuts is None else SubdivisionGrid(tuple(np.linspace(-1, 1, cuts + 1) for _ in range(3)))
    analyze(net, box, AnalysisOptions(domain=AbsDomain.OCTAGON, subdiv=grid))
    assert len(calls) == 3
    for call in calls:
        back = call["back"]
        assert call["meet"].ndim == (2 if cuts is None else 3)  # a grid runs as one stack
        same_bits(call["ordered"], call["meet"][..., back[:, None], back])
