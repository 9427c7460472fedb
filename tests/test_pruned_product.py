"""The dense meet's h x h block, its product pruned by a bound, against the
whole product.

``dbm._dense_meet`` bounds pre-activation against pre-activation by
min(d, u ⊗ v), d = b[Y, Y], u = b[Y, C] and v = E[C, Y].  No term
u[i, c] + v[c, j] rounds below lb[i, j] = min_c u[i, c] + min_c v[c, j],
so ``dbm._min_with_product`` keeps d wherever d < lb and takes the product
only on the other entries, stacked in one ``_min_plus`` call.
``reference.reference_min_with_product`` takes the whole product; the two
must agree bit for bit, signs of zeros included: on random matrices with
and without cell axes, on ties of +0.0 and -0.0 where d equals the bound,
with +inf entries, an empty interface, one-row and one-column shapes, on
matrices where the product lowers d, and on zone meets of grid cells that
the product lowers.  On octagon nets as wide as the ``deep`` benchmark's
the bound leaves few entries open: the saving is pinned below 10% of them.
"""

from __future__ import annotations

import numpy as np
import pytest

from troprelu import dbm
from troprelu.dbm import INF, Box, _MIN_PLUS_FLOATS, _min_with_product
from troprelu.network import AbsDomain, AnalysisOptions, Network, analyze
from troprelu.subdivision import SubdivisionGrid

from reference import reference_min_with_product

LEADS = [(), (3,), (2, 3)]
ZEROS = [0.0, -0.0, 1.0, 2.0]  # a min over these ties +0.0 with -0.0 often


def same_bits(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.fixture
def stacked(monkeypatch):
    """The size of each stack of one-entry products ``_min_with_product``
    hands to ``_min_plus``."""
    sizes = []
    min_plus = dbm._min_plus

    def spy(p, q):
        sizes.append(p.shape[0])
        return min_plus(p, q)

    monkeypatch.setattr(dbm, "_min_plus", spy)
    return sizes


def check(d, u, v):
    same_bits(_min_with_product(d, u, v), reference_min_with_product(d, u, v))


def bound(u, v):
    return u.min(axis=-1, initial=INF)[..., :, None] + v.min(axis=-2, initial=INF)[..., None, :]


@pytest.mark.parametrize("lead", LEADS)
class TestAgainstWholeProduct:
    @pytest.mark.parametrize("seed", range(6))
    def test_random(self, lead, seed):
        rng = np.random.default_rng(700 + seed)
        for _ in range(20):
            r, k, j = rng.integers(1, 12, size=3)
            u, v = rng.normal(size=lead + (r, k)), rng.normal(size=lead + (k, j))
            d = rng.normal(size=lead + (r, j)) + rng.choice([-3.0, 0.0, 3.0], size=lead + (r, j))
            check(d, u, v)

    @pytest.mark.parametrize("seed", range(4))
    def test_zero_ties_at_the_bound(self, lead, seed):
        # with k >= 9 a one-entry reduction by numpy's unrolled loop would
        # give some of these ties another sign than the reduction in order
        rng = np.random.default_rng(800 + seed)
        ties = 0
        for _ in range(20):
            r, j = rng.integers(1, 6, size=2)
            k = int(rng.integers(1, 20))
            u = rng.choice(ZEROS, size=lead + (r, k))
            v = rng.choice(ZEROS, size=lead + (k, j))
            d = rng.choice([0.0, -0.0, 1.0, -1.0], size=lead + (r, j))
            ties += int(((d == 0.0) & (bound(u, v) == 0.0)).sum())
            check(d, u, v)
        assert ties >= 20

    def test_infinite_entries(self, lead):
        rng = np.random.default_rng(900)
        for _ in range(20):
            r, k, j = rng.integers(1, 8, size=3)
            u = np.where(rng.random(lead + (r, k)) < 0.4, INF, rng.normal(size=lead + (r, k)))
            v = np.where(rng.random(lead + (k, j)) < 0.4, INF, rng.normal(size=lead + (k, j)))
            d = np.where(rng.random(lead + (r, j)) < 0.4, INF, rng.normal(size=lead + (r, j)))
            u[..., 0, :] = INF  # a row bounded by nothing
            check(d, u, v)

    def test_empty_interface(self, lead):
        d = np.array([[0.0, INF], [-0.0, 2.0]])
        d = np.broadcast_to(d, lead + d.shape).copy()
        check(d, np.zeros(lead + (2, 0)), np.zeros(lead + (0, 2)))
        assert _min_with_product(d, np.zeros(lead + (2, 0)), np.zeros(lead + (0, 2))).tobytes() == d.tobytes()

    @pytest.mark.parametrize("r, j", [(1, 5), (5, 1), (1, 1)])
    def test_one_row_or_one_column(self, lead, r, j):
        rng = np.random.default_rng(1000 + 10 * r + j)
        for _ in range(20):
            k = int(rng.integers(1, 14))
            u, v = rng.choice(ZEROS, size=lead + (r, k)), rng.choice(ZEROS, size=lead + (k, j))
            check(rng.choice([0.0, -0.0, 1.0], size=lead + (r, j)), u, v)

    def test_entries_the_product_lowers_are_taken(self, lead, stacked):
        # d above the product on a few entries, far below the bound elsewhere
        rng = np.random.default_rng(1100)
        u, v = rng.normal(size=lead + (7, 9)), rng.normal(size=lead + (9, 6))
        whole = reference_min_with_product(np.full(lead + (7, 6), INF), u, v)
        d = bound(u, v) - 1.0
        lowered = rng.random(d.shape) < 0.2
        lowered.reshape(-1)[0] = True
        d[lowered] = whole[lowered] + 0.5
        got = _min_with_product(d, u, v)
        same_bits(got, reference_min_with_product(d, u, v))
        assert np.array_equal(got < d, lowered)
        assert stacked == [int(lowered.sum())]  # those entries, and no other


class TestOneEntryBlocks:
    """A block of the stack that would hold one entry gets it twice, so
    every entry is reduced over k in order, as in the whole product."""

    def test_one_open_entry(self, stacked):
        rng = np.random.default_rng(1200)
        for _ in range(40):
            k = int(rng.integers(9, 40))
            u, v = rng.choice(ZEROS, size=(4, k)), rng.choice(ZEROS, size=(k, 3))
            d = bound(u, v) - 1.0
            d[2, 1] = rng.choice([0.0, -0.0])
            stacked.clear()
            check(d, u, v)
            if d[2, 1] >= bound(u, v)[2, 1]:
                assert stacked == [2]

    def test_last_block_of_one(self, stacked):
        # 2^13 terms per entry: four entries per block of _min_plus, so
        # five open entries leave one in the last block
        k = _MIN_PLUS_FLOATS // 4
        assert _MIN_PLUS_FLOATS // k == 4
        rng = np.random.default_rng(1300)
        for _ in range(3):
            u, v = rng.choice(ZEROS, size=(3, k)), rng.choice(ZEROS, size=(k, 3))
            u[:, 0] = v[0, :] = 0.0
            d = np.full((3, 3), -1.0)
            d.reshape(-1)[rng.permutation(9)[:5]] = rng.choice([0.0, -0.0], size=5)
            stacked.clear()
            check(d, u, v)
            assert stacked == [6]


class TestZoneMeetsOfCells:
    @pytest.mark.parametrize("seed, grid", [(11, [2, 2, 2]), (29, [2, 2, 2]), (28, [3, 1, 2])])
    def test_lowered_by_the_product(self, monkeypatch, seed, grid):
        # seeded 3->12->12->2 zone nets on cells of [-1, 1]^3, the shape of
        # the subdiv benchmark: the product lowers some h x h entries there
        blocks = []
        pruned = dbm._min_with_product

        def spy(d, u, v):
            got = pruned(d, u, v)
            blocks.append((got, reference_min_with_product(d, u, v), int((got < d).sum())))
            return got

        monkeypatch.setattr(dbm, "_min_with_product", spy)
        rng = np.random.default_rng(seed)
        sizes = (3, 12, 12, 2)
        weights = tuple(rng.uniform(-1, 1, (b, a)) * np.sqrt(6.0 / a) for a, b in zip(sizes, sizes[1:]))
        biases = tuple(rng.uniform(-0.5, 0.5, b) for b in sizes[1:])
        box = Box(-np.ones(3), np.ones(3))
        analyze(Network(weights, biases, final_relu=False), box, AnalysisOptions(subdiv=SubdivisionGrid.uniform(box, grid)))
        assert len(blocks) == 2
        for got, want, _ in blocks:
            same_bits(got, want)
        assert sum(lowered for *_, lowered in blocks) > 0


def test_deep_octagon_nets_take_few_entries(monkeypatch):
    # three seeded 8->32x6->2 nets (the deep benchmark's shape and weights)
    # in the octagon domain: the products take under 10% of the h x h
    # entries (about 4% when measured), and keep the bits
    taken, entries = [], []
    pruned, min_plus = dbm._min_with_product, dbm._min_plus

    def spy_block(d, u, v):
        entries.append(d.size)
        got = pruned(d, u, v)
        same_bits(got, reference_min_with_product(d, u, v))
        return got

    def spy_min_plus(p, q):
        if p.ndim == 3 and p.shape[1] == 1 and q.shape[2] == 1:  # a stack of one-entry products
            taken.append(p.shape[0])
        return min_plus(p, q)

    monkeypatch.setattr(dbm, "_min_with_product", spy_block)
    monkeypatch.setattr(dbm, "_min_plus", spy_min_plus)
    rng = np.random.default_rng(3200)
    sizes = (8, 32, 32, 32, 32, 32, 32, 2)
    for _ in range(3):
        weights = tuple(rng.uniform(-1, 1, (b, a)) * np.sqrt(6.0 / a) for a, b in zip(sizes, sizes[1:]))
        biases = tuple(rng.uniform(-0.5, 0.5, b) for b in sizes[1:])
        analyze(Network(weights, biases), Box(-np.ones(8), np.ones(8)), AnalysisOptions(domain=AbsDomain.OCTAGON))
    assert len(taken) == len(entries) == 3 * (len(sizes) - 1)
    assert sum(taken) < 0.10 * sum(entries), (sum(taken), sum(entries))
