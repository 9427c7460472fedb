"""One-pass strong closure of octagons against the earlier fixed-point loop.

``_oct_close_64`` is the closure the octagon chain used before: rounds of
Floyd-Warshall, half-sum strengthening and coherence until nothing changed,
at most 64 of them.  The one-pass ``oct_close`` must give the same matrices
within 1e-9 (1 + |v|), on seeded random coherent octagons, on matrices
already closed over some of their slots, and on the matrices a small deep
octagon chain builds strongly closed.  ``_pair_block_loop`` is the scalar
pair loop ``network._oct_relu_append`` used before it became one
block update; the two must agree exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from troprelu import network
from troprelu.dbm import (
    EMPTY,
    INF,
    Box,
    OctDbm,
    _coherence_min,
    _floyd_warshall,
    oct_close,
)
from troprelu.network import AbsDomain, AnalysisOptions, Network, analyze

from reference import embed_oct


def _oct_close_64(o: OctDbm, eps: float = 1e-9):
    n = o.dim
    m = o.entries.copy()
    np.fill_diagonal(m, np.minimum(np.diagonal(m), 0.0))
    m = _coherence_min(m, n)
    for _ in range(64):
        prev = m.copy()
        _floyd_warshall(m)
        if (np.diagonal(m) < -eps).any():
            return EMPTY
        perm = np.concatenate([np.arange(n, 2 * n), np.arange(0, n)])
        half = (m[np.arange(2 * n), perm][:, None] + m[perm, np.arange(2 * n)][None, :]) / 2.0
        np.minimum(m, half, out=m)
        m = _coherence_min(m, n)
        if (np.diagonal(m) < -eps).any():
            return EMPTY
        np.fill_diagonal(m, np.minimum(np.diagonal(m), 0.0))
        if np.array_equal(prev, m):
            break
    np.fill_diagonal(m, 0.0)
    return OctDbm(m, closed=True)


def _pair_block_loop(o: OctDbm, h_vars: list) -> np.ndarray:
    """The matrix the earlier ``_oct_relu_append`` closed, pair loop included."""
    n = o.dim
    r = len(h_vars)
    m = n + r
    e = embed_oct(o, list(range(n)), m).entries.copy()
    old = o.entries

    def mirror_cols(size):
        return np.concatenate([np.arange(size, 2 * size), np.arange(0, size)])

    mir_old = mirror_cols(n)
    ub_old = old[np.arange(2 * n), mir_old] / 2.0
    src = np.concatenate([np.arange(0, n), np.arange(m, m + n)])
    for i, hv in enumerate(h_vars):
        gp, gm = n + i, m + n + i
        hp, hm = hv, hv + n
        h_hi = ub_old[hp]
        h_lo = -ub_old[hm]
        e[gp, gm] = 2.0 * max(0.0, h_hi)
        e[gm, gp] = -2.0 * max(0.0, h_lo)
        e[gp, src] = np.minimum(e[gp, src], np.maximum(ub_old[mir_old], old[hp, :]))
        e[src, gp] = np.minimum(e[src, gp], np.minimum(ub_old, old[:, hp]))
        e[gm, src] = np.minimum(e[gm, src], np.minimum(ub_old[mir_old], old[hm, :]))
        e[src, gm] = np.minimum(e[src, gm], np.maximum(ub_old, old[:, hm]))
    for i in range(r):
        gp_i, gm_i = n + i, m + n + i
        for row, row_sup in ((gp_i, e[gp_i, gm_i] / 2.0), (gm_i, e[gm_i, gp_i] / 2.0)):
            for j in range(r):
                if i == j:
                    continue
                hp_j, hm_j = h_vars[j], h_vars[j] + m
                gp_j, gm_j = n + j, m + n + j
                e[row, gp_j] = min(e[row, gp_j], row_sup, e[row, hp_j])
                e[row, gm_j] = min(e[row, gm_j], max(row_sup, e[row, hm_j]))
    np.fill_diagonal(e, 0.0)
    return e


def _mirror(n):
    return np.concatenate([np.arange(n, 2 * n), np.arange(0, n)])


def random_octagon(rng, n: int, drop: float = 0.3, integer: bool = False) -> np.ndarray:
    """Coherent, feasible, unclosed doubled matrix: the exact octagon of a
    few random points, loosened by random amounts and with some entries
    dropped to +inf.  Integer points and loosenings make ties common."""
    size = (int(rng.integers(1, 6)), n)
    pts = rng.integers(-2, 3, size=size).astype(float) if integer else rng.uniform(-2, 2, size)
    v = np.hstack([pts, -pts])
    m = (v[:, :, None] - v[:, None, :]).max(axis=0)
    m = m + (rng.integers(0, 2, size=m.shape) if integer else rng.exponential(1.0, size=m.shape))
    m[rng.random(m.shape) < drop] = INF
    perm = _mirror(n)
    m = np.minimum(m, m[np.ix_(perm, perm)].T)
    np.fill_diagonal(m, 0.0)
    return m


def assert_close(got: OctDbm, want: OctDbm):
    a, b = got.entries, want.entries
    assert np.array_equal(np.isinf(a), np.isinf(b))
    fin = np.isfinite(b)
    assert (np.abs(a[fin] - b[fin]) <= 1e-9 * (1.0 + np.abs(b[fin]))).all()


def assert_strongly_closed(o: OctDbm, tol: float = 1e-9):
    m = o.entries
    n = o.dim
    perm = _mirror(n)
    scale = 1.0 + np.abs(np.where(np.isfinite(m), m, 0.0)).max()
    assert (np.diagonal(m) == 0.0).all()
    assert np.array_equal(m, m[np.ix_(perm, perm)].T)
    for k in range(2 * n):
        assert (m <= m[:, k, None] + m[None, k, :] + tol * scale).all()
    unary = m[np.arange(2 * n), perm]
    assert (m <= (unary[:, None] + unary[perm][None, :]) / 2.0 + tol * scale).all()


SEEDS = range(40)


class TestOnePass:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_fixed_point_loop(self, seed):
        rng = np.random.default_rng(seed)
        m = random_octagon(rng, int(rng.integers(1, 9)))
        got = oct_close(OctDbm(m))
        want = _oct_close_64(OctDbm(m))
        assert isinstance(got, OctDbm) and isinstance(want, OctDbm)
        assert_close(got, want)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_result_is_strongly_closed(self, seed):
        rng = np.random.default_rng(seed)
        m = random_octagon(rng, int(rng.integers(1, 9)), drop=0.0)
        assert_strongly_closed(oct_close(OctDbm(m)))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_changed_pivots_equal_full_closure(self, seed):
        # a matrix whose unchanged slots are already satisfied pivots (the
        # shortest-path closure over those slots of a random octagon)
        # closes to the same octagon as the random one
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        m = random_octagon(rng, n)
        changed = sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
        kept = [v for v in range(n) if v not in changed]
        partial = m.copy()
        for k in [*kept, *[v + n for v in kept]]:
            np.minimum(partial, partial[:, k, None] + partial[None, k, :], out=partial)
        got = oct_close(OctDbm(partial))
        assert isinstance(got, OctDbm)
        assert_close(got, oct_close(OctDbm(m)))

    def test_infeasible_unary_bounds_are_empty(self):
        # x <= 0 and x >= 1
        m = np.array([[0.0, 0.0], [-2.0, 0.0]])
        assert oct_close(OctDbm(m)) is EMPTY
        assert _oct_close_64(OctDbm(m)) is EMPTY

    def test_infeasible_sum_cycle_is_empty(self):
        # x - y <= -1, x + y <= 0, y in [0, 1], x >= 0
        m = np.full((4, 4), INF)
        np.fill_diagonal(m, 0.0)
        m[0, 1] = m[3, 2] = -1.0
        m[0, 3] = m[1, 2] = 0.0
        m[1, 3], m[3, 1] = 2.0, 0.0
        m[2, 0] = 0.0
        assert oct_close(OctDbm(m)) is EMPTY

    @pytest.mark.parametrize("seed", range(10))
    def test_infeasible_changed_variable_is_empty(self, seed):
        # a closed octagon whose variable 0 gets an upper bound below its
        # lower bound
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        closed = oct_close(OctDbm(random_octagon(rng, n, drop=0.0))).entries
        lo0 = -closed[n, 0] / 2.0
        closed[0, n] = 2.0 * (lo0 - 1.0)
        assert oct_close(OctDbm(closed)) is EMPTY

    def test_bounds_crossed_within_eps_are_widened(self):
        # x <= 0.3 and x >= 0.3 + 1e-15: a point whose bounds crossed by
        # rounding; the closed matrix holds the interval between them
        e = np.array([[0.0, 0.6], [-(0.6 + 2e-15), 0.0]])
        out = oct_close(OctDbm(e))
        assert isinstance(out, OctDbm)
        assert out.entries[0, 1] + out.entries[1, 0] >= 0.0
        box = out.box()
        assert box.lo[0] <= 0.3 and box.hi[0] >= 0.3 + 1e-15


def _deep_net(rng, sizes=(4, 8, 8, 8, 2)):
    weights = [rng.standard_normal((b, a)) / np.sqrt(a) for a, b in zip(sizes, sizes[1:])]
    biases = [0.3 * rng.standard_normal(b) for b in sizes[1:]]
    return Network(tuple(weights), tuple(biases), final_relu=False)


@pytest.fixture
def relu_images(monkeypatch):
    """Every octagon ``_oct_relu_append`` returns in the chain."""
    images = []
    relu_append = network._oct_relu_append

    def spy(*args, **kwargs):
        images.append(relu_append(*args, **kwargs))
        return images[-1]

    monkeypatch.setattr(network, "_oct_relu_append", spy)
    return images


@pytest.fixture
def coherence_calls(monkeypatch):
    """Every matrix the octagon ReLU transfer hands to its coherence step."""
    calls = []

    def spy(m, n):
        calls.append(m.copy())
        return _coherence_min(m, n)

    monkeypatch.setattr(network, "_coherence_min", spy)
    return calls


class TestDeepChain:
    @pytest.mark.parametrize("seed", range(4))
    def test_chain_matrices(self, seed, relu_images):
        rng = np.random.default_rng(seed)
        net = _deep_net(rng)
        box = Box(-np.ones(4), np.ones(4))
        analyze(net, box, AnalysisOptions(domain=AbsDomain.OCTAGON))
        assert len(relu_images) == net.n_layers - 1
        for image in relu_images:
            # the ReLU image is returned unclosed: it must be strongly closed already
            assert_strongly_closed(image)
            full = oct_close(OctDbm(image.entries))
            assert isinstance(full, OctDbm)
            assert_close(image, full)
            assert_close(full, _oct_close_64(OctDbm(image.entries)))
        # the input box's octagon is returned as built: it must be strongly closed already
        start = network._oct_from_box(box)
        assert_strongly_closed(start)
        full = oct_close(OctDbm(start.entries))
        assert isinstance(full, OctDbm)
        assert (np.abs(start.entries - full.entries) <= 1e-12 * (1.0 + np.abs(full.entries))).all()

    @pytest.mark.parametrize("integer", [False, True])
    @pytest.mark.parametrize("seed", range(8))
    def test_pair_block_equals_pair_loop(self, seed, integer, coherence_calls):
        # integer octagons tie 0.0 with -0.0, where min and max must keep
        # the scalar loop's choice of sign
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        r = int(rng.integers(2, 6))
        base = oct_close(OctDbm(random_octagon(rng, n + r, drop=0.0, integer=integer)))
        # r of the variables, in shuffled order, stand for pre-activations
        h_vars = rng.permutation(n + r)[:r].tolist()
        out = network._oct_relu_append(base, h_vars).entries
        (got,) = coherence_calls
        want = _pair_block_loop(base, h_vars)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        want = _coherence_min(want, n + 2 * r)
        assert np.array_equal(out, want)
        assert np.array_equal(np.signbit(out), np.signbit(want))
