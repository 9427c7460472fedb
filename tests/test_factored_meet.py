"""The closed-form meet of a carried zone that factors through slot 0.

``dbm._interface_close`` skips its dense min-plus products when the carried
matrix a satisfies a[i, j] == a[i, 0] + a[0, j] on every off-diagonal entry
(a box, a single point): two thin products through slot 0 give the whole
meet.  Every such meet must agree with one Floyd-Warshall closure of the
embedded meet within 1e-12 (1 + |v|), on random, integer-valued, point and
1e-12-wide boxes and single-point zones, alone and stacked.  A stack that
mixes factoring and non-factoring matrices must give each matrix the floats
it gets alone, and the first layer of a zone net, and every layer in box
and external mode, must run no dense product.
"""

from __future__ import annotations

import numpy as np
import pytest

from troprelu import dbm, network
from troprelu.dbm import (
    EMPTY,
    INF,
    Box,
    Dbm,
    _factors_through_slot0,
    _interface_close,
    dbm_box,
    dbm_close,
)
from troprelu.layers import AffineLayer, zone_constants, zone_dbm

from test_interface_closure import EPS, KINDS, assert_agree, draw_layer, draw_zone, pick_cur
from reference import best_zone_of_points

FACTOR_KINDS = KINDS + ("single",)


def reference_close(a, c, b, eps=EPS):
    """One full closure of a met with b embedded on (C, Y); None if empty."""
    p, k = a.shape[-1], len(c)
    size = p + b.shape[-1] - k
    m = np.full((size, size), INF)
    m[:p, :p] = a
    idx = np.concatenate([c, np.arange(p, size)]).astype(int)
    m[np.ix_(idx, idx)] = np.minimum(m[np.ix_(idx, idx)], b)
    closed = dbm_close(Dbm(m), eps=eps)
    return None if closed is EMPTY else closed.entries


def draw_box(rng, kind, n, cells=None):
    """A box (or a stack of ``cells`` boxes) of the given kind."""
    shape = (n,) if cells is None else (cells, n)
    if kind == "integer":
        lo = rng.integers(-2, 2, size=shape).astype(float)
        return Box(lo, lo + rng.integers(0, 3, size=shape))
    centre = rng.uniform(-2, 2, size=shape)
    if kind == "point":
        return Box(centre, centre)
    if kind == "thin":
        return Box(centre, centre + rng.uniform(0, 1e-12, size=shape))
    return Box(centre - rng.uniform(0, 1, size=shape), centre + rng.uniform(0, 1, size=shape))


def draw_factoring(rng, kind, n):
    """A carried matrix that factors: a box, or the zone of one point."""
    if kind == "single":
        return best_zone_of_points(rng.uniform(-2, 2, size=(1, n)))
    return draw_box(rng, kind, n).to_dbm()


def layer_matrix(zone_entries, cur, layer_of):
    """The interface positions and the layer zone of a layer drawn over the
    box of the current slots of ``zone_entries`` (a matrix or a stack)."""
    c = np.asarray([0, *[i + 1 for i in cur]], dtype=int)
    box = dbm_box(Dbm(zone_entries, closed=True).slice([i + 1 for i in cur]))
    layer = layer_of(box)
    return c, zone_dbm(zone_constants(layer), layer).entries


class TestFactoringCheck:
    def test_boxes_and_single_points_factor(self):
        rng = np.random.default_rng(1)
        for kind in FACTOR_KINDS:
            a = draw_factoring(rng, kind, 4).entries
            assert _factors_through_slot0(a, np.array([0, 2]))

    def test_needs_slot0_in_the_interface(self):
        a = Box([-1.0, 0.0], [1.0, 2.0]).to_dbm().entries
        assert not _factors_through_slot0(a, np.array([1, 2]))
        assert not _factors_through_slot0(a, np.zeros(0, dtype=int))

    def test_a_relation_between_variables_does_not_factor(self):
        zone = best_zone_of_points(np.array([[0.0, 0.0], [1.0, 1.0]]))  # x1 == x2
        assert not _factors_through_slot0(zone.entries, np.array([0, 1]))

    def test_unbounded_variables_factor_with_inf_entries(self):
        a = Box([-1.0, 0.0, 1.0], [1.0, 2.0, 3.0]).to_dbm().entries
        a[3, :3] = INF  # x3 unbounded above
        c = np.array([0, 1])
        assert _factors_through_slot0(a, c)
        layer = AffineLayer(np.array([[1.0], [-2.0]]), np.array([0.5, -0.25]), Box([-1.0], [1.0]))
        b = zone_dbm(zone_constants(layer), layer).entries
        assert_agree(_interface_close(a, c, b, EPS), reference_close(a, c, b))

    def test_stack_decides_per_matrix(self):
        boxes = Box(np.zeros((3, 2)), np.ones((3, 2))).to_dbm().entries
        boxes[1, 1, 2] -= 0.5  # x1 - x2 <= 0.5 in the middle cell only
        assert _factors_through_slot0(boxes, np.array([0, 1])).tolist() == [True, False, True]


class TestAgainstFullClosure:
    @pytest.mark.parametrize("block", range(10))
    def test_layer_step(self, block):
        rng = np.random.default_rng(3000 + block)
        for _ in range(20):
            kind = FACTOR_KINDS[int(rng.integers(len(FACTOR_KINDS)))]
            n_old = int(rng.integers(1, 7))
            a = draw_factoring(rng, kind, n_old).entries
            cur = pick_cur(rng, n_old)
            c, b = layer_matrix(a, cur, lambda box: draw_layer(rng, kind, box))
            assert _factors_through_slot0(a, c)
            got = _interface_close(a, c, b, EPS)
            want = reference_close(a, c, b)
            assert_agree(got, want)
            assert_agree(dbm_close(Dbm(got)).entries, got)

    @pytest.mark.parametrize("kind", FACTOR_KINDS)
    def test_stack(self, kind):
        rng = np.random.default_rng(sum(map(ord, kind)))
        cells, n_old = 5, 4
        if kind == "single":
            a = np.stack([draw_factoring(rng, kind, n_old).entries for _ in range(cells)])
        else:
            a = draw_box(rng, kind, n_old, cells).to_dbm().entries
        cur = [0, 2, 3]
        w = rng.uniform(-1.5, 1.5, size=(3, len(cur)))
        c, b = layer_matrix(a, cur, lambda box: AffineLayer(w, np.zeros(3), box))
        assert _factors_through_slot0(a, c).all()
        got = _interface_close(a, c, b, EPS)
        for i in range(cells):
            assert_agree(got[i], reference_close(a[i], c, b[i]))

    def test_empty_meet_is_none(self):
        # x = 0 carried; the layer zone says y = x and x >= 1e-6: the cycle
        # through y weighs -1e-6 < -eps
        a = Box([0.0], [0.0]).to_dbm().entries
        gap = 1e-6
        b = np.array([[0.0, -gap, -gap], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        assert _factors_through_slot0(a, np.array([0, 1]))
        assert _interface_close(a, np.array([0, 1]), b, EPS) is None
        assert reference_close(a, np.array([0, 1]), b) is None


def mixed_stack(rng, cells, n_old):
    """Carried zones over n_old variables, every other one a box."""
    zones = []
    for i in range(cells):
        if i % 2 == 0:
            zones.append(draw_box(rng, "uniform", n_old).to_dbm().entries)
        else:
            zones.append(draw_zone(rng, "uniform", n_old).entries)
    return np.stack(zones)


class TestMixedStack:
    @pytest.mark.parametrize("seed", range(5))
    def test_each_cell_as_alone(self, seed):
        rng = np.random.default_rng(seed)
        cells, n_old = 6, 4
        a = mixed_stack(rng, cells, n_old)
        cur = [1, 3]
        w = rng.uniform(-1.5, 1.5, size=(3, len(cur)))
        c, b = layer_matrix(a, cur, lambda box: AffineLayer(w, rng.uniform(-0.5, 0.5, 3), box))
        factors = _factors_through_slot0(a, c)
        assert factors.any() and not factors.all()
        got = _interface_close(a, c, b, EPS)
        for i in range(cells):
            alone = _interface_close(a[i], c, b[i], EPS)
            assert np.array_equal(got[i], alone)
            assert np.array_equal(np.signbit(got[i]), np.signbit(alone))
            assert_agree(alone, reference_close(a[i], c, b[i]))


class TestEmptyInterface:
    @pytest.mark.parametrize("stacked", [False, True])
    def test_blocks_stay_apart(self, stacked):
        a = Box([-1.0, 0.0], [1.0, 2.0]).to_dbm().entries
        b = Box([3.0], [4.0]).to_dbm().entries[1:, 1:]  # one variable, no shared slot
        c = np.zeros(0, dtype=int)
        if stacked:
            a, b = np.stack([a, a]), np.stack([b, b])
        got = _interface_close(a, c, b, EPS)
        assert got.shape[-2:] == (4, 4)
        assert np.array_equal(got[..., :3, :3], a)
        assert (got[..., :3, 3] == INF).all() and (got[..., 3, :3] == INF).all()
        assert (got[..., 3, 3] == 0.0).all()


def zone_net(rng, n=48):
    return network.Network(
        (rng.uniform(-1, 1, (n, n)), rng.uniform(-1, 1, (1, n))),
        (rng.uniform(-0.5, 0.5, n), rng.uniform(-0.5, 0.5, 1)),
        final_relu=False,
    )


class TestNoDenseProduct:
    """A spy on ``dbm._min_plus`` records each product as (rows, inner,
    columns), one list per meet.  A dense meet runs three products, one of
    them over every carried row; a factored one runs a one-row product
    a[0, C] ⊗ b[C, Y] and a one-column product b[Y, C] ⊗ a[C, 0]."""

    @pytest.fixture
    def products(self, monkeypatch):
        meets = []
        min_plus, interface = dbm._min_plus, network._interface_close

        def spy_min_plus(p, q):
            meets[-1].append((p.shape[-2], p.shape[-1], q.shape[-1]))
            return min_plus(p, q)

        def spy_interface(a, c, b, eps):
            meets.append([])
            return interface(a, c, b, eps)

        monkeypatch.setattr(dbm, "_min_plus", spy_min_plus)
        monkeypatch.setattr(network, "_interface_close", spy_interface)
        return meets

    def test_first_layer_of_a_zone_net(self, products):
        net = zone_net(np.random.default_rng(0))
        network.analyze(net, Box(-np.ones(48), np.ones(48)))
        assert products[0] == [(1, 49, 48), (48, 49, 1)]
        # the carried zone then relates the layer's values: dense products
        assert products[1] == [(97, 49, 1), (1, 49, 97), (1, 49, 1)]

    @pytest.mark.parametrize("mode", [network.ChainMode.BOX, network.ChainMode.EXTERNAL])
    def test_box_and_external_modes(self, products, mode):
        net = zone_net(np.random.default_rng(1))
        network.analyze(net, Box(-np.ones(48), np.ones(48)), network.AnalysisOptions(mode=mode))
        assert products == [[(1, 49, 48), (48, 49, 1)], [(1, 49, 1), (1, 49, 1)]]
