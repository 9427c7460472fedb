"""The octagon meet mirrored from coherence, against its three products.

An octagon is coherent, m[p, q] == m[q̄, p̄] with p̄ the mirror of slot p,
and so are the layer octagons the chain meets it with.  ``dbm._dense_meet``
then takes E[Y, X∪C] as the mirror of E[X∪C, Y] and skips the product
b[Y, C] ⊗ a[C, :].  ``three_products`` here is the meet as it was before,
every dense block its own product; the two must agree bit for bit, signs of
zeros included, on carried octagons from ``oct_close`` (random, integer,
point and 1e-12-wide ones) met with ``layers._oct_entries`` in the
interface order, alone, stacked and in a stack that mixes matrices that
factor through slot 0 with ones that do not.  A matrix that is off
coherence by one ulp, and a zone meet past the shape test, must take the
three products.  The second half checks that the chain's operands are
coherent as built, so that no octagon meet of a net takes the fallback.
"""

from __future__ import annotations

import numpy as np
import pytest

from troprelu import dbm, network
from troprelu.dbm import (
    Box,
    OctDbm,
    _coherent_meet,
    _factored_meet,
    _factors_through_slot0,
    _interface_close,
    _meet_block,
    _min_plus,
    _mirror,
    _mirrors,
    oct_close,
)
from troprelu.errors import EmptyAbstraction
from troprelu.layers import AffineLayer, _oct_entries, oct_constants, zone_constants, zone_dbm
from troprelu.network import AbsDomain, AnalysisOptions, Network, analyze

from test_factored_meet import draw_box
from test_interface_closure import EPS, KINDS, draw_layer, draw_zone, pick_cur
from test_oct_closure import random_octagon
from test_stacked_cells import same_bits


def three_products(a, c, b):
    """The dense meet before its diagonal check, each block its product."""
    p, k = a.shape[-1], len(c)
    e = _meet_block(a, c, b)
    e[..., :p, p:] = _min_plus(e[..., :p, c], b[..., :k, k:])
    e[..., p:, :p] = _min_plus(b[..., k:, :k], e[..., c, :p])
    e[..., p:, p:] = np.minimum(b[..., k:, k:], _min_plus(b[..., k:, :k], e[..., c, p:]))
    return e


def reference_close(a, c, b, eps=EPS):
    """``_interface_close`` with three products for every dense meet,
    matrix by matrix; None if any matrix of the stack is empty."""
    flat_a = a.reshape((-1,) + a.shape[-2:])
    flat_b = b.reshape((-1,) + b.shape[-2:])
    out = []
    for a1, b1 in zip(flat_a, flat_b):
        meet = _factored_meet if _factors_through_slot0(a1, c) else three_products
        e = meet(a1, c, b1)
        yy = e[a.shape[-1] :, a.shape[-1] :]
        if (np.diagonal(yy) < -eps).any():
            return None
        np.fill_diagonal(yy, 0.0)
        out.append(e)
    return np.stack(out).reshape(a.shape[:-2] + out[0].shape)


def mirrored(m, halves):
    """m'[p, q] = m[q̄, p̄], the slots of m in consecutive doubled groups of
    the given half-sizes (each + half, then - half)."""
    start = np.cumsum([0] + [2 * h for h in halves[:-1]])
    perm = np.concatenate([s + _mirror(h) for s, h in zip(start, halves)])
    return m[..., perm[:, None], perm].swapaxes(-2, -1)


def coherent(m, halves):
    return np.array_equal(m, mirrored(m, halves))


def draw_carried(rng, kind, n, cells=None):
    """A strongly closed carried octagon (or a stack): ``oct_close`` of a
    random coherent matrix, or of a box of the kind."""
    if kind in ("uniform", "integer") and rng.random() < 0.5:
        count = 1 if cells is None else cells
        ms = [random_octagon(rng, n, drop=0.0, integer=kind == "integer") for _ in range(count)]
        return oct_close(OctDbm(ms[0] if cells is None else np.stack(ms))).entries
    return network._oct_from_box(draw_box(rng, kind, n, cells)).entries


def stack_box(m, n, cur):
    """Bounds of the variables ``cur`` of a doubled matrix (or a stack)."""
    full = OctDbm(m, closed=True).box()
    return Box(full.lo[..., cur], full.hi[..., cur])


def draw_meet(rng, kind, n_old, cells=None):
    """A carried octagon, its interface positions and a layer octagon in the
    interface order, the layer drawn over the box of the current slots."""
    a = draw_carried(rng, kind, n_old, cells)
    cur = np.asarray(pick_cur(rng, n_old))
    box = stack_box(a, n_old, cur)
    single = draw_layer(rng, kind, Box(box.lo.reshape(-1, len(cur))[0], box.hi.reshape(-1, len(cur))[0]))
    layer = AffineLayer(single.weights, single.bias, box)
    b = _oct_entries(oct_constants(layer), layer, interface=True)
    return a, np.concatenate([cur, cur + n_old]), b


def assert_same(got, want):
    assert (got is None) == (want is None)
    if want is not None:
        assert same_bits(got, want)


@pytest.fixture
def products(monkeypatch):
    """Counts ``_min_plus`` calls and records each ``_coherent_meet`` answer."""
    seen = {"products": 0, "mirrored": []}

    def min_plus(p, q):
        seen["products"] += 1
        return _min_plus(p, q)

    def check(a, c, b):
        ok = _coherent_meet(a, c, b)
        seen["mirrored"].append(ok)
        return ok

    monkeypatch.setattr(dbm, "_min_plus", min_plus)
    monkeypatch.setattr(dbm, "_coherent_meet", check)
    return seen


class TestMirroredMeet:
    @pytest.mark.parametrize("block", range(10))
    def test_single_matches_three_products(self, block):
        rng = np.random.default_rng(5000 + block)
        hits = 0
        for _ in range(20):
            kind = KINDS[int(rng.integers(len(KINDS)))]
            a, c, b = draw_meet(rng, kind, int(rng.integers(1, 6)))
            hits += _coherent_meet(a, c, b)
            assert_same(_interface_close(a, c, b, EPS), reference_close(a, c, b))
        assert hits >= 10  # the mirror path is what these draws test

    @pytest.mark.parametrize("kind", KINDS)
    def test_stack_matches_three_products_and_each_cell(self, kind):
        rng = np.random.default_rng(5100 + KINDS.index(kind))
        for _ in range(8):
            a, c, b = draw_meet(rng, kind, int(rng.integers(1, 6)), cells=int(rng.integers(1, 5)))
            got = _interface_close(a, c, b, EPS)
            assert_same(got, reference_close(a, c, b))
            if got is not None:
                for i in range(len(a)):
                    assert same_bits(got[i], _interface_close(a[i], c, b[i], EPS))

    def test_stack_mixing_factoring_cells(self, products):
        # an integer point octagon factors through slot 0 (+x_0) bit for bit,
        # a random octagon does not; the stack sends each its own way
        rng = np.random.default_rng(5200)
        point = network._oct_from_box(Box([1.0, -2.0, 0.5], [1.0, -2.0, 0.5])).entries
        wide = oct_close(OctDbm(random_octagon(rng, 3, drop=0.0))).entries
        a = np.stack([point, wide, point, wide])
        c = np.array([0, 2, 3, 5])
        layer = draw_layer(rng, "uniform", Box([-3.0, -3.0], [3.0, 3.0]))
        layer = AffineLayer(layer.weights, layer.bias, stack_box(a, 3, [0, 2]))
        b = _oct_entries(oct_constants(layer), layer, interface=True)
        assert _factors_through_slot0(a, c).tolist() == [True, False, True, False]
        got = _interface_close(a, c, b, EPS)
        assert products["mirrored"] == [True]  # one dense meet over the two wide cells
        assert_same(got, reference_close(a, c, b))
        for i in range(len(a)):
            assert same_bits(got[i], _interface_close(a[i], c, b[i], EPS))

    @pytest.mark.parametrize("where", ["a", "b_cc", "b_cy", "b_yc"])
    def test_one_ulp_off_takes_three_products(self, products, where):
        rng = np.random.default_rng(5300)
        a, c, b = draw_meet(rng, "uniform", 4)
        assert _coherent_meet(a, c, b)
        a, b = a.copy(), b.copy()
        k = len(c)
        target, (i, j) = {
            "a": (a, (0, 1)),
            "b_cc": (b, (0, k - 1)),
            "b_cy": (b, (k // 2, k)),
            "b_yc": (b, (k, 0)),
        }[where]
        target[i, j] = np.nextafter(target[i, j], np.inf)
        products["products"] = 0
        got = _interface_close(a, c, b, EPS)
        assert products["mirrored"][-1] is False
        assert products["products"] == 3
        assert_same(got, reference_close(a, c, b))

    def test_negative_zero_takes_three_products(self):
        # -0.0 on b's side could meet +0.0 in a min whose order picks the sign
        rng = np.random.default_rng(5400)
        a, c, b = draw_meet(rng, "uniform", 3)
        k = len(c)
        b = b.copy()
        # b[+y0, +x0] and its mirror b[-x0, -y0]
        b[k, 0] = b[k // 2, k + (b.shape[-1] - k) // 2] = -0.0
        assert not _coherent_meet(a, c, b)
        b[k, 0] = b[k // 2, k + (b.shape[-1] - k) // 2] = 0.0
        assert _coherent_meet(a, c, b)

    def test_nan_takes_three_products(self):
        rng = np.random.default_rng(5500)
        a, c, b = draw_meet(rng, "uniform", 3)
        a = a.copy()
        a[0, 1] = a[4, 3] = np.nan  # coherent positions, but NaN != NaN
        assert not _coherent_meet(a, c, b)

    def test_interface_out_of_mirror_order_is_refused(self):
        # x0 and x1 alike in every bound, so C relabelled with its -x half
        # reversed passes every value test; its mirror is no longer a's
        a = network._oct_from_box(Box([-1.0, -1.0], [1.0, 1.0])).entries
        w = np.array([[0.5, 0.5], [-1.0, -1.0]])
        layer = AffineLayer(w, np.array([0.25, 0.0]), Box([-1.0, -1.0], [1.0, 1.0]))
        b = _oct_entries(oct_constants(layer), layer, interface=True)
        swap = np.array([0, 1, 3, 2, 4, 5, 6, 7])
        c, b = swap[:4], b[np.ix_(swap, swap)]
        assert _mirrors(a, a) and _mirrors(b[:4, :4], b[:4, :4]) and _mirrors(b[:4, 4:], b[4:, :4])
        assert not _coherent_meet(a, c, b)
        assert_same(_interface_close(a, c, b, EPS), reference_close(a, c, b))

    def test_zone_meet_past_the_shape_test(self, products):
        rng = np.random.default_rng(5600)
        dense = 0
        for kind in KINDS:
            for _ in range(5):
                zone = draw_zone(rng, kind, 3)  # p = 4 slots
                box = Box(-zone.entries[..., 0, 2:3], zone.entries[..., 2:3, 0])
                single = draw_layer(rng, kind, box)
                w = np.vstack([single.weights, single.weights])[:2]  # |Y| = 2
                layer = AffineLayer(w, np.resize(single.bias, 2), box)
                b = zone_dbm(zone_constants(layer), layer).entries
                a, c = zone.entries, np.array([0, 2])
                if _factors_through_slot0(a, c):
                    continue
                before = products["products"]
                assert_same(_interface_close(a, c, b, EPS), reference_close(a, c, b))
                assert products["products"] - before == 3
                dense += 1
        assert dense >= 5

    def test_two_products_per_octagon_meet_three_per_zone_meet(self, products):
        rng = np.random.default_rng(5700)
        octagons = zones = 0
        for _ in range(10):
            a, c, b = draw_meet(rng, "uniform", int(rng.integers(1, 6)))
            if _factors_through_slot0(a, c) or not _coherent_meet(a, c, b):
                continue
            before = products["products"]
            _interface_close(a, c, b, EPS)
            assert products["products"] - before == 2
            octagons += 1
        for _ in range(10):
            zone = draw_zone(rng, "uniform", 4)
            cur = pick_cur(rng, 4)
            c = np.asarray([0, *[i + 1 for i in cur]])
            if _factors_through_slot0(zone.entries, c):
                continue
            lo, hi = -zone.entries[0, c[1:]], zone.entries[c[1:], 0]
            layer = draw_layer(rng, "uniform", Box(lo, hi))
            b = zone_dbm(zone_constants(layer), layer).entries
            before = products["products"]
            _interface_close(zone.entries, c, b, EPS)
            assert products["products"] - before == 3
            zones += 1
        assert octagons >= 5 and zones >= 5


class TestCoherentByConstruction:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("cells", [None, 3])
    def test_octagon_of_a_box(self, kind, cells):
        rng = np.random.default_rng(5800)
        for n in range(1, 6):
            assert coherent(network._oct_from_box(draw_box(rng, kind, n, cells)).entries, [n])

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("cells", [None, 3])
    def test_layer_octagon_interface_blocks(self, kind, cells):
        rng = np.random.default_rng(5900)
        for _ in range(10):
            box = draw_box(rng, kind, int(rng.integers(1, 5)), cells)
            single = draw_layer(rng, kind, Box(box.lo.reshape(-1, box.dim)[0], box.hi.reshape(-1, box.dim)[0]))
            layer = AffineLayer(single.weights, single.bias, box)
            b = _oct_entries(oct_constants(layer), layer, interface=True)
            k = 2 * box.dim
            mirror = mirrored(b, [box.dim, layer.n_outputs])
            assert np.array_equal(b[..., :k, :], mirror[..., :k, :])  # C and C x Y
            assert np.array_equal(b[..., k:, :k], mirror[..., k:, :k])  # Y x C

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("act", [False, True])
    @pytest.mark.parametrize("cells", [None, 3])
    def test_octagon_step(self, kind, act, cells):
        rng = np.random.default_rng(6000 + KINDS.index(kind))
        for _ in range(6):
            n_old = int(rng.integers(1, 5))
            a, c, _ = draw_meet(rng, kind, n_old, cells)
            cur = c[: len(c) // 2].tolist()
            single = draw_layer(rng, kind, Box(np.zeros(len(cur)), np.ones(len(cur))))
            layer = AffineLayer(single.weights, single.bias, stack_box(a, n_old, cur))
            kept = sorted(rng.permutation(n_old)[: int(rng.integers(0, n_old + 1))].tolist())
            try:
                nxt, _ = network._oct_step(
                    OctDbm(a, closed=True), cur, layer, oct_constants(layer), act, kept, EPS
                )
            except EmptyAbstraction:
                continue
            assert coherent(nxt.entries, [nxt.dim])

    def test_no_octagon_meet_of_a_net_falls_back(self, products):
        rng = np.random.default_rng(6100)
        sizes = (8, 32, 32, 32, 2)
        net = Network(
            tuple(rng.standard_normal((b, a)) / np.sqrt(a) for a, b in zip(sizes, sizes[1:])),
            tuple(0.1 * rng.standard_normal(b) for b in sizes[1:]),
        )
        for track_all in (False, True):
            products["mirrored"].clear()
            options = AnalysisOptions(domain=AbsDomain.OCTAGON, track_all=track_all)
            analyze(net, Box(-np.ones(8), np.ones(8)), options)
            assert products["mirrored"] == [True] * (len(sizes) - 1)

