"""Layer meets closed through their interface, and the kept-slot ReLU closure.

The layer chain meets the carried closed zone (or octagon) with the layer's
tight zone (octagon) over (current layer, pre-activations) and closes the
meet with ``dbm._interface_close``, which only takes min-plus products
through the shared slots.  ``reference_layer_zone`` and
``reference_oct_step`` are the steps as they were before, one full
Floyd-Warshall closure (``dbm_close``, ``oct_close``) of the embedded meet;
the two must agree within 1e-12 (1 + |v|) and raise the same errors, on
seeded carried zones and layers drawn over their box: integer-valued ties,
point and 1e-12-wide boxes, zero-weight and dead layers.

The octagon ReLU closes only the kept variables and the clamped copies.
Floyd-Warshall with the copies as the only pivots never goes through a
dropped slot, so that matches the full closure followed by the slice bit
for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from troprelu import network
from troprelu.dbm import (
    EMPTY,
    INF,
    Box,
    Dbm,
    OctDbm,
    _interface_close,
    _min_plus,
    best_zone_of_points,
    dbm_box,
    dbm_close,
    embed_dbm,
    embed_oct,
    oct_close,
)
from troprelu.errors import EmptyAbstraction, TropReluError
from troprelu.layers import (
    AffineLayer,
    _oct_entries,
    oct_constants,
    zone_constants,
    zone_dbm,
)

from test_oct_closure import random_octagon

EPS = 1e-9
TOL = 1e-12
KINDS = ("uniform", "integer", "point", "thin")


def reference_layer_zone(zone, cur, layer, k, eps):
    """The zone step before: embed, min in the layer zone, full closure."""
    n_old = zone.dim
    n_new = layer.n_outputs
    e = embed_dbm(zone, list(range(1, n_old + 1)), n_old + n_new).entries
    idx = np.asarray([0, *[i + 1 for i in cur], *range(n_old + 1, n_old + n_new + 1)])
    e[np.ix_(idx, idx)] = np.minimum(e[np.ix_(idx, idx)], zone_dbm(k, layer).entries)
    closed = dbm_close(Dbm(e), eps=eps)
    if closed is EMPTY:
        raise EmptyAbstraction("layer zone does not meet the carried zone")
    return closed


def reference_oct_step(oct_zone, cur, layer, k_oct, act, kept, eps):
    """The octagon step before: full closure of the embedded meet, the ReLU
    copies closed over every variable, then the slice to the kept ones."""
    n_new = layer.n_outputs
    n_old = oct_zone.dim
    n_pre = n_old + n_new
    entries = embed_oct(oct_zone, list(range(n_old)), n_pre).entries
    l_vars = list(cur) + list(range(n_old, n_pre))
    l_slots = np.asarray(l_vars + [v + n_pre for v in l_vars], dtype=int)
    sub = entries[np.ix_(l_slots, l_slots)]
    entries[np.ix_(l_slots, l_slots)] = np.minimum(sub, _oct_entries(k_oct, layer))
    closed = oct_close(OctDbm(entries), eps=eps)
    if closed is EMPTY:
        raise EmptyAbstraction("octagon chain produced an empty octagon")
    pre = list(range(n_old, n_pre))
    sel = kept + ([i + n_new for i in pre] if act else pre)
    if act:
        closed = network._oct_relu_append(closed, pre, eps)
    idx = np.asarray(sel + [i + closed.dim for i in sel], dtype=int)
    return closed.entries[np.ix_(idx, idx)]


def draw_points(rng, kind, n):
    count = int(rng.integers(1, 6))
    if kind == "integer":
        return rng.integers(-2, 3, size=(count, n)).astype(float)
    if kind == "point":
        return np.repeat(rng.uniform(-2, 2, size=(1, n)), count, axis=0)
    if kind == "thin":
        return rng.uniform(-2, 2, size=(1, n)) + rng.uniform(0, 1e-12, size=(count, n))
    return rng.uniform(-2, 2, size=(count, n))


def draw_layer(rng, kind, box: Box) -> AffineLayer:
    n_new = int(rng.integers(1, 6))
    if kind == "integer":
        w = rng.integers(-2, 3, size=(n_new, box.dim)).astype(float)
        b = rng.integers(-2, 3, size=n_new).astype(float)
    else:
        w = rng.uniform(-1.5, 1.5, size=(n_new, box.dim))
        b = rng.uniform(-0.5, 0.5, size=n_new)
    shape = rng.integers(0, 4)
    if shape == 1:  # zero-weight rows
        w[rng.random(n_new) < 0.5] = 0.0
    elif shape == 2:  # dead: every output below 0 over the box
        scale = np.maximum(np.abs(box.lo), np.abs(box.hi)).sum()
        b = -(np.abs(w).sum(axis=1) * scale + 1.0)
    elif shape == 3:  # all zero
        w[:] = 0.0
    return AffineLayer(w, b, box)


def draw_zone(rng, kind, n):
    """A closed carried zone: the zone of a few points, loosened (integer
    amounts for the integer kind) on some entries and closed again."""
    zone = best_zone_of_points(draw_points(rng, kind, n))
    if kind in ("uniform", "integer") and rng.random() < 0.7:
        e = zone.entries.copy()
        if kind == "integer":
            grow = rng.integers(0, 2, size=e.shape)
        else:
            grow = rng.exponential(0.5, e.shape)
        e += np.where(rng.random(e.shape) < 0.5, grow, 0.0)
        np.fill_diagonal(e, 0.0)
        zone = dbm_close(Dbm(e))
    return zone


def draw_octagon(rng, kind, n):
    """A strongly closed carried octagon: the exact octagon of a few points,
    or a closed random octagon (every entry finite)."""
    if kind in ("uniform", "integer") and rng.random() < 0.5:
        return oct_close(OctDbm(random_octagon(rng, n, drop=0.0, integer=kind == "integer")))
    pts = draw_points(rng, kind, n)
    v = np.hstack([pts, -pts])
    return OctDbm((v[:, :, None] - v[:, None, :]).max(axis=0), closed=True)


def outcome(step, *args):
    try:
        return step(*args)
    except TropReluError as exc:
        return type(exc), str(exc)


def assert_agree(got, want):
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        return
    assert got.shape == want.shape
    assert np.array_equal(np.isinf(got), np.isinf(want))
    fin = np.isfinite(want)
    assert (np.abs(got[fin] - want[fin]) <= TOL * (1.0 + np.abs(want[fin]))).all()


def pick_cur(rng, n):
    return sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())


BLOCKS = range(25)  # 20 pairs each: 500 zone and 500 octagon pairs


class TestZoneMeet:
    @pytest.mark.parametrize("block", BLOCKS)
    def test_matches_full_closure(self, block):
        rng = np.random.default_rng(1000 + block)
        for _ in range(20):
            kind = KINDS[int(rng.integers(len(KINDS)))]
            n_old = int(rng.integers(1, 7))
            zone = draw_zone(rng, kind, n_old)
            cur = pick_cur(rng, n_old)
            layer = draw_layer(rng, kind, dbm_box(zone.slice([i + 1 for i in cur])))
            k = zone_constants(layer)
            want = outcome(reference_layer_zone, zone, cur, layer, k, EPS)
            got = outcome(network._layer_zone, zone, cur, layer, k, EPS)
            assert_agree(getattr(got, "entries", got), getattr(want, "entries", want))
            if isinstance(got, Dbm):
                assert got.closed
                assert_agree(dbm_close(got).entries, got.entries)

    @pytest.mark.parametrize("gap", [1e-12, 1e-6])
    def test_negative_y_cycle_against_eps(self, gap):
        # x = 0 carried; a closed layer zone with y = x and x >= gap, which
        # breaks the precondition by gap: the cycle y -> x -> 0 -> y weighs
        # -gap.  Within eps the diagonal is set to 0 and the meet agrees
        # with the full closure within eps; below -eps both are empty.
        zone = Box([0.0], [0.0]).to_dbm()
        b = np.array([[0.0, -gap, -gap], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        got = _interface_close(zone.entries, np.array([0, 1]), b, EPS)
        want = dbm_close(Dbm(np.minimum(embed_dbm(zone, [1], 2).entries, b)), eps=EPS)
        if gap > EPS:
            assert got is None and want is EMPTY
        else:
            assert (np.diagonal(got) == 0.0).all()
            assert np.abs(got - want.entries).max() <= EPS


class TestOctagonMeet:
    @pytest.mark.parametrize("block", BLOCKS)
    def test_matches_full_closure(self, block):
        rng = np.random.default_rng(2000 + block)
        for _ in range(20):
            kind = KINDS[int(rng.integers(len(KINDS)))]
            n_old = int(rng.integers(1, 6))
            o = draw_octagon(rng, kind, n_old)
            cur = pick_cur(rng, n_old)
            full = o.box()
            layer = draw_layer(rng, kind, Box(full.lo[cur], full.hi[cur]))
            k_oct = oct_constants(layer)
            act = bool(rng.random() < 0.7)
            kept = sorted(rng.permutation(n_old)[: int(rng.integers(0, n_old + 1))].tolist())
            want = outcome(reference_oct_step, o, cur, layer, k_oct, act, kept, EPS)
            got = outcome(network._oct_step, o, cur, layer, k_oct, act, kept, EPS)
            if isinstance(got, tuple) and isinstance(got[0], OctDbm):
                got = got[0].entries
            assert_agree(got, want)
            if isinstance(got, np.ndarray):
                reclosed = oct_close(OctDbm(got))
                assert isinstance(reclosed, OctDbm)
                assert_agree(reclosed.entries, got)

    def test_pre_zone_is_the_plus_block_of_the_meet(self):
        rng = np.random.default_rng(7)
        o = draw_octagon(rng, "uniform", 3)
        full = o.box()
        layer = draw_layer(rng, "uniform", Box(full.lo[[0, 2]], full.hi[[0, 2]]))
        meet, _, pre_zone = network._oct_step(
            o, [0, 2], layer, oct_constants(layer), False, [0, 1, 2], EPS
        )
        plus = network._plus_block_dbm(meet, list(range(meet.dim)))
        assert np.array_equal(pre_zone.entries, plus.entries)


class TestKeptSlotRelu:
    @pytest.mark.parametrize("integer", [False, True])
    @pytest.mark.parametrize("seed", range(20))
    def test_equals_full_closure_then_slice(self, seed, integer):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        r = int(rng.integers(1, 6))
        base = oct_close(OctDbm(random_octagon(rng, n + r, drop=0.0, integer=integer)))
        order = rng.permutation(n + r)
        h_vars = order[:r].tolist()
        keep = sorted(order[r : r + int(rng.integers(0, n + 1))].tolist())
        full = network._oct_relu_append(base, h_vars, EPS)
        vars_ = keep + list(range(n + r, n + 2 * r))
        slots = np.asarray(vars_ + [v + full.dim for v in vars_], dtype=int)
        want = full.entries[np.ix_(slots, slots)]
        got = network._oct_relu_append(base, h_vars, EPS, keep=keep).entries
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


class TestMinPlus:
    def test_blocked_equals_unblocked(self):
        rng = np.random.default_rng(3)
        p = rng.integers(-3, 4, size=(300, 40)).astype(float)
        q = rng.integers(-3, 4, size=(40, 30)).astype(float)
        p[rng.random(p.shape) < 0.2] = INF
        q[rng.random(q.shape) < 0.2] = INF
        assert p.shape[0] > (1 << 18) // q.size  # more than one row block
        want = (p[:, :, None] + q[None]).min(axis=1)
        assert np.array_equal(_min_plus(p, q), want)

    def test_empty_inner_dimension_is_inf(self):
        assert (_min_plus(np.zeros((3, 0)), np.zeros((0, 2))) == INF).all()


@pytest.mark.parametrize("domain", list(network.AbsDomain))
def test_layer_without_inputs(domain):
    # a layer fed by an empty stage shares no variable with the carried
    # octagon (in a zone only slot 0): its outputs are its biases
    opts = network.AnalysisOptions(domain=domain)
    no_inputs = network.Network((np.zeros((2, 0)),), (np.ones(2),))
    empty_middle = network.Network((np.zeros((0, 2)), np.zeros((2, 0))), (np.zeros(0), np.ones(2)))
    for net, box in (
        (no_inputs, Box(np.zeros(0), np.zeros(0))),
        (empty_middle, Box(-np.ones(2), np.ones(2))),
    ):
        res = network.analyze(net, box, opts)
        assert np.array_equal(res.bounds[-1].lo, [1.0, 1.0])
        assert np.array_equal(res.bounds[-1].hi, [1.0, 1.0])


class TestStepSizes:
    """Each layer record's ``sizes`` match the matrices the step closes."""

    @pytest.fixture
    def closures(self, monkeypatch):
        seen = []

        def interface(a, c, b, eps):
            e = _interface_close(a, c, b, eps)
            seen.append(("meet", e.shape[0], len(c)))
            return e

        def close(o, eps=EPS, changed=None):
            if changed is not None:
                seen.append(("relu", o.entries.shape[0], 2 * len(changed)))
            return oct_close(o, eps=eps, changed=changed)

        monkeypatch.setattr(network, "_interface_close", interface)
        monkeypatch.setattr(network, "oct_close", close)
        return seen

    @pytest.mark.parametrize("track_all", [False, True])
    @pytest.mark.parametrize("domain", list(network.AbsDomain))
    def test_sizes_match_the_closed_matrices(self, closures, domain, track_all):
        rng = np.random.default_rng(4)
        sizes = (3, 5, 4, 2)
        net = network.Network(
            tuple(rng.standard_normal((b, a)) for a, b in zip(sizes, sizes[1:])),
            tuple(rng.standard_normal(b) for b in sizes[1:]),
            final_relu=False,
        )
        opts = network.AnalysisOptions(domain=domain, track_all=track_all)
        res = network.analyze(net, Box(-np.ones(3), np.ones(3)), opts)
        want = []
        for rec in res.diagnostics["layers"]:
            s = rec["sizes"]
            want.append(("meet", s["meet_slots"], s["interface_slots"]))
            if s.get("relu_pivots"):
                want.append(("relu", s["relu_slots"], s["relu_pivots"]))
        assert closures == want
        relu_keys = {"relu_slots" in rec["sizes"] for rec in res.diagnostics["layers"]}
        assert relu_keys == {domain is network.AbsDomain.OCTAGON}
