"""The closure of a closed zone met with a box, through slot 0.

``dbm._box_meet_close`` closes the meet of a closed zone with a box (an
assertion's input restriction, a grid cell) by one column and one row
min-plus product through slot 0, where ``speccheck`` used to run
Floyd-Warshall (``_shortest_paths``) over the whole meet.  On integer zones
both are exact, so they agree bit for bit; on the battery nets' zones, with
and without a grid, they agree within 1e-12 (1 + |v|), and both call the
same meets empty.  Point and near-point restrictions at 1e7, 1e9 and 1e12
lie in the zone, so they must never be called empty: a check would skip
the meet and could return a vacuous Verified.  A stack gives each matrix
the bits it gets alone.
"""

from __future__ import annotations

import numpy as np
import pytest

from troprelu import AnalysisOptions, LinearAssertion, Network, SubdivisionGrid, analyze, check
from troprelu.dbm import (
    Box,
    Dbm,
    EMPTY,
    _box_meet_close,
    _diagonal,
    _fill_diagonal,
    _shortest_paths,
    dbm_close,
    embed_dbm,
)

from test_large_magnitudes import point_nets
from reference import best_zone_of_points
from test_layer_chain import battery
from test_stacked_cells import same_bits

EPS = 1e-9


def floyd_warshall_meet(z, slots, lo, hi, eps=EPS):
    """The closure ``speccheck`` took before: Floyd-Warshall over the meet
    of z with the box's whole matrix, its diagonal set to 0."""
    r = embed_dbm(Box(lo, hi).to_dbm(), slots, z.shape[-1] - 1).entries
    m, empty = _shortest_paths(np.minimum(z, r), eps)
    _fill_diagonal(m, 0.0)
    return m, empty


def first_pass_low(z, slots, lo, hi, eps=EPS):
    """Whether the slot-0 pass alone, without its widened redo, would leave
    a cycle below -eps (and so call the meet empty)."""
    idx = np.asarray([0, *slots])
    to0 = np.concatenate([[0.0], hi])
    from0 = np.concatenate([[0.0], -np.asarray(lo)])
    col = (z[:, idx] + to0).min(axis=-1)
    row = (from0[:, None] + z[idx, :]).min(axis=0)
    return bool((_diagonal(np.minimum(z, col[:, None] + row[None, :])) < -eps).any())


def integer_zone(rng, n):
    """A closed zone over n variables with integer entries: the zone of a
    few integer points, or the closure of a random integer matrix with
    unbounded entries."""
    if rng.random() < 0.5:
        return best_zone_of_points(rng.integers(-5, 6, (int(rng.integers(1, 5)), n)).astype(float)).entries
    while True:
        m = rng.integers(0, 9, (n + 1, n + 1)).astype(float)
        m[rng.random(m.shape) < 0.3] = np.inf
        np.fill_diagonal(m, 0.0)
        closed = dbm_close(Dbm(m))
        if closed is not EMPTY:
            return closed.entries


def random_slots(rng, n):
    k = int(rng.integers(1, n + 1))
    return sorted(int(s) for s in rng.choice(np.arange(1, n + 1), k, replace=False))


def within(got, want, tol=1e-12):
    finite = np.isfinite(want)
    return bool(
        np.array_equal(np.isfinite(got), finite)
        and (got[~finite] == want[~finite]).all()
        and (np.abs(got[finite] - want[finite]) <= tol * (1.0 + np.abs(want[finite]))).all()
    )


def grid_of(box):
    return SubdivisionGrid.uniform(box, [2, 2] + [1] * (box.dim - 2))


def cell_meets(cell_lo, cell_hi, restrict):
    """Each cell's box met with the restriction, as ``_cell_minima`` takes
    it, and the mask of the cells it meets."""
    lo, hi = cell_lo.copy(), cell_hi.copy()
    for j, iv in enumerate(restrict):
        if iv is not None:
            lo[:, j] = np.where(iv[0] > lo[:, j], iv[0], lo[:, j])
            hi[:, j] = np.where(iv[1] < hi[:, j], iv[1], hi[:, j])
    meets = (lo <= hi).all(axis=1)
    return lo[meets], hi[meets], meets


def random_restriction(rng, box):
    """Per input, None or an interval over a random part of the box."""
    out = []
    for lo, hi in zip(box.lo, box.hi):
        if rng.random() < 0.4:
            out.append(None)
            continue
        a, b = np.sort(rng.uniform(lo, hi, 2))
        out.append((float(a), float(b)))
    return tuple(out)


class TestAgainstFloydWarshall:
    @pytest.mark.parametrize("seed", range(40))
    def test_integer_zones_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        zones = np.stack([integer_zone(rng, n) for _ in range(6)])
        slots = random_slots(rng, n)
        lo = rng.integers(-6, 6, (6, len(slots))).astype(float)
        hi = lo + rng.integers(0, 5, lo.shape)
        got, empty = _box_meet_close(zones, slots, lo, hi, EPS)
        want, want_empty = floyd_warshall_meet(zones, slots, lo, hi)
        assert np.array_equal(empty, want_empty)
        assert same_bits(got[~empty], want[~want_empty])

    @pytest.mark.parametrize("seed", range(20))
    def test_disjoint_restrictions_are_empty(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1, 7))
        z = integer_zone(rng, n)
        slots = random_slots(rng, n)
        lo = rng.integers(-6, 6, len(slots)).astype(float)
        hi = lo + rng.integers(0, 3, len(slots))
        # any box: often each bound admits it but a difference bound cuts it
        got = _box_meet_close(z, slots, lo, hi, EPS)[1]
        assert bool(got) == bool(floyd_warshall_meet(z, slots, lo, hi)[1])
        # past a finite upper bound of a restricted slot
        bounded = [k for k, s in enumerate(slots) if np.isfinite(z[s, 0])]
        if bounded:
            k = bounded[0]
            lo[k] = z[slots[k], 0] + 1.0
            hi[k] = lo[k] + 2.0
            assert _box_meet_close(z, slots, lo, hi, EPS)[1]
            assert floyd_warshall_meet(z, slots, lo, hi)[1]

    def test_battery_zones(self):
        rng = np.random.default_rng(2207)
        missed = compared = 0
        for net, box, _ in battery():
            whole = analyze(net, box, AnalysisOptions(track_all=True))
            grid = analyze(net, box, AnalysisOptions(subdiv=grid_of(box)))
            for _ in range(3):
                restrict = random_restriction(rng, box)
                lo, hi, _ = cell_meets(box.lo[None], box.hi[None], restrict)
                ins = [s + 1 for s in whole.input_slots]
                got, empty = _box_meet_close(whole.zone.entries, ins, lo[0], hi[0], EPS)
                want, want_empty = floyd_warshall_meet(whole.zone.entries, ins, lo[0], hi[0])
                assert bool(empty) == bool(want_empty) and (empty or within(got, want))
                cell_lo, cell_hi, zones = grid._cell_stack
                lo, hi, meets = cell_meets(cell_lo, cell_hi, restrict)
                missed += int((~meets).sum())
                ins = [s + 1 for s in grid.input_slots]
                got, empty = _box_meet_close(zones[meets], ins, lo, hi, EPS)
                want, want_empty = floyd_warshall_meet(zones[meets], ins, lo, hi)
                assert np.array_equal(empty, want_empty)
                assert within(got[~empty], want[~want_empty])
                compared += len(lo)
        assert missed > 0 and compared > 0


class TestLargeMagnitudes:
    @pytest.mark.parametrize("scale", [1e7, 1e9, 1e12])
    def test_point_restrictions_are_never_empty(self, scale):
        redone = 0
        for net, x in point_nets(scale):
            res = analyze(net, Box(x, x))
            z = res.zone.entries
            slots = [s + 1 for s in res.input_slots]
            near = [(x, x), (np.nextafter(x, -np.inf), np.nextafter(x, np.inf))]
            for lo, hi in near:
                assert not _box_meet_close(z, slots, lo, hi, EPS)[1]
                redone += first_pass_low(z, slots, lo, hi)
                a = LinearAssertion(np.ones(len(x)), np.ones(3), 0.0, tuple(zip(lo, hi)))
                assert check(a, res).method != "vacuous"
        if scale > 1e7:
            assert redone > 0  # the widened redo is what keeps these meets

    @pytest.mark.parametrize("scale", [1e7, 1e9, 1e12])
    def test_point_in_a_wider_box(self, scale):
        rng = np.random.default_rng(int(np.log10(scale)))
        for net, x in point_nets(scale, count=50):
            width = np.abs(x) * 1e-9 + 1.0
            res = analyze(net, Box(x - width, x + width))
            slots = [s + 1 for s in res.input_slots]
            p = x + rng.uniform(-width, width)
            assert not _box_meet_close(res.zone.entries, slots, p, p, EPS)[1]


class TestStack:
    @pytest.mark.parametrize("seed", range(10))
    def test_stack_equals_each_matrix_alone(self, seed):
        rng = np.random.default_rng(300 + seed)
        w = rng.standard_normal((3, 2))
        b = rng.standard_normal(3)
        net = Network((w,), (b,))
        zones, los, his = [], [], []
        for scale in [1.0, 1e7, 1e9, 1e12, 1e3, 1e12]:
            x = scale * rng.uniform(-1, 1, 2)
            res = analyze(net, Box(x, x))
            zones.append(res.zone.entries)
            lo = x.copy()
            if rng.random() < 0.3:
                lo[0] += abs(x[0]) * 1e-3 + 1.0  # disjoint: the meet is empty
            los.append(lo)
            his.append(np.maximum(lo, x))
        zones, lo, hi = np.stack(zones), np.stack(los), np.stack(his)
        slots = [s + 1 for s in res.input_slots]
        got, empty = _box_meet_close(zones, slots, lo, hi, EPS)
        for c in range(len(zones)):
            alone, alone_empty = _box_meet_close(zones[c], slots, lo[c], hi[c], EPS)
            assert bool(alone_empty) == bool(empty[c])
            assert same_bits(got[c], alone)
