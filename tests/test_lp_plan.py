"""A check reads the result's LP plan instead of testing the zones again.

``AnalysisResult._lp_plan`` holds the input and output slots and, per cell
(one without a grid), a mask of the input and output slots whose whole row
and column factor through slot 0 (``simplex._factoring``).  It is built on
the first check and kept, so any number of unrestricted checks test the
zones once; a restricted check meets every cell with a box, and the LP
tests those new matrices itself, once per chunk of cells.  The plan-free
route is ``_stack_minima`` with no mask (and, restricted, on every cell
that meets the box at once): every minimum, status and method must keep
its bytes.  The mask holds cells x slots booleans, so an unrestricted check
of a ``track_all`` grid stays small, and a restricted check meets and
solves its cells in chunks of at most ``network._CELL_FLOATS`` floats.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import troprelu.network as network
from troprelu import (
    AnalysisOptions,
    AnalysisResult,
    Box,
    Dbm,
    LinearAssertion,
    Network,
    SubdivisionGrid,
    VerdictStatus,
    analyze,
    check,
    dbm_close,
    simplex,
)
from troprelu.dbm import EMPTY, _slot0_factors
from troprelu.errors import TropReluError
from troprelu.speccheck import _cell_minima, _clip, _objective_of, _stack_minima

from test_layer_chain import battery, settings

EPS = 1e-9
SETTINGS = list(settings())
IDS = [name for name, _ in SETTINGS]


@pytest.fixture
def factor_tests(monkeypatch):
    """The ``rows`` argument of every ``_slot0_factors`` call the LP makes."""
    calls = []

    def spy(a, rows=None):
        calls.append(rows)
        return _slot0_factors(a, rows)

    monkeypatch.setattr(simplex, "_slot0_factors", spy)
    return calls


def seeded_net(sizes, seed):
    rng = np.random.default_rng(seed)
    return Network(
        tuple(rng.standard_normal((b, a)) / np.sqrt(a) for a, b in zip(sizes, sizes[1:])),
        tuple(0.1 * rng.standard_normal(b) for b in sizes[1:]),
    )


def dense(rng, n_in, n_out, restrict=None):
    """An assertion whose LP has two or more sources and sinks, so that
    the LP reads the mask."""
    while True:
        c_in, c_out = rng.uniform(-1, 1, n_in), rng.uniform(-1, 1, n_out)
        supply = np.concatenate([[c_in.sum() + c_out.sum()], -c_in, -c_out])
        if (supply > 0).sum() >= 2 and (supply < 0).sum() >= 2:
            return LinearAssertion(c_in, c_out, 0.1, restrict)


def plan_free(a, res, eps=EPS):
    """The minima of ``_cell_minima`` with no plan: no mask, and every cell
    that meets the restriction met at once."""
    obj = np.zeros(len(res.var_map))
    obj[res.input_slots] = a.in_coeffs
    obj[res.output_slots] = a.out_coeffs
    box = res.bounds[0]
    lo, hi, zones = res._cell_stack or (box.lo[None], box.hi[None], res.zone.entries[None])
    if a.restrict is None:
        return _stack_minima(zones, None, obj, a.const, eps)
    lo, hi = _clip(lo, hi, a.restrict)
    meets = (lo <= hi).all(axis=1)
    slots = [s + 1 for s in res.input_slots]
    return _stack_minima(zones[meets], (slots, lo[meets], hi[meets]), obj, a.const, eps)


def verdict_of(minima, res, eps=EPS):
    if not minima:
        return VerdictStatus.VERIFIED, float("inf"), "vacuous"
    m = min(minima)
    status = VerdictStatus.VERIFIED if m >= -eps else VerdictStatus.UNKNOWN
    return status, m, "zone-lp" if res._cell_stack is None else "cellwise-zone-lp"


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def full_mask(zones):
    """Per cell and slot: its whole row and column factor (the test over
    every entry, slot 0 included)."""
    f = _slot0_factors(zones)
    return f.all(axis=-1) & f.all(axis=-2)


class TestPlanIsBuiltOnce:
    @pytest.mark.parametrize("grid", [None, [2, 2]])
    def test_unrestricted_checks_test_the_zones_once(self, factor_tests, grid):
        rng = np.random.default_rng(3301)
        net = seeded_net((3, 6, 4), 3301)
        box = Box(-np.ones(3), np.ones(3))
        subdiv = None if grid is None else SubdivisionGrid.uniform(box, grid + [1])
        res = analyze(net, box, AnalysisOptions(subdiv=subdiv))
        for _ in range(6):
            check(dense(rng, 3, 4), res)
        assert len(factor_tests) == 2  # the plan's rows, then its columns
        assert all(rows is not None for rows in factor_tests)  # never a cells x slots^2 test
        ins, outs, factors = res._lp_plan
        assert ins.tolist() == res.input_slots and outs.tolist() == res.output_slots
        assert factors.shape == (1 if grid is None else 4, len(res.var_map) + 1)

    @pytest.mark.parametrize("grid", [None, [2, 2]])
    def test_each_restricted_check_tests_its_meet(self, factor_tests, grid):
        rng = np.random.default_rng(3302)
        net = seeded_net((3, 6, 4), 3302)
        box = Box(-np.ones(3), np.ones(3))
        subdiv = None if grid is None else SubdivisionGrid.uniform(box, grid + [1])
        res = analyze(net, box, AnalysisOptions(subdiv=subdiv))
        check(dense(rng, 3, 4), res)
        built = len(factor_tests)
        for k in range(1, 5):
            check(dense(rng, 3, 4, ((-0.9, 0.8), None, (-1.0, 0.5))), res)
            assert len(factor_tests) == built + 2 * k
        assert res._lp_plan is res._lp_plan

    def test_a_restricted_chunk_is_one_test(self, factor_tests, monkeypatch):
        # one cell per chunk: one test per cell that meets the restriction
        rng = np.random.default_rng(3303)
        net = seeded_net((2, 5, 3), 3303)
        box = Box(-np.ones(2), np.ones(2))
        res = analyze(net, box, AnalysisOptions(subdiv=SubdivisionGrid.uniform(box, [2, 2])))
        a = dense(rng, 2, 3, ((-1.0, -0.5), None))
        want = plan_free(a, res)
        check(dense(rng, 2, 3), res)
        factor_tests.clear()
        monkeypatch.setattr(network, "_CELL_FLOATS", 1)
        assert bits(_cell_minima(a, res, _objective_of(a, res), EPS)) == bits(want)
        assert len(want) == 2 and len(factor_tests) == 2 * 2


class TestSameBits:
    @pytest.mark.parametrize("name, options", SETTINGS, ids=IDS)
    def test_battery(self, monkeypatch, name, options):
        compared = 0
        for net, box, objectives in battery():
            cut = float(box.lo[0] + 0.4 * (box.hi[0] - box.lo[0]))
            restrict = ((float(box.lo[0]), cut),) + (None,) * (box.dim - 1)
            assertions = objectives + [replace(a, const=0.25, restrict=restrict) for a in objectives]
            grid = SubdivisionGrid.uniform(box, [2, 2] + [1] * (box.dim - 2))
            for subdiv in (None, grid):
                monkeypatch.setattr(network, "_CELL_FLOATS", 1 << 22)
                try:
                    res = analyze(net, box, replace(options, subdiv=subdiv))
                except TropReluError:
                    continue
                # restricted cells one chunk each, so chunking is compared too
                monkeypatch.setattr(network, "_CELL_FLOATS", 1)
                for a in assertions:
                    want = plan_free(a, res)
                    got = _cell_minima(a, res, _objective_of(a, res), EPS)
                    assert bits(got) == bits(want), (name, a)
                    v = check(a, res, eps=EPS)
                    status, m, method = verdict_of(want, res)
                    assert (v.status, bits([v.minimum]), v.method) == (status, bits([m]), method)
                    compared += 1
                zones = res._cell_stack[2] if subdiv else res.zone.entries[None]
                io = np.asarray(res.input_slots + res.output_slots) + 1
                _, _, factors = res._lp_plan
                assert np.array_equal(factors[:, io], full_mask(zones)[:, io])
                assert not np.delete(factors, io, axis=1).any()
        assert compared >= 40 * 4

    def test_cells_that_factor_on_different_slots(self):
        # zones over (x1, x2, y1, y2) on four cells of [0, 1]^2: cell 0 is
        # its box, cell 1 ties y1 to x1, cell 2 ties x2 to x1, cell 3 both,
        # so x1 factors in cell 0 alone and every other slot in some cells
        lo = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]])
        hi = lo + 0.5
        zones = []
        for k, (l, h) in enumerate(zip(lo, hi)):
            m = Box(np.append(l, [-3.0, -2.0]), np.append(h, [3.0, 2.0])).to_dbm().entries.copy()
            if k in (1, 3):
                m[3, 1] = m[1, 3] = 1.25  # |y1 - x1| <= 1.25
            if k in (2, 3):
                m[2, 1] = 0.2  # x2 - x1 <= 0.2
            closed = dbm_close(Dbm(m))
            assert closed is not EMPTY
            zones.append(closed.entries)
        zones = np.stack(zones)
        res = AnalysisResult(
            var_map=[(0, 0), (0, 1), (1, 0), (1, 1)],
            zone=Dbm(zones.max(axis=0), closed=True),
            bounds=[Box(lo.min(axis=0), hi.max(axis=0)), Box([-3.0, -2.0], [3.0, 2.0])],
            n_inputs=2,
            n_outputs=2,
            _cell_stack=(lo, hi, zones),
        )
        _, _, factors = res._lp_plan
        assert factors.tolist() == [
            [False, True, True, True, True],
            [False, False, True, False, True],
            [False, False, False, True, True],
            [False, False, False, False, True],
        ]
        assert np.array_equal(factors, full_mask(zones) & (np.arange(5) > 0))
        rng = np.random.default_rng(3304)
        for trial in range(200):
            restrict = None if trial % 2 else ((0.2, 0.9), None)
            a = dense(rng, 2, 2, restrict)
            got = _cell_minima(a, res, _objective_of(a, res), EPS)
            assert bits(got) == bits(plan_free(a, res)), trial
            one = replace(res, _cell_stack=None)  # the joined zone alone
            assert bits(_cell_minima(a, one, _objective_of(a, one), EPS)) == bits(plan_free(a, one)), trial


class TestMemory:
    def test_unrestricted_check_of_a_track_all_grid(self, record_property):
        # 2 -> 40 -> 40 -> 2 with every layer tracked: 85 slots, 256 cell
        # zones of 58 KB each.  The first check builds the plan, cells x
        # slots booleans; a mask over every slot's rows, or a copy of the
        # cells for each group that settles the same slots, would take a
        # cells x slots^2 temporary (15 MB here)
        net = seeded_net((2, 40, 40, 2), 3305)
        box = Box(-np.ones(2), np.ones(2))
        res = analyze(net, box, AnalysisOptions(track_all=True, subdiv=SubdivisionGrid.uniform(box, [16, 16])))
        a = LinearAssertion([0.5, -0.5], [1.0, -1.0], 0.0)
        tracemalloc.start()
        try:
            v = check(a, res)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        record_property("peak_mb", round(peak, 2))
        assert v.method == "cellwise-zone-lp"
        assert peak < 2.0, f"{peak:.2f} MB"

    def test_restricted_check_of_a_track_all_grid(self, record_property):
        # 2 -> 100 -> 2 -> 1 with every layer tracked: 106 slots, 1024 cell
        # zones of 88 KB each (88 MB, held by the result).  Every cell meets
        # the restriction; met and solved in chunks of at most _CELL_FLOATS
        # floats (32 MB), a chunk's zones and its meet are alive at once:
        # the bound allows three chunks
        rng = np.random.default_rng(9)
        sizes = (2, 100, 2, 1)
        net = Network(
            tuple(rng.standard_normal((b, a)) / np.sqrt(a) for a, b in zip(sizes, sizes[1:])),
            tuple(0.1 * rng.standard_normal(b) for b in sizes[1:]),
        )
        box = Box(-np.ones(2), np.ones(2))
        res = analyze(net, box, AnalysisOptions(track_all=True, subdiv=SubdivisionGrid.uniform(box, [32, 32])))
        a = LinearAssertion([0.3, -0.2], [1.0], 0.0, ((-0.99, 0.99), None))
        tracemalloc.start()
        try:
            v = check(a, res)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        record_property("peak_mb", round(peak, 1))
        assert v.method == "cellwise-zone-lp"
        assert peak < 3 * network._CELL_FLOATS * 8 / 2**20, f"{peak:.1f} MB"
