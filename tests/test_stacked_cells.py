"""The stacked cell engine against analysing each grid cell alone.

A grid's cells pass through the layer loop together, on a leading cell
axis, in chunks of at most ``network._CELL_FLOATS`` floats per stacked
matrix, and ``speccheck.check`` closes every cell's restricted zone in one
stacked pass.  ``per_cell`` is the reference: ``analyze`` once per cell box,
the cells joined entry by entry and every assertion minimised cell by cell
with ``min_over_zone``, as the cell loop did.  Both compute each cell's
floats in the same order, so cell zones, stage bounds, statuses and minima
must agree bit for bit in every mode and domain.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import troprelu.network as network
from troprelu import (
    AnalysisOptions,
    Box,
    LinearAssertion,
    Network,
    SubdivisionGrid,
    VerdictStatus,
    analyze,
    check,
    min_over_zone,
)
from troprelu.cli import run_cli
from troprelu.errors import (
    DimensionMismatch,
    EmptyAbstraction,
    EmptyFeasibleSet,
    InvalidDomain,
    TropReluError,
)
from troprelu.network import AbsDomain

from conftest import FIXTURES
from test_layer_chain import battery, settings
from test_lazy_generators import pre_zones  # noqa: F401  (a fixture)

SETTINGS = list(settings())
IDS = [name for name, _ in SETTINGS]


def grid_of(box):
    return SubdivisionGrid.uniform(box, [2, 2] + [1] * (box.dim - 2))


def assertions_of(box, objectives):
    """The battery's objectives, unrestricted and restricted to the upper
    part of the first input (which some cells miss)."""
    cut = float(box.lo[0] + 0.7 * (box.hi[0] - box.lo[0]))
    restrict = ((cut, float(box.hi[0])),) + (None,) * (box.dim - 1)
    return objectives + [LinearAssertion(a.in_coeffs, a.out_coeffs, 0.25, restrict) for a in objectives]


def per_cell(net, grid, options, assertions, eps=1e-9):
    """Each cell analysed alone, the cells joined in order, and each
    assertion's status and minimum over the cells that meet it."""
    cell_opts = replace(options, subdiv=None)
    cells = [(cell, analyze(net, cell, cell_opts)) for cell in grid.cells()]
    zone = cells[0][1].zone.entries.copy()
    lo = [b.lo.copy() for b in cells[0][1].bounds]
    hi = [b.hi.copy() for b in cells[0][1].bounds]
    for _, res in cells[1:]:
        np.maximum(zone, res.zone.entries, out=zone)
        for s, b in enumerate(res.bounds):
            lo[s] = np.minimum(lo[s], b.lo)
            hi[s] = np.maximum(hi[s], b.hi)
    verdicts = []
    for a in assertions:
        minima = []
        for cell, res in cells:
            meet = a.restriction_box(cell)
            if meet is None:
                continue
            obj = np.zeros(len(res.var_map))
            obj[res.input_slots] = a.in_coeffs
            obj[res.output_slots] = a.out_coeffs
            slots = [s + 1 for s in res.input_slots]
            try:
                minima.append(min_over_zone(res.zone, None if a.restrict is None else meet, obj, a.const, restrict_slots=slots, eps=eps))
            except EmptyFeasibleSet:
                pass
        if not minima:
            verdicts.append((VerdictStatus.VERIFIED, float("inf")))
        else:
            m = min(minima)
            verdicts.append((VerdictStatus.VERIFIED if m >= -eps else VerdictStatus.UNKNOWN, m))
    return cells, zone, lo, hi, verdicts


def last_pre_zones(zones, net):
    """Each cell's last pre-activation zone, in cell order, from the zones
    the ``pre_zones`` spy recorded over one analysis: one per layer and
    chunk of cells (a chunk's zones are stacked), or per layer and cell."""
    last = [z.entries for z in zones[net.n_layers - 1 :: net.n_layers]]
    return np.concatenate([m.reshape((-1,) + m.shape[-2:]) for m in last])


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.array_equal(got, want) and np.array_equal(
        np.signbit(got), np.signbit(want)
    )


def outcome(fn, *args):
    try:
        return fn(*args)
    except TropReluError as exc:
        return type(exc), str(exc)


class TestStackedMatchesPerCell:
    @pytest.mark.parametrize("name, options", SETTINGS, ids=IDS)
    def test_battery(self, pre_zones, name, options):
        failures = 0
        for idx, (net, box, objectives) in enumerate(battery()):
            grid = grid_of(box)
            assertions = assertions_of(box, objectives)
            pre_zones.clear()
            want = outcome(per_cell, net, grid, options, assertions)
            want_zones = pre_zones[:]
            pre_zones.clear()
            got = outcome(analyze, net, box, replace(options, subdiv=grid))
            if isinstance(want, tuple) and not isinstance(want[0], list):
                assert got == want, idx  # the same error as the first failing cell's
                failures += 1
                continue
            cells, zone, lo, hi, verdicts = want
            got_pre, want_pre = last_pre_zones(pre_zones, net), last_pre_zones(want_zones, net)
            assert len(got.cells) == grid.n_cells == len(got._hull) == len(got_pre), idx
            per_cell_parts = zip(got.cells, cells, got_pre, want_pre, got._hull)
            for (cell, z), (want_cell, res), pre, want_m, hull in per_cell_parts:
                assert same_bits(cell.lo, want_cell.lo) and same_bits(cell.hi, want_cell.hi), idx
                assert same_bits(z.entries, res.zone.entries), idx
                assert same_bits(pre, want_m), idx
                assert same_bits(hull, res._hull[0]), idx
            assert same_bits(got.zone.entries, zone), idx
            for s, b in enumerate(got.bounds):
                assert same_bits(b.lo, lo[s]) and same_bits(b.hi, hi[s]), (idx, s)
            for a, (status, minimum) in zip(assertions, verdicts):
                v = check(a, got)
                assert v.status is status and same_bits(v.minimum, minimum), idx
        assert failures < len(battery())


class TestOneOutputLayers:
    """A layer with one output multiplies a one-row weight against each
    cell's box; the cells of a stack must get the floats of that product
    alone, also where the current layer's slots are a strided slice of the
    carried box."""

    @pytest.mark.parametrize("domain", [AbsDomain.ZONE, AbsDomain.OCTAGON])
    @pytest.mark.parametrize("sizes", [(48, 1), (48, 48, 1), (20, 5, 1), (4, 4, 1)])
    def test_chunk_cells_match_each_box_alone(self, sizes, domain):
        rng = np.random.default_rng(3)
        net = Network(
            tuple(rng.uniform(-1, 1, (b, a)) for a, b in zip(sizes, sizes[1:])),
            tuple(rng.uniform(-0.5, 0.5, b) for b in sizes[1:]),
            final_relu=False,
        )
        centre = rng.uniform(-1, 1, (32, sizes[0]))
        lo, hi = centre - 0.05, centre + 0.05
        options = AnalysisOptions(domain=domain)
        chunk = network._analyze_chunk(net, lo, hi, options)
        for c in range(len(lo)):
            alone = analyze(net, Box(lo[c], hi[c]), options)
            assert same_bits(chunk.zone.entries[c], alone.zone.entries), c
            for s, (b, want) in enumerate(zip(chunk.bounds, alone.bounds)):
                assert same_bits(b.lo[c], want.lo) and same_bits(b.hi[c], want.hi), (c, s)


class TestChunks:
    @pytest.mark.parametrize("name, options", SETTINGS[:2] + SETTINGS[-2:], ids=IDS[:2] + IDS[-2:])
    @pytest.mark.parametrize("per_chunk", [1, 3])
    def test_chunks_change_nothing(self, monkeypatch, pre_zones, name, options, per_chunk):
        # 8 cells in chunks of one, or of three with the last one partial
        for net, box, objectives in battery()[:12]:
            opts = replace(options, subdiv=SubdivisionGrid.uniform(box, [2, 4] + [1] * (box.dim - 2)))
            pre_zones.clear()
            whole = outcome(analyze, net, box, opts)
            whole_zones = pre_zones[:]
            pre_zones.clear()
            with monkeypatch.context() as m:
                m.setattr(network, "_CELL_FLOATS", per_chunk * network._cell_floats(net, options.track_all))
                split = outcome(analyze, net, box, opts)
            if isinstance(whole, tuple):
                assert split == whole
                continue
            assert same_bits(split.zone.entries, whole.zone.entries)
            assert same_bits(split._cell_stack[2], whole._cell_stack[2])
            for a, b in zip(split.bounds, whole.bounds):
                assert same_bits(a.lo, b.lo) and same_bits(a.hi, b.hi)
            whole_pre = last_pre_zones(whole_zones, net)
            assert same_bits(last_pre_zones(pre_zones, net), whole_pre) and len(whole_pre) == 8
            assert same_bits(split._hull, whole._hull)
            for a in assertions_of(box, objectives):
                assert check(a, split) == check(a, whole)

    def test_one_chunk_by_default(self, monkeypatch):
        sizes = []
        analyse = network._analyze_single

        def spy(net, box, options):
            sizes.append(box.lo.shape)
            return analyse(net, box, options)

        monkeypatch.setattr(network, "_analyze_single", spy)
        net, box, _ = battery()[0]
        analyze(net, box, AnalysisOptions(subdiv=SubdivisionGrid.uniform(box, [2, 4] + [1] * (box.dim - 2))))
        assert sizes == [(8, box.dim)]


class TestErrors:
    def test_first_failing_cell_decides(self, monkeypatch, running2_net, unit_box2):
        # the low-x1 cell fails at the second layer, the high-x1 cell at the
        # first; cell by cell, the low cell comes first and raises its error
        layer_zone = network._layer_zone

        def failing(zone, cur, layer, k, eps):
            low = np.atleast_1d(zone.entries[..., 1, 0] <= 0.0)
            if cur[0] == 0 and not low.all():
                raise EmptyAbstraction("a high cell fails at the first layer")
            if cur[0] != 0 and low.any():
                raise EmptyAbstraction("a low cell fails at the second layer")
            return layer_zone(zone, cur, layer, k, eps)

        monkeypatch.setattr(network, "_layer_zone", failing)
        grid = SubdivisionGrid.uniform(unit_box2, [2, 1])
        with pytest.raises(EmptyAbstraction, match="a low cell fails at the second layer"):
            analyze(running2_net, unit_box2, AnalysisOptions(subdiv=grid))


class TestMemory:
    def test_1024_cells_on_a_100_wide_layer(self, record_property):
        # 2 -> 100 -> 2 -> 1: the first layer's meet with its ReLU copies
        # is 203 x 203 per cell, 337 MB over 1024 cells in one stack; the
        # last layer's pre-activation zone, kept per cell, is 6 x 6.  In
        # chunks, a few stacked matrices of at most _CELL_FLOATS floats
        # (32 MB) each are alive at once: the bound allows three.
        rng = np.random.default_rng(9)
        sizes = (2, 100, 2, 1)
        net = Network(
            tuple(rng.standard_normal((b, a)) / np.sqrt(a) for a, b in zip(sizes, sizes[1:])),
            tuple(0.1 * rng.standard_normal(b) for b in sizes[1:]),
        )
        box = Box(-np.ones(2), np.ones(2))
        grid = SubdivisionGrid.uniform(box, [32, 32])
        assert 1 < network._CELL_FLOATS // network._cell_floats(net, False) < grid.n_cells
        tracemalloc.start()
        try:
            res = analyze(net, box, AnalysisOptions(subdiv=grid))
            verdict = check(LinearAssertion([0, 0], [1], 0.0), res)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        record_property("peak_mb", round(peak, 1))
        print(f"peak traced memory of 1024 stacked cells: {peak:.1f} MB")
        assert len(res.cells) == 1024 and verdict.verified
        assert peak < 3 * network._CELL_FLOATS * 8 / 2**20, f"{peak:.1f} MB"


class TestGridMustFitTheNetAndBox:
    def test_grid_dimension(self, running_net, unit_box2):
        grid = SubdivisionGrid.uniform(Box(-np.ones(3), np.ones(3)), 2)
        with pytest.raises(DimensionMismatch, match="the grid has 3 inputs, the network 2"):
            analyze(running_net, unit_box2, AnalysisOptions(subdiv=grid))

    @pytest.mark.parametrize("lo, hi", [([5, 5], [6, 6]), ([-1, -1], [1, 1.5]), ([-2, -1], [1, 1])])
    def test_grid_outside_the_box(self, running_net, unit_box2, lo, hi):
        grid = SubdivisionGrid.uniform(Box(lo, hi), 2)
        with pytest.raises(InvalidDomain, match="outside the input box"):
            analyze(running_net, unit_box2, AnalysisOptions(subdiv=grid))

    def test_grid_inside_the_box_within_eps(self, running_net, unit_box2):
        grid = SubdivisionGrid.uniform(Box([-1 - 1e-10, 0], [1, 1 + 1e-10]), 2)
        res = analyze(running_net, unit_box2, AnalysisOptions(subdiv=grid))
        assert np.array_equal(res.bounds[0].lo, grid.box.lo)
        assert np.array_equal(res.bounds[0].hi, grid.box.hi)

    def test_stacked_input_box_is_rejected(self, running_net):
        with pytest.raises(DimensionMismatch):
            analyze(running_net, Box(-np.ones((1, 2)), np.ones((1, 2))))


class TestCliSubdiv:
    def test_input_named_twice_exits_one(self, capsys):
        rc = run_cli(
            ["--network", str(FIXTURES / "running.nt"), "--spec", str(FIXTURES / "p2.spec"),
             "--subdiv", "x1:1,x1:2"]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "troprelu: error: --subdiv names x1 twice\n"

    def test_box_mode_grid_verifies_p2(self, capsys):
        rc = run_cli(
            ["--network", str(FIXTURES / "running.nt"), "--spec", str(FIXTURES / "p2.spec"),
             "--mode", "box", "--subdiv", "x1:2,x2:2"]
        )
        assert rc == 0
        assert "p2: Verified (min 0.25)" in capsys.readouterr().out
