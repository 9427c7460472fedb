import json

import numpy as np
import pytest

from troprelu import (
    AffineLayer,
    AnalysisOptions,
    Box,
    Network,
    SubdivisionGrid,
    analyze,
    dbm_contains,
    external_membership_many,
    internal_membership_many,
    internal_to_zone,
    proj_internal,
    subdivide_constraints,
    zone_constants,
    zone_external,
)
from troprelu.cli import run_cli
from troprelu.errors import CellBudgetExceeded, InvalidDomain
from troprelu.tropical import zone_to_internal

from conftest import FIXTURES, assert_gen_set
from reference import intersect_external

NEG = float("-inf")


def row(dim, const=NEG, **terms):
    v = np.full(1 + dim, NEG)
    v[0] = const
    for key, c in terms.items():
        v[int(key[1:])] = c
    return v


def has_row(ext, lhs, rhs, tol=1e-12):
    for l, r in zip(ext.lhs, ext.rhs):
        if np.allclose(np.nan_to_num(l, neginf=-9e9), np.nan_to_num(lhs, neginf=-9e9), atol=tol) and np.allclose(
            np.nan_to_num(r, neginf=-9e9), np.nan_to_num(rhs, neginf=-9e9), atol=tol
        ):
            return True
    return False


class TestGeneralConstraints:
    def test_negative_half_slopes_three_rows(self, unit_box2):
        layer = AffineLayer([[-0.5, -0.5]], [0.0], unit_box2)
        grid = SubdivisionGrid.uniform(unit_box2, 2)
        out = subdivide_constraints(layer, grid)
        assert out.n_rows == 3
        assert has_row(out, row(3, const=0), row(3, v1=0, v3=0.5))
        assert has_row(out, row(3, const=0), row(3, v2=0, v3=0.5))
        assert has_row(out, row(3, const=0), row(3, v1=0, v2=0, v3=0))

    def test_positive_half_slopes_group_row(self, unit_box2):
        layer = AffineLayer([[0.5, 0.5]], [0.0], unit_box2)
        grid = SubdivisionGrid.uniform(unit_box2, 2)
        out = subdivide_constraints(layer, grid)
        # y <= max(x1, x2): the slopes sum to one, so the 0 branch drops
        assert has_row(out, row(3, v3=0), row(3, v1=0, v2=0))

    def test_no_interior_cuts_no_rows(self, unit_box2):
        layer = AffineLayer([[0.5, 0.5]], [0.0], unit_box2)
        grid = SubdivisionGrid.uniform(unit_box2, 1)
        assert subdivide_constraints(layer, grid).n_rows == 0

    def test_rows_never_exclude_graph_points(self, rng, unit_box2):
        for _ in range(10):
            layer = AffineLayer(rng.uniform(-2, 2, size=(3, 2)), rng.uniform(-1, 1, size=3), unit_box2)
            grid = SubdivisionGrid.uniform(unit_box2, int(rng.integers(2, 5)))
            extra = subdivide_constraints(layer, grid)
            g = np.linspace(-1, 1, 35)
            xs = np.array(np.meshgrid(g, g)).reshape(2, -1).T
            pts = np.hstack([xs, layer.apply(xs)])
            assert external_membership_many(extra, pts, eps=1e-9).all()

    def test_rows_tighten_base_system(self, rng, unit_box2):
        layer = AffineLayer([[0.5, 0.5]], [0.0], unit_box2)
        grid = SubdivisionGrid.uniform(unit_box2, 2)
        base = zone_external(zone_constants(layer), layer)
        both = intersect_external(base, subdivide_constraints(layer, grid))
        probes = np.column_stack(
            [rng.uniform(-1, 1, 3000), rng.uniform(-1, 1, 3000), rng.uniform(-1.2, 1.2, 3000)]
        )
        in_base = external_membership_many(base, probes)
        in_both = external_membership_many(both, probes)
        assert (in_both <= in_base).all()
        assert in_both.sum() < in_base.sum()


class TestCellwise:
    """The cell engine: ``analyze`` with a grid, on one-layer nets whose
    tracked values are the inputs and the clamped outputs."""

    @staticmethod
    def one_layer(rng):
        return Network((rng.uniform(-2, 2, size=(2, 2)),), (rng.uniform(-1, 1, 2),), final_relu=True)

    def test_running_split_on_first_input(self, running_net, unit_box2):
        grid = SubdivisionGrid((np.array([-1.0, 0.0, 1.0]), np.array([-1.0, 1.0])))
        res = analyze(running_net, unit_box2, AnalysisOptions(subdiv=grid))
        assert_gen_set(proj_internal(res.internal, res.output_slots), [[0, 0], [1, 1], [0, 3]])

    def test_per_cell_zones_when_splitting_second_input(self, running_net, unit_box2):
        # each cell's clamped output hull is a zone of its own; the second
        # cell degenerates to a segment
        grid = SubdivisionGrid((np.array([-1.0, 1.0]), np.array([-1.0, 0.0, 1.0])))
        res = analyze(running_net, unit_box2, AnalysisOptions(subdiv=grid))
        expect = ([[0, 0], [1, 1], [0, 2]], [[0, 0], [0, 3]])
        for (cell, zone), want in zip(res.cells, expect):
            assert_gen_set(proj_internal(zone_to_internal(zone), res.output_slots), want)
            assert np.array_equal(zone.entries, analyze(running_net, cell).zone.entries)

    def test_single_cell_equals_unsubdivided(self, running_net, unit_box2):
        grid = SubdivisionGrid.uniform(unit_box2, 1)
        res = analyze(running_net, unit_box2, AnalysisOptions(subdiv=grid))
        base = analyze(running_net, unit_box2)
        assert np.array_equal(res.zone.entries, base.zone.entries)
        assert_gen_set(res.internal, base.internal.generators)

    def test_soundness(self, rng, unit_box2):
        net = self.one_layer(rng)
        grid = SubdivisionGrid.uniform(unit_box2, 3)
        res = analyze(net, unit_box2, AnalysisOptions(subdiv=grid))
        xs = unit_box2.sample(rng, 800)
        pts = np.hstack([xs, net.forward(xs)])
        assert internal_membership_many(res.internal, pts, eps=1e-9).all()
        assert dbm_contains(res.zone, pts, eps=1e-9).all()

    def test_monotone_refinement(self, rng, unit_box2):
        net = self.one_layer(rng)
        prev = None
        for n_cells in (1, 2, 4, 8):
            grid = SubdivisionGrid.uniform(unit_box2, [n_cells, n_cells])
            zone = internal_to_zone(analyze(net, unit_box2, AnalysisOptions(subdiv=grid)).internal)
            if prev is not None:
                assert (zone.entries <= prev.entries + 1e-9).all()
            prev = zone

    def test_cell_budget(self, unit_box2, running_net):
        grid = SubdivisionGrid.uniform(unit_box2, [40, 40])
        with pytest.raises(CellBudgetExceeded):
            analyze(running_net, unit_box2, AnalysisOptions(subdiv=grid))


class TestGrid:
    def test_uniform_cells(self, unit_box2):
        grid = SubdivisionGrid.uniform(unit_box2, [2, 3])
        cells = list(grid.cells())
        assert len(cells) == 6 == grid.n_cells
        assert np.allclose(cells[0].lo, [-1, -1])
        assert np.allclose(cells[-1].hi, [1, 1])

    def test_validation(self):
        with pytest.raises(InvalidDomain):
            SubdivisionGrid((np.array([1.0, 0.0]),))
        with pytest.raises(InvalidDomain):
            SubdivisionGrid.uniform(Box([0], [1]), [0])


POINT_SPEC = {
    "input_box": [[0.3, 0.3], [-1, 1]],
    "assertions": [{"name": "q", "in_coeffs": [1, 0], "out_coeffs": [0, 0], "const": 0.0}],
}


def _point_argv(tmp_path):
    spec = tmp_path / "point.spec"
    spec.write_text(json.dumps(POINT_SPEC))
    return ["--network", str(FIXTURES / "running.nt"), "--spec", str(spec)]


class TestPointInterval:
    """A point input interval [c, c] is one cell; the other inputs may be cut."""

    def test_one_cell_axis(self):
        grid = SubdivisionGrid.uniform(Box([0.3, -1], [0.3, 1]), [1, 2])
        assert grid.n_cells == 2
        assert [(c.lo.tolist(), c.hi.tolist()) for c in grid.cells()] == [
            ([0.3, -1.0], [0.3, 0.0]),
            ([0.3, 0.0], [0.3, 1.0]),
        ]
        assert SubdivisionGrid((np.array([0.3, 0.3]),)).n_cells == 1

    @pytest.mark.parametrize("cuts", [[0.3, 0.3, 0.3], [0.3, 0.3, 1.0], [0.0, 0.3, 0.3]])
    def test_only_a_single_cell_may_have_zero_width(self, cuts):
        with pytest.raises(InvalidDomain, match="strictly increasing"):
            SubdivisionGrid((np.array(cuts),))

    @pytest.mark.parametrize("hi", [0.5, np.nextafter(0.5, 1.0)])
    def test_cutting_a_point_names_the_input(self, hi):
        with pytest.raises(InvalidDomain, match=r"input x2 in \[0\.5, .*\] is too narrow for 3 cells"):
            SubdivisionGrid.uniform(Box([-1, 0.5], [1, hi]), [2, 3])

    def test_cells_cover_the_traces(self, running2_net):
        box = Box([0.3, -1], [0.3, 1])
        res = analyze(running2_net, box, AnalysisOptions(subdiv=SubdivisionGrid.uniform(box, [1, 2])))
        xs = np.column_stack([np.full(41, 0.3), np.linspace(-1, 1, 41)])
        for b, v in zip(res.bounds, running2_net.trace(xs)):
            assert b.contains(v, eps=1e-9).all()

    @pytest.mark.parametrize(
        "flags", [[], ["--mode", "box"], ["--mode", "external"], ["--domain", "octagon"], ["--track", "all"]]
    )
    def test_cli_subdivides_the_other_input(self, flags, tmp_path, capsys):
        argv = _point_argv(tmp_path) + ["--subdiv", "x2:2", *flags]
        assert run_cli(argv + ["--report", str(tmp_path / "r.json")]) == 0
        assert capsys.readouterr().out.splitlines() == ["q: Verified (min 0.3)"]

    def test_cli_rejects_cutting_the_point(self, tmp_path, capsys):
        assert run_cli(_point_argv(tmp_path) + ["--subdiv", "x1:2"]) == 1
        assert "input x1 in [0.3, 0.3] is too narrow for 2 cells" in capsys.readouterr().err
