"""One path for a subdivision grid, and the external system built in one pass.

``incremental_external_system`` is the layer-by-layer build that the one-pass
``network._external_system`` replaced: it embeds the system so far into each
new block of columns and stacks the new rows under it.  The one-pass build
must give the same rows bit for bit, signed zeros included.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import troprelu.cli as cli
import troprelu.network as network
from troprelu import (
    AnalysisOptions,
    Box,
    ChainMode,
    LinearAssertion,
    SubdivisionGrid,
    TropExternal,
    analyze,
    check,
    check_with_subdivision,
    relu_external,
    zone_external,
)
from troprelu.cli import run_cli
from troprelu.errors import CellBudgetExceeded, MalformedFile, VariableMismatch
from troprelu.maxplus import BOTTOM
from troprelu.sherlock import parse_sherlock_tokens
from troprelu.subdivision import CELL_BUDGET, check_cell_budget

from conftest import FIXTURES, random_box, random_network
from reference import emb_external, intersect_external


def ext_embed(p_ext, cur_slots, n_before_new, n_new):
    total = n_before_new + n_new
    lhs = np.full((p_ext.n_rows, 1 + total), BOTTOM)
    rhs = np.full((p_ext.n_rows, 1 + total), BOTTOM)
    src_cols = [0] + [s + 1 for s in cur_slots] + [n_before_new + j + 1 for j in range(n_new)]
    lhs[:, src_cols] = p_ext.lhs
    rhs[:, src_cols] = p_ext.rhs
    return TropExternal(lhs, rhs)


def incremental_external_system(net, layers):
    ext = TropExternal.empty(net.n_inputs)
    ext_map = [("x", 0, j) for j in range(net.n_inputs)]
    feed = list(range(net.n_inputs))
    for li, (layer, k) in enumerate(layers):
        n_new = layer.n_outputs
        p_ext = zone_external(k, layer)
        h_dims = list(range(len(ext_map), len(ext_map) + n_new))
        ext_map += [("pre", li + 1, j) for j in range(n_new)]
        p_big = ext_embed(p_ext, feed, len(ext_map) - n_new, n_new)
        ext = intersect_external(emb_external(ext, n_new, ext.dim), p_big)
        feed = h_dims
        if net.has_relu(li):
            feed = list(range(len(ext_map), len(ext_map) + n_new))
            ext_map += [("post", li + 1, j) for j in range(n_new)]
            ext = emb_external(ext, n_new, ext.dim)
            ext = intersect_external(
                ext, relu_external(ext, h_dims, feed, Box(k.out_lo, k.out_hi))
            )
    return ext, ext_map


def chain_layers(monkeypatch, net, box, opts):
    """One pass of the layer chain, and the (layer, zone constants) pairs
    it builds, caught as it builds them."""
    seen = []
    real = network.zone_constants

    def spy(layer):
        seen.append((layer, real(layer)))
        return seen[-1][1]

    with monkeypatch.context() as m:
        m.setattr(network, "zone_constants", spy)
        res = network._analyze_single(net, box, opts)
    return res, seen


def assert_bit_identical(got, want):
    assert got.lhs.shape == want.lhs.shape
    for a, b in ((got.lhs, want.lhs), (got.rhs, want.rhs)):
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


class TestOnePassExternalSystem:
    @pytest.mark.parametrize("final_relu", [True, False])
    @pytest.mark.parametrize("track_all", [False, True])
    def test_equals_incremental_build(self, monkeypatch, final_relu, track_all):
        rng = np.random.default_rng(1010)
        opts = AnalysisOptions(mode=ChainMode.EXTERNAL, track_all=track_all)
        layer_counts = set()
        for _ in range(10):
            net = random_network(rng, max_layers=3, max_width=5, final_relu=final_relu)
            box = random_box(rng, net.n_inputs)
            layer_counts.add(net.n_layers)
            res, layers = chain_layers(monkeypatch, net, box, opts)
            want, want_map = incremental_external_system(net, layers)
            got, got_map = network._external_system(net, res.diagnostics["layers"])
            assert got_map == want_map
            assert_bit_identical(got, want)
            full = analyze(net, box, opts)
            assert full.diagnostics["external_map"] == want_map
            assert_bit_identical(full.diagnostics["external"], want)
        assert layer_counts == {1, 2, 3}

    def test_signed_zeros_survive(self, monkeypatch):
        # the ReLU row y - h <= -min(0, h_lo) gives -0.0 when h_lo is 0.0
        net = network.Network(([[1.0, 0.0]], [[1.0]]), ([0.0], [0.0]))
        box = Box([0.0, -1.0], [1.0, 1.0])
        opts = AnalysisOptions(mode=ChainMode.EXTERNAL)
        res, layers = chain_layers(monkeypatch, net, box, opts)
        got, _ = network._external_system(net, res.diagnostics["layers"])
        want, _ = incremental_external_system(net, layers)
        assert np.signbit(got.rhs[got.rhs == 0.0]).any()
        assert_bit_identical(got, want)


class TestCellBudget:
    GRID_COUNTS = [33, 32]  # 1056 cells

    def message(self, n_cells):
        with pytest.raises(CellBudgetExceeded) as exc:
            check_cell_budget(n_cells)
        return str(exc.value)

    def raised_by_check(self, exc):
        last = exc.traceback[-1]
        return last.name == "check_cell_budget" and last.path.name == "subdivision.py"

    def test_budget_is_the_constant(self):
        check_cell_budget(CELL_BUDGET)
        assert self.message(CELL_BUDGET + 1) == f"{CELL_BUDGET + 1} cells exceed the budget of 1024"

    def test_engine_raises_through_check(self, running_net, unit_box2):
        grid = SubdivisionGrid.uniform(unit_box2, self.GRID_COUNTS)
        with pytest.raises(CellBudgetExceeded) as exc:
            analyze(running_net, unit_box2, AnalysisOptions(subdiv=grid))
        assert self.raised_by_check(exc)
        assert str(exc.value) == self.message(1056)

    def test_cli_reports_the_check(self, monkeypatch, capsys):
        calls = []

        def spy(n_cells, *args):
            calls.append(n_cells)
            return check_cell_budget(n_cells, *args)

        monkeypatch.setattr(cli, "check_cell_budget", spy)
        rc = run_cli(
            ["--network", str(FIXTURES / "running.nt"), "--spec", str(FIXTURES / "p2.spec"),
             "--subdiv", "x1:33,x2:32"]
        )
        assert rc == 1 and calls == [1056]
        assert capsys.readouterr().err == f"troprelu: error: {self.message(1056)}\n"

    def test_cli_checks_before_building_cuts(self, monkeypatch, capsys):
        def no_grid(*args, **kwargs):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(SubdivisionGrid, "uniform", staticmethod(no_grid))
        argv = ["--network", str(FIXTURES / "running.nt"), "--spec", str(FIXTURES / "p2.spec"),
                "--subdiv", "x1:2000000"]
        tracemalloc.start()
        try:
            rc = run_cli(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 1
        assert "2000000 cells exceed the budget of 1024" in capsys.readouterr().err
        assert peak < 2 * 2**20


class TestGridMeansCells:
    def test_external_mode_with_grid_verifies_p2(self, running_net, unit_box2):
        # p2 on the running net: Unknown on the whole box, Verified on a 2x1 grid
        grid = SubdivisionGrid.uniform(unit_box2, [2, 1])
        p2 = LinearAssertion([0, 0], [-1, 0], 0.5, ((-0.25, 0.25), None), "p2")
        for mode in ChainMode:
            whole = check(p2, analyze(running_net, unit_box2, AnalysisOptions(mode=mode)))
            split = analyze(running_net, unit_box2, AnalysisOptions(mode=mode, subdiv=grid))
            assert not whole.verified
            assert len(split.cells) == 2 and "external" not in split.diagnostics
            v = check(p2, split)
            assert v.verified and v.minimum == 0.25, mode
            assert check_with_subdivision(p2, running_net, unit_box2, grid, AnalysisOptions(mode=mode)) == v

    def test_cli_external_mode_with_grid(self, capsys):
        rc = run_cli(
            ["--network", str(FIXTURES / "running.nt"), "--spec", str(FIXTURES / "p2.spec"),
             "--mode", "external", "--subdiv", "x1:2"]
        )
        assert rc == 0
        assert "p2: Verified (min 0.25)" in capsys.readouterr().out


class TestNonFiniteCounts:
    @pytest.mark.parametrize("token", ["inf", "nan", "1e400"])
    def test_parser_rejects(self, token):
        with pytest.raises(MalformedFile, match="nonnegative integer"):
            parse_sherlock_tokens(["2", token, "0", "1", "1", "0", "1", "1", "0"])

    @pytest.mark.parametrize("token", ["inf", "nan", "1e400"])
    def test_cli_exits_one(self, token, tmp_path, capsys):
        path = tmp_path / "bad.nt"
        path.write_text(f"2\n2\n{token}\n1\n-1\n-1\n1\n1\n1\n")
        rc = run_cli(["--network", str(path), "--spec", str(FIXTURES / "p2.spec")])
        err = capsys.readouterr().err
        assert rc == 1 and "hidden layer count" in err and "Traceback" not in err

    def test_fixture_exits_one(self, capsys):
        rc = run_cli(["--network", str(FIXTURES / "inf_count.nt"), "--spec", str(FIXTURES / "p2.spec")])
        assert rc == 1 and "hidden layer count" in capsys.readouterr().err


class TestRestrictionLength:
    @pytest.mark.parametrize("restrict", [((-0.5, 0.5),), ((-0.5, 0.5), None, (0.0, 1.0))])
    @pytest.mark.parametrize("counts", [None, [2, 1]])
    def test_wrong_length_raises(self, restrict, counts, running_net, unit_box2):
        grid = None if counts is None else SubdivisionGrid.uniform(unit_box2, counts)
        res = analyze(running_net, unit_box2, AnalysisOptions(subdiv=grid))
        a = LinearAssertion([0, 0], [1, 0], 0.0, restrict)
        with pytest.raises(VariableMismatch, match="restriction lists"):
            check(a, res)
