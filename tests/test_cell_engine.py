"""The cell engine: one analysis per grid cell, shared by bounds and checks.

``reference_check`` is the per-assertion loop that the engine replaced: it
analyses every cell meeting the assertion's restriction again for each
assertion and checks the assertion restricted to that cell.  The engine must
give the same status and exactly the same minimum.
"""

from __future__ import annotations

import numpy as np
import pytest

import troprelu.network as network
from troprelu import (
    AbsDomain,
    AnalysisOptions,
    Box,
    ChainMode,
    LinearAssertion,
    Network,
    SubdivisionGrid,
    Verdict,
    VerdictStatus,
    analyze,
    check,
    check_with_subdivision,
)
from troprelu.cli import run_cli
from troprelu.dbm import EMPTY

from conftest import FIXTURES

SETTINGS = [
    (mode, AbsDomain.ZONE, track_all)
    for mode in (ChainMode.BOX, ChainMode.ZONE, ChainMode.EXTERNAL)
    for track_all in (False, True)
] + [(ChainMode.ZONE, AbsDomain.OCTAGON, track_all) for track_all in (False, True)]


def reference_check(a, net, in_box, grid, options, eps=1e-9):
    """One analysis per cell per assertion, as before the cell engine."""
    restriction = a.restriction_box(in_box)
    if restriction is None:
        return Verdict(VerdictStatus.VERIFIED, float("inf"), "vacuous")
    cell_options = AnalysisOptions(
        mode=options.mode,
        domain=options.domain,
        track_all=options.track_all,
        eps=options.eps,
    )
    worst = float("inf")
    all_ok = True
    for cell in grid.cells():
        meet = cell.intersect(restriction)
        if meet is EMPTY:
            continue
        res = analyze(net, cell, cell_options)
        intervals = tuple((float(lo), float(hi)) for lo, hi in zip(meet.lo, meet.hi))
        v = check(LinearAssertion(a.in_coeffs, a.out_coeffs, a.const, intervals), res, eps=eps)
        worst = min(worst, v.minimum)
        all_ok &= v.verified
    status = VerdictStatus.VERIFIED if all_ok else VerdictStatus.UNKNOWN
    return Verdict(status, worst, "cellwise-zone-lp")


def seeded_case(rng):
    """A small net, its input box, a grid and three assertions: unrestricted,
    restricted to part of the box, and restricted outside it (vacuous)."""
    n_in = int(rng.integers(2, 4))
    sizes = [n_in] + [int(rng.integers(2, 6)) for _ in range(int(rng.integers(1, 4)))]
    weights = [rng.standard_normal((b, a)) for a, b in zip(sizes, sizes[1:])]
    biases = [0.5 * rng.standard_normal(b) for b in sizes[1:]]
    net = Network(tuple(weights), tuple(biases), final_relu=bool(rng.integers(0, 2)))
    lo = rng.uniform(-1, 0, n_in)
    box = Box(lo, lo + rng.uniform(0.5, 2, n_in))
    grid = SubdivisionGrid.uniform(box, [2, 2] + [1] * (n_in - 2))
    c_in, c_out = rng.uniform(-1, 1, n_in), rng.uniform(-1, 1, sizes[-1])
    mid = (box.lo + box.hi) / 2
    partial = tuple((float(m) - 0.1, float(h)) for m, h in zip(mid, box.hi))
    outside = ((float(box.hi[0]) + 1.0, float(box.hi[0]) + 2.0),) + (None,) * (n_in - 1)
    assertions = [
        LinearAssertion(c_in, c_out, 0.5, None, "free"),
        LinearAssertion(c_in, c_out, 0.5, partial, "part"),
        LinearAssertion(c_in, c_out, 0.5, outside, "vacuous"),
    ]
    return net, box, grid, assertions


class TestEngineMatchesReference:
    @pytest.mark.parametrize("mode,domain,track_all", SETTINGS)
    def test_same_status_and_minimum(self, mode, domain, track_all):
        rng = np.random.default_rng(31)
        options = AnalysisOptions(mode=mode, domain=domain, track_all=track_all)
        for _ in range(5):
            net, box, grid, assertions = seeded_case(rng)
            result = analyze(net, box, AnalysisOptions(mode=mode, domain=domain, track_all=track_all, subdiv=grid))
            assert len(result.cells) == grid.n_cells
            for a in assertions:
                want = reference_check(a, net, box, grid, options)
                got = check(a, result)
                assert (got.status, got.minimum, got.method) == (want.status, want.minimum, want.method), a.name
            wrapped = check_with_subdivision(assertions[1], net, box, grid, options)
            assert wrapped == check(assertions[1], result)


def tol(v):
    return 1e-9 * (1 + np.abs(v))


class TestSubdividedBounds:
    @pytest.mark.parametrize("mode,domain,track_all", SETTINGS)
    def test_every_stage_sound_and_never_looser(self, mode, domain, track_all):
        rng = np.random.default_rng(32)
        for _ in range(5):
            net, box, grid, _ = seeded_case(rng)
            opts = AnalysisOptions(mode=mode, domain=domain, track_all=track_all)
            whole = analyze(net, box, opts)
            split = analyze(net, box, AnalysisOptions(mode=mode, domain=domain, track_all=track_all, subdiv=grid))
            assert len(split.bounds) == net.n_layers + 1
            assert all(b is not None for b in split.bounds)
            x = rng.uniform(box.lo, box.hi, size=(500, box.dim))
            for s, (b, w, v) in enumerate(zip(split.bounds, whole.bounds, net.trace(x))):
                assert (v >= b.lo - tol(b.lo)).all() and (v <= b.hi + tol(b.hi)).all(), s
                assert (b.lo >= w.lo - tol(w.lo)).all() and (b.hi <= w.hi + tol(w.hi)).all(), s


class TestCliCellBudget:
    def test_grid_over_budget_exits_one(self, monkeypatch, capsys):
        def no_cell(*args, **kwargs):
            raise AssertionError("a cell was analysed")

        monkeypatch.setattr(network, "_analyze_single", no_cell)
        rc = run_cli(
            [
                "--network",
                str(FIXTURES / "running.nt"),
                "--spec",
                str(FIXTURES / "p2.spec"),
                "--subdiv",
                "x1:33,x2:32",
            ]
        )
        assert rc == 1
        assert "1056 cells exceed the budget of 1024" in capsys.readouterr().err

