"""The hull points a result keeps, and reading a big grid's hull.

The analysis turns each cell's last pre-activation zone into its n + 1
hull points on the tracked columns and keeps only those (``_hull``).
``internal`` filters them in groups of whole cells of at most
``network._HULL_ROWS`` rows, each group stacked on the hull of the groups
before it, so a big grid's hull is read in bounded memory; a grid of at
most that many rows is one group, the single filter over every point.
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
    TropInternal,
    VerdictStatus,
    analyze,
    check,
    extreme_filter,
)
from troprelu.cli import run_cli
from troprelu.errors import InfiniteEntry, TropReluError, UnboundedVariable
from troprelu.network import AbsDomain
from troprelu.sherlock import write_sherlock

from test_layer_chain import battery, settings
from test_stacked_cells import grid_of

SETTINGS = list(settings())
IDS = [name for name, _ in SETTINGS]


def net_2_100_1():
    """A 2 -> 100 -> 1 net without a final ReLU, on [-1, 1]^2: its last
    pre-activation zone has 104 slots, of which a result keeps 3."""
    rng = np.random.default_rng(0)
    w1 = rng.uniform(-1, 1, (100, 2))
    w2 = rng.uniform(-1, 1, (1, 100)) / 10
    b1 = rng.uniform(-0.5, 0.5, 100)
    b2 = rng.uniform(-0.5, 0.5, 1)
    return Network((w1, w2), (b1, b2), final_relu=False)


class TestGroupedFilter:
    @pytest.mark.parametrize("name, options", SETTINGS, ids=IDS)
    def test_one_cell_per_group_is_the_single_filter(self, monkeypatch, name, options):
        compared = 0
        for idx, (net, box, _) in enumerate(battery()):
            opts = replace(options, subdiv=grid_of(box))
            try:
                res = analyze(net, box, opts)
                single = res.internal.generators
            except TropReluError:
                continue
            cells, rows, dim = res._hull.shape
            assert cells * rows <= network._HULL_ROWS  # one group by default
            one_filter = extreme_filter(TropInternal(res._hull.reshape(-1, dim))).generators
            assert single.tobytes() == one_filter.tobytes(), idx
            with monkeypatch.context() as m:
                m.setattr(network, "_HULL_ROWS", 1)
                grouped = analyze(net, box, opts).internal.generators
            assert grouped.shape == single.shape and grouped.tobytes() == single.tobytes(), idx
            compared += 1
        assert compared > 0

    def test_groups_of_whole_cells(self, monkeypatch):
        # 3 of 4 cells in the first group; the hull so far goes on top of
        # the last cell's points
        net, box = net_2_100_1(), Box([-1.0, -1.0], [1.0, 1.0])
        res = analyze(net, box, AnalysisOptions(subdiv=SubdivisionGrid.uniform(box, [2, 2])))
        rows = res._hull.shape[1]
        inputs = []
        filter_ = network.extreme_filter

        def recorded(poly, eps):
            inputs.append(poly.generators)
            return filter_(poly, eps=eps)

        monkeypatch.setattr(network, "_HULL_ROWS", 3 * rows + rows // 2)
        monkeypatch.setattr(network, "extreme_filter", recorded)
        hull = res.internal.generators
        assert len(inputs) == 2
        assert inputs[0].tobytes() == res._hull[:3].reshape(-1, 3).tobytes()
        first = filter_(TropInternal(inputs[0])).generators
        assert inputs[1].tobytes() == np.vstack([first, res._hull[3]]).tobytes()
        assert hull.tobytes() == filter_(TropInternal(inputs[1])).generators.tobytes()


class TestBigGrid:
    def test_16x16_hull_in_bounded_memory(self):
        # 256 cells of 104 points: one filter over all of them would build
        # 26624^2 residuals (5.7 GB)
        net, box = net_2_100_1(), Box([-1.0, -1.0], [1.0, 1.0])
        res = analyze(net, box, AnalysisOptions(subdiv=SubdivisionGrid.uniform(box, [16, 16])))
        tracemalloc.start()
        try:
            hull = res.internal.generators
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, peak
        # every generator lies in the input box and the output bounds
        lo = np.append(box.lo, res.bounds[-1].lo) - 1e-9
        hi = np.append(box.hi, res.bounds[-1].hi) + 1e-9
        assert hull.shape[1] == 3 and ((hull >= lo) & (hull <= hi)).all()

    def test_result_holds_points_not_zones(self):
        # each cell keeps 104 x 3 floats, not its 104 x 104 pre-activation zone
        net, box = net_2_100_1(), Box([-1.0, -1.0], [1.0, 1.0])
        tracemalloc.start()
        try:
            res = analyze(net, box, AnalysisOptions(subdiv=SubdivisionGrid.uniform(box, [16, 16])))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res._hull.shape == (256, 104, 3)
        assert held < 4 * 2**20, held


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestOverflowingLastLayer:
    """h = -1e308 (x1 + x2) on [0, 1]^2 overflows on the whole box.  On a
    1 x 2 grid each cell's bounds stay finite, but its pre-activation zone
    keeps an infinite entry in the column of h, which only h's clamped
    copy reaches the hull through."""

    @staticmethod
    def net():
        return Network(([[-1e308, -1e308]],), ([0.0],), final_relu=True)

    BOX = Box([0.0, 0.0], [1.0, 1.0])

    def test_whole_box_is_unbounded(self):
        with pytest.raises(UnboundedVariable):
            analyze(self.net(), self.BOX)

    @pytest.mark.parametrize("domain", list(AbsDomain))
    def test_grid_checks_but_has_no_hull(self, domain):
        opts = AnalysisOptions(domain=domain, subdiv=SubdivisionGrid.uniform(self.BOX, [1, 2]))
        res = analyze(self.net(), self.BOX, opts)
        verdict = check(LinearAssertion([0, 0], [1], 0.0), res)
        assert verdict.status is VerdictStatus.VERIFIED and verdict.minimum == 0.0
        with pytest.raises(InfiniteEntry):
            res.internal

    @pytest.mark.parametrize("subdiv", [[], ["--subdiv", "x1:1,x2:2"]], ids=["whole box", "grid"])
    def test_cli_reports_a_typed_error(self, tmp_path, capsys, subdiv):
        write_sherlock(self.net(), tmp_path / "net.nt")
        (tmp_path / "p.spec").write_text(
            '{"input_box": [[0, 1], [0, 1]], "assertions": '
            '[{"name": "p", "in_coeffs": [0, 0], "out_coeffs": [1], "const": 0.0}]}'
        )
        code = run_cli(["--network", str(tmp_path / "net.nt"), "--spec", str(tmp_path / "p.spec"), *subdiv])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("troprelu: error:") and "Traceback" not in err
