"""One check path: every result is checked as a stack of cells.

A result without a grid is one cell, its input box and its zone, so a
1x1 grid and no grid give the same verdicts bit for bit.  A cell meets a
box (``dbm._box_meet_close``) only when the assertion restricts its
inputs; unrestricted, each cell zone goes to the LP as the analysis closed
it, and a grid's minimum is the least minimum of its cells analysed and
checked alone.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import troprelu.speccheck as speccheck
from troprelu import (
    AnalysisOptions,
    Box,
    Dbm,
    LinearAssertion,
    SubdivisionGrid,
    analyze,
    check,
    min_over_zone,
)
from troprelu.errors import EmptyFeasibleSet, TropReluError

from test_layer_chain import battery
from test_stacked_cells import IDS, SETTINGS, assertions_of, grid_of

INF = float("inf")


def analysed(net, box, options):
    try:
        return analyze(net, box, options)
    except TropReluError as exc:
        return type(exc)


def bits(v):
    return np.float64(v).tobytes()


class TestOneCellGrid:
    @pytest.mark.parametrize("name, options", SETTINGS, ids=IDS)
    def test_matches_no_grid(self, name, options):
        checked = 0
        for idx, (net, box, objectives) in enumerate(battery()):
            alone = analysed(net, box, options)
            grid = SubdivisionGrid.uniform(box, [1] * box.dim)
            one = analysed(net, box, replace(options, subdiv=grid))
            if isinstance(alone, type):
                assert one is alone, idx
                continue
            for a in assertions_of(box, objectives):
                want, got = check(a, alone), check(a, one)
                assert got.status is want.status and bits(got.minimum) == bits(want.minimum), idx
                checked += 1
        assert checked


class TestGridIsItsCells:
    @pytest.mark.parametrize("name, options", SETTINGS, ids=IDS)
    def test_least_cell_minimum(self, name, options):
        checked = 0
        for idx, (net, box, objectives) in enumerate(battery()):
            grid = grid_of(box)
            whole = analysed(net, box, replace(options, subdiv=grid))
            if isinstance(whole, type):
                continue
            cells = [(cell, analyze(net, cell, options)) for cell in grid.cells()]
            for a in assertions_of(box, objectives):
                minima = [check(a, res).minimum for cell, res in cells if a.restriction_box(cell) is not None]
                got = check(a, whole)
                assert bits(got.minimum) == bits(min(minima, default=INF)), idx
                checked += 1
        assert checked


class TestMeetOnlyUnderRestriction:
    @pytest.fixture
    def meets(self, monkeypatch):
        calls = []
        close = speccheck._box_meet_close

        def spy(z, *args):
            calls.append(z.shape)
            return close(z, *args)

        monkeypatch.setattr(speccheck, "_box_meet_close", spy)
        return calls

    @pytest.mark.parametrize("cells", [None, [2, 2], [1, 3]])
    def test_calls(self, meets, running2_net, unit_box2, cells):
        grid = None if cells is None else SubdivisionGrid.uniform(unit_box2, cells)
        res = analyze(running2_net, unit_box2, AnalysisOptions(subdiv=grid))
        n_cells = 1 if grid is None else grid.n_cells
        free = LinearAssertion([0.0, 0.0], [-1.0, 1.0], 0.5)
        check(free, res)
        assert meets == []
        restricted = replace(free, restrict=(None, (-1.0, 1.0)))
        check(restricted, res)
        assert len(meets) == 1 and meets[0][0] == n_cells
        meets.clear()
        check(replace(free, restrict=((2.0, 3.0), None)), res)  # disjoint: vacuous, no meet
        assert meets == []


class TestUnclosedZone:
    # x1 in [0, 1], x2 - x1 <= 0, x3 - x2 <= 0, x3 >= 0 (x2 >= x3 >= 0):
    # x3's upper bound is only on a path through x2 and x1
    E = np.array(
        [
            [0.0, 0.0, INF, 0.0],
            [1.0, 0.0, INF, INF],
            [INF, 0.0, 0.0, INF],
            [INF, INF, 0.0, 0.0],
        ]
    )

    def test_closes_first(self):
        assert min_over_zone(Dbm(self.E), Box([0.0], [0.5]), np.array([0.0, 0.0, -1.0]), restrict_slots=[1]) == -0.5

    def test_emptied_meet_raises(self):
        with pytest.raises(EmptyFeasibleSet):
            min_over_zone(Dbm(self.E), Box([2.0], [3.0]), np.array([0.0, 0.0, -1.0]), restrict_slots=[1])
