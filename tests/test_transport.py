"""The transportation solver behind the zone LP (``simplex._transport``).

``_transport(cost, sup, dem)`` returns -(cost of the cheapest flow that
ships every supply to the demands), or -inf when some demand cannot be
reached.  Hand-computed cases pin the free phase (zero reduced-cost arcs,
no search) and a search that reroutes flow over a backward arc; degenerate
inputs must terminate quickly; a hypothesis differential checks the value
against ``scipy.optimize.linprog``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from troprelu import Box, min_over_zone
from troprelu import simplex
from troprelu.simplex import _transport, minimize_over_dbm

from reference import best_zone_of_points

INF = float("inf")


def solve(cost, sup, dem):
    return _transport([list(map(float, row)) for row in cost], list(map(float, sup)), list(map(float, dem)))


@pytest.fixture
def searches(monkeypatch):
    """Counts the Dijkstra searches of the next solves."""
    calls = []
    real = simplex._search

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(simplex, "_search", counted)
    return calls


class TestHandComputed:
    def test_free_phase_alone(self, searches):
        # each sink's cheapest source covers it: 2 from source 0 to sink 0 at
        # cost 1, 1 from source 1 to sink 1 at cost 0
        cost = [[1.0, 5.0], [4.0, 0.0]]
        assert solve(cost, [2, 1], [2, 1]) == -(2 * 1.0 + 1 * 0.0)
        assert searches == []

    def test_free_phase_with_ties(self, searches):
        # all costs equal: every arc has reduced cost 0, any split is optimal
        assert solve([[3.0] * 3] * 3, [1, 2, 3], [2, 2, 2]) == -18.0
        assert searches == []

    def test_search_reroutes_over_a_backward_arc(self, searches):
        # sources A, B and sinks X, Y.  The free phase ships A -> X (cost 0);
        # Y's cheapest source A is then empty and B -> Y costs 3.  The search
        # finds B -> X -> A -> Y: B takes over X at 1, A moves to Y at 0.
        cost = [[0.0, 0.0], [1.0, 3.0]]
        assert solve(cost, [1, 1], [1, 1]) == -1.0
        assert len(searches) == 1

    def test_search_reaches_a_sink_only_through_a_flow_arc(self, searches):
        # as above with B -> Y missing: Y's only supplied source has no arc
        # to it, yet the path B -> X -> A -> Y exists
        cost = [[0.0, 0.0], [1.0, INF]]
        assert solve(cost, [1, 1], [1, 1]) == -1.0
        assert len(searches) == 1

    def test_value_is_the_cost_of_the_final_flow(self):
        # 3 x 3; an optimal flow is f = [[1, 0, 1], [0, 2, 0], [0, 0, 1]]
        cost = [[1.0, 4.0, 2.0], [3.0, 1.0, 5.0], [6.0, 2.0, 1.0]]
        assert solve(cost, [2, 2, 1], [1, 2, 2]) == -(1.0 + 2.0 + 2 * 1.0 + 1.0)


class TestUnbounded:
    def test_sink_without_a_finite_arc(self, searches):
        assert solve([[1.0, INF], [2.0, INF]], [1, 1], [1, 1]) == -INF
        assert searches == []

    def test_unreachable_after_free_shipments(self, searches):
        # A ships to X in the free phase; B has no finite arc, so Y's demand
        # (B's supply) has nowhere to go: the search reaches no sink
        cost = [[0.0, 0.0], [INF, INF]]
        assert solve(cost, [1, 1], [1, 1]) == -INF
        assert len(searches) == 1


class TestDegenerateInputsTerminate:
    """Ties everywhere and supplies that differ in the last bit: every
    case must finish, and all of them together well under the bound."""

    BOUND_S = 10.0

    def cases(self):
        rng = np.random.default_rng(7)
        one = np.nextafter(1.0, 2.0)
        for n in (5, 20, 40):
            sup = rng.integers(1, 5, size=n).astype(float)
            dem = rng.permutation(sup)
            yield np.ones((n, n)), sup, dem  # all-equal costs
            yield rng.integers(0, 3, size=(n, n)).astype(float), sup, dem  # integer ties
            ulp_sup = np.where(np.arange(n) % 2 == 0, 1.0, one)
            yield rng.integers(0, 2, size=(n, n)).astype(float), ulp_sup, ulp_sup[::-1].copy()
            yield np.zeros((n, n)), np.full(n, 1.0), np.full(n, one)  # demand one ulp above supply
            yield np.ones((n, n)), np.full(n, one), np.full(n, 1.0)  # supply one ulp above demand

    def test_terminates(self):
        t0 = time.perf_counter()
        for cost, sup, dem in self.cases():
            val = _transport(cost.tolist(), sup.tolist(), dem.tolist())
            assert np.isfinite(val)
            # no cheaper than the cheapest arc, no dearer than the dearest
            total = min(sup.sum(), dem.sum())
            assert -cost.max() * total * (1 + 1e-12) <= val <= -cost.min() * total * (1 - 1e-12) + 1e-12
        assert time.perf_counter() - t0 < self.BOUND_S

    def test_point_zone(self):
        # every DBM entry 0: all arcs tie at cost 0
        zone = best_zone_of_points(np.zeros((1, 30)))
        obj = np.random.default_rng(3).uniform(-1, 1, size=30)
        t0 = time.perf_counter()
        assert min_over_zone(zone, None, obj) == 0.0
        assert time.perf_counter() - t0 < self.BOUND_S


def linprog_transport(cost, sup, dem) -> float:
    """-(min cost of the transportation problem), -inf when infeasible.

    HiGHS runs at its tightest feasibility tolerances (1e-10): at the
    default 1e-7 it may stop at a vertex that pays a reduced cost below
    1e-7 per unit, e.g. 5.96e-8 where a flow of cost 0 exists."""
    from scipy.optimize import linprog

    n_s, n_t = cost.shape
    arcs = [(i, j) for i in range(n_s) for j in range(n_t) if np.isfinite(cost[i, j])]
    if not arcs:
        return -INF
    a_eq = np.zeros((n_s + n_t, len(arcs)))
    for k, (i, j) in enumerate(arcs):
        a_eq[i, k] = a_eq[n_s + j, k] = 1.0
    res = linprog(
        [cost[i, j] for i, j in arcs],
        A_eq=a_eq,
        b_eq=np.r_[sup, dem],
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status == 2:
        return -INF
    assert res.status == 0, res.message
    return -float(res.fun)


@st.composite
def problems(draw):
    n_s = draw(st.integers(2, 6))
    n_t = draw(st.integers(2, 6))
    if draw(st.booleans()):
        cost = np.array(draw(st.lists(st.integers(-3, 3), min_size=n_s * n_t, max_size=n_s * n_t)), float)
    else:
        finite = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
        cost = np.array(draw(st.lists(finite, min_size=n_s * n_t, max_size=n_s * n_t)))
    missing = draw(st.lists(st.booleans(), min_size=n_s * n_t, max_size=n_s * n_t))
    if draw(st.integers(0, 3)) == 0:
        cost[np.array(missing)] = INF
    cost = cost.reshape(n_s, n_t)
    # supplies and demands are the row and column sums of a positive integer
    # flow, so that they balance exactly
    flow = np.array(draw(st.lists(st.integers(0, 3), min_size=n_s * n_t, max_size=n_s * n_t))).reshape(n_s, n_t)
    flow[np.arange(n_s), np.arange(n_s) % n_t] += 1
    flow[np.arange(n_t) % n_s, np.arange(n_t)] += 1
    sup, dem = flow.sum(axis=1).astype(float), flow.sum(axis=0).astype(float)
    return cost, sup, dem


@settings(max_examples=300, deadline=None)
@given(problems())
@example((np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0**-24]]), np.array([3.0, 2.0]), np.array([2.0, 2.0, 1.0])))
def test_matches_linprog(problem):
    pytest.importorskip("scipy")
    cost, sup, dem = problem
    want = linprog_transport(cost, sup, dem)
    got = _transport(cost.tolist(), sup.tolist(), dem.tolist())
    if want == -INF:
        assert got == -INF
    else:
        assert abs(got - want) <= 1e-9 * (1.0 + abs(want)), (got, want)


def test_doubled_space_problem():
    # an octagon-sized program: the zone LP over 2 x 40 variables, objective
    # a/2 on +v and -a/2 on -v, as the doubled space of a 40-variable octagon
    pytest.importorskip("scipy")
    from test_zone_lp import linprog_minimum

    rng = np.random.default_rng(12)
    pts = rng.normal(size=(30, 40))
    zone = best_zone_of_points(np.hstack([pts, -pts]))
    a = rng.uniform(-1, 1, size=40)
    obj = np.r_[a / 2, -a / 2]
    got = minimize_over_dbm(obj, zone.entries)
    want = linprog_minimum(zone, obj)
    assert abs(got - want) <= 1e-9 * (1.0 + abs(want))
    # and a box's zone LP matches its closed form
    box = Box(-np.ones(40), np.ones(40)).to_dbm()
    assert minimize_over_dbm(a, box.entries) == pytest.approx(-np.abs(a).sum(), abs=1e-12)
