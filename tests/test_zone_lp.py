"""The zone LP as a transportation problem (``simplex.minimize_over_dbm``).

Forced flows (one source or one sink) are checked against their closed
forms, the general case against ``scipy.optimize.linprog`` on seeded
closed zones, including integer ties, point zones and zones with missing
entries, whose programs can be unbounded.
"""

from __future__ import annotations

import numpy as np
import pytest

from troprelu import Box, Dbm, best_zone_of_points, dbm_close, min_over_zone
from troprelu.dbm import EMPTY
from troprelu.errors import EmptyFeasibleSet, InvalidObjective
from troprelu.simplex import minimize_over_dbm

from test_speccheck import vertex_minimum

INF = float("inf")

# x1 in [0, 4], x2 in [1, 3], x3 in [-2, 2], x2 - x1 <= 1, x3 - x2 <= -1
ZONE = dbm_close(
    Dbm(
        np.array(
            [
                [0.0, 0.0, -1.0, 2.0],
                [4.0, 0.0, INF, INF],
                [3.0, 1.0, 0.0, INF],
                [2.0, INF, -1.0, 0.0],
            ]
        )
    )
)


class TestForcedFlow:
    """Slot v supplies -a_v and slot 0 supplies sum(a)."""

    def test_one_source_at_the_constant(self):
        # a = (1, 1, 1): slot 0 ships 1 to each variable, the sum of the
        # lower bounds
        m = ZONE.entries
        val = minimize_over_dbm(np.ones(3), m)
        assert val == -(m[0, 1] + m[0, 2] + m[0, 3])
        assert val == pytest.approx(vertex_minimum(ZONE, np.ones(3)), abs=1e-12)

    def test_one_sink_at_the_constant(self):
        m = ZONE.entries
        val = minimize_over_dbm(-np.ones(3), m)
        assert val == -(m[1, 0] + m[2, 0] + m[3, 0])
        assert val == pytest.approx(vertex_minimum(ZONE, -np.ones(3)), abs=1e-12)

    def test_one_source_at_a_variable(self):
        # a = (-2, 1, 1) balances at slot 0: x1 ships 1 to x2 and 1 to x3
        m = ZONE.entries
        obj = np.array([-2.0, 1.0, 1.0])
        assert minimize_over_dbm(obj, m) == -(m[1, 2] + m[1, 3])
        assert minimize_over_dbm(obj, m) == pytest.approx(vertex_minimum(ZONE, obj), abs=1e-12)

    def test_one_sink_at_a_variable(self):
        m = ZONE.entries
        obj = np.array([2.0, -1.0, -1.0])
        assert minimize_over_dbm(obj, m) == -(m[2, 1] + m[3, 1])
        assert minimize_over_dbm(obj, m) == pytest.approx(vertex_minimum(ZONE, obj), abs=1e-12)

    def test_difference_reads_one_entry(self):
        m = ZONE.entries
        assert minimize_over_dbm(np.array([0.0, 1.0, -1.0]), m) == -m[3, 2]

    def test_forced_flow_on_a_missing_entry_is_unbounded(self):
        # x <= 5 only: min x ships from slot 0 over the missing lower bound
        m = np.array([[0.0, INF], [5.0, 0.0]])
        assert minimize_over_dbm(np.array([1.0]), m) == -INF
        assert minimize_over_dbm(np.array([-1.0]), m) == -5.0

    def test_zero_objective(self):
        assert minimize_over_dbm(np.zeros(3), ZONE.entries) == 0.0


class TestGeneralFlow:
    def test_two_sources_two_sinks(self):
        # a = (1, 1, -1): sources slot 0 and x3, sinks x1 and x2
        obj = np.array([1.0, 1.0, -1.0])
        assert minimize_over_dbm(obj, ZONE.entries) == pytest.approx(vertex_minimum(ZONE, obj), abs=1e-12)

    def test_box_program(self):
        # x in [-1, 2], y in [0, 3]: min x - y at (-1, 3)
        zone = Box([-1.0, 0.0], [2.0, 3.0]).to_dbm()
        assert min_over_zone(zone, None, np.array([1.0, -1.0])) == -4.0

    def test_unreachable_sink_is_unbounded(self):
        # x2, x3 in [0, 1] and x1 - x2 <= 1, x1 free below
        e = np.full((4, 4), INF)
        np.fill_diagonal(e, 0.0)
        e[0, 2] = e[0, 3] = 0.0
        e[2, 0] = e[3, 0] = e[1, 2] = 1.0
        zone = dbm_close(Dbm(e))
        # sources slot 0 and x3, sinks x1 and x2; nothing reaches x1
        assert min_over_zone(zone, None, np.array([1.0, 1.0, -1.0])) == -INF
        # sources x1 and x2, sinks slot 0 and x3: max x1 + x2 - x3 = 2 + 1 - 0
        assert min_over_zone(zone, None, np.array([-1.0, -1.0, 1.0])) == -3.0

    def test_unclosed_zone_is_closed_first(self):
        # x1 <= 1 and x2 - x1 <= 0 bound x2 only through a path
        e = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, INF], [INF, 0.0, 0.0]])
        zone = Dbm(e)
        assert min_over_zone(zone, None, np.array([0.0, -1.0])) == -1.0

    def test_empty_unclosed_zone_raises(self):
        e = np.array([[0.0, -1.0], [0.0, 0.0]])  # x >= 1 and x <= 0
        assert dbm_close(Dbm(e)) is EMPTY
        with pytest.raises(EmptyFeasibleSet):
            min_over_zone(Dbm(e), None, np.array([1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_objective_raises(self, bad):
        # a NaN coefficient would otherwise drop out of the supplies
        with pytest.raises(InvalidObjective):
            min_over_zone(ZONE, None, np.array([bad, 0.0, 1.0]))
        with pytest.raises(InvalidObjective):
            min_over_zone(ZONE, None, np.array([bad, -bad, 1.0]))


class TestHugeObjective:
    """Finite coefficients whose sums leave the float range give -inf, a
    sound lower bound, instead of an error from ``math.fsum``."""

    def test_supply_sum_overflows(self):
        zone = Box([0.0, 0.0], [1.0, 1.0]).to_dbm()
        assert min_over_zone(zone, None, np.array([1e308, 1e308])) == -INF

    def test_general_flow_cost_overflows(self):
        # sources x3 and x4, sinks x1 and x2; the true minimum is -4e308
        zone = Box([-1.0, 2.0, 0.0, 0.0], [1.0, 3.0, 1.0, 2.0]).to_dbm()
        obj = np.array([1.0, 1.0, -1.0, -1.0])
        assert min_over_zone(zone, None, 1e308 * obj) == -INF
        assert min_over_zone(zone, None, 1e300 * obj) == -2e300

    def test_forced_flow_inf_minus_inf(self):
        # one source (slot 0) and costs of both signs whose products overflow
        # to +inf and -inf; the true minimum is 0
        entries = Box([-100.0, 100.0], [0.0, 200.0]).to_dbm().entries
        assert minimize_over_dbm(np.array([1e307, 1e307]), entries) == -INF

    def test_representable_minimum_is_kept(self):
        zone = Box([0.0, 0.0], [1.0, 1.0]).to_dbm()
        assert min_over_zone(zone, None, np.array([1e308, -1e308])) == -1e308


def random_zone(rng) -> Dbm:
    """A nonempty closed zone: the tightest zone of a few points, integer
    valued or a single point now and then, with entries dropped and the
    rest closed again."""
    n = int(rng.integers(1, 7))
    kind = rng.integers(4)
    if kind == 0:
        pts = rng.integers(-3, 4, size=(int(rng.integers(1, 6)), n)).astype(float)
    elif kind == 1:
        pts = rng.normal(size=(1, n)) * 3
    else:
        pts = rng.normal(size=(int(rng.integers(2, 7)), n)) * 3
    e = best_zone_of_points(pts).entries.copy()
    if rng.random() < 0.35:
        drop = rng.random(e.shape) < rng.uniform(0.1, 0.6)
        np.fill_diagonal(drop, False)
        e[drop] = INF
    return dbm_close(Dbm(e))


def random_objective(rng, n) -> np.ndarray:
    if rng.random() < 0.5:
        return rng.integers(-3, 4, size=n).astype(float)
    return rng.normal(size=n) * rng.random(n).round()


def linprog_minimum(zone: Dbm, obj: np.ndarray) -> float:
    from scipy.optimize import linprog

    m = zone.entries
    n = zone.dim
    rows, bounds = [], []
    for i in range(n + 1):
        for j in range(n + 1):
            if i != j and np.isfinite(m[i, j]):
                r = np.zeros(n)
                if i:
                    r[i - 1] += 1.0
                if j:
                    r[j - 1] -= 1.0
                rows.append(r)
                bounds.append(m[i, j])
    res = linprog(obj, A_ub=np.array(rows) if rows else None, b_ub=bounds or None,
                  bounds=[(None, None)] * n, method="highs")
    if res.status == 3:
        return -INF
    assert res.status == 0, res.message
    return float(res.fun)


def test_matches_linprog_on_random_zones():
    pytest.importorskip("scipy")
    rng = np.random.default_rng(41)
    unbounded = 0
    for trial in range(1200):
        zone = random_zone(rng)
        obj = random_objective(rng, zone.dim)
        got = min_over_zone(zone, None, obj)
        want = linprog_minimum(zone, obj) if obj.any() else 0.0
        if want == -INF:
            unbounded += 1
            assert got == -INF, trial
        else:
            assert abs(got - want) <= 1e-9 * (1.0 + abs(want)), (trial, got, want)
    assert unbounded >= 20


def test_matches_linprog_on_larger_zones():
    # 40 sources and sinks: many augmentations, each through rounding
    pytest.importorskip("scipy")
    rng = np.random.default_rng(42)
    for trial in range(12):
        n = int(rng.integers(20, 45))
        zone = best_zone_of_points(rng.normal(size=(int(rng.integers(2, 60)), n)))
        obj = rng.uniform(-1, 1, size=n)
        want = linprog_minimum(zone, obj)
        got = min_over_zone(zone, None, obj)
        assert abs(got - want) <= 1e-9 * (1.0 + abs(want)), (trial, got, want)
