import itertools

import numpy as np
import pytest

from troprelu import (
    Box,
    Dbm,
    LinearAssertion,
    SubdivisionGrid,
    TropInternal,
    VerdictStatus,
    analyze,
    check,
    check_with_subdivision,
    dbm_close,
    internal_to_zone,
    min_over_zone,
)
from troprelu.errors import EmptyFeasibleSet, InvalidInterval, VariableMismatch

from reference import best_zone_of_points

INF = float("inf")


def vertex_minimum(zone: Dbm, objective: np.ndarray) -> float:
    """Independent oracle: enumerate basic feasible points of the zone."""
    n = zone.dim
    rows, bnds = [], []
    for i in range(n + 1):
        for j in range(n + 1):
            if i != j and np.isfinite(zone.entries[i, j]):
                r = np.zeros(n)
                if i > 0:
                    r[i - 1] = 1.0
                if j > 0:
                    r[j - 1] = -1.0
                rows.append(r)
                bnds.append(zone.entries[i, j])
    rows = np.asarray(rows)
    bnds = np.asarray(bnds)
    best = INF
    for comb in itertools.combinations(range(len(rows)), n):
        a = rows[list(comb)]
        if abs(np.linalg.det(a)) < 1e-9:
            continue
        x = np.linalg.solve(a, bnds[list(comb)])
        if (rows @ x <= bnds + 1e-7).all():
            best = min(best, float(objective @ x))
    return best


class TestMinOverZone:
    def test_output_difference_on_running_hull(self):
        zone = internal_to_zone(TropInternal([[0.0, 0.0], [1.0, 1.0], [0.0, 3.0]]))
        assert min_over_zone(zone, None, np.array([-1.0, 1.0])) == 0.0

    def test_constant_objective(self):
        zone = best_zone_of_points(np.array([[1.0, 2.0]]))
        assert min_over_zone(zone, None, np.zeros(2), 3.5) == 3.5

    def test_square_with_diagonal_cut(self):
        e = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
        zone = dbm_close(Dbm(e))
        assert min_over_zone(zone, None, np.array([1.0, 1.0])) == 0.0

    def test_unbounded_returns_minus_inf(self):
        m = np.full((2, 2), INF)
        np.fill_diagonal(m, 0.0)
        m[1, 0] = 5.0  # x <= 5, no lower bound
        zone = dbm_close(Dbm(m))
        assert min_over_zone(zone, None, np.array([1.0])) == -INF

    def test_restriction_tightens_through_differences(self):
        # zone: x in [-1, 1], y - x <= 1, y >= x; restricting x pushes y down
        pts = np.array([[-1.0, -1.0], [-1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        zone = best_zone_of_points(pts)
        free = min_over_zone(zone, None, np.array([0.0, -1.0]))
        restricted = min_over_zone(
            zone, Box([-1.0], [0.0]), np.array([0.0, -1.0]), restrict_slots=[1]
        )
        assert free == -2.0
        assert restricted == -1.0

    def test_empty_restriction_raises(self):
        zone = best_zone_of_points(np.array([[0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(EmptyFeasibleSet):
            min_over_zone(zone, Box([5.0], [6.0]), np.ones(2), restrict_slots=[1])

    def test_matches_vertex_enumeration(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 5))
            pts = rng.normal(size=(int(rng.integers(2, 6)), n)) * 3
            zone = best_zone_of_points(pts)
            obj = rng.normal(size=n)
            lp = min_over_zone(zone, None, obj)
            assert abs(lp - vertex_minimum(zone, obj)) < 1e-7


class TestCheck:
    def test_first_property_verified(self, running_net, unit_box2):
        res = analyze(running_net, unit_box2)
        v = check(LinearAssertion([0, 0], [-1, 1], 0.0, name="p1"), res)
        assert v.verified and v.minimum == 0.0

    def test_second_property_unknown_without_subdivision(self, running_net, unit_box2):
        res = analyze(running_net, unit_box2)
        a = LinearAssertion([0, 0], [-1, 0], 0.5, ((-0.25, 0.25), None), name="p2")
        v = check(a, res)
        assert v.status is VerdictStatus.UNKNOWN
        assert np.isclose(v.minimum, -0.5)

    def test_trivially_true_assertion(self, running_net, unit_box2):
        res = analyze(running_net, unit_box2)
        v = check(LinearAssertion([0, 0], [0, 0], 1.0), res)
        assert v.verified and v.minimum == 1.0

    def test_variable_mismatch(self, running_net, unit_box2):
        res = analyze(running_net, unit_box2)
        with pytest.raises(VariableMismatch):
            check(LinearAssertion([0, 0, 0], [0, 0], 1.0), res)


class TestCheckWithSubdivision:
    @pytest.fixture
    def p2(self):
        return LinearAssertion([0, 0], [-1, 0], 0.5, ((-0.25, 0.25), None), name="p2")

    def test_second_property_verified_with_split(self, running_net, unit_box2, p2):
        grid = SubdivisionGrid.uniform(unit_box2, [2, 1])
        v = check_with_subdivision(p2, running_net, unit_box2, grid)
        assert v.verified
        assert np.isclose(v.minimum, 0.25)

    def test_single_cell_matches_plain_check(self, running_net, unit_box2, p2):
        grid = SubdivisionGrid.uniform(unit_box2, 1)
        plain = check(p2, analyze(running_net, unit_box2))
        split = check_with_subdivision(p2, running_net, unit_box2, grid)
        assert plain.status == split.status

    def test_vacuous_restriction(self, running_net, unit_box2):
        a = LinearAssertion([0, 0], [-1, 0], 0.5, ((5.0, 6.0), None))
        grid = SubdivisionGrid.uniform(unit_box2, 2)
        v = check_with_subdivision(a, running_net, unit_box2, grid)
        assert v.verified and v.minimum == INF

    def test_refinement_never_flips_verified(self, running_net, unit_box2, p2):
        verdicts = []
        for n_cells in (2, 4, 8):
            grid = SubdivisionGrid.uniform(unit_box2, [n_cells, 1])
            verdicts.append(check_with_subdivision(p2, running_net, unit_box2, grid))
        assert all(v.verified for v in verdicts)
        mins = [v.minimum for v in verdicts]
        assert all(b >= a - 1e-9 for a, b in zip(mins, mins[1:]))


class TestSoundnessOfVerified:
    def test_verified_means_concretely_nonnegative(self, rng):
        checked = 0
        while checked < 6:
            from conftest import random_box, random_network

            net = random_network(rng, max_layers=2, max_width=6)
            box = random_box(rng, net.n_inputs)
            res = analyze(net, box)
            a = LinearAssertion(
                rng.uniform(-1, 1, net.n_inputs),
                rng.uniform(-1, 1, net.n_outputs),
                0.0,
            )
            v = check(a, res)
            # shift the constant to sit exactly at the provable boundary
            shifted = LinearAssertion(a.in_coeffs, a.out_coeffs, -v.minimum)
            assert check(shifted, res).verified
            xs = box.sample(rng, 20000)
            ys = net.forward(xs)
            assert (shifted.value(xs, ys) >= -1e-6).all()
            checked += 1


class TestRestrictionIntervals:
    @pytest.mark.parametrize(
        "interval", [(0.5, 0.2), (np.nan, np.nan), (np.nan, 0.5), (-0.5, np.nan)]
    )
    def test_inverted_or_nan_interval_raises(self, interval):
        with pytest.raises(InvalidInterval):
            LinearAssertion([0, 0], [1, 0], -100.0, (None, interval))

    def test_point_interval_is_accepted(self, running_net, unit_box2):
        a = LinearAssertion([0, 0], [-1, 0], 0.5, ((0.5, 0.5), None))
        v = check(a, analyze(running_net, unit_box2))
        # y1 = max(0, x1 - x2 - 1) reaches 0.5 at x = (0.5, -1): the true
        # minimum is 0, and the zone's may only lie below it
        assert np.isfinite(v.minimum) and v.minimum <= 1e-9
