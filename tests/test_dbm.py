import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from troprelu import (
    Box,
    Dbm,
    EMPTY,
    dbm_box,
    dbm_close,
    dbm_contains,
)
from troprelu.dbm import OctDbm, embed_dbm, oct_close
from troprelu.errors import EmptyFeasibleSet, EmptyInput, NotClosed, UnboundedVariable
from troprelu.speccheck import min_over_zone

from reference import best_zone_of_points

INF = float("inf")

# the two-variable zone -3<=a<=1, -1<=b<=3, -4<=a-b<=0 (already closed)
ZONE2 = np.array([[0.0, 3.0, 1.0], [1.0, 0.0, 0.0], [3.0, 4.0, 0.0]])


def small_dbms():
    vals = st.one_of(st.integers(-5, 5).map(float), st.just(INF))
    return st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(vals, min_size=n + 1, max_size=n + 1),
            min_size=n + 1,
            max_size=n + 1,
        )
    )


class TestClose:
    def test_closed_matrix_unchanged(self):
        out = dbm_close(Dbm(ZONE2))
        assert np.allclose(out.entries, ZONE2)
        assert out.closed

    def test_identity_bounds_unchanged(self):
        m = np.full((4, 4), INF)
        np.fill_diagonal(m, 0.0)
        out = dbm_close(Dbm(m))
        assert np.array_equal(out.entries, m)

    def test_contradictory_bounds_empty(self):
        # x - 0 <= 1 and 0 - x <= -2 force x >= 2 and x <= 1
        m = np.array([[0.0, -2.0], [1.0, 0.0]])
        assert dbm_close(Dbm(m)) is EMPTY

    @given(small_dbms())
    @settings(max_examples=200, deadline=None)
    def test_closure_idempotent(self, raw):
        first = dbm_close(Dbm(np.array(raw)))
        if first is EMPTY:
            return
        second = dbm_close(first)
        assert np.array_equal(first.entries, second.entries)

    def test_concretization_preserved(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 4))
            m = rng.uniform(-3, 4, size=(n + 1, n + 1))
            m[rng.uniform(size=(n + 1, n + 1)) < 0.3] = INF
            np.fill_diagonal(m, 0.0)
            closed = dbm_close(Dbm(m))
            pts = rng.uniform(-5, 5, size=(400, n))
            before = dbm_contains(Dbm(m), pts)
            if closed is EMPTY:
                assert not before.any()
            else:
                assert np.array_equal(before, dbm_contains(closed, pts))


def meet(a, b):
    """The zone meet as ``min_over_zone`` forms it: entrywise min, then closure."""
    return dbm_close(Dbm(np.minimum(a.entries, b.entries)))


class TestIntersect:
    def test_idempotent(self):
        d = dbm_close(Dbm(ZONE2))
        out = meet(d, d)
        assert np.allclose(out.entries, d.entries)

    def test_two_layer_refinement(self):
        # bounds between consecutive layer values (u vs y), intersected with
        # the carried relation between the y values; closure refines two
        # of the difference bounds
        m = np.full((5, 5), INF)
        np.fill_diagonal(m, 0.0)
        y1, y2, u1, u2 = 1, 2, 3, 4
        m[u1, y1], m[y1, u1] = 2.0, 3.0  # -3 <= u1 - y1 <= 2
        m[u1, y2], m[y2, u1] = -1.0, 2.0  # -2 <= u1 - y2 <= -1
        m[u2, y1], m[y1, u2] = 1.0, 2.0  # -2 <= u2 - y1 <= 1
        m[u2, y2], m[y2, u2] = 2.0, 5.0  # -5 <= u2 - y2 <= 2
        carried = np.full((5, 5), INF)
        np.fill_diagonal(carried, 0.0)
        carried[y1, y2], carried[y2, y1] = 0.0, 3.0  # -3 <= y1 - y2 <= 0
        out = meet(Dbm(m), Dbm(carried))
        assert out.entries[u1, y1] == 2.0
        assert out.entries[y1, u1] == 2.0  # refined from 3: u1 - y1 >= -2
        assert out.entries[u2, y2] == 1.0  # refined from 2
        assert out.entries[y2, u2] == 5.0

    def test_disjoint_intervals_empty(self):
        a = Box([0.0], [1.0]).to_dbm()
        b = Box([2.0], [3.0]).to_dbm()
        assert meet(a, b) is EMPTY
        with pytest.raises(EmptyFeasibleSet):
            min_over_zone(a, Box([2.0], [3.0]), [1.0])

    def test_concretization_is_intersection(self, rng):
        for _ in range(20):
            a = best_zone_of_points(rng.normal(size=(4, 3)))
            b = best_zone_of_points(rng.normal(size=(4, 3)))
            out = meet(a, b)
            pts = rng.uniform(-4, 4, size=(500, 3))
            both = dbm_contains(a, pts) & dbm_contains(b, pts)
            if out is EMPTY:
                assert not both.any()
            else:
                assert np.array_equal(both, dbm_contains(out, pts))


class TestBox:
    def test_zone2_box(self):
        box = dbm_box(dbm_close(Dbm(ZONE2)))
        assert np.allclose(box.lo, [-3, -1])
        assert np.allclose(box.hi, [1, 3])

    def test_unbounded_raises(self):
        m = np.full((3, 3), INF)
        np.fill_diagonal(m, 0.0)
        with pytest.raises(UnboundedVariable):
            dbm_box(dbm_close(Dbm(m)))

    def test_not_closed_raises(self):
        with pytest.raises(NotClosed):
            dbm_box(Dbm(ZONE2))

    def test_point_zone(self):
        box = dbm_box(best_zone_of_points(np.array([[2.0]])))
        assert box.lo[0] == box.hi[0] == 2.0


class TestBestZone:
    def test_relu_graph_endpoints(self):
        z = best_zone_of_points(np.array([[-1.0, 0.0], [1.0, 1.0]]))
        # -1 <= x - y <= 0, -1 <= x <= 1, 0 <= y <= 1
        expect = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
        assert np.allclose(z.entries, expect)

    def test_single_point(self):
        z = best_zone_of_points(np.array([[1.0, -2.0]]))
        box = dbm_box(z)
        assert np.allclose(box.lo, [1, -2]) and np.allclose(box.hi, [1, -2])

    def test_three_points(self):
        z = best_zone_of_points(np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 1.0]]))
        assert z.entries[1, 2] == 1.0
        assert z.entries[2, 1] == 1.0
        assert np.allclose(dbm_box(z).lo, [0, 0])
        assert np.allclose(dbm_box(z).hi, [2, 2])

    def test_empty_input_raises(self):
        with pytest.raises(EmptyInput):
            best_zone_of_points(np.zeros((0, 2)))

    def test_contains_and_tight(self, rng):
        for _ in range(20):
            pts = rng.normal(size=(int(rng.integers(1, 8)), 3)) * 2
            z = best_zone_of_points(pts)
            assert dbm_contains(z, pts).all()
            aug = np.hstack([np.zeros((pts.shape[0], 1)), pts])
            for i in range(4):
                for j in range(4):
                    if i == j:
                        continue
                    attained = (aug[:, i] - aug[:, j]).max()
                    assert abs(attained - z.entries[i, j]) < 1e-12


class TestEmbedSlice:
    def test_embed_keeps_entries(self):
        d = dbm_close(Dbm(ZONE2))
        big = embed_dbm(d, [2, 4], 5)
        assert big.closed
        sub = big.slice([2, 4])
        assert np.allclose(sub.entries, d.entries)

    def test_slice_of_closed_is_closed_zone(self, rng):
        pts = rng.normal(size=(5, 4))
        z = best_zone_of_points(pts)
        sub = z.slice([2, 4])
        again = dbm_close(sub)
        assert np.allclose(sub.entries, again.entries)


class TestOctDbm:
    def test_box_roundtrip(self):
        box = Box([-1, 0], [2, 3])
        n = 2
        e = np.full((4, 4), INF)
        np.fill_diagonal(e, 0.0)
        for i in range(n):
            e[i, i + n] = 2 * box.hi[i]
            e[i + n, i] = -2 * box.lo[i]
        o = oct_close(OctDbm(e))
        got = o.box()
        assert np.allclose(got.lo, box.lo) and np.allclose(got.hi, box.hi)

    def test_strengthening_halves_sums(self):
        # x in [0,2], y in [0,2], x+y <= 2 forces x - y <= 2 via strengthening
        e = np.full((4, 4), INF)
        np.fill_diagonal(e, 0.0)
        e[0, 2] = 4.0  # 2x <= 4
        e[2, 0] = 0.0
        e[1, 3] = 4.0
        e[3, 1] = 0.0
        e[0, 3] = 2.0  # x + y <= 2
        e[3, 0] = 0.0  # x + y >= 0
        o = oct_close(OctDbm(e))
        assert o.entries[0, 1] <= 2.0  # x - y <= (2x + (-2y... via half sums
        assert o.entries[0, 2] <= 4.0
        # unary refinement: x <= 2 stays, but x + y <= 2 and y >= 0 give x <= 2
        assert o.box().hi[0] <= 2.0

    def test_to_bounded_dbm_matches_box(self):
        box = Box([-1, -1], [1, 1])
        e = np.full((4, 4), INF)
        np.fill_diagonal(e, 0.0)
        for i in range(2):
            e[i, i + 2] = 2.0
            e[i + 2, i] = 2.0
        o = oct_close(OctDbm(e))
        d = o.to_bounded_dbm()
        assert d.closed
        b = dbm_box(d)
        assert np.allclose(b.lo, [-1, -1, -1, -1])
        assert np.allclose(b.hi, [1, 1, 1, 1])


class TestCrossedBounds:
    """Bounds read off a closed matrix may cross by rounding on a point."""

    def test_dbm_box_widens_a_rounding_inversion(self):
        # lower bound 0.30000000000000004 one ulp above the upper bound 0.3
        e = np.array([[0.0, -0.30000000000000004], [0.3, 0.0]])
        b = dbm_box(Dbm(e, closed=True))
        assert b.lo[0] == 0.3 and b.hi[0] == 0.30000000000000004

    def test_oct_box_widens_a_rounding_inversion(self):
        e = np.array([[0.0, 0.6], [-0.6000000000000001, 0.0]])
        b = OctDbm(e, closed=True).box()
        assert b.lo[0] == 0.3 and b.hi[0] == 0.6000000000000001 / 2.0

    def test_tolerance_scales_with_magnitude(self):
        # 1e-7 apart at magnitude 1e3 is within 1e-9 (1 + 1e3)
        e = np.array([[0.0, -(1000.0 + 1e-7)], [1000.0, 0.0]])
        b = dbm_box(Dbm(e, closed=True))
        assert b.lo[0] == 1000.0 and b.hi[0] == 1000.0 + 1e-7

    @pytest.mark.parametrize("gap", [1e-6, 1.0])
    def test_larger_gaps_still_raise(self, gap):
        e = np.array([[0.0, -(0.3 + gap)], [0.3, 0.0]])
        with pytest.raises(EmptyInput):
            dbm_box(Dbm(e, closed=True))
        o = np.array([[0.0, 0.6], [-(0.6 + 2 * gap), 0.0]])
        with pytest.raises(EmptyInput):
            OctDbm(o, closed=True).box()

    def test_consistent_bounds_are_unchanged(self):
        b = dbm_box(Dbm(ZONE2, closed=True))
        assert np.array_equal(b.lo, [-3.0, -1.0]) and np.array_equal(b.hi, [1.0, 3.0])
