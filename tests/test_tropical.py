import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from troprelu import (
    Dbm,
    TropExternal,
    TropInternal,
    dbm_box,
    dbm_close,
    dbm_contains,
    extreme_filter,
    external_membership_many,
    internal_membership_many,
    internal_to_zone,
    proj_internal,
    zone_constants,
    zone_external,
    zone_to_internal,
)
from troprelu.errors import (
    BadIndex,
    DimensionMismatch,
    EmptyGenerators,
    InfiniteEntry,
    NotClosed,
)

from conftest import assert_gen_set, sample_hull
from reference import best_zone_of_points, emb_external, intersect_external, internal_membership

INF = float("inf")
ZONE2 = np.array([[0.0, 3.0, 1.0], [1.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
RELU_SEG = TropInternal([[-1.0, 0.0], [1.0, 1.0]])


class TestExternalMembership:
    """One point at a time through ``external_membership_many``."""

    def test_graph_point_in_running_system(self, running_layer):
        ext = zone_external(zone_constants(running_layer), running_layer)
        assert external_membership_many(ext, np.array([0.0, 0.0, -1.0, 1.0])).all()

    def test_zone_point_off_graph_is_still_member(self, running_layer):
        # (1, 1, 1, 3) satisfies every difference bound even though the
        # exact map sends (1, 1) to (-1, 3); the zone over-approximates
        ext = zone_external(zone_constants(running_layer), running_layer)
        assert external_membership_many(ext, np.array([1.0, 1.0, 1.0, 3.0])).all()

    def test_violating_point_rejected(self, running_layer):
        ext = zone_external(zone_constants(running_layer), running_layer)
        assert not external_membership_many(ext, np.array([-1.0, -1.0, 1.0, 1.0])).any()
        assert not external_membership_many(ext, np.array([1.0, 1.0, 1.5, 3.0])).any()

    def test_empty_system_accepts_everything(self):
        ext = TropExternal.empty(3)
        assert external_membership_many(ext, np.array([5.0, -7.0, 0.0])).all()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            external_membership_many(TropExternal.empty(2), np.array([0.0]))


class TestInternalMembership:
    def test_segment_midpoint(self):
        assert internal_membership(RELU_SEG, np.array([0.0, 0.0]))

    def test_generator_itself(self):
        assert internal_membership(RELU_SEG, np.array([1.0, 1.0]))

    def test_point_off_segment(self):
        assert not internal_membership(RELU_SEG, np.array([0.0, 0.9]))

    def test_below_all_generators_is_outside(self):
        # reachable by the residuated cone but not affinely: no coefficient
        # can be the tropical unit
        assert not internal_membership(RELU_SEG, np.array([-4.0, -3.0]))

    def test_empty_generators(self):
        with pytest.raises(EmptyGenerators):
            internal_membership(TropInternal(np.zeros((0, 2))), np.array([0.0, 0.0]))

    def test_many_matches_single(self, rng):
        poly = TropInternal(rng.normal(size=(4, 3)))
        pts = rng.normal(size=(50, 3))
        pts[:20] = sample_hull(rng, poly, 20)
        mask = internal_membership_many(poly, pts)
        for p, m in zip(pts, mask):
            assert internal_membership(poly, p) == m
        assert mask[:20].all()


class TestZoneToInternal:
    def test_zone2_generators(self):
        gens = zone_to_internal(dbm_close(Dbm(ZONE2)))
        assert_gen_set(gens, [[-3, -1], [1, 1], [-1, 3]])

    def test_point_zone(self):
        gens = zone_to_internal(best_zone_of_points(np.array([[2.0]])))
        assert_gen_set(gens, [[2.0]])

    def test_relu_zone_membership_two_ways(self, rng):
        zone = best_zone_of_points(np.array([[-1.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
        gens = zone_to_internal(zone)
        pts = rng.uniform(-1.5, 1.5, size=(800, 2))
        in_zone = dbm_contains(zone, pts)
        in_hull = internal_membership_many(gens, pts)
        assert np.array_equal(in_zone, in_hull)

    def test_requires_closed(self):
        with pytest.raises(NotClosed):
            zone_to_internal(Dbm(ZONE2))

    def test_requires_finite(self):
        m = np.full((2, 2), INF)
        np.fill_diagonal(m, 0.0)
        with pytest.raises(InfiniteEntry):
            zone_to_internal(dbm_close(Dbm(m)))


class TestInternalToZone:
    def test_relu_segment_zone(self):
        z = internal_to_zone(RELU_SEG)
        expect = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
        assert np.allclose(z.entries, expect)

    def test_single_generator(self):
        z = internal_to_zone(TropInternal([[2.0, -1.0]]))
        box = dbm_box(z)
        assert np.allclose(box.lo, [2, -1]) and np.allclose(box.hi, [2, -1])

    def test_output_polyhedron(self):
        z = internal_to_zone(TropInternal([[0.0, 0.0], [1.0, 1.0], [0.0, 3.0]]))
        assert z.entries[1, 2] == 0.0  # y1 - y2 <= 0
        box = dbm_box(z)
        assert np.allclose(box.lo, [0, 0]) and np.allclose(box.hi, [1, 3])

    def test_matches_best_zone_of_generators(self, rng):
        # the residuated quotient over generators and the pointwise sup
        # describe the same smallest zone
        for _ in range(20):
            g = rng.normal(size=(int(rng.integers(1, 7)), 3))
            a = internal_to_zone(TropInternal(g))
            b = best_zone_of_points(g)
            assert np.allclose(a.entries, b.entries)

    def test_empty_generators(self):
        with pytest.raises(EmptyGenerators):
            internal_to_zone(TropInternal(np.zeros((0, 3))))


class TestRoundTrip:
    def test_zone_roundtrip(self, rng):
        # closed bounded zones survive the generators detour exactly
        for _ in range(25):
            pts = rng.normal(size=(int(rng.integers(1, 6)), int(rng.integers(1, 4)))) * 2
            zone = best_zone_of_points(pts)
            back = internal_to_zone(zone_to_internal(zone))
            assert np.allclose(back.entries, zone.entries, atol=1e-9)

    @given(
        st.lists(
            st.lists(st.integers(-8, 8).map(float), min_size=3, max_size=3),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_zone_roundtrip_integer_points(self, raw):
        zone = best_zone_of_points(np.array(raw))
        back = internal_to_zone(zone_to_internal(zone))
        assert np.array_equal(back.entries, zone.entries)

    def test_generators_are_members(self, rng):
        for _ in range(10):
            poly = TropInternal(rng.normal(size=(5, 4)))
            assert internal_membership_many(poly, poly.generators).all()

    def test_zone_contains_hull_samples(self, rng):
        poly = TropInternal(rng.normal(size=(6, 3)))
        zone = internal_to_zone(poly)
        assert dbm_contains(zone, sample_hull(rng, poly, 500)).all()


class TestExtremeFilter:
    def test_projection_duplicates_removed(self):
        poly = TropInternal([[-3, -1], [1, 1], [-1, 3], [-3, 1], [-1, 1]])
        assert_gen_set(extreme_filter(poly), [[-3, -1], [1, 1], [-1, 3]])

    def test_single_point_unchanged(self):
        assert extreme_filter(TropInternal([[1.0, 2.0]])).n_generators == 1

    def test_combinations_removed(self, rng):
        base = rng.normal(size=(6, 4))
        poly = TropInternal(base)
        extras = sample_hull(rng, poly, 10)
        filtered = extreme_filter(TropInternal(np.vstack([base, extras])))
        # same polyhedron, and no sampled combination survives unless it
        # happened to coincide with a generator
        assert filtered.n_generators <= 6
        assert internal_membership_many(filtered, base).all()
        assert internal_membership_many(poly, filtered.generators).all()


class TestIntersectExternal:
    def test_with_empty_system(self, running_layer):
        ext = zone_external(zone_constants(running_layer), running_layer)
        out = intersect_external(ext, TropExternal.empty(ext.dim))
        assert out.n_rows == ext.n_rows

    def test_conjunction_semantics(self, rng, running_layer):
        ext = zone_external(zone_constants(running_layer), running_layer)
        half_a = TropExternal(ext.lhs[:3], ext.rhs[:3])
        half_b = TropExternal(ext.lhs[3:], ext.rhs[3:])
        both = intersect_external(half_a, half_b)
        pts = rng.uniform(-4, 4, size=(1000, 4))
        expect = external_membership_many(half_a, pts) & external_membership_many(half_b, pts)
        assert np.array_equal(external_membership_many(both, pts), expect)

    def test_self_intersection_same_membership(self, rng, running_layer):
        ext = zone_external(zone_constants(running_layer), running_layer)
        both = intersect_external(ext, ext)
        pts = rng.uniform(-3, 3, size=(300, 4))
        assert np.array_equal(
            external_membership_many(both, pts), external_membership_many(ext, pts)
        )


class TestEmbExternal:
    def test_zero_dims_unchanged(self, running_layer):
        ext = zone_external(zone_constants(running_layer), running_layer)
        assert emb_external(ext, 0, 0) is ext

    def test_front_insertion_shape(self):
        ext = TropExternal(np.zeros((1, 3)), np.zeros((1, 3)))
        out = emb_external(ext, 2, 0)
        assert out.dim == 4
        assert np.isneginf(out.lhs[:, 1:3]).all()
        assert np.isneginf(out.rhs[:, 1:3]).all()

    def test_membership_ignores_new_dims(self, rng, running_layer):
        ext = zone_external(zone_constants(running_layer), running_layer)
        out = emb_external(ext, 2, 4)
        pts = rng.uniform(-3, 3, size=(400, 4))
        extra = rng.uniform(-50, 50, size=(400, 2))
        lifted = np.hstack([pts, extra])
        assert np.array_equal(
            external_membership_many(out, lifted), external_membership_many(ext, pts)
        )


class TestProjInternal:
    def test_running_projection(self, running_layer):
        from troprelu import zone_internal

        pts = zone_internal(zone_constants(running_layer), running_layer)
        proj = proj_internal(pts, [2, 3])
        assert_gen_set(proj, [[-3, -1], [1, 1], [-1, 3]])

    def test_keep_all_unchanged(self, rng):
        poly = extreme_filter(TropInternal(rng.normal(size=(5, 3))))
        out = proj_internal(poly, [0, 1, 2])
        assert_gen_set(out, poly.generators)

    def test_bad_index(self):
        with pytest.raises(BadIndex):
            proj_internal(RELU_SEG, [0, 7])


class TestDuplicateScan:
    """The vectorised duplicate scan against the per-pair loop it replaced."""

    @staticmethod
    def loop_reference(g, eps):
        keep = []
        for i in range(g.shape[0]):
            if not any(np.abs(g[i] - g[k]).max() <= eps for k in keep):
                keep.append(i)
        return keep

    def test_matches_loop_with_near_duplicates(self, rng):
        from troprelu.tropical import _first_distinct

        for _ in range(50):
            base = rng.integers(-3, 4, size=(int(rng.integers(1, 8)), int(rng.integers(1, 5))))
            rows = base[rng.integers(0, base.shape[0], size=int(rng.integers(1, 20)))]
            g = rows + rng.choice([0.0, 0.5e-9, 2e-9], size=rows.shape)
            assert _first_distinct(g, 1e-9) == self.loop_reference(g, 1e-9)
