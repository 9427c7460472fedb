import numpy as np
import pytest

from troprelu import (
    AffineLayer,
    Box,
    dbm_close,
    dbm_contains,
    external_membership_many,
    internal_membership_many,
    oct_constants,
    proj_internal,
    zone_constants,
    zone_dbm,
    zone_external,
    zone_internal,
)
from troprelu.dbm import OctDbm, oct_close

from conftest import assert_gen_set, random_layer
from reference import oct_dbm

INF = float("inf")
NEG = float("-inf")


def row(dim, const=NEG, **terms):
    """Affine max-plus side over x1..xm,y1..yn as a coefficient vector."""
    v = np.full(1 + dim, NEG)
    v[0] = const
    for key, c in terms.items():
        v[int(key[1:])] = c
    return v


def find_row(ext, lhs, rhs):
    for l, r in zip(ext.lhs, ext.rhs):
        if np.allclose(np.nan_to_num(l, neginf=-1e18), np.nan_to_num(lhs, neginf=-1e18)) and np.allclose(
            np.nan_to_num(r, neginf=-1e18), np.nan_to_num(rhs, neginf=-1e18)
        ):
            return True
    return False


class TestRunningConstants:
    def test_scalars(self, running_layer):
        k = zone_constants(running_layer)
        assert np.allclose(k.slack, [[2, 0], [2, 2]])
        assert np.allclose(k.diff, [[0, 0], [4, 0]])
        assert np.allclose(k.ext_offset, [[-3, -1], [1, -1]])
        assert np.allclose(k.out_lo, [-3, -1])
        assert np.allclose(k.out_hi, [1, 3])
        assert np.allclose(k.covertex, [[1, 1], [-1, 3]])

    def test_external_rows(self, running_layer):
        ext = zone_external(zone_constants(running_layer), running_layer)
        assert ext.n_rows == 5
        # max(x1 - 1, x2 - 1, h1 - 1, h2 - 3) <= 0
        assert find_row(ext, row(4, v1=-1, v2=-1, v3=-1, v4=-3), row(4, const=0))
        # max(0, h1 + 1, h2 - 1) <= x1 + 1
        assert find_row(ext, row(4, const=0, v3=1, v4=-1), row(4, v1=1))
        # max(0, h1 - 1, h2 - 1) <= x2 + 1
        assert find_row(ext, row(4, const=0, v3=-1, v4=-1), row(4, v2=1))
        # max(0, x1 + 1, x2 - 1, h1 + 3, h2 - 1) <= h1 + 3
        assert find_row(ext, row(4, const=0, v1=1, v2=-1, v3=3, v4=-1), row(4, v3=3))
        # max(0, x1 + 1, x2 + 1, h1 + 1, h2 + 1) <= h2 + 1
        assert find_row(ext, row(4, const=0, v1=1, v2=1, v3=1, v4=1), row(4, v4=1))

    def test_internal_points(self, running_layer):
        pts = zone_internal(zone_constants(running_layer), running_layer)
        # the peak vertices sit at the box corners that realise each output
        # maximum; their projections reproduce the published extreme points
        assert_gen_set(
            pts,
            [
                [-1, -1, -3, -1],
                [1, -1, -1, 1],
                [-1, 1, -3, 1],
                [1, -1, 1, 1],
                [1, 1, -1, 3],
            ],
        )
        assert_gen_set(proj_internal(pts, [2, 3]), [[-3, -1], [1, 1], [-1, 3]])

    def test_zone_dbm_is_closed_and_tight(self, running_layer):
        d = zone_dbm(zone_constants(running_layer), running_layer)
        closed = dbm_close(d)
        assert np.allclose(d.entries, closed.entries)
        # h1 - x1 in [-2, 0], h1 - h2 in [-4, 0]
        assert d.entries[3, 1] == 0.0 and d.entries[1, 3] == 2.0
        assert d.entries[3, 4] == 0.0 and d.entries[4, 3] == 4.0


class TestSecondExample:
    """f(x1, x2) = (0.9 x1 + 1.1 x2, 1.1 x1 - 0.9 x2) on [-1, 1]^2."""

    @pytest.fixture
    def layer(self, unit_box2):
        return AffineLayer([[0.9, 1.1], [1.1, -0.9]], [0, 0], unit_box2)

    def test_constants(self, layer):
        k = zone_constants(layer)
        assert np.allclose(k.out_hi, [2, 2])
        assert np.allclose(k.out_lo, [-2, -2])
        assert np.allclose(k.slack, [[1.8, 2.0], [2.0, 0.0]])
        assert np.isclose(k.ext_offset[0, 1], 0.2)
        assert np.isclose(k.ext_offset[1, 0], 0.2)
        assert np.isclose(k.covertex[0, 1], -0.2)

    def test_internal_points(self, layer):
        pts = zone_internal(zone_constants(layer), layer)
        assert_gen_set(
            pts,
            [
                [-1, -1, -2, -2],
                [1, -1, -0.2, 0],
                [-1, 1, 0, -2],
                [0.8, 1, 2, -0.2],
                [1, -1, -0.2, 2],
            ],
        )

    def test_external_rows(self, layer):
        ext = zone_external(zone_constants(layer), layer)
        # max(0, y1 - 0.2, y2) <= x1 + 1
        assert find_row(ext, row(4, const=0, v3=-0.2, v4=0), row(4, v1=1))
        # max(0, y1, y2 - 2) <= x2 + 1
        assert find_row(ext, row(4, const=0, v3=0, v4=-2), row(4, v2=1))


class TestDegenerateLayers:
    def test_zero_weights(self):
        layer = AffineLayer(np.zeros((2, 3)), [1.0, -2.0], Box([0, 0, 0], [1, 1, 1]))
        k = zone_constants(layer)
        assert np.allclose(k.out_lo, [1, -2]) and np.allclose(k.out_hi, [1, -2])
        assert np.allclose(k.slack, 0.0)
        assert np.allclose(k.diff, [[0, 3], [-3, 0]])
        pts = zone_internal(k, layer)
        # A plus one bump per input; every peak vertex collapses onto A
        assert pts.n_generators == 4

    def test_zero_weights_zero_bias_unit_box(self):
        layer = AffineLayer(np.zeros((1, 2)), [0.0], Box([0, 0], [1, 1]))
        pts = zone_internal(zone_constants(layer), layer)
        assert_gen_set(pts, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])

    def test_degenerate_box(self):
        layer = AffineLayer([[1.0], [0.5]], [0.0, 0.0], Box([2.0], [2.0]))
        k = zone_constants(layer)
        assert np.allclose(k.slack, 0.0)
        assert np.allclose(k.out_lo, k.out_hi)

    def test_identity_map_unit_interval(self, rng):
        layer = AffineLayer([[1.0]], [0.0], Box([0.0], [1.0]))
        ext = zone_external(zone_constants(layer), layer)
        pts = rng.uniform(-0.5, 1.5, size=(500, 2))
        member = external_membership_many(ext, pts)
        # the zone of the graph of the identity is exactly y = x on [0, 1]
        on_graph = (pts[:, 0] >= 0) & (pts[:, 0] <= 1) & (np.abs(pts[:, 0] - pts[:, 1]) < 1e-12)
        assert member[on_graph].all()
        off = np.abs(pts[:, 0] - pts[:, 1]) > 1e-9
        assert not member[off].any()


class TestRunningOctagon:
    def test_constraint_list(self, running_layer):
        k = oct_constants(running_layer)
        o = oct_dbm(k, running_layer)
        e = o.entries
        m = 2  # inputs; variable order (x1, x2, h1, h2), minus copies at +4
        # -2 <= h2 + h1 <= 2
        assert e[3, 2 + 4] == 2.0 and e[3 + 4, 2] == 2.0
        # -4 <= x1 + h1 <= 2
        assert e[2, 0 + 4] == 2.0 and e[2 + 4, 0] == 4.0
        # -2 <= x2 + h1 <= 0
        assert e[2, 1 + 4] == 0.0 and e[2 + 4, 1] == 2.0
        # -2 <= x1 + h2 <= 4 and -2 <= x2 + h2 <= 4
        assert e[3, 0 + 4] == 4.0 and e[3 + 4, 0] == 2.0
        assert e[3, 1 + 4] == 4.0 and e[3 + 4, 1] == 2.0
        # 0 <= h2 - h1 <= 4 and bounds -3 <= h1 <= 1, -1 <= h2 <= 3
        assert e[3, 2] == 4.0 and e[2, 3] == 0.0
        assert e[2, 2 + 4] == 2.0 and e[2 + 4, 2] == 6.0
        assert e[3, 3 + 4] == 6.0 and e[3 + 4, 3] == 2.0

    def test_closure_leaves_it_unchanged(self, running_layer):
        o = oct_dbm(oct_constants(running_layer), running_layer)
        again = oct_close(OctDbm(o.entries.copy()))
        assert np.allclose(o.entries, again.entries)

    def test_zero_weights_sums(self):
        layer = AffineLayer(np.zeros((2, 1)), [1.0, -1.0], Box([0.0], [1.0]))
        k = oct_constants(layer)
        assert np.allclose(k.sum_hi, [[2, 0], [0, -2]])
        assert np.allclose(k.sum_lo, k.sum_hi)
        assert np.allclose(k.sum_slack, 0.0)


def _vertex_values(layer):
    vs = np.array(list(layer.in_box.vertices()))
    return vs, layer.apply(vs)


class TestOptimality:
    def test_zone_bounds_attained(self, rng):
        for _ in range(15):
            layer = random_layer(rng)
            k = zone_constants(layer)
            xs, ys = _vertex_values(layer)
            assert np.allclose(ys.min(axis=0), k.out_lo, atol=1e-9)
            assert np.allclose(ys.max(axis=0), k.out_hi, atol=1e-9)
            n, m = layer.n_outputs, layer.n_inputs
            diff = ys[:, :, None] - ys[:, None, :]
            assert np.allclose(diff.max(axis=0), k.diff, atol=1e-9)
            cross = ys[:, :, None] - xs[:, None, :]
            hi = k.out_hi[:, None] - layer.in_box.lo[None, :] - k.slack
            lo = k.out_lo[:, None] - layer.in_box.hi[None, :] + k.slack
            assert np.allclose(cross.max(axis=0), hi, atol=1e-9)
            assert np.allclose(cross.min(axis=0), lo, atol=1e-9)

    def test_octagon_box_matches_output_range(self, rng):
        for _ in range(10):
            layer = random_layer(rng)
            k = oct_constants(layer)
            box = oct_dbm(k, layer).box()
            m = layer.n_inputs
            assert np.allclose(box.lo[:m], layer.in_box.lo)
            assert np.allclose(box.hi[:m], layer.in_box.hi)
            assert np.allclose(box.lo[m:], k.zone.out_lo)
            assert np.allclose(box.hi[m:], k.zone.out_hi)

    def test_octagon_bounds_attained(self, rng):
        for _ in range(15):
            layer = random_layer(rng)
            k = oct_constants(layer)
            xs, ys = _vertex_values(layer)
            ssum = ys[:, :, None] + ys[:, None, :]
            assert np.allclose(ssum.max(axis=0), k.sum_hi, atol=1e-9)
            assert np.allclose(ssum.min(axis=0), k.sum_lo, atol=1e-9)
            cross = ys[:, :, None] + xs[:, None, :]
            hi = k.zone.out_hi[:, None] + layer.in_box.hi[None, :] - k.sum_slack
            lo = k.zone.out_lo[:, None] + layer.in_box.lo[None, :] + k.sum_slack
            assert np.allclose(cross.max(axis=0), hi, atol=1e-9)
            assert np.allclose(cross.min(axis=0), lo, atol=1e-9)


class TestSoundness:
    def test_graph_points_inside_everything(self, rng):
        for _ in range(8):
            layer = random_layer(rng)
            k = zone_constants(layer)
            ok = oct_constants(layer)
            ext = zone_external(k, layer)
            poly = zone_internal(k, layer)
            od = oct_dbm(ok, layer)
            xs = layer.in_box.sample(rng, 1500)
            ys = layer.apply(xs)
            pts = np.hstack([xs, ys])
            assert external_membership_many(ext, pts, eps=1e-9).all()
            assert internal_membership_many(poly, pts, eps=1e-9).all()
            doubled = np.hstack([pts, -pts])
            assert dbm_contains(od.to_bounded_dbm(), doubled, eps=1e-9).all()

    def test_external_internal_agree(self, rng):
        for _ in range(10):
            layer = random_layer(rng)
            k = zone_constants(layer)
            ext = zone_external(k, layer)
            poly = zone_internal(k, layer)
            dim = layer.n_inputs + layer.n_outputs
            lo = np.concatenate([layer.in_box.lo, k.out_lo])
            hi = np.concatenate([layer.in_box.hi, k.out_hi])
            spread = hi - lo
            probes = rng.uniform(lo - 0.3 * spread - 0.1, hi + 0.3 * spread + 0.1, size=(1000, dim))
            a = external_membership_many(ext, probes, eps=1e-7)
            b = internal_membership_many(poly, probes, eps=1e-7)
            assert np.array_equal(a, b)


class TestConstantInequalities:
    """Relations between the constants that the equivalence proof rests on."""

    def test_battery(self, rng):
        for _ in range(25):
            layer = random_layer(rng, max_in=5, max_out=5)
            k = zone_constants(layer)
            width = layer.in_box.width
            assert (k.slack <= width[None, :] + 1e-12).all()
            assert (k.slack <= np.abs(layer.weights) * width[None, :] + 1e-12).all()
            assert ((k.out_hi - k.out_lo) + 1e-12 >= k.slack.sum(axis=1)).all()
            d = k.ext_offset
            assert (d >= k.out_lo[:, None] - 1e-12).all()
            assert (d <= k.out_hi[:, None] + 1e-12).all()
            c = k.covertex
            assert (c <= k.out_hi[None, :] + 1e-12).all()
            # the combined slack bound that the peak vertices actually need:
            # slack_i1j + slack_i2j - width_j <= c[i1, i2] - out_lo[i2]
            n, m = layer.n_outputs, layer.n_inputs
            for j in range(m):
                comb = k.slack[:, None, j] + k.slack[None, :, j] - width[j]
                assert (comb <= c - k.out_lo[None, :] + 1e-12).all()

    def test_octagon_refines_zone(self, rng):
        for _ in range(10):
            layer = random_layer(rng)
            zd = zone_dbm(zone_constants(layer), layer)
            od = oct_dbm(oct_constants(layer), layer)
            dim = layer.n_inputs + layer.n_outputs
            assert (od.entries[:dim, :dim] <= zd.entries[1:, 1:] + 1e-9).all()
