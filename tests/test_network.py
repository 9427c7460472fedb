import numpy as np
import pytest

from troprelu import (
    AbsDomain,
    AnalysisOptions,
    Box,
    ChainMode,
    Network,
    TropExternal,
    TropInternal,
    analyze,
    dbm_contains,
    external_membership_many,
    internal_membership_many,
    proj_internal,
    relu_extend,
    relu_external,
)
from troprelu.errors import BadIndex, DimensionMismatch

from conftest import assert_gen_set, random_box, random_network, sample_hull


class TestNetworkModel:
    def test_sizes_and_forward(self, running2_net):
        assert running2_net.sizes == (2, 2, 2)
        out = running2_net.forward(np.array([[0.0, 0.0]]))
        # y = (0, 1); u = (y2 - y1 - 1, y1 - y2 + 1) = (0, -1) -> z = (0, 0)
        assert np.allclose(out, [[0.0, 0.0]])

    def test_trace_stages(self, running_net):
        stages = running_net.trace(np.array([[1.0, -1.0]]))
        assert np.allclose(stages[0], [[1, -1]])
        assert np.allclose(stages[1], [[1, 1]])

    def test_incompatible_sizes(self):
        with pytest.raises(DimensionMismatch):
            Network(([[1, 2]], [[1, 2]]), ([0], [0]))


class TestReluInternal:
    def test_running_generators_extended(self, running_layer):
        from troprelu import zone_constants, zone_internal

        pts = zone_internal(zone_constants(running_layer), running_layer)
        extended = relu_extend(pts, [2, 3])
        assert_gen_set(
            extended,
            [
                [-1, -1, -3, -1, 0, 0],
                [1, -1, -1, 1, 0, 1],
                [-1, 1, -3, 1, 0, 1],
                [1, -1, 1, 1, 1, 1],
                [1, 1, -1, 3, 0, 3],
            ],
        )
        assert_gen_set(proj_internal(extended, [4, 5]), [[0, 0], [1, 1], [0, 3]])

    def test_nonnegative_unchanged(self):
        poly = TropInternal([[0.5, 1.0], [2.0, 0.0]])
        out = relu_extend(poly, [0, 1])
        assert_gen_set(proj_internal(out, [2, 3]), poly.generators)

    def test_relu_graph_three_points(self):
        poly = TropInternal([[-1.0, -3.0], [1.0, 1.0], [1.0, -1.0]])
        out = relu_extend(poly, [1])
        assert_gen_set(proj_internal(out, [0, 2]), [[-1, 0], [1, 1], [1, 0]])

    def test_bad_index(self):
        with pytest.raises(BadIndex):
            relu_extend(TropInternal([[0.0]]), [3])


class TestReluExternal:
    def test_derived_rows_for_signed_range(self):
        ext = relu_external(TropExternal.empty(2), [0], [1], Box([-3.0], [1.0]))
        pts = np.array(
            [
                [-3.0, 0.0],
                [1.0, 1.0],
                [0.0, 0.0],
                [-1.0, 0.0],
                [0.5, 0.5],
                # violations: y != max(0, h)
                [-1.0, 0.5],
                [0.5, 0.0],
                [0.5, 2.0],
            ]
        )
        member = external_membership_many(ext, pts)
        assert member[:5].all()
        assert not member[5:].any()
        # the zone rows alone allow y - h <= 3 and cap y at 1
        assert external_membership_many(ext, np.array([[1.0, 1.0]]))[0]
        assert not external_membership_many(ext, np.array([[1.0, 1.2]]))[0]

    def test_nonnegative_range_forces_identity(self, rng):
        ext = relu_external(TropExternal.empty(2), [0], [1], Box([0.5], [2.0]))
        h = rng.uniform(0.5, 2.0, size=200)
        good = np.column_stack([h, h])
        bad = np.column_stack([h, h + rng.uniform(0.05, 0.5, size=200)])
        assert external_membership_many(ext, good).all()
        assert not external_membership_many(ext, bad).any()

    def test_no_pairs_tie_nothing(self):
        ext = relu_external(TropExternal.empty(3), [], [], Box(np.zeros(0), np.zeros(0)))
        assert ext.lhs.shape == ext.rhs.shape == (0, 4)

    def test_running_layer_matches_exact_semantics(self, rng, running_layer):
        from troprelu import zone_constants

        k = zone_constants(running_layer)
        ext = relu_external(TropExternal.empty(4), [0, 1], [2, 3], Box(k.out_lo, k.out_hi))
        hs = rng.uniform(k.out_lo - 0.5, k.out_hi + 0.5, size=(500, 2))
        inside = (hs >= k.out_lo).all(axis=1) & (hs <= k.out_hi).all(axis=1)
        exact = np.hstack([hs, np.maximum(hs, 0.0)])
        member = external_membership_many(ext, exact)
        assert member[inside].all()
        wrong = exact.copy()
        wrong[:, 2:] += 0.3
        assert not external_membership_many(ext, wrong)[inside].any()


class TestAnalyzeRunning:
    def test_output_projection_and_bounds(self, running_net, unit_box2):
        res = analyze(running_net, unit_box2)
        assert_gen_set(proj_internal(res.internal, res.output_slots), [[0, 0], [1, 1], [0, 3]])
        out = res.bounds[-1]
        assert np.allclose(out.lo, [0, 0]) and np.allclose(out.hi, [1, 3])

    def test_all_modes_same_one_layer_result(self, running_net, unit_box2):
        for mode in ChainMode:
            res = analyze(running_net, unit_box2, AnalysisOptions(mode=mode))
            out = res.bounds[-1]
            assert np.allclose(out.lo, [0, 0]) and np.allclose(out.hi, [1, 3])

    def test_zone_keeps_output_difference(self, running_net, unit_box2):
        res = analyze(running_net, unit_box2)
        y1, y2 = res.output_slots
        assert res.zone.entries[y1 + 1, y2 + 1] == 0.0  # y1 - y2 <= 0


class TestAnalyzeTwoLayers:
    def test_zone_chain_refines_preactivation_bounds(self, running2_net, unit_box2):
        res = analyze(running2_net, unit_box2, AnalysisOptions(mode=ChainMode.ZONE))
        rec = res.diagnostics["layers"][1]["preact_zone"]
        keys, dbm = rec["keys"], rec["dbm"]
        u1 = keys.index(("pre", 0)) + 1
        u2 = keys.index(("pre", 1)) + 1
        y1 = keys.index((1, 0)) + 1
        y2 = keys.index((1, 1)) + 1
        assert dbm.entries[u1, y1] == 2.0
        assert dbm.entries[y1, u1] == 2.0  # refined from 3
        assert dbm.entries[u2, y2] == 1.0  # refined from 2
        assert dbm.entries[y2, u2] == 5.0

    def test_layer_input_box_is_previous_output_box(self, running2_net, unit_box2):
        res = analyze(running2_net, unit_box2)
        second = res.diagnostics["layers"][1]["input_box"]
        assert np.allclose(second.lo, [0, 0]) and np.allclose(second.hi, [1, 3])

    def test_track_all_keeps_middle_layer(self, running2_net, unit_box2):
        res = analyze(running2_net, unit_box2, AnalysisOptions(track_all=True))
        stages = sorted({s for s, _ in res.var_map})
        assert stages == [0, 1, 2]


class TestAnalyzeMulti:
    EXPECT_HI = [6.0, 4.0, 4.0, 2.0, 4.0, 2.0, 2.0, 0.0]

    def test_box_mode_published_bounds(self, multi_net, unit_box2):
        res = analyze(multi_net, unit_box2, AnalysisOptions(mode=ChainMode.BOX))
        out = res.bounds[-1]
        assert np.allclose(out.lo, np.zeros(8))
        assert np.allclose(out.hi, self.EXPECT_HI)

    def test_zone_mode_within_box_bounds(self, multi_net, unit_box2):
        res = analyze(multi_net, unit_box2, AnalysisOptions(mode=ChainMode.ZONE))
        out = res.bounds[-1]
        assert (out.hi <= np.array(self.EXPECT_HI) + 1e-9).all()
        assert (out.lo >= -1e-9).all()


class TestEndToEndSoundness:
    def test_traces_stay_members(self, rng):
        for trial in range(6):
            net = random_network(rng, max_layers=3, max_width=8)
            box = random_box(rng, net.n_inputs)
            xs = box.sample(rng, 800)
            ys = net.forward(xs)
            pts = np.hstack([xs, ys])
            for mode in (ChainMode.BOX, ChainMode.ZONE):
                for domain in (AbsDomain.ZONE, AbsDomain.OCTAGON):
                    res = analyze(net, box, AnalysisOptions(mode=mode, domain=domain))
                    assert dbm_contains(res.zone, pts, eps=1e-6).all(), (mode, domain)
                    assert internal_membership_many(res.internal, pts, eps=1e-6).all()

    def test_external_rows_hold_on_traces(self, rng):
        net = random_network(rng, max_layers=3, max_width=6)
        box = random_box(rng, net.n_inputs)
        res = analyze(net, box, AnalysisOptions(mode=ChainMode.EXTERNAL))
        ext = res.diagnostics["external"]
        emap = res.diagnostics["external_map"]
        xs = box.sample(rng, 300)
        cols = {}
        v = xs
        cols[("x", 0)] = xs
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            h = v @ w.T + b
            cols[("pre", i + 1)] = h
            v = np.maximum(h, 0.0) if net.has_relu(i) else h
            cols[("post", i + 1)] = v
        full = np.column_stack([cols[(k[0], k[1])][:, k[2]] for k in emap])
        assert external_membership_many(ext, full, eps=1e-6).all()


@pytest.mark.parametrize(
    "weights, biases, n_in",
    [
        ((np.zeros((0, 2)), np.zeros((1, 0))), (np.zeros(0), [0.5]), 2),  # hidden layer
        ((np.zeros((2, 0)),), (np.ones(2),), 0),  # input layer
        ((np.ones((2, 2)), np.zeros((0, 2))), (np.zeros(2), np.zeros(0)), 2),  # output layer
    ],
    ids=["hidden", "input", "output"],
)
@pytest.mark.parametrize(
    "opts",
    [
        AnalysisOptions(),
        AnalysisOptions(domain=AbsDomain.OCTAGON),
        AnalysisOptions(mode=ChainMode.BOX),
        AnalysisOptions(mode=ChainMode.EXTERNAL),
    ],
    ids=["zone", "octagon", "box", "external"],
)
def test_layers_of_size_zero_analyse(weights, biases, n_in, opts, rng):
    # a stage of size 0 feeds the next layer only its biases; in external
    # mode its ReLU adds no rows
    net = Network(weights, biases)
    box = Box(-np.ones(n_in), np.ones(n_in))
    res = analyze(net, box, opts)
    assert np.array_equal(res.bounds[-1].lo, biases[-1])
    assert np.array_equal(res.bounds[-1].hi, biases[-1])
    if opts.mode is ChainMode.EXTERNAL:
        stages = net.trace(box.sample(rng, 50))
        emap = res.diagnostics["external_map"]
        pre = [s @ w.T + b for s, w, b in zip(stages, net.weights, net.biases)]
        cols = {"x": stages, "pre": [None] + pre, "post": stages}
        full = np.column_stack([cols[kind][li][:, j] for kind, li, j in emap] or [np.zeros((50, 0))])
        assert external_membership_many(res.diagnostics["external"], full, eps=1e-9).all()


class TestReluExactness:
    def test_one_dim_graph_zone_relu_is_exact(self, rng):
        # pre-ReLU: the exact graph zone of f(x) = x on [-1, 1]; the clamped
        # copy of its second coordinate spans exactly the clamped graph
        seg = TropInternal([[-1.0, -1.0], [1.0, 1.0]])
        out = proj_internal(relu_extend(seg, [1]), [0, 2])
        xs = rng.uniform(-1, 1, size=400)
        graph = np.column_stack([xs, np.maximum(xs, 0.0)])
        assert internal_membership_many(out, graph, eps=1e-9).all()
        samples = sample_hull(rng, out, 600)
        assert np.allclose(samples[:, 1], np.maximum(samples[:, 0], 0.0), atol=1e-9)


class TestModeDominance:
    def test_zone_bounds_within_box_bounds(self, rng):
        for _ in range(5):
            net = random_network(rng, max_layers=3, max_width=6)
            box = random_box(rng, net.n_inputs)
            rb = analyze(net, box, AnalysisOptions(mode=ChainMode.BOX)).bounds[-1]
            rz = analyze(net, box, AnalysisOptions(mode=ChainMode.ZONE)).bounds[-1]
            assert (rz.lo >= rb.lo - 1e-9).all()
            assert (rz.hi <= rb.hi + 1e-9).all()

    def test_octagon_bounds_within_zone_bounds(self, rng):
        for _ in range(5):
            net = random_network(rng, max_layers=3, max_width=6)
            box = random_box(rng, net.n_inputs)
            rz = analyze(net, box, AnalysisOptions(mode=ChainMode.ZONE)).bounds[-1]
            ro = analyze(
                net, box, AnalysisOptions(mode=ChainMode.ZONE, domain=AbsDomain.OCTAGON)
            ).bounds[-1]
            assert (ro.lo >= rz.lo - 1e-9).all()
            assert (ro.hi <= rz.hi + 1e-9).all()

    def test_octagon_strictly_helps_on_sum_chain(self):
        net = Network(([[1, 1], [1, -1]], [[1, 1]]), ([0, 0], [0]), final_relu=False)
        box = Box([-1, -1], [1, 1])
        rz = analyze(net, box, AnalysisOptions(mode=ChainMode.ZONE)).bounds[-1]
        ro = analyze(
            net, box, AnalysisOptions(mode=ChainMode.ZONE, domain=AbsDomain.OCTAGON)
        ).bounds[-1]
        assert rz.hi[0] == 4.0
        assert ro.hi[0] == 3.0
