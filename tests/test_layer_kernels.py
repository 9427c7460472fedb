"""Layer kernels that build only what they keep.

``layers.zone_constants`` and ``layers.oct_constants`` compute the pairwise
sups in product form (see the ``layers`` module docstring).  The
references here are the per-term ``np.where`` formulas they replaced,
kept as written before; the two agree to rounding, bounded relative to
the size of the summed terms.  The memory tests pin the point of the
product form: no (n, n, m) temporary.

``network._oct_relu_append`` writes only the kept slots and the clamped
copies; before closure its matrix is the old full transfer cut to those
slots, bit for bit.  The analysis keeps each cell's last pre-activation
zone as its unfiltered hull points, and ``AnalysisResult.internal`` stacks
them and filters them once.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import troprelu.layers as layers
import troprelu.network as network
import troprelu.subdivision as subdivision
import troprelu.tropical as tropical
from troprelu import (
    AffineLayer,
    AnalysisOptions,
    Box,
    Network,
    SubdivisionGrid,
    TropInternal,
    analyze,
    extreme_filter,
    oct_constants,
    zone_constants,
    zone_to_internal,
)
from troprelu.dbm import Dbm, OctDbm, oct_close
from troprelu.network import AbsDomain

from test_lazy_generators import pre_zones  # noqa: F401  (a fixture)
from test_oct_closure import _pair_block_loop, random_octagon

REL = 1e-12


def last_layer_slots(net):
    """The last layer's ReLU slots and tracked slots in its (old, pre, post)
    space, inputs and outputs tracked: the old slots are the inputs and the
    layer before."""
    n_old = net.n_inputs + (net.sizes[-2] if net.n_layers > 1 else 0)
    pre = list(range(n_old, n_old + net.n_outputs))
    if not net.final_relu:
        return [], list(range(net.n_inputs)) + pre
    return pre, list(range(net.n_inputs)) + [i + net.n_outputs for i in pre]


def clamped_points(m, relu_vars, sel):
    """A closed zone's n + 1 points, as ``zone_to_internal`` builds them
    before its filter, with clamped copies of ``relu_vars`` appended and
    the ``sel`` columns kept."""
    raw = np.vstack([-m[0, 1:], m[1:, 0][:, None] - m[1:, 1:]])
    return np.hstack([raw, np.maximum(raw[:, relu_vars], 0.0)])[:, sel]


def where_zone(w, b, lo, hi):
    """(diff, Σ|terms|) of the per-term zone formula."""
    dw = w[:, None, :] - w[None, :, :]
    terms = np.where(dw < 0, dw * lo, dw * hi)
    diff = terms.sum(axis=2) + b[:, None] - b[None, :]
    return diff, np.abs(terms).sum(axis=2) + np.abs(b)[:, None] + np.abs(b)[None, :]


def where_sums(w, b, lo, hi):
    """(sum_hi, sum_lo, Σ|terms|) of the per-term octagon formulas."""
    sw = w[:, None, :] + w[None, :, :]
    bias2 = b[:, None] + b[None, :]
    up = np.where(sw > 0, sw * hi, sw * lo)
    down = np.where(sw > 0, sw * lo, sw * hi)
    mag = np.maximum(np.abs(up), np.abs(down)).sum(axis=2) + np.abs(b)[:, None] + np.abs(b)[None, :]
    return up.sum(axis=2) + bias2, down.sum(axis=2) + bias2, mag


def assert_near(got, want, mag):
    assert np.all(np.abs(got - want) <= REL * (1.0 + np.abs(want) + mag))


def seeded_layers():
    """(name, layer) pairs: random, point and 1e-12-wide boxes, zero rows,
    width-1 layers and boxes far from the origin."""
    rng = np.random.default_rng(9)
    out = []
    for i in range(60):
        kind = ("random", "point", "1e-12 wide", "zero rows", "width 1", "far")[i % 6]
        n = 1 if kind == "width 1" else int(rng.integers(1, 13))
        m = int(rng.integers(1, 13))
        w = rng.standard_normal((n, m)) * rng.choice([0.1, 1.0, 10.0])
        b = rng.standard_normal(n)
        if kind == "zero rows":
            w[rng.random(n) < 0.5] = 0.0
        scale = 500.0 if kind == "far" else 1.0  # |lo|, |hi| up to 1e3
        centre = rng.uniform(-scale, scale, m)
        radius = {"point": 0.0, "1e-12 wide": 1e-12}.get(kind)
        if radius is None:
            radius = rng.uniform(0, scale, m)
        out.append((f"{kind} {i}", AffineLayer(w, b, Box(centre - radius, centre + radius))))
    return out


LAYERS = seeded_layers()


class TestProductForm:
    @pytest.mark.parametrize("name, layer", LAYERS, ids=[name for name, _ in LAYERS])
    def test_matches_where_formulas(self, name, layer):
        w, b, lo, hi = layer.weights, layer.bias, layer.in_box.lo, layer.in_box.hi
        k = oct_constants(layer)
        z = zone_constants(layer)
        diff, mag = where_zone(w, b, lo, hi)
        assert_near(z.diff, diff, mag)
        assert np.array_equal(k.zone.diff, z.diff)
        assert np.all(np.diagonal(z.diff) == 0.0)
        sum_hi, sum_lo, mag = where_sums(w, b, lo, hi)
        assert_near(k.sum_hi, sum_hi, mag)
        assert_near(k.sum_lo, sum_lo, mag)
        for got, want in (
            (k.zone.out_lo, z.out_lo),
            (k.zone.out_hi, z.out_hi),
            (k.zone.slack, z.slack),
        ):
            assert np.array_equal(got, want)

    def test_row_blocks_equal_one_block(self, monkeypatch):
        rng = np.random.default_rng(4)
        n, m = 100, 100
        assert n * n * m > layers._BLOCK  # several row blocks at the default
        layer = AffineLayer(
            rng.standard_normal((n, m)), rng.standard_normal(n), Box(-rng.random(m), rng.random(m))
        )
        blocked = oct_constants(layer)
        for block in (1, n * m + 1, n * n * m):
            monkeypatch.setattr(layers, "_BLOCK", block)
            other = oct_constants(layer)
            for got, want in (
                (other.zone.diff, blocked.zone.diff),
                (other.sum_hi, blocked.sum_hi),
                (other.sum_lo, blocked.sum_lo),
            ):
                assert np.array_equal(got, want), block

    @pytest.mark.parametrize("shape", [(3, 0), (0, 3), (0, 0)])
    def test_empty_sides(self, shape):
        n, m = shape
        k = oct_constants(AffineLayer(np.zeros(shape), np.ones(n), Box(-np.ones(m), np.ones(m))))
        assert k.zone.diff.shape == k.sum_hi.shape == k.sum_lo.shape == (n, n)
        assert np.array_equal(k.sum_hi, np.full((n, n), 2.0))
        assert np.array_equal(k.zone.diff, np.zeros((n, n)))


def _traced_peak(fn) -> float:
    """Peak traced allocation of one call, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _criterion7():
    rng = np.random.default_rng(19)
    net = Network(
        (rng.uniform(-2, 2, size=(100, 100)), rng.uniform(-2, 2, size=(1, 100))),
        (rng.uniform(-1, 1, size=100), rng.uniform(-1, 1, size=1)),
    )
    return net, Box(np.full(100, -1.0), np.full(100, 1.0))


class TestMemory:
    def test_constants_of_a_hundred_wide_layer(self):
        net, box = _criterion7()
        layer = AffineLayer(net.weights[0], net.biases[0], box)
        assert _traced_peak(lambda: zone_constants(layer)) <= 3.0
        assert _traced_peak(lambda: oct_constants(layer)) <= 4.0

    def test_octagon_analysis_of_criterion_7(self):
        net, box = _criterion7()
        opts = AnalysisOptions(domain=AbsDomain.OCTAGON)
        assert _traced_peak(lambda: analyze(net, box, opts)) <= 12.0


@pytest.fixture
def relu_calls(monkeypatch):
    """Every (matrix, changed) pair ``_oct_relu_append`` closes."""
    calls = []

    def spy(o, eps=1e-9, changed=None):
        calls.append((o.entries.copy(), list(changed)))
        return oct_close(o, eps=eps, changed=changed)

    monkeypatch.setattr(network, "oct_close", spy)
    return calls


class TestKeptSlotBuild:
    @pytest.mark.parametrize("integer", [False, True])
    @pytest.mark.parametrize("seed", range(12))
    def test_equals_full_transfer_cut(self, seed, integer, relu_calls):
        # before closure: the full (n + r)-variable transfer cut to the
        # kept variables and the copies, signed zeros included
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1, 6))
        r = int(rng.integers(1, 6))
        base = oct_close(OctDbm(random_octagon(rng, n + r, drop=0.0, integer=integer)))
        order = rng.permutation(n + r)
        h_vars = order[:r].tolist()
        keep = sorted(order[r : r + int(rng.integers(0, n + 1))].tolist())
        network._oct_relu_append(base, h_vars, 1e-9, keep=keep)
        (got, changed), = relu_calls
        full = _pair_block_loop(base, h_vars)
        vars_ = keep + list(range(n + r, n + 2 * r))
        slots = np.asarray(vars_ + [v + n + 2 * r for v in vars_], dtype=int)
        want = full[np.ix_(slots, slots)]
        assert changed == list(range(len(keep), len(keep) + r))
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


class TestOneFilter:
    @pytest.fixture
    def filters(self, monkeypatch):
        """``extreme_filter`` calls, counted at every binding."""
        count = [0]
        for mod in (tropical, network, layers, subdivision):
            fn = getattr(mod, "extreme_filter", None)
            if fn is not None:

                def counted(*args, _fn=fn, **kwargs):
                    count[0] += 1
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(mod, "extreme_filter", counted)
        return count

    def test_grid_reads_filter_once(self, filters, running2_net, unit_box2):
        grid = SubdivisionGrid.uniform(unit_box2, [2, 2])
        res = analyze(running2_net, unit_box2, AnalysisOptions(subdiv=grid))
        assert filters[0] == 0
        res.internal
        assert filters[0] == 1

    @pytest.mark.parametrize("domain", list(AbsDomain))
    def test_same_points_as_filtering_each_part(self, pre_zones, running2_net, unit_box2, domain):
        # each part through zone_to_internal's own filter first, as before
        grid = SubdivisionGrid.uniform(unit_box2, [2, 2])
        res = analyze(running2_net, unit_box2, AnalysisOptions(domain=domain, subdiv=grid))
        relu_vars, sel = last_layer_slots(running2_net)
        stack = pre_zones[-1].entries
        assert stack.shape[0] == grid.n_cells == res._hull.shape[0]
        points = []
        for cell, m in enumerate(stack):
            g = zone_to_internal(Dbm(m, closed=True)).generators
            points.append(np.hstack([g, np.maximum(g[:, relu_vars], 0.0)])[:, sel])
            assert np.array_equal(res._hull[cell], clamped_points(m, relu_vars, sel)), cell
        want = extreme_filter(TropInternal(np.vstack(points)))
        assert np.array_equal(res.internal.generators, want.generators)

    def test_unfiltered_points(self, pre_zones, running_net, unit_box2):
        res = analyze(running_net, unit_box2)
        pre_zone = pre_zones[-1]
        m = pre_zone.entries
        raw = np.vstack([-m[0, 1:], m[1:, 0][:, None] - m[1:, 1:]])
        relu_vars, sel = last_layer_slots(running_net)
        assert res._hull.shape == (1, m.shape[0], len(sel))
        assert np.array_equal(res._hull[0], clamped_points(m, relu_vars, sel))
        assert np.array_equal(
            extreme_filter(TropInternal(raw)).generators, zone_to_internal(pre_zone).generators
        )
