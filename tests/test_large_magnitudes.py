"""Point boxes at large magnitudes, and the input box octagon built with no
closure pass.

eps is absolute (1e-9), and from about |x| = 1e7 one ulp is larger, so
rounding alone can leave a cycle of a nonempty layer meet below -eps.
``dbm._interface_close`` then redoes that meet once on the layer matrix
widened by ulps of its largest entry, as ``_shortest_paths`` does for its
pass, and only a cycle still below -eps is empty.  The sweep analyses 200
seeded one-layer nets (1-3 inputs, 3 ReLUs) on a point box at each scale
in zone, box and external mode: every run returns, and its output box
contains the numpy forward pass of the point within 1e-9 (1 + |y|).  In
the octagon domain ``network._oct_step`` redoes, by the same rule, a meet
whose ``_strengthen`` leaves a diagonal below -eps, and the sweep at 1e9
returns too.

``network._oct_from_box`` returns the input box's octagon as built, with
no closure pass: its entries are exact sums and differences of the bounds.
On integer boxes it equals its strong closure exactly, on float boxes
within 1e-12 (1 + |v|), and a stack of boxes gives each box's matrix.
"""

from __future__ import annotations

import numpy as np
import pytest

from troprelu import network
from troprelu.dbm import Box, OctDbm, oct_close
from troprelu.network import AbsDomain, AnalysisOptions, ChainMode, Network, analyze

from test_oct_closure import assert_strongly_closed
from test_stacked_cells import same_bits

SCALES = [1e3, 1e7, 1e9, 1e12]
MODES = [ChainMode.ZONE, ChainMode.BOX, ChainMode.EXTERNAL]


def point_nets(scale, count=200):
    """Seeded one-layer ReLU nets, each with a point drawn at the scale."""
    rng = np.random.default_rng(99)
    for _ in range(count):
        m = int(rng.integers(1, 4))
        w = rng.standard_normal((3, m))
        b = rng.standard_normal(3)
        yield Network((w,), (b,)), scale * rng.uniform(-1, 1, m)


def assert_contains_forward_pass(res, net, x):
    y = np.maximum(net.weights[0] @ x + net.biases[0], 0.0)
    out = res.bounds[-1]
    tol = 1e-9 * (1.0 + np.abs(y))
    assert (out.lo <= y + tol).all() and (y - tol <= out.hi).all()


class TestPointBoxSweep:
    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_every_run_returns_and_contains_the_point(self, mode, scale):
        for net, x in point_nets(scale):
            res = analyze(net, Box(x, x), AnalysisOptions(mode=mode))
            assert_contains_forward_pass(res, net, x)

    @pytest.mark.parametrize(
        "opts",
        [*(AnalysisOptions(mode=mode) for mode in MODES), AnalysisOptions(domain=AbsDomain.OCTAGON)],
        ids=["zone", "box", "external", "octagon"],
    )
    def test_point_at_12345678_9(self, opts):
        net = Network((np.array([[0.3], [-0.7]]),), (np.zeros(2),))
        x = np.array([12345678.9])
        assert_contains_forward_pass(analyze(net, Box(x, x), opts), net, x)

    def test_octagon_domain(self):
        for net, x in point_nets(1e9):
            analyze(net, Box(x, x), AnalysisOptions(domain=AbsDomain.OCTAGON))


class TestOctagonOfBox:
    def test_mixed_magnitude_box_returns(self):
        box = Box([-6.7e-4, 6e12], [-5.2e-4, np.nextafter(6e12, 1e13)])
        opts = AnalysisOptions(domain=AbsDomain.OCTAGON)
        res = analyze(Network((np.eye(2),), (np.zeros(2),)), box, opts)
        start = network._oct_from_box(box).box()
        assert (start.lo <= box.lo).all() and (box.hi <= start.hi).all()
        # within 1e-9 (1 + |v|): the meet and its strengthening round to
        # nearest, and here lose one ulp of 6e12 off the upper bound
        y_lo, y_hi = np.maximum(box.lo, 0.0), np.maximum(box.hi, 0.0)
        out = res.bounds[-1]
        assert (out.lo <= y_lo + 1e-9 * (1.0 + np.abs(y_lo))).all()
        assert (y_hi - 1e-9 * (1.0 + np.abs(y_hi)) <= out.hi).all()

    @pytest.mark.parametrize("seed", range(20))
    def test_integer_box_equals_its_closure(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        lo = rng.integers(-5, 5, n).astype(float)
        o = network._oct_from_box(Box(lo, lo + rng.integers(0, 4, n)))
        full = oct_close(OctDbm(o.entries))
        assert isinstance(full, OctDbm)
        assert np.array_equal(o.entries, full.entries)

    @pytest.mark.parametrize("seed", range(10))
    def test_stack_equals_each_box_alone(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        lo = rng.uniform(-3, 3, (4, n))
        lo[0] = 0.0  # zero sums of bounds as well
        hi = lo + rng.uniform(0, 2, (4, n))
        stack = network._oct_from_box(Box(lo, hi)).entries
        for cell in range(4):
            assert same_bits(stack[cell], network._oct_from_box(Box(lo[cell], hi[cell])).entries)

    @pytest.mark.parametrize("point", [False, True])
    @pytest.mark.parametrize("seed", range(20))
    def test_float_box_is_strongly_closed(self, seed, point):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        lo = rng.uniform(-10, 10, n)
        o = network._oct_from_box(Box(lo, lo if point else lo + rng.uniform(0, 5, n)))
        assert_strongly_closed(o, tol=1e-12)
        full = oct_close(OctDbm(o.entries))
        assert isinstance(full, OctDbm)
        assert (np.abs(o.entries - full.entries) <= 1e-12 * (1.0 + np.abs(full.entries))).all()
