"""The two facts that give both layer steps one shape.

Each step returns (carried, pre_zone), and the layer loop reads a stage's
bounds off the carried matrix with its domain's reader.  In the octagon
domain that reader is ``OctDbm.box``, which must give the floats
``dbm_box`` reads off the octagon's plus-block zone, bit for bit, signed
zeros included: both halve the same entries, and -(x / 2) equals
(-x) / 2 in IEEE arithmetic.  The octagon meet takes no emptiness test of
its own: strengthening only lowers entries, so its diagonal check sees
every cycle the meet closes.  At the point 12345678.9 rounding takes the
first meet's new cycles below -eps, and ``network._oct_meet`` must flag
that meet itself, which ``_oct_step`` then redoes once on a widened layer
octagon; the output bounds hold the forward pass.
"""

from __future__ import annotations

import numpy as np
import pytest

from troprelu import network
from troprelu.dbm import Box, OctDbm, dbm_box, oct_close
from troprelu.network import AbsDomain, AnalysisOptions, Network, analyze

from test_large_magnitudes import assert_contains_forward_pass
from test_oct_closure import random_octagon

EPS = 1e-9


def draw_boxes(rng, cells, n):
    """Boxes around 0 (a stack when ``cells``), most with a bound +0.0 or -0.0."""
    shape = (n,) if cells is None else (cells, n)
    lo, hi = rng.uniform(-2, 0, shape), rng.uniform(0, 2, shape)
    kind = rng.integers(0, 5, shape)
    lo[kind == 1], lo[kind == 2], hi[kind == 3], hi[kind == 4] = 0.0, -0.0, 0.0, -0.0
    return Box(lo, hi)


def assert_same_reading(o: OctDbm):
    want = dbm_box(network._plus_block_dbm(o))
    got = o.box()
    assert got.lo.tobytes() == want.lo.tobytes()
    assert got.hi.tobytes() == want.hi.tobytes()


@pytest.mark.parametrize("cells", [None, 4])
@pytest.mark.parametrize("seed", range(10))
class TestBoxReader:
    def test_octagon_of_a_box(self, seed, cells):
        rng = np.random.default_rng(seed)
        assert_same_reading(network._oct_from_box(draw_boxes(rng, cells, int(rng.integers(1, 7)))))

    def test_relu_image_of_a_box(self, seed, cells):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 7))
        o = network._oct_from_box(draw_boxes(rng, cells, n))
        h_vars = sorted(rng.permutation(n)[: int(rng.integers(1, n + 1))].tolist())
        assert_same_reading(network._oct_relu_append(o, h_vars))

    def test_relu_image_of_an_octagon(self, seed, cells):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(2, 6))
        base = [oct_close(OctDbm(random_octagon(rng, n, drop=0.0))).entries for _ in range(cells or 1)]
        o = OctDbm(np.stack(base) if cells else base[0], closed=True)
        h_vars = sorted(rng.permutation(n)[: int(rng.integers(1, n + 1))].tolist())
        image = network._oct_relu_append(o, h_vars, keep=h_vars[:1])
        assert_same_reading(image)


def test_strengthening_flags_the_meets_own_cycles(monkeypatch):
    meets, masks = [], []
    meet, oct_meet = network._meet, network._oct_meet

    def record_meet(a, c, b):
        meets.append(meet(a, c, b))
        return meets[-1]

    def record_oct_meet(*args):
        out = oct_meet(*args)
        masks.append(np.atleast_1d(out[1]).copy())
        return out

    monkeypatch.setattr(network, "_meet", record_meet)
    monkeypatch.setattr(network, "_oct_meet", record_oct_meet)
    net = Network((np.array([[0.3], [-0.7]]),), (np.zeros(2),))
    x = np.array([12345678.9])
    res = analyze(net, Box(x, x), AnalysisOptions(domain=AbsDomain.OCTAGON, eps=EPS))
    assert np.diagonal(meets[0]).min() < -EPS  # the meet's new cycles, before strengthening
    assert masks[0].all()  # flagged by strengthening
    assert len(masks) == 2 and not masks[1].any()  # redone once, on the widened layer octagon
    assert_contains_forward_pass(res, net, x)
