"""The octagon ReLU image is strongly closed as it is built.

``network._oct_relu_append`` writes every entry of the image from the
input's entries (mins, maxes, halves and doubles), applies the coherence
step and returns the matrix with no closure pass; its docstring proves that
in exact arithmetic the result satisfies every triangle and half-sum
inequality.  On integer octagons float arithmetic is exact, so a full
``oct_close`` (every slot a pivot) of the image must return its values
exactly (only the signs of zeros may differ: the closure's widening step
flips them); on float octagons the two agree to rounding.  A stack of
octagons gives each octagon the bits it gets alone.

Without the closure pass no -0.0 reaches a layer octagon through the
carried box of the clamped copies, so on nets with dead units every
octagon-shaped dense meet mirrors (``dbm._coherent_meet``).
"""

from __future__ import annotations

import numpy as np
import pytest

from troprelu import dbm, network
from troprelu.dbm import Box, OctDbm, oct_close
from troprelu.network import AbsDomain, AnalysisOptions, Network, analyze

from test_oct_closure import assert_strongly_closed, random_octagon
from test_stacked_cells import same_bits

SEEDS = range(30)


def draw_transfer(rng, integer: bool, drop: float):
    """A strongly closed input octagon over n + r variables, r of them (in
    shuffled order) the pre-activations, and a random kept subset."""
    n = int(rng.integers(1, 5))
    r = int(rng.integers(1, 6))
    base = oct_close(OctDbm(random_octagon(rng, n + r, drop=drop, integer=integer)))
    assert isinstance(base, OctDbm)
    order = rng.permutation(n + r)
    keep = sorted(order[r : r + int(rng.integers(0, n + 1))].tolist())
    return base, order[:r].tolist(), keep


class TestExactOnIntegers:
    @pytest.mark.parametrize("drop", [0.0, 0.3])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_equals_its_full_closure(self, seed, drop):
        rng = np.random.default_rng(500 + seed)
        base, h_vars, keep = draw_transfer(rng, integer=True, drop=drop)
        image = network._oct_relu_append(base, h_vars, keep=keep)
        closed = oct_close(OctDbm(image.entries.copy()))
        assert isinstance(closed, OctDbm)
        assert np.array_equal(closed.entries, image.entries)

    @pytest.mark.parametrize("drop", [0.0, 0.3])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_stack_gives_each_cell_its_own_bits(self, seed, drop):
        rng = np.random.default_rng(600 + seed)
        n = int(rng.integers(1, 5))
        r = int(rng.integers(1, 6))
        cells = [oct_close(OctDbm(random_octagon(rng, n + r, drop=drop, integer=True))) for _ in range(2)]
        order = rng.permutation(n + r)
        h_vars = order[:r].tolist()
        keep = sorted(order[r : r + int(rng.integers(0, n + 1))].tolist())
        stack = OctDbm(np.stack([c.entries for c in cells]))
        got = network._oct_relu_append(stack, h_vars, keep=keep).entries
        for i, cell in enumerate(cells):
            assert same_bits(got[i], network._oct_relu_append(cell, h_vars, keep=keep).entries)


class TestFloat:
    @pytest.mark.parametrize("drop", [0.0, 0.3])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_strongly_closed_to_rounding(self, seed, drop):
        rng = np.random.default_rng(700 + seed)
        base, h_vars, keep = draw_transfer(rng, integer=False, drop=drop)
        image = network._oct_relu_append(base, h_vars, keep=keep)
        closed = oct_close(OctDbm(image.entries.copy()))
        assert isinstance(closed, OctDbm)
        got, want = image.entries, closed.entries
        assert np.array_equal(np.isinf(got), np.isinf(want))
        fin = np.isfinite(want)
        assert (np.abs(got[fin] - want[fin]) <= 1e-12 * (1.0 + np.abs(want[fin]))).all()
        if drop == 0.0:
            assert_strongly_closed(image, tol=1e-12)


def _dead_unit_net():
    # the second hidden unit never fires on the box: a zero weight row and a
    # negative bias, so its copy is the point 0
    return Network(
        (np.array([[1.0, -1.0], [0.0, 0.0], [0.5, 1.0]]), np.array([[1.0, 1.0, -1.0], [0.0, 2.0, 1.0]])),
        (np.array([0.0, -1.0, 0.0]), np.zeros(2)),
        final_relu=True,
    )


class TestDegenerate:
    @pytest.mark.parametrize("track_all", [False, True])
    def test_point_box(self, track_all):
        net = _dead_unit_net()
        box = Box([0.3, -0.2], [0.3, -0.2])
        res = analyze(net, box, AnalysisOptions(domain=AbsDomain.OCTAGON, track_all=track_all))
        y = net.forward(box.lo)[0]
        tol = 1e-9 * (1.0 + np.abs(y))
        assert (res.bounds[-1].lo <= y + tol).all() and (y - tol <= res.bounds[-1].hi).all()

    @pytest.mark.parametrize("track_all", [False, True])
    def test_dead_unit(self, track_all):
        net = _dead_unit_net()
        res = analyze(net, Box([-1.0, -1.0], [1.0, 1.0]), AnalysisOptions(domain=AbsDomain.OCTAGON, track_all=track_all))
        assert res.bounds[1].lo[1] == 0.0 and res.bounds[1].hi[1] == 0.0


def _dead_unit_nets(count: int = 40):
    """Nets over [0, 1]^n with zero biases, weight columns zeroed with
    probability 0.4 and rows with 0.3: many units are dead or constant."""
    rng = np.random.default_rng(3)
    for _ in range(count):
        sizes = [int(rng.integers(2, 9))] + [int(rng.integers(2, 12)) for _ in range(int(rng.integers(2, 5)))]
        weights = []
        for n_in, n_out in zip(sizes, sizes[1:]):
            w = rng.standard_normal((n_out, n_in))
            w[:, rng.random(n_in) < 0.4] = 0.0
            w[rng.random(n_out) < 0.3, :] = 0.0
            weights.append(w)
        net = Network(tuple(weights), tuple(np.zeros(n) for n in sizes[1:]), final_relu=bool(rng.integers(0, 2)))
        yield net, Box(np.zeros(sizes[0]), np.ones(sizes[0]))


class TestDeadUnitsMirror:
    def test_no_octagon_meet_refused(self, monkeypatch):
        decisions = []
        coherent_meet = dbm._coherent_meet

        def spy(a, c, b):
            decisions.append(coherent_meet(a, c, b))
            return decisions[-1]

        monkeypatch.setattr(dbm, "_coherent_meet", spy)
        for net, box in _dead_unit_nets():
            for track_all in (False, True):
                analyze(net, box, AnalysisOptions(domain=AbsDomain.OCTAGON, track_all=track_all))
        assert len(decisions) > 100
        assert all(decisions)
