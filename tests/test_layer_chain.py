"""The layer chain against frozen bounds, and nets that used to crash it.

``fixtures/chain_bounds.json`` was written by running this file as a script
against the earlier chain, which rebuilt a generator hull of every layer and
reconciled it with the carried zone:

    PYTHONPATH=src python tests/test_layer_chain.py > tests/fixtures/chain_bounds.json

It holds, for a seeded battery of random nets in every mode, domain and
tracking setting, the per-stage bounds and two zone-LP minima, or the name
of the error the earlier chain raised.  The current chain must be as tight
or tighter on every entry; it may succeed where the earlier chain raised,
never the other way round.  Do not regenerate the fixture from the current
code: that would turn the check into a tautology.
"""

from __future__ import annotations

import json
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from troprelu import (
    AbsDomain,
    AnalysisOptions,
    Box,
    ChainMode,
    LinearAssertion,
    Network,
    analyze,
    check,
    dbm_contains,
    internal_membership_many,
)
from troprelu.errors import TropReluError

FIXTURE = Path(__file__).parent / "fixtures" / "chain_bounds.json"
BATTERY_SEED = 2
BATTERY_SIZE = 40


def draw_net(rng):
    """One random net and input box.

    Draw order: layer count in [1, 4]; input width in [2, 8]; each layer
    width in [2, 11]; N(0, 1) weights of every layer, then 0.5 N(0, 1)
    biases of every layer; ``final_relu`` as a coin flip; a box with
    centre U(-1, 1) and radius U(0.05, 1) per input.
    """
    n_layers = int(rng.integers(1, 5))
    sizes = [int(rng.integers(2, 9))] + [int(rng.integers(2, 12)) for _ in range(n_layers)]
    pairs = list(zip(sizes, sizes[1:]))
    weights = [rng.standard_normal((n_out, n_in)) for n_in, n_out in pairs]
    biases = [0.5 * rng.standard_normal(n_out) for _, n_out in pairs]
    final_relu = bool(rng.integers(0, 2))
    centre = rng.uniform(-1, 1, sizes[0])
    radius = rng.uniform(0.05, 1, sizes[0])
    net = Network(tuple(weights), tuple(biases), final_relu=final_relu)
    return net, Box(centre - radius, centre + radius)


def settings():
    for mode, domain, track_all in product(ChainMode, AbsDomain, (False, True)):
        yield f"{mode.value}/{domain.value}/{'all' if track_all else 'io'}", AnalysisOptions(
            mode=mode, domain=domain, track_all=track_all
        )


def _round(values):
    return [float(f"{float(v):.15g}") for v in values]


def battery():
    """Seeded nets, each with two objectives over its inputs and outputs."""
    rng = np.random.default_rng(BATTERY_SEED)
    out = []
    for _ in range(BATTERY_SIZE):
        net, box = draw_net(rng)
        objectives = [
            LinearAssertion(rng.standard_normal(net.n_inputs), rng.standard_normal(net.n_outputs))
            for _ in range(2)
        ]
        out.append((net, box, objectives))
    return out


def summarise(net, box, objectives, options) -> dict:
    try:
        res = analyze(net, box, options)
    except TropReluError as exc:
        return {"error": type(exc).__name__}
    return {
        "lo": [_round(b.lo) for b in res.bounds],
        "hi": [_round(b.hi) for b in res.bounds],
        "minima": _round(check(a, res).minimum for a in objectives),
    }


def freeze() -> dict:
    return {
        "seed": BATTERY_SEED,
        "nets": [
            {name: summarise(net, box, objs, opts) for name, opts in settings()}
            for net, box, objs in battery()
        ],
    }


def _not_looser(new, old, sign) -> bool:
    """sign=+1: new may only be larger (lower bounds, minima); -1: smaller."""
    new = np.asarray(new, dtype=float)
    old = np.asarray(old, dtype=float)
    return bool((sign * (new - old) >= -1e-9 * (1.0 + np.abs(old))).all())


class TestNeverLooser:
    def test_battery_matches_or_tightens_frozen_bounds(self):
        frozen = json.loads(FIXTURE.read_text())
        assert frozen["seed"] == BATTERY_SEED
        nets = battery()
        assert len(frozen["nets"]) == len(nets)
        for idx, ((net, box, objs), old_net) in enumerate(zip(nets, frozen["nets"])):
            for name, opts in settings():
                old = old_net[name]
                new = summarise(net, box, objs, opts)
                where = f"net {idx}, {name}"
                if "error" in old:
                    continue
                assert "error" not in new, f"{where}: now raises {new['error']}"
                assert len(new["lo"]) == len(old["lo"]), where
                for s, (lo_new, lo_old) in enumerate(zip(new["lo"], old["lo"])):
                    assert _not_looser(lo_new, lo_old, +1), f"{where}: stage {s} lower bound"
                for s, (hi_new, hi_old) in enumerate(zip(new["hi"], old["hi"])):
                    assert _not_looser(hi_new, hi_old, -1), f"{where}: stage {s} upper bound"
                assert _not_looser(new["minima"], old["minima"], +1), f"{where}: LP minima"


def _regression_nets():
    rng = np.random.default_rng(7)
    nets = [draw_net(rng) for _ in range(112)]
    return {49: nets[49], 111: nets[111]}


class TestChainRegressions:
    def test_point_box_in_zone_mode(self, running2_net):
        res = analyze(running2_net, Box([0.3, 0.3], [0.3, 0.3]))
        out = res.bounds[-1]
        assert np.allclose(out.lo, [0.6, 0.0]) and np.allclose(out.hi, [0.6, 0.0])

    @pytest.mark.parametrize("index, sizes", [(49, (4, 4, 2, 11, 2)), (111, (2, 3, 2, 5))])
    def test_seeded_nets_that_emptied_the_zone_chain(self, index, sizes):
        net, box = _regression_nets()[index]
        assert net.sizes == sizes
        rng = np.random.default_rng(index)
        xs = np.vstack([box.sample(rng, 500), box.lo, box.hi])
        stages = net.trace(xs)
        for track_all in (False, True):
            res = analyze(net, box, AnalysisOptions(track_all=track_all))
            for s, b in enumerate(res.bounds):
                assert b.contains(stages[s], eps=1e-6).all(), (track_all, s)
            pts = np.column_stack([stages[s][:, j] for s, j in res.var_map])
            assert dbm_contains(res.zone, pts, eps=1e-6).all()
            assert internal_membership_many(res.internal, pts, eps=1e-6).all()


POINT_BOXES = {
    "point": Box([0.3, 0.3], [0.3, 0.3]),
    "1e-12 wide": Box([0.3, 0.3], [0.3 + 1e-12, 0.3 + 1e-12]),
}


def _assert_traces_inside(net, box, res, rng, eps):
    """Corners and samples of ``box`` lie in every stage's bounds within the
    analysis eps: the generator filter merges points closer than eps, so a
    set narrower than that is exact only to eps."""
    xs = np.vstack([box.lo, box.hi, box.sample(rng, 50)])
    for s, (b, v) in enumerate(zip(res.bounds, net.trace(xs))):
        tol = eps * (1.0 + np.abs(v))
        assert (b.lo <= v + tol).all() and (v <= b.hi + tol).all(), s


class TestPointBoxes:
    @pytest.mark.parametrize("box_name", sorted(POINT_BOXES))
    @pytest.mark.parametrize("name, options", list(settings()), ids=[n for n, _ in settings()])
    def test_running_net(self, running2_net, box_name, name, options):
        box = POINT_BOXES[box_name]
        res = analyze(running2_net, box, options)
        _assert_traces_inside(running2_net, box, res, np.random.default_rng(0), options.eps)
        out = res.bounds[-1]
        assert np.allclose(out.lo, [0.6, 0.0]) and np.allclose(out.hi, [0.6, 0.0])

    @pytest.mark.parametrize("width", [0.0, 1e-12])
    def test_seeded_nets(self, width):
        # a point inside battery boxes: nets 0-5 raised in the octagon
        # domain, net 22 (1e-12 wide) and net 37 (point, track all) in every
        # mode, from a false EMPTY in closure
        rng = np.random.default_rng(BATTERY_SEED)
        for k in range(38):
            net, box = draw_net(rng)
            if k > 5 and k not in (22, 37):
                continue
            c = box.lo + 0.37 * (box.hi - box.lo)
            point = Box(c, c + width)
            for name, options in settings():
                res = analyze(net, point, options)
                _assert_traces_inside(net, point, res, np.random.default_rng(k), options.eps)


def _width_one_nets():
    """The first four seed-3 nets of 2-3 layers, 2-4 inputs and layer widths
    1-4, with a hidden layer of width 1, drawn in ``draw_net``'s order."""
    rng = np.random.default_rng(3)
    out = []
    while len(out) < 4:
        n_layers = int(rng.integers(2, 4))
        sizes = [int(rng.integers(2, 5))] + [int(rng.integers(1, 5)) for _ in range(n_layers)]
        pairs = list(zip(sizes, sizes[1:]))
        weights = [rng.standard_normal((n_out, n_in)) for n_in, n_out in pairs]
        biases = [0.5 * rng.standard_normal(n_out) for _, n_out in pairs]
        final_relu = bool(rng.integers(0, 2))
        centre = rng.uniform(-1, 1, sizes[0])
        radius = rng.uniform(0.05, 1, sizes[0])
        if 1 in sizes[1:-1]:
            net = Network(tuple(weights), tuple(biases), final_relu=final_relu)
            out.append((net, Box(centre - radius, centre + radius)))
    return out


def _degenerate_nets():
    """Each width-1 net as drawn, with its first layer's weights zeroed, and
    with its first layer dead: biases below -|W| |x|, so every
    pre-activation is negative on the box."""
    out = {}
    for k, (net, box) in enumerate(_width_one_nets()):
        w, b = list(net.weights), list(net.biases)
        out[f"width 1 #{k}"] = (net, box)
        zero = [np.zeros_like(w[0]), *w[1:]]
        out[f"zero weights #{k}"] = (Network(tuple(zero), tuple(b), net.final_relu), box)
        reach = np.abs(w[0]) @ np.maximum(np.abs(box.lo), np.abs(box.hi))
        dead = [-reach - 0.5, *b[1:]]
        out[f"dead layer #{k}"] = (Network(tuple(w), tuple(dead), net.final_relu), box)
    return out


class TestDegenerateNets:
    @pytest.mark.parametrize("name, options", list(settings()), ids=[n for n, _ in settings()])
    def test_traces_inside_every_stage(self, name, options):
        for k, (label, (net, box)) in enumerate(sorted(_degenerate_nets().items())):
            res = analyze(net, box, options)
            _assert_traces_inside(net, box, res, np.random.default_rng(k), options.eps)

    def test_dead_layer_is_exact(self):
        for label, (net, box) in _degenerate_nets().items():
            if label.startswith("dead"):
                res = analyze(net, box)
                assert (res.bounds[1].lo == 0).all() and (res.bounds[1].hi == 0).all(), label


def _worst_miss(net, box, res, rng):
    """Largest relative distance by which a corner or sample trace of
    ``box`` leaves a stage's bounds (0 when all lie inside)."""
    xs = np.vstack([box.lo, box.hi, box.sample(rng, 50)])
    worst = 0.0
    for b, v in zip(res.bounds, net.trace(xs)):
        miss = np.maximum(b.lo - v, v - b.hi) / (1.0 + np.abs(v))
        worst = max(worst, float(miss.max()))
    return worst


class TestNearPointBoxes:
    """Boxes narrower than eps keep every concrete value: the chain has no
    eps merge, so the bounds hold to rounding (1e-14), not only to eps."""

    TOL = 1e-14

    @pytest.mark.parametrize("width", [1e-12, 1e-10])
    def test_battery_nets(self, width):
        rng = np.random.default_rng(BATTERY_SEED)
        for k in range(BATTERY_SIZE):
            net, box = draw_net(rng)
            c = box.lo + 0.37 * (box.hi - box.lo)
            near = Box(c, c + width)
            for name, options in settings():
                res = analyze(net, near, options)
                miss = _worst_miss(net, near, res, np.random.default_rng(k))
                assert miss <= self.TOL, f"net {k}, {name}: trace misses by {miss:.3g}"

    @pytest.mark.parametrize("name, options", list(settings()), ids=[n for n, _ in settings()])
    def test_running_net(self, running2_net, name, options):
        box = POINT_BOXES["1e-12 wide"]
        res = analyze(running2_net, box, options)
        assert _worst_miss(running2_net, box, res, np.random.default_rng(0)) <= self.TOL
        # the eps merge of the generator route put this bound at
        # 1.6000000000000003, below the value at the upper corner
        top = running2_net.trace(box.hi[None, :])[1].max()
        assert top == pytest.approx(1.6000000000019998, abs=1e-15)
        assert res.bounds[1].hi.max() >= top

if __name__ == "__main__":
    json.dump(freeze(), sys.stdout, separators=(",", ":"))
    sys.stdout.write("\n")
