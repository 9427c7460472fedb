"""Generators built on demand, and the vectorised generator filters.

``AnalysisResult.internal`` is built on first access.  The references here
are the routes it replaced, kept as written before: the eager route built
the generators of the last layer's pre-activation zone inside every
analysis (``eager_internal``), and ``extreme_filter`` and
``internal_to_zone`` tested or residuated one generator row at a time
(``scan_extreme_filter``, ``loop_internal_to_zone``).  The new code must
give bit-identical arrays.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import troprelu.layers as layers
import troprelu.network as network
import troprelu.subdivision as subdivision
import troprelu.tropical as tropical
from troprelu import (
    AnalysisOptions,
    Box,
    LinearAssertion,
    SubdivisionGrid,
    TropInternal,
    analyze,
    check,
    internal_to_zone,
)
from troprelu.errors import TropReluError
from troprelu.maxplus import DEFAULT_EPS

from test_layer_chain import BATTERY_SEED, BATTERY_SIZE, draw_net, settings


def scan_extreme_filter(g: np.ndarray, eps: float) -> np.ndarray:
    """``extreme_filter`` as a scan: duplicates within eps dropped, first
    kept, then the last generator first, each tested against the
    generators still kept."""
    if g.shape[0] <= 1:
        return g
    keep = [0]
    for i in range(1, g.shape[0]):
        if (np.abs(g[keep] - g[i]).max(axis=1) > eps).all():
            keep.append(i)
    g = g[keep]
    alive = list(range(g.shape[0]))
    for i in range(g.shape[0] - 1, -1, -1):
        if len(alive) == 1:
            break
        others = [k for k in alive if k != i]
        rest = g[others]
        raw = (g[i][None, :] - rest).min(axis=1)
        if raw.max() < -eps:
            continue
        lam = np.minimum(0.0, raw)
        recon = (rest + lam[:, None]).max(axis=0)
        if np.abs(recon - g[i]).max() <= eps:
            alive = others
    return g[alive]


def loop_internal_to_zone(poly: TropInternal) -> np.ndarray:
    """``internal_to_zone``'s entries, one residuated row at a time."""
    cols = np.vstack([poly.generators.T, np.zeros((1, poly.n_generators))])
    n1 = cols.shape[0]
    quot = np.empty((n1, n1))
    for i in range(n1):
        quot[i] = (cols[i][None, :] - cols).min(axis=1)
    order = np.concatenate([[n1 - 1], np.arange(n1 - 1)])
    return -quot[np.ix_(order, order)].T


@pytest.fixture
def pre_zones(monkeypatch):
    """Every closed pre-activation zone the layer chain builds, in order."""
    zones = []
    layer_zone, oct_step = network._layer_zone, network._oct_step

    def record_layer_zone(*args):
        zones.append(layer_zone(*args))
        return zones[-1]

    def record_oct_step(*args):
        out = oct_step(*args)
        zones.append(out[2])
        return out

    monkeypatch.setattr(network, "_layer_zone", record_layer_zone)
    monkeypatch.setattr(network, "_oct_step", record_oct_step)
    return zones


def eager_internal(net, box, options, pre_zones) -> np.ndarray:
    """The generators as the eager route built them: the last pre-activation
    zone's n + 1 points, clamped copies of the ReLU slots appended,
    projected onto the tracked slots, each step through the scan filter;
    with a grid, every cell so and the cells joined in order."""
    eps = options.eps
    if options.subdiv is not None:
        out = None
        for cell in options.subdiv.cells():
            g = eager_internal(net, cell, replace(options, subdiv=None), pre_zones)
            out = g if out is None else scan_extreme_filter(np.vstack([out, g]), eps)
        return out
    res = analyze(net, box, options)
    m = pre_zones[-1].entries
    keys = res.diagnostics["layers"][-1]["preact_zone"]["keys"]
    act = net.has_relu(net.n_layers - 1)
    new = "post" if act else "pre"
    sel = [keys.index((new, j) if s == net.n_layers else (s, j)) for s, j in res.var_map]
    gens = scan_extreme_filter(np.vstack([-m[0, 1:], m[1:, 0][:, None] - m[1:, 1:]]), eps)
    if act:
        pre = [i for i, k in enumerate(keys) if k[0] == "pre"]
        gens = scan_extreme_filter(np.hstack([gens, np.maximum(gens[:, pre], 0.0)]), eps)
    return scan_extreme_filter(gens[:, sel], eps)


def _battery():
    rng = np.random.default_rng(BATTERY_SEED)
    return [draw_net(rng) for _ in range(BATTERY_SIZE)]


def _grid(box):
    counts = [2, 2] + [1] * (box.dim - 2)
    return SubdivisionGrid.uniform(box, counts)


SETTINGS = list(settings())
IDS = [name for name, _ in SETTINGS]


class TestOnDemand:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Calls of each generator function, counted at every binding."""
        counts = {"zone_to_internal": 0, "relu_extend": 0, "extreme_filter": 0}
        for mod in (tropical, network, layers, subdivision):
            for name in counts:
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, self._counted(counts, name, getattr(mod, name)))
        return counts

    @staticmethod
    def _counted(counts, name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @pytest.mark.parametrize("subdiv", [False, True], ids=["whole box", "grid"])
    @pytest.mark.parametrize("name, options", SETTINGS, ids=IDS)
    def test_analyze_and_check_build_no_generators(self, calls, name, options, subdiv):
        for net, box in _battery()[:6]:
            opts = replace(options, subdiv=_grid(box)) if subdiv else options
            try:
                res = analyze(net, box, opts)
            except TropReluError:
                continue
            a = LinearAssertion(np.ones(net.n_inputs), np.ones(net.n_outputs), 0.5)
            check(a, res)
            assert calls == dict.fromkeys(calls, 0), calls
            first = res.internal
            assert calls["zone_to_internal"] == 0
            assert calls["extreme_filter"] > 0
            built = dict(calls)
            assert res.internal is first
            assert calls == built
            calls.update(dict.fromkeys(calls, 0))


class TestSameGenerators:
    @pytest.mark.parametrize("name, options", SETTINGS, ids=IDS)
    def test_battery_matches_eager_route(self, pre_zones, name, options):
        for idx, (net, box) in enumerate(_battery()):
            try:
                lazy = analyze(net, box, options).internal.generators
            except TropReluError:
                with pytest.raises(TropReluError):
                    eager_internal(net, box, options, pre_zones)
                continue
            assert np.array_equal(lazy, eager_internal(net, box, options, pre_zones)), idx

    @pytest.mark.parametrize("name, options", SETTINGS, ids=IDS)
    def test_grid_matches_eager_route(self, pre_zones, name, options):
        for idx, (net, box) in enumerate(_battery()[:10]):
            opts = replace(options, subdiv=_grid(box))
            try:
                lazy = analyze(net, box, opts).internal.generators
            except TropReluError:
                continue
            assert np.array_equal(lazy, eager_internal(net, box, opts, pre_zones)), idx

    def test_running_net_grid(self, pre_zones, running_net, unit_box2):
        opts = AnalysisOptions(subdiv=SubdivisionGrid.uniform(unit_box2, [2, 1]))
        lazy = analyze(running_net, unit_box2, opts).internal.generators
        assert np.array_equal(lazy, eager_internal(running_net, unit_box2, opts, pre_zones))


def _polytope(rng, eps):
    """Random generators plus hull points, duplicates, near-duplicates within
    eps and hull points moved by a few eps, shuffled."""
    p, d = int(rng.integers(1, 9)), int(rng.integers(1, 7))
    g = rng.uniform(-2, 2, size=(p, d))
    if eps > DEFAULT_EPS:
        g = np.round(g / eps) * eps  # a coarse grid makes ties within eps common
    extra = []
    for _ in range(int(rng.integers(0, 8))):
        lam = rng.uniform(-2, 0, size=p)
        lam[rng.integers(p)] = 0.0
        hull_point = (g + lam[:, None]).max(axis=0)
        kind = rng.integers(4)
        if kind == 0:
            extra.append(hull_point)
        elif kind == 1:
            extra.append(g[rng.integers(p)].copy())
        elif kind == 2:
            extra.append(g[rng.integers(p)] + rng.uniform(-0.9, 0.9, size=d) * eps)
        else:
            extra.append(hull_point + rng.uniform(-3, 3, size=d) * eps)
    pts = np.vstack([g, *extra]) if extra else g
    return pts[rng.permutation(pts.shape[0])]


class TestVectorisedFilters:
    @pytest.mark.parametrize("eps", [DEFAULT_EPS, 1e-6, 0.05])
    def test_extreme_filter_matches_scan(self, eps):
        rng = np.random.default_rng(5)
        for trial in range(400):
            g = _polytope(rng, eps)
            kept = tropical.extreme_filter(TropInternal(g), eps=eps).generators
            assert np.array_equal(kept, scan_extreme_filter(g, eps)), trial

    def test_mutually_redundant_pair_keeps_one(self):
        # within eps = 0.1, (0.2, 0.9) combines from (0.4, 1.0) and the
        # rest, and (0.4, 1.0) from (0.2, 0.9) and the rest: dropping every
        # generator that combines from all the others would lose both
        g = np.array([[0.2, 0.9], [0.2, 0.2], [0.4, 1.0], [0.6, 0.1]])
        kept = tropical.extreme_filter(TropInternal(g), eps=0.1).generators
        assert np.array_equal(kept, scan_extreme_filter(g, 0.1))
        assert kept.shape[0] == 3

    def test_distance_of_exactly_eps_is_a_duplicate(self):
        # neither point combines from the other within eps, so only the
        # duplicate test drops the second
        g = np.array([[0.0, 0.0], [0.5, -0.5]])
        kept = tropical.extreme_filter(TropInternal(g), eps=0.5).generators
        assert np.array_equal(kept, scan_extreme_filter(g, 0.5))
        assert np.array_equal(kept, g[[0]])

    def test_large_sets_are_blocked(self):
        # 300 generators in 40 dimensions: the (300, 300, 40) temporary is
        # split into row blocks of at most 2^16 floats
        rng = np.random.default_rng(8)
        g = np.vstack([rng.uniform(-1, 1, size=(200, 40)), np.zeros((100, 40))])
        kept = tropical.extreme_filter(TropInternal(g)).generators
        assert np.array_equal(kept, scan_extreme_filter(g, DEFAULT_EPS))

    def test_internal_to_zone_matches_row_loop(self):
        rng = np.random.default_rng(6)
        for trial in range(100):
            p, d = int(rng.integers(1, 12)), int(rng.integers(1, 9))
            poly = TropInternal(rng.uniform(-3, 3, size=(p, d)))
            assert np.array_equal(internal_to_zone(poly).entries, loop_internal_to_zone(poly)), trial
        # enough rows and generators to need several blocks
        poly = TropInternal(rng.uniform(-3, 3, size=(700, 120)))
        assert np.array_equal(internal_to_zone(poly).entries, loop_internal_to_zone(poly))
