"""A grid query without Python loops over arrays: the hull filter and the
cell LPs against the code they replaced.

``extreme_filter`` drops near-duplicates by keeping at once every row with
no near-duplicate before it, and ``_residuals`` and ``_combines`` reduce one
coordinate at a time instead of over a trailing axis of length d.  The
references are the scan of ``test_lazy_generators`` and the broadcast
formulas as they were, kept here.  ``speccheck._cell_minima`` sets up one LP
per assertion for all cells (``simplex.minimize_over_dbms``); its reference
is the per-cell loop it replaced, kept here with the one-matrix LP of that
time.  All must agree bit for bit, except where the zone LP settles a slot
that factors through slot 0 in closed form (``assert_matches_parent``).

The rest: ``layers._oct_entries`` writes no -0.0 into its minus blocks, so
the octagon meets of nets with zero bounds mirror instead of taking three
products, and ``run_cli`` builds its parser once per process.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import troprelu.dbm as dbm
import troprelu.network as network
import troprelu.simplex as simplex
import troprelu.tropical as tropical
from troprelu import (
    AnalysisOptions,
    AnalysisResult,
    Box,
    Dbm,
    LinearAssertion,
    Network,
    SubdivisionGrid,
    TropInternal,
    analyze,
    check,
    dbm_close,
    extreme_filter,
    parse_sherlock,
)
from troprelu.cli import _parser, make_parser, run_cli
from troprelu.dbm import _shortest_paths, embed_dbm
from troprelu.maxplus import DEFAULT_EPS
from troprelu.network import AbsDomain, ChainMode
from troprelu.speccheck import _cell_minima, _check_objective, _objective_of

from conftest import FIXTURES
from test_lazy_generators import scan_extreme_filter
from test_tropical import TestDuplicateScan

EPS = DEFAULT_EPS


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


# ---------------------------------------------------------------- hull filter


def broadcast_residuals(points, gens):
    """``_residuals`` as it was: one (rows, p, d) temporary, min over d."""
    return (points[:, None, :] - gens[None]).min(axis=2)


def broadcast_combines(points, gens, raw, eps):
    """``_combines`` as it was: max over p of a (rows, p, d) temporary, then
    the error's max over d."""
    out = raw.max(axis=1) >= -eps
    lam = np.minimum(0.0, raw)
    recon = (gens[None] + lam[:, :, None]).max(axis=1)
    return out & (np.abs(recon - points).max(axis=1) <= eps)


def report_points(rng, p, d=5):
    """p report-like generators in d dimensions: extreme points, tropical
    combinations of them, exact duplicates and near-duplicate chains at eps
    and 2 eps, shuffled."""
    base = rng.integers(-4, 5, size=(max(2, p // 3), d)) + rng.choice([0.0, 0.25, 0.5], size=(max(2, p // 3), d))
    rows = [base]
    while sum(len(r) for r in rows) < p:
        kind = rng.integers(4)
        g = base[rng.integers(len(base))]
        if kind == 0:  # a tropical combination of two generators
            h = base[rng.integers(len(base))]
            lam = -rng.uniform(0, 2)
            rows.append(np.maximum(g, h + lam)[None] if rng.random() < 0.5 else np.maximum(g + lam, h)[None])
        elif kind == 1:  # an exact duplicate
            rows.append(g[None].copy())
        else:  # a chain of near-duplicates, each step eps or 2 eps on one coordinate
            step = (1 if kind == 2 else 2) * EPS
            k = rng.integers(d)
            chain = np.repeat(g[None], 3, axis=0)
            chain[:, k] += step * np.arange(3)
            rows.append(chain)
    g = np.vstack(rows)[:p]
    return g[rng.permutation(p)]


def filter_inputs():
    rng = np.random.default_rng(1800)
    for p in (72, 108, 144):
        for _ in range(3):
            yield report_points(rng, p)
    g = report_points(rng, 202, d=101)
    yield g


@pytest.fixture
def analysed_points(monkeypatch):
    """The points that ``internal`` of grid analyses hands to
    ``extreme_filter``, recorded from a spy."""
    seen = []
    original = tropical.extreme_filter

    def spy(poly, eps=DEFAULT_EPS):
        seen.append(poly.generators.copy())
        return original(poly, eps=eps)

    monkeypatch.setattr(network, "extreme_filter", spy)
    rng = np.random.default_rng(1801)
    box = Box(-np.ones(3), np.ones(3))
    grid = SubdivisionGrid.uniform(box, [2, 2, 2])
    for _ in range(3):
        net = grid_net(rng, (3, 12, 12, 2))
        for mode in (ChainMode.ZONE, ChainMode.BOX):
            analyze(net, box, AnalysisOptions(mode=mode, subdiv=grid)).internal
    return seen


class TestHullFilter:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_extreme_filter_matches_the_scan(self, order):
        for g in filter_inputs():
            g = np.asarray(g, order=order)
            got = extreme_filter(TropInternal(g)).generators
            assert bits(got) == bits(scan_extreme_filter(g, EPS))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_analysed_points_match_the_scan(self, analysed_points, order):
        assert len(analysed_points) == 6
        for g in analysed_points:
            g = np.asarray(g, order=order)
            assert bits(extreme_filter(TropInternal(g)).generators) == bits(scan_extreme_filter(g, EPS))

    def test_near_duplicate_chains(self):
        # rows r + k step on one coordinate: only kept rows decide, so with
        # step = eps the scan keeps every other row or so, rounding aside
        r = np.array([0.5, -1.0, 2.0])
        for step in (EPS, 2 * EPS):
            for k in range(3):
                g = np.vstack([r + step * i * np.eye(3)[k] for i in range(6)])
                assert tropical._first_distinct(g, EPS) == TestDuplicateScan.loop_reference(g, EPS)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_residuals_and_combines_match_broadcast(self, order):
        rng = np.random.default_rng(1802)
        for rows, p, d in [(1, 7, 5), (144, 144, 5), (700, 150, 5), (30, 202, 101), (5, 0, 3), (0, 4, 3)]:
            points = rng.integers(-3, 4, size=(rows, d)) + rng.choice([0.0, 0.5, -0.0], size=(rows, d))
            gens = rng.integers(-3, 4, size=(p, d)) + rng.choice([0.0, 0.5, -0.0], size=(p, d))
            if rows and d:
                points[rng.random((rows, d)) < 0.05] = np.inf  # +inf in points, -inf in gens: no nan
            if p and d:
                gens[rng.random((p, d)) < 0.05] = -np.inf
            points, gens = np.asarray(points, order=order), np.asarray(gens, order=order)
            raw = tropical._residuals(points, gens)
            assert bits(raw) == bits(broadcast_residuals(points, gens))
            if p:
                assert np.array_equal(
                    tropical._combines(points, gens, raw, EPS), broadcast_combines(points, gens, raw, EPS)
                )

    def test_combines_with_the_minus_inf_diagonal(self):
        rng = np.random.default_rng(1803)
        for p in (72, 144):
            g = report_points(rng, p)
            raw = broadcast_residuals(g, g)
            np.fill_diagonal(raw, -np.inf)
            raw[rng.random(raw.shape) < 0.02] = np.inf
            assert np.array_equal(tropical._combines(g, g, raw, EPS), broadcast_combines(g, g, raw, EPS))


# ------------------------------------------------------------------ cell LPs


def parent_minimize_over_dbm(objective, entries):
    """``simplex.minimize_over_dbm`` as it was, one matrix at a time."""
    a = [float(v) for v in objective]
    try:
        supply = [math.fsum(a)] + [-v for v in a]
    except OverflowError:
        return -math.inf
    src = [v for v, b in enumerate(supply) if b > 0]
    snk = [v for v, b in enumerate(supply) if b < 0]
    if not src:
        return 0.0
    if len(src) == 1 or len(snk) == 1:
        terms = [min(supply[s], -supply[t]) * float(entries[s, t]) for s in src for t in snk]
        return simplex._neg_sum(terms)
    return simplex._transport(
        entries[np.ix_(src, snk)].tolist(),
        [supply[s] for s in src],
        [-supply[t] for t in snk],
    )


def parent_cell_minima(a, result, obj, eps):
    """``speccheck._cell_minima`` as it was: one LP set-up per cell; each
    minimum with its cell's closed meet."""
    lo, hi, zones = result._cell_stack
    if a.restrict is not None:
        lo, hi = lo.copy(), hi.copy()
        for j, iv in enumerate(a.restrict):
            if iv is not None:
                lo[:, j] = np.where(iv[0] > lo[:, j], iv[0], lo[:, j])
                hi[:, j] = np.where(iv[1] < hi[:, j], iv[1], hi[:, j])
        meets = (lo <= hi).all(axis=1)
        lo, hi, zones = lo[meets], hi[meets], zones[meets]
    if not len(zones):
        return []
    _check_objective(obj, zones.shape[-1] - 1)
    slots = [s + 1 for s in result.input_slots]
    restr = embed_dbm(Box(lo, hi).to_dbm(), slots, zones.shape[-1] - 1)
    m, empty = _shortest_paths(np.minimum(zones, restr.entries), eps)
    dbm._fill_diagonal(m, 0.0)
    support = np.flatnonzero(obj)
    live = np.flatnonzero(~empty)
    if support.size == 0:
        return [(float(a.const), m[c]) for c in live]
    coef, idx = obj[support], np.concatenate([[0], support + 1])
    minima = []
    for c, sub in zip(live, m[np.ix_(live, idx, idx)]):
        val = parent_minimize_over_dbm(coef, sub)
        minima.append((val + a.const if np.isfinite(val) else val, m[c]))
    return minima


def settled(entries, obj) -> np.ndarray:
    """Per slot of the objective's support: whether its whole row and
    column in ``entries`` factor through slot 0 (``dbm._slot0_factors``),
    so that the zone LP settles it in closed form."""
    same = dbm._slot0_factors(entries)
    return (same.all(axis=-1) & same.all(axis=-2))[np.flatnonzero(obj) + 1]


def assert_matches_parent(got, a, result, obj, name=""):
    """The cell minima against the pre-split LP: bit for bit on a cell
    where no slot is ``settled``; elsewhere -inf exactly where the parent
    has it and within 1e-13 (1 + |v|), the rounding of the settled terms."""
    want = parent_cell_minima(a, result, obj, EPS)
    assert len(got) == len(want), name
    for g, (w, m) in zip(got, want):
        if not settled(m, obj).any():
            assert bits(g) == bits(w), name
        elif w == -math.inf:
            assert g == -math.inf, name
        else:
            assert abs(g - w) <= 1e-13 * (1.0 + abs(w)), (name, g, w)


def grid_net(rng, sizes):
    return Network(
        tuple(rng.uniform(-1, 1, size=(b, a)) for a, b in zip(sizes, sizes[1:])),
        tuple(rng.uniform(-0.5, 0.5, size=b) for b in sizes[1:]),
        final_relu=False,
    )


def grid_assertions(rng, n_in, n_out):
    """name -> assertion, one per LP shape the set-up must handle."""
    dense_in, dense_out = rng.uniform(-1, 1, n_in), rng.uniform(-1, 1, n_out)
    zero_in, zero_out = np.zeros(n_in), np.zeros(n_out)
    one_out = zero_out.copy()
    one_out[0] = 1.0
    two_out = zero_out.copy()
    two_out[:2] = -1.0
    huge = np.full(n_in, 1e308)
    upper = ((0.3, 1.0),) + (None,) * (n_in - 1)
    outside = ((2.0, 3.0),) + (None,) * (n_in - 1)
    return {
        "zero": LinearAssertion(zero_in, zero_out, 0.3),
        "lone source and lone sink": LinearAssertion(zero_in, one_out, -0.1),
        "lone sink": LinearAssertion(zero_in, two_out, 0.2),
        "lone source": LinearAssertion(zero_in, -two_out, 0.2),
        "dense": LinearAssertion(dense_in, dense_out, 0.4),
        "fsum overflow": LinearAssertion(huge, zero_out, 0.0),
        "restriction skips cells": LinearAssertion(dense_in, dense_out, 0.4, upper),
        "zero, restricted": LinearAssertion(zero_in, zero_out, 0.3, upper),
        "vacuous": LinearAssertion(dense_in, dense_out, 0.4, outside),
    }


GRID_SETTINGS = [
    (ChainMode.ZONE, AbsDomain.ZONE, False),
    (ChainMode.ZONE, AbsDomain.ZONE, True),
    (ChainMode.BOX, AbsDomain.ZONE, False),
    (ChainMode.EXTERNAL, AbsDomain.ZONE, False),
    (ChainMode.ZONE, AbsDomain.OCTAGON, False),
]


class TestCellMinima:
    @pytest.mark.parametrize("mode, domain, track_all", GRID_SETTINGS)
    def test_grid_matches_the_per_cell_loop(self, mode, domain, track_all):
        rng = np.random.default_rng(1810)
        box = Box(-np.ones(3), np.ones(3))
        for _ in range(4):
            net = grid_net(rng, (3, 8, 8, 2))
            grid = SubdivisionGrid.uniform(box, [2, 2, 2])
            res = analyze(net, box, AnalysisOptions(mode=mode, domain=domain, track_all=track_all, subdiv=grid))
            for name, a in grid_assertions(rng, 3, 2).items():
                obj = _objective_of(a, res)
                got = _cell_minima(a, res, obj, EPS)
                assert_matches_parent(got, a, res, obj, name)
                if name == "fsum overflow":
                    assert got == [-math.inf] * 8
                if name == "vacuous":
                    assert got == [] and check(a, res).method == "vacuous"
                if name.startswith("restriction"):
                    assert 0 < len(got) < 8

    def test_cells_the_restriction_empties(self):
        # zones over (x1, x2, y) on four cells of [0, 1] x [0, 1], cut along
        # x1; cells 0 and 2 carry x1 - x2 <= -0.4, which a restriction
        # x2 <= 0.3 empties
        lo = np.array([[0.0, 0.0], [0.25, 0.0], [0.5, 0.0], [0.75, 0.0]])
        hi = np.array([[0.25, 1.0], [0.5, 1.0], [0.75, 1.0], [1.0, 1.0]])
        zones = []
        for k, (l, h) in enumerate(zip(lo, hi)):
            m = Box(np.append(l, -3.0), np.append(h, 3.0)).to_dbm().entries.copy()
            m[3, 1] = m[1, 3] = 1.5  # |y - x1| <= 1.5
            if k in (0, 2):
                m[1, 2] = -0.4  # x1 - x2 <= -0.4
            zones.append(dbm_close(Dbm(m)).entries)
        zones = np.stack(zones)
        res = AnalysisResult(
            var_map=[(0, 0), (0, 1), (1, 0)],
            zone=Dbm(zones.max(axis=0), closed=True),
            bounds=[Box(lo.min(axis=0), hi.max(axis=0)), Box([-3.0], [3.0])],
            n_inputs=2,
            n_outputs=1,
            _cell_stack=(lo, hi, zones),
        )
        cases = [
            (LinearAssertion([0.7, -0.2], [1.0], 0.1, (None, (0.0, 0.3))), 2),
            (LinearAssertion([1.0, 0.0], [0.0], 0.0, (None, (0.0, 0.3))), 2),
            (LinearAssertion([0.0, 0.0], [0.0], 0.5, (None, (0.0, 0.3))), 2),
            (LinearAssertion([0.7, -0.2], [1.0], 0.1, ((0.0, 0.2), (0.0, 0.3))), 0),
        ]
        for a, live in cases:
            obj = _objective_of(a, res)
            got = _cell_minima(a, res, obj, EPS)
            assert len(got) == live
            assert_matches_parent(got, a, res, obj)
        assert check(cases[-1][0], res).method == "vacuous"

    def test_one_matrix_call_matches_the_parent(self):
        rng = np.random.default_rng(1811)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            box = Box(rng.uniform(-2, 0, n), rng.uniform(0, 2, n))
            m = box.to_dbm().entries.copy()
            m[1:, 1:] = np.minimum(m[1:, 1:], rng.uniform(0, 3, (n, n)))
            closed = dbm_close(Dbm(m))
            if closed is dbm.EMPTY:
                continue
            obj = rng.uniform(-1, 1, n) * (rng.random(n) < 0.7)
            got = simplex.minimize_over_dbm(obj, closed.entries)
            assert bits(got) == bits(parent_minimize_over_dbm(obj, closed.entries))
            stack = np.stack([closed.entries] * 3)
            assert bits(simplex.minimize_over_dbms(obj, stack)) == bits([got] * 3)


# ------------------------------------------------------- mirrored octagon meets


@pytest.fixture
def meets(monkeypatch):
    """Records each ``_coherent_meet`` answer; ``three`` forces the fallback."""
    seen = {"mirrored": [], "three": False}
    original = dbm._coherent_meet

    def spy(a, c, b):
        ok = original(a, c, b) and not seen["three"]
        seen["mirrored"].append(ok)
        return ok

    monkeypatch.setattr(dbm, "_coherent_meet", spy)
    return seen


def same_values(r, s):
    assert np.array_equal(r.zone.entries, s.zone.entries)
    for b, c in zip(r.bounds, s.bounds):
        assert np.array_equal(b.lo, c.lo) and np.array_equal(b.hi, c.hi)


class TestNoNegativeZeroFallback:
    def analyse_both(self, meets, net, box, options):
        meets["three"] = False
        meets["mirrored"].clear()
        mirrored = analyze(net, box, options)
        seen = list(meets["mirrored"])
        meets["three"] = True
        three = analyze(net, box, options)
        meets["three"] = False
        same_values(mirrored, three)
        return seen

    @pytest.mark.parametrize("track_all", [False, True])
    def test_nets_over_the_unit_box(self, meets, track_all):
        rng = np.random.default_rng(1820)
        dense = 0
        for n in (2, 3, 5, 8):
            sizes = (n, 12, 12, 2)
            net = Network(
                tuple(rng.standard_normal((b, a)) / np.sqrt(a) for a, b in zip(sizes, sizes[1:])),
                tuple(np.zeros(b) for b in sizes[1:]),  # zero lower bounds of outputs
            )
            options = AnalysisOptions(domain=AbsDomain.OCTAGON, track_all=track_all)
            seen = self.analyse_both(meets, net, Box(np.zeros(n), np.ones(n)), options)
            assert all(seen)
            dense += len(seen)
        assert dense >= 8

    @pytest.mark.parametrize("track_all", [False, True])
    def test_running_grid_cut_at_zero(self, meets, track_all):
        net = parse_sherlock(FIXTURES / "running.nt")
        box = Box([-1.0, -1.0], [1.0, 1.0])
        grid = SubdivisionGrid.uniform(box, [2, 2])
        options = AnalysisOptions(domain=AbsDomain.OCTAGON, track_all=track_all, subdiv=grid)
        seen = self.analyse_both(meets, net, box, options)
        assert seen and all(seen)


# ----------------------------------------------------------------- CLI parser


class TestOneParser:
    def test_parser_is_built_once(self):
        assert _parser() is _parser()
        assert make_parser() is not make_parser()

    def test_usage_error_then_grid(self, capsys):
        spec = str(FIXTURES / "p2.spec")
        net = str(FIXTURES / "running.nt")
        with pytest.raises(SystemExit) as exc:
            run_cli(["--network", net, "--spec", spec, "--eps", "abc"])
        assert exc.value.code == 1
        capsys.readouterr()
        assert run_cli(["--network", net, "--spec", spec, "--subdiv", "x1:2"]) == 0
        assert capsys.readouterr().out.splitlines()[0].startswith("p2: Verified")
