"""The zone LP settles the slots that factor through slot 0 in closed form.

``simplex.minimize_over_dbms`` finds, per matrix, the support slots whose
whole row and column factor through slot 0 (m[v, j] == m[v, 0] + m[0, j]
bit for bit).  Such a slot is bounded only by its interval: it adds one
flow term with slot 0 and leaves the problem, and ``_transport`` (or the
forced sum) runs on the slots that remain.  The value is the optimum in
exact arithmetic, so it is checked against ``scipy.optimize.linprog`` and
against the pre-split solver (``parent_minimize_over_dbm``) within
1e-13 (1 + |v|); a stack must give each matrix the floats it gets alone.
"""

from __future__ import annotations

import numpy as np
import pytest

from troprelu import Box, Dbm, dbm_close, simplex
from troprelu.dbm import EMPTY
from troprelu.simplex import minimize_over_dbm, minimize_over_dbms

from test_grid_query import parent_minimize_over_dbm, settled
from test_zone_lp import linprog_minimum

INF = float("inf")


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def near(got, want) -> bool:
    return abs(got - want) <= 1e-13 * (1.0 + abs(want))


@pytest.fixture
def transports(monkeypatch):
    """Counts the calls of ``_transport``."""
    calls = []
    real = simplex._transport

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(simplex, "_transport", counted)
    return calls


def dense_objective(rng, n):
    """Two or more sources and two or more sinks, so the split runs."""
    while True:
        obj = rng.uniform(-1, 1, n)
        supply = np.concatenate([[obj.sum()], -obj])
        if (supply > 0).sum() >= 2 and (supply < 0).sum() >= 2:
            return obj


def mixed_zone(rng, n):
    """A closed zone over a box whose first k slots carry relations of
    their own, each difference bound cut part of the way down to its value
    at a point of the box (so the zone is not empty): those slots are
    relational, and most others factor."""
    lo = rng.uniform(-2, 0, n)
    hi = lo + rng.uniform(0.25, 2, n)
    m = Box(lo, hi).to_dbm().entries.copy()
    p = rng.uniform(lo, hi)
    k = int(rng.integers(2, n))
    rel = m[1 : k + 1, 1 : k + 1]
    at_p = p[:k, None] - p[None, :k]
    np.minimum(rel, at_p + rng.uniform(0, 1, (k, k)) * (rel - at_p), out=rel)
    closed = dbm_close(Dbm(m))
    assert closed is not EMPTY
    return closed.entries


class TestBoxZones:
    def test_every_slot_settles_and_matches_linprog(self, transports):
        pytest.importorskip("scipy")
        rng = np.random.default_rng(2601)
        for trial in range(60):
            n = int(rng.integers(3, 12))
            zone = Box(rng.uniform(-3, 0, n), rng.uniform(0, 3, n)).to_dbm()
            obj = dense_objective(rng, n)
            assert settled(zone.entries, obj).all(), trial
            got = minimize_over_dbm(obj, zone.entries)
            assert transports == [], trial
            want = linprog_minimum(zone, obj)
            assert abs(got - want) <= 1e-9 * (1.0 + abs(want)), (trial, got, want)
            assert near(got, parent_minimize_over_dbm(obj, zone.entries)), trial
            transports.clear()  # the parent's call

    def test_dense_objective_never_calls_the_transport(self, transports):
        zone = Box(-np.ones(20), np.arange(1.0, 21.0)).to_dbm()
        obj = dense_objective(np.random.default_rng(2602), 20)
        # each slot at the end of its interval that its coefficient prefers
        want = -np.sum(np.where(obj > 0, obj * 1.0, -obj * np.arange(1.0, 21.0)))
        assert near(minimize_over_dbm(obj, zone.entries), want)
        assert transports == []


class TestMixedZones:
    def test_matches_linprog_and_the_parent(self):
        pytest.importorskip("scipy")
        rng = np.random.default_rng(2603)
        mixed = untouched = 0
        for trial in range(300):
            n = int(rng.integers(3, 9))
            m = mixed_zone(rng, n)
            obj = dense_objective(rng, n) * (rng.random(n) < 0.85)
            supply = np.concatenate([[obj.sum()], -obj])
            if (supply > 0).sum() < 2 or (supply < 0).sum() < 2:
                continue
            got = minimize_over_dbm(obj, m)
            parent = parent_minimize_over_dbm(obj, m)
            want = linprog_minimum(Dbm(m, closed=True), obj)
            assert abs(got - want) <= 1e-9 * (1.0 + abs(want)), (trial, got, want)
            assert near(got, parent), (trial, got, parent)
            flags = settled(m, obj)
            if not flags.any():
                untouched += 1
                assert bits(got) == bits(parent), trial
            elif not flags.all():
                mixed += 1
        assert mixed >= 100 and untouched >= 5

    def test_a_stack_gives_each_matrix_its_floats_alone(self):
        rng = np.random.default_rng(2604)
        n = 7
        obj = dense_objective(rng, n)
        stack = np.stack([mixed_zone(rng, n) for _ in range(24)])
        keys = {tuple(settled(m, obj)) for m in stack}
        assert len(keys) >= 4  # the cells factor on different slots
        got = minimize_over_dbms(obj, stack)
        assert bits(got) == bits([minimize_over_dbm(obj, m) for m in stack])
        # and in another order, with each matrix twice
        order = rng.permutation(np.concatenate([np.arange(24), np.arange(24)]))
        assert bits(minimize_over_dbms(obj, stack[order])) == bits(np.asarray(got)[order])


class TestUnbounded:
    def zone(self):
        # x1 in [0, 1], x2 in [-1, 2], x3 >= 0.5 with no upper bound, x4 in
        # [0, 3] with x1 - x2 <= 0.5: x3 factors, with an infinite bound
        lo = np.array([0.0, -1.0, 0.5, 0.0])
        hi = np.array([1.0, 2.0, INF, 3.0])
        m = np.zeros((5, 5))
        m[1:, 0], m[0, 1:] = hi, -lo
        m[1:, 1:] = hi[:, None] - lo[None, :]
        m[1, 2] = 0.5
        closed = dbm_close(Dbm(m))
        assert closed is not EMPTY
        return closed.entries

    def test_a_settled_slot_with_an_infinite_bound(self, transports):
        m = self.zone()
        obj = np.array([1.0, -1.0, -1.0, 2.0])  # maximise x3: unbounded
        assert settled(m, obj).tolist() == [False, False, True, True]
        assert minimize_over_dbm(obj, m) == -INF
        # minimise x3 instead: x1 - x2 at (0, 2), x3 at 0.5 and x4 at 3,
        # every term exact; the core (x1 and x2) has one source
        obj = np.array([1.0, -1.0, 1.0, -2.0])
        assert minimize_over_dbm(obj, m) == -2.0 + 0.5 - 6.0
        assert transports == []
        assert parent_minimize_over_dbm(np.array([1.0, -1.0, -1.0, 2.0]), m) == -INF

    def test_matches_linprog(self):
        pytest.importorskip("scipy")
        m = self.zone()
        for obj in ([1.0, -1.0, -1.0, 2.0], [1.0, -1.0, 1.0, -2.0], [-1.0, 1.0, 1.0, -2.0]):
            obj = np.asarray(obj)
            want = linprog_minimum(Dbm(m, closed=True), obj)
            got = minimize_over_dbm(obj, m)
            assert got == want == -INF or near(got, want), (obj, got, want)
