"""The transportation problems of a stack set up in one numpy pass.

``simplex.minimize_over_dbms`` hands each ``_transport`` call its columns,
sink potentials (the column minima) and each sink's sources ranked by cost,
all made for the whole stack by ``simplex._setups``, and ``_transport``
counts the sources and sinks with supply and demand left instead of
scanning for them.  The reference below is the solver as it was: the
set-up made per problem with ``zip``, ``min`` and ``sorted(...,
reverse=True)``, and the loop with its ``max`` scans, on the unchanged
search.  The minima must agree bit for bit, sign of zero included, on
seeded random stacks with tied costs, +inf columns (-inf minima), -0.0
entries, and one or many cells.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from troprelu import simplex
from troprelu.simplex import INF, _flow_value, _neg_sum, _search, _setups, minimize_over_dbms

from test_stacked_cells import same_bits


def reference_setup(cost: list):
    """``_transport``'s set-up before ``_setups``, one problem at a time."""
    cols = list(zip(*cost))
    pot = [min(col) for col in cols]
    order = [sorted(range(len(cost)), key=col.__getitem__, reverse=True) for col in cols]
    return cols, pot, order


def reference_transport(cost: list, sup: list, dem: list) -> float:
    """``simplex._transport`` as it was, with ``reference_setup`` and the
    ``max`` scans."""
    n_s = len(sup)
    cols, pot, order = reference_setup(cost)
    if INF in pot:
        return -INF
    src_pot = [0.0] * n_s
    into = [{} for _ in cols]
    while True:
        for t, (rank, col, got, pj) in enumerate(zip(order, cols, into, pot)):
            while dem[t] > 0:
                while not sup[rank[-1]] > 0:
                    rank.pop()
                i = rank[-1]
                if col[i] > pj:
                    break
                delta = min(sup[i], dem[t])
                sup[i] -= delta
                dem[t] -= delta
                got[i] = got.get(i, 0.0) + delta
                if not sup[i] > 0 and not max(sup) > 0:
                    return _flow_value(cost, into)
        if not max(dem) > 0:
            return _flow_value(cost, into)
        for rank in order:
            while not sup[rank[-1]] > 0:
                rank.pop()
        pt = [rank[-1] for rank in order]
        lab = [col[i] for col, i in zip(cols, pt)]
        key = [a - p for a, p in zip(lab, pot)]
        reach = [0.0 if s > 0 else INF for s in sup]
        ps = [-1] * n_s
        while True:
            end, d = _search(cost, dem, pot, src_pot, into, pt, lab, key, reach, ps)
            if end < 0:
                return -INF
            i = pt[end]
            fwd, back = [(i, end)], []
            while ps[i] >= 0:
                j = ps[i]
                back.append((i, j))
                i = pt[j]
                fwd.append((i, j))
            caps = [sup[i]] + [into[j][k] for k, j in back]
            delta = min(caps + [dem[end]])
            sup[i] -= delta
            dem[end] -= delta
            for k, j in fwd:
                into[j][k] = into[j].get(k, 0.0) + delta
            for k, j in back:
                into[j][k] -= delta
                if not into[j][k] > 0:
                    del into[j][k]
            if not (max(sup) > 0 and max(dem) > 0):
                return _flow_value(cost, into)
            if not delta < min(caps):
                break
            key[end] = d
        pot = [p + d if k < INF or a == INF else a for a, p, k in zip(lab, pot, key)]
        src_pot = [r if r < INF else q + d for q, r in zip(src_pot, reach)]


def reference_minima(objective, entries) -> list:
    """``minimize_over_dbms`` with one set-up per matrix of the stack."""
    a = [float(v) for v in objective]
    try:
        supply = [math.fsum(a)] + [-v for v in a]
    except OverflowError:
        return [-INF] * len(entries)
    src = [v for v, b in enumerate(supply) if b > 0]
    snk = [v for v, b in enumerate(supply) if b < 0]
    if not src:
        return [0.0] * len(entries)
    out = []
    for m in entries:
        rows = m[np.ix_(src, snk)].tolist()
        if len(src) == 1 or len(snk) == 1:
            flows = [min(supply[s], -supply[t]) for s in src for t in snk]
            out.append(_neg_sum([f * c for f, c in zip(flows, [c for row in rows for c in row])]))
        else:
            out.append(reference_transport(rows, [supply[s] for s in src], [-supply[t] for t in snk]))
    return out


def random_stack(rng, cells, n, ties, inf_cols, neg_zero):
    """(cells, n + 1, n + 1) costs: small integers when ``ties``, whole
    +inf columns in some cells, and -0.0 and +0.0 entries."""
    if ties:
        m = rng.integers(-3, 4, (cells, n + 1, n + 1)).astype(float)
    else:
        m = rng.uniform(-2, 2, (cells, n + 1, n + 1))
    if neg_zero:
        m[rng.random(m.shape) < 0.2] = -0.0
        m[rng.random(m.shape) < 0.1] = 0.0
    if inf_cols:
        for c in np.flatnonzero(rng.random(cells) < 0.3):
            m[c, :, rng.integers(0, n + 1)] = np.inf
    return m


def random_objective(rng, n, ties):
    obj = rng.integers(-3, 4, n).astype(float) if ties else rng.uniform(-1, 1, n)
    obj[rng.random(n) < 0.2] = 0.0
    return obj


CASES = [
    pytest.param(ties, inf_cols, neg_zero, id=f"{'ties' if ties else 'floats'}-{'inf' if inf_cols else 'finite'}-{'negzero' if neg_zero else 'signed'}")
    for ties in (False, True)
    for inf_cols in (False, True)
    for neg_zero in (False, True)
]


class TestAgainstPerProblemSetup:
    @pytest.mark.parametrize("cells", [1, 7, 40])
    @pytest.mark.parametrize("ties, inf_cols, neg_zero", CASES)
    def test_minima_bit_for_bit(self, cells, ties, inf_cols, neg_zero):
        rng = np.random.default_rng([cells, ties, inf_cols, neg_zero])
        unreachable = 0
        for _ in range(12):
            n = int(rng.integers(2, 12))
            stack = random_stack(rng, cells, n, ties, inf_cols, neg_zero)
            obj = random_objective(rng, n, ties)
            got = minimize_over_dbms(obj, stack)
            assert same_bits(got, reference_minima(obj, stack))
            unreachable += sum(v == -INF for v in got)
        if inf_cols and cells > 1:
            assert unreachable > 0

    def test_inf_column_into_a_sink_gives_minus_inf(self):
        rng = np.random.default_rng(17)
        obj = np.array([1.0, -2.0, 0.5, -0.25])  # sinks: slots 1 and 3
        stack = rng.uniform(-1, 1, (3, 5, 5))
        stack[1, :, 3] = np.inf
        stack[2, :, 2] = np.inf  # slot 2 is a source: its column is never read
        got = minimize_over_dbms(obj, stack)
        assert got[1] == -INF and np.isfinite(got[0]) and np.isfinite(got[2])
        assert same_bits(got, reference_minima(obj, stack))

    @pytest.mark.parametrize("ties, inf_cols, neg_zero", CASES)
    def test_setups_equal_the_per_problem_setup(self, ties, inf_cols, neg_zero):
        rng = np.random.default_rng([7, ties, inf_cols, neg_zero])
        for _ in range(20):
            block = random_stack(rng, 5, int(rng.integers(2, 9)), ties, inf_cols, neg_zero)[:, 1:, :-1]
            for cost, (cols, pot, order) in zip(block.tolist(), _setups(block)):
                ref_cols, ref_pot, ref_order = reference_setup(cost)
                assert [tuple(c) for c in cols] == ref_cols
                assert pot == ref_pot and order == ref_order

    def test_one_problem_makes_its_own_setup(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            cost = rng.integers(-2, 3, (4, 5)).astype(float).tolist()
            sup = rng.uniform(0.1, 1, 4)
            dem = rng.uniform(0.1, 1, 5)
            dem *= sup.sum() / dem.sum()
            got = simplex._transport(cost, sup.tolist(), dem.tolist())
            assert same_bits(got, reference_transport(cost, sup.tolist(), dem.tolist()))
