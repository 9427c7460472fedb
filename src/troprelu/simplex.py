"""Exact minimum of a linear form over a closed zone, through its dual.

The dual of  minimise a.x  subject to  x_i - x_j <= m[i, j]  (x_0 = 0)  is a
min-cost flow at arc costs m[i, j], in which slot v sends out b_v = -a_v
more than it receives and slot 0 sends out sum(a).  Any such flow f >= 0
bounds the minimum below by -sum f * m (weak duality); the cheapest attains
it.  On a closed DBM every entry is already a shortest path, so the flow
goes straight from the sources (b > 0) to the sinks (b < 0): a
transportation problem.  One source or one sink forces the flow; otherwise
successive shortest paths ship it under reduced-cost potentials kept across
augmentations (sinks start at their column minima, sources with supply left
stay at 0).  A free phase ships straight to each sink with demand from its
cheapest source with supply while that arc's reduced cost is <= 0, with no
search.  Only then does a Dijkstra run over the sinks and the sources
reached back through flow arcs; it stops at the first sink with demand it
settles (going on past it while only that demand ran out), and potentials
rise by min(d, d_end).  A sink that no finite path reaches makes the
minimum -inf, exactly.  The value is -sum f * m of the final flow, which
ships the supplies whatever the paths: the bound rests on weak duality, not
on optimality.  When the sum of the coefficients or the final cost leaves
the float range, the value is -inf, which is still a lower bound.

Before the transport, a support slot whose whole row and column factor
through slot 0, m[v, j] == m[v, 0] + m[0, j] bit for bit (the test
``dbm._slot0_factors`` shares with the factored meet), is bounded by its
interval alone: it trades with slot 0 only, adds one flow term, -a_v m[v, 0]
or a_v m[0, v], and leaves the problem (``_split``).  The transport runs
on the relational core that remains, often a forced flow, with slot 0
supplying the sum of the core's coefficients; the value is one -fsum over
the core flow's products and the settled terms.  Together they are a flow
of the whole problem, routed through slot 0, so the value rests on weak
duality as before, whatever the rounding; in exact arithmetic it is the
optimum, since a factoring slot's constraints against the others follow
from the intervals.  The split runs only where the transport would (two
or more sources and two or more sinks).

The set-up of every problem of a stack (``minimize_over_dbms``), its sink
potentials and each sink's sources ranked by cost, comes out of one numpy
pass (``_setups``) per group of matrices that settle the same slots, so
the Python loop per problem starts at the free phase; it counts the
sources and sinks with supply or demand left.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from .dbm import _slot0_factors

INF = math.inf


def minimize_over_dbm(objective: np.ndarray, entries: np.ndarray) -> float:
    """min objective.x over the closed DBM ``entries`` (slot 0 the constant,
    ``objective[k]`` the coefficient of slot k + 1); -inf when unbounded.
    The one-matrix call of ``minimize_over_dbms``."""
    return minimize_over_dbms(objective, np.asarray(entries)[None])[0]


def minimize_over_dbms(objective: np.ndarray, entries: np.ndarray) -> list:
    """``minimize_over_dbm`` of one objective over each closed DBM of the
    stack ``entries`` (C, s, s), in order.

    The supplies, sources and sinks depend on the objective alone, so they
    are set up once.  A zero coefficient is neither a source nor a sink, so
    a stack of whole zones gives the minima of their sub-DBMs on the
    objective's support.  One source or one sink forces the flow, a sum
    over one gather of the cost rows.  Otherwise the slots of the support
    that factor through slot 0 in a matrix are settled in closed form
    there (``_split``), and the forced sum or ``_transport`` runs on the
    rest.
    """
    a = [float(v) for v in objective]
    try:
        supply = [math.fsum(a)] + [-v for v in a]
    except OverflowError:
        return [-INF] * len(entries)
    n_src = sum(b > 0 for b in supply)
    if not n_src:
        return [0.0] * len(entries)
    if n_src == 1 or sum(b < 0 for b in supply) == 1:
        return _flow_minima(supply, entries, [[]] * len(entries))
    return _split(a, supply, entries)


def _split(a: list, supply: list, entries: np.ndarray) -> list:
    """The minima of ``minimize_over_dbms`` with two or more sources and
    sinks, the support slots that factor through slot 0 in a matrix
    settled in closed form (see the module docstring).

    A slot factors when its whole row and column do, over every slot of
    the matrix; only the support's rows and columns are tested.  Its term
    is a Python float product, inf where it overflows.  Slot 0 of the core
    supplies the fsum of the core's coefficients; where that sum overflows
    the minimum is -inf.  The matrices of a stack go through in groups
    that settle the same slots, so each keeps the floats it gets alone,
    and a matrix that settles none gets the unsplit problem's.
    """
    support = [v for v, b in enumerate(supply) if v and b]
    v = np.asarray(support)
    rows = _slot0_factors(entries, v).all(axis=-1)
    factors = (rows & _slot0_factors(entries.swapaxes(-2, -1), v).all(axis=-1)).tolist()
    groups = {}
    for i, row in enumerate(factors):
        groups.setdefault(tuple(v for v, f in zip(support, row) if f), []).append(i)
    neg_lo, hi = entries[:, 0].tolist(), entries[:, :, 0].tolist()  # m[0, v] and m[v, 0]
    out = [0.0] * len(entries)
    for gone, members in groups.items():
        core = supply.copy()
        for v in gone:
            core[v] = 0.0
        try:
            core[0] = math.fsum(-b for b in core[1:])
        except OverflowError:
            values = [-INF] * len(members)
        else:
            settled = [
                [a[v - 1] * neg_lo[i][v] if a[v - 1] > 0 else -a[v - 1] * hi[i][v] for v in gone] for i in members
            ]
            values = _flow_minima(core, entries if len(groups) == 1 else entries[members], settled)
        for i, v in zip(members, values):
            out[i] = v
    return out


def _flow_minima(supply: list, entries: np.ndarray, settled: list) -> list:
    """-(cost of the flow that ships ``supply``, one per slot of the stack
    ``entries`` (C, s, s), plus the matrix's ``settled`` terms) per matrix:
    the forced sum on one source or one sink, ``_transport`` otherwise.
    The cost rows of every matrix come out of one gather and one
    ``tolist``, the set-up of every transportation problem out of one numpy
    pass (``_setups``)."""
    src = [v for v, b in enumerate(supply) if b > 0]
    snk = [v for v, b in enumerate(supply) if b < 0]
    if not src:
        return [_neg_sum(terms) for terms in settled]
    block = entries[:, np.asarray(src)[:, None], snk]
    costs = block.tolist()
    if len(src) == 1 or len(snk) == 1:
        # forced: a lone source meets every demand, a lone sink takes every supply
        flows = [min(supply[s], -supply[t]) for s in src for t in snk]
        return [
            _neg_sum([f * c for f, c in zip(flows, chain.from_iterable(rows))] + terms)
            for rows, terms in zip(costs, settled)
        ]
    sup = [supply[s] for s in src]
    dem = [-supply[t] for t in snk]
    return [
        _transport(rows, sup.copy(), dem.copy(), setup, terms)
        for rows, setup, terms in zip(costs, _setups(block), settled)
    ]


def _setups(block: np.ndarray):
    """The set-up of ``_transport`` for each cost matrix of the stack
    ``block`` (C, sources, sinks): its columns, one list per sink; the sink
    potentials, the column minima; and each sink's sources ranked dearest
    first, cheapest last.  A stable argsort of the negated costs keeps tied
    sources in index order, as ``sorted(..., reverse=True)`` does, and
    treats -0.0 as 0.0, as it does."""
    cols = block.swapaxes(-2, -1)
    return zip(cols.tolist(), cols.min(axis=-1).tolist(), np.argsort(-cols, axis=-1, kind="stable").tolist())


def _transport(cost: list, sup: list, dem: list, setup=None, settled=()) -> float:
    """-(cost of the final flow plus the terms ``settled`` elsewhere), or
    -inf when some demand cannot be reached.  ``setup`` is the problem's
    entry of ``_setups``, made here if not given.  Every augmentation
    empties a source, a sink or a flow arc."""
    cols, pot, order = setup or next(_setups(np.asarray(cost, dtype=float)[None]))
    if INF in pot:
        return -INF  # no finite arc enters that sink
    n_s = len(sup)
    n_sup = sum(s > 0 for s in sup)  # sources with supply left
    n_dem = sum(d > 0 for d in dem)  # sinks with demand left
    src_pot = [0.0] * n_s
    into = [{} for _ in cols]  # into[t][i]: the flow from source i to sink t
    while True:
        for t, (rank, col, got, pj) in enumerate(zip(order, cols, into, pot)):  # free phase
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
                n_dem -= not dem[t] > 0
                if not sup[i] > 0:
                    n_sup -= 1
                    if not n_sup:
                        return _flow_value(cost, into, settled)
        if not n_dem:
            return _flow_value(cost, into, settled)
        for rank in order:
            while not sup[rank[-1]] > 0:
                rank.pop()
        pt = [rank[-1] for rank in order]  # the source each sink is reached from
        lab = [col[i] for col, i in zip(cols, pt)]  # label + potential
        key = [a - p for a, p in zip(lab, pot)]  # label of each unsettled sink
        reach = [0.0 if s > 0 else INF for s in sup]  # label + potential of the sources
        ps = [-1] * n_s  # the sink each source is reached from, if any
        while True:
            end, d = _search(cost, dem, pot, src_pot, into, pt, lab, key, reach, ps)
            if end < 0:
                return -INF
            i = pt[end]
            fwd, back = [(i, end)], []  # (source, sink) arcs to fill and to cut
            while ps[i] >= 0:
                j = ps[i]
                back.append((i, j))
                i = pt[j]
                fwd.append((i, j))
            caps = [sup[i]] + [into[j][k] for k, j in back]
            delta = min(caps + [dem[end]])
            sup[i] -= delta
            dem[end] -= delta
            n_sup -= not sup[i] > 0
            n_dem -= not dem[end] > 0
            for k, j in fwd:
                into[j][k] = into[j].get(k, 0.0) + delta
            for k, j in back:
                into[j][k] -= delta
                if not into[j][k] > 0:
                    del into[j][k]
            if not (n_sup and n_dem):
                return _flow_value(cost, into, settled)
            if not delta < min(caps):
                break
            key[end] = d  # only the sink's demand ran out: the tree stands, search on
        pot = [p + d if k < INF or a == INF else a for a, p, k in zip(lab, pot, key)]
        src_pot = [r if r < INF else q + d for q, r in zip(src_pot, reach)]


def _search(cost, dem, pot, src_pot, into, pt, lab, key, reach, ps) -> tuple:
    """Dijkstra on reduced costs from the sources with supply: (the first sink
    with demand to settle, its label), or (-1, inf) when none is reached."""
    while True:
        d = min(key)
        if d == INF:
            return -1, d
        j = key.index(d)
        key[j] = INF
        if dem[j] > 0:
            return j, d
        end = -1
        for i in into[j]:
            if reach[i] < INF:
                continue
            qi = reach[i] = src_pot[i] + d
            ps[i] = j
            for t, c in enumerate(cost[i]):
                v = c + qi
                if v < lab[t] and (key[t] < INF or lab[t] == INF):  # unsettled (settled: inf key, finite label)
                    lab[t], pt[t] = v, i
                    key[t] = v - pot[t]
                    if key[t] <= d and dem[t] > 0:  # no label lies below d
                        end = t
        if end >= 0:
            key[end] = INF
            return end, d


def _flow_value(cost: list, into: list, settled=()) -> float:
    return _neg_sum([f * cost[i][t] for t, got in enumerate(into) for i, f in got.items()] + list(settled))


def _neg_sum(terms: list) -> float:
    """-fsum(terms), or -inf when the sum leaves the float range (an
    intermediate overflow, or inf - inf from products that overflowed)."""
    try:
        return -math.fsum(terms)
    except (OverflowError, ValueError):
        return -INF
