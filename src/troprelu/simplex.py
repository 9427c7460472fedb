"""Exact minimum of a linear form over a closed zone, through its dual.

The dual of  minimise a.x  subject to  x_i - x_j <= m[i, j]  (x_0 = 0)  is a
min-cost flow at arc costs m[i, j], in which slot v sends out b_v = -a_v
more than it receives and slot 0 sends out sum(a).  Any such flow f >= 0
bounds the minimum below by -sum f * m (weak duality); the cheapest attains
it.  On a closed DBM every entry is already a shortest path, so the flow
goes straight from the sources (b > 0) to the sinks (b < 0): a
transportation problem.  One source or one sink forces the flow; otherwise
successive shortest paths ship along the cheapest residual path.  A sink
that no finite path reaches makes the minimum -inf, exactly.  The value
returned is -sum f * m of the final flow; the one tolerance, on label
relaxations, only keeps rounding from cycling the path search.
"""

from __future__ import annotations

import math

import numpy as np

INF = math.inf


def minimize_over_dbm(objective: np.ndarray, entries: np.ndarray) -> float:
    """min objective.x over the closed DBM ``entries`` (slot 0 the constant,
    ``objective[k]`` the coefficient of slot k + 1); -inf when unbounded."""
    a = [float(v) for v in objective]
    supply = [math.fsum(a)] + [-v for v in a]
    src = [v for v, b in enumerate(supply) if b > 0]
    snk = [v for v, b in enumerate(supply) if b < 0]
    if not src:
        return 0.0
    if len(src) == 1 or len(snk) == 1:
        # forced: a lone source meets every demand, a lone sink takes every supply
        return -math.fsum([min(supply[s], -supply[t]) * entries[s, t] for s in src for t in snk])
    return _transport(
        entries[np.ix_(src, snk)].tolist(),
        [supply[s] for s in src],
        [-supply[t] for t in snk],
    )


def _transport(cost: list, sup: list, dem: list) -> float:
    """Successive shortest paths; -(cost of the final flow), or -inf when
    some demand cannot be reached.

    A path search labels each sink with its cheapest source with supply
    left (label 0), then corrects labels through the flow: a source already
    shipping to a sink is reached from it at minus the arc cost, and its
    row relaxes the sinks again.  Every augmentation empties a source, a
    sink or a flow arc, and supplies only shrink.
    """
    n_s, n_t = len(sup), len(dem)
    cols = list(zip(*cost))
    order = [sorted(range(n_s), key=col.__getitem__, reverse=True) for col in cols]
    tol = 1e-12 * (1.0 + max((abs(c) for row in cost for c in row if c < INF), default=0.0))
    flow = {}  # (source, sink) -> positive amount
    into = [set() for _ in range(n_t)]  # the sources shipping to each sink
    while True:
        for rank in order:  # each sink's sources, dearest first
            while not sup[rank[-1]] > 0:
                rank.pop()
        pt = [rank[-1] for rank in order]  # the source each sink is reached from
        dt = [col[i] for col, i in zip(cols, pt)]
        ds = [0.0 if s > 0 else INF for s in sup]
        ps = [-1] * n_s  # the sink each source is reached from, if any
        queue = [j for j in range(n_t) if into[j]]
        while queue:
            j = queue.pop()
            for i in into[j]:
                di = dt[j] - cost[i][j]
                if not di < ds[i] - tol:
                    continue
                ds[i], ps[i] = di, j
                for t, c in enumerate(cost[i]):
                    if di + c < dt[t] - tol:
                        dt[t], pt[t] = di + c, i
                        if into[t] and t not in queue:
                            queue.append(t)
        end = min((j for j in range(n_t) if dem[j] > 0), key=dt.__getitem__)
        if dt[end] == INF:
            return -INF
        fwd, back, j = [], [], end
        while j >= 0:
            i = pt[j]
            fwd.append((i, j))
            j = ps[i]
            if j >= 0:
                back.append((i, j))
        root = fwd[-1][0]
        delta = min([sup[root], dem[end]] + [flow[arc] for arc in back])
        sup[root] -= delta
        dem[end] -= delta
        for i, j in fwd:
            flow[i, j] = flow.get((i, j), 0.0) + delta
            into[j].add(i)
        for i, j in back:
            flow[i, j] -= delta
            if not flow[i, j] > 0:
                del flow[i, j]
                into[j].discard(i)
        if not (any(s > 0 for s in sup) and any(d > 0 for d in dem)):
            return -math.fsum([f * cost[i][j] for (i, j), f in flow.items()])
