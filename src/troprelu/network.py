"""Whole-network propagation through tropical polyhedra and zones.

A network is a chain of affine layers with ReLU after each one (the last
activation is optional).  Each affine layer is abstracted by its tight zone
(or octagon) over the box of its inputs; ReLU is tropically affine, so its
image of a closed zone (a tropical polyhedron) is exact.

One loop serves every mode and domain.  It carries a closed zone over the
tracked variables: the inputs, the current layer, and with ``track_all``
every hidden layer.  Per layer it

1. meets the carried zone with the layer's tight zone over (current
   layer, h), h the layer's pre-activations;
2. closes the meet through the slots the two share, slot 0 and the
   current layer (``dbm._interface_close``): min-plus products through
   them, since a shortest path needs one hop through them on each side
   of h at most;
3. appends y = max(0, h) (``_relu_append``), each entry of the image's
   tightest zone a max or min of closed entries, and keeps the tracked slots.

The modes differ only in what the loop carries between layers:

* zone:     the zone itself.  Default.
* box:      the zone reset to its bounding box before each layer, so
            relations from earlier layers survive only through their
            interval bounds (the internal-only behaviour).
* external: box behaviour; afterwards an inequality system over every
            input, pre- and post-activation variable is built from the
            per-layer boxes and kept for membership diagnostics
            (inequality systems cannot be projected, so it keeps every
            stage).

In the octagon domain (zone mode) the carried relation lives in the
doubled space (+v, -v), which lets sum constraints tighten later layers
through closure.  The meet is closed through +-current layer and then
strengthened; ``_oct_relu_append`` writes the same exact entries there and
closes only the kept variables and the clamped copies.  The full (old,
pre, post) octagon is never built: with ``keep_layer_records`` each
layer's record holds the exact zone ReLU image of the octagon's
pre-activation plus block, built for the record only.  Every record also
lists the step's slot counts under ``sizes``.

``AnalysisResult.internal`` is the one generator computation: the last
layer's pre-activation zone as n + 1 generators, clamped and projected.
The analysis keeps that zone and builds the generators on first access,
so a run whose result is only checked never builds them.

With a subdivision grid in cell-wise mode (``AnalysisOptions.subdiv``) the
loop runs once per grid cell and the cells are joined: the zone, the
generators (the union of the cells' generators, also built on first
access) and every stage's bounds cover the union of the cells, and
``AnalysisResult.cells`` keeps each cell's zone so that ``speccheck.check``
decides assertions cell by cell without analysing again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .dbm import (
    Box,
    Dbm,
    EMPTY,
    INF,
    OctDbm,
    _interface_close,
    _strengthen,
    dbm_box,
    dbm_close,  # not called here; benchmarks/test_bench.py checks that tracing wraps this binding
    embed_oct,
    oct_close,
)
from .errors import (
    BadIndex,
    CellBudgetExceeded,
    DimensionMismatch,
    EmptyAbstraction,
)
from .maxplus import BOTTOM, DEFAULT_EPS
from .layers import (
    AffineLayer,
    ZoneAbsConstants,
    _oct_entries,
    oct_constants,
    zone_constants,
    zone_dbm,
    zone_external,
)
from .subdivision import (
    SubdivisionConfig,
    SubdivisionGrid,
    SubdivisionMode,
    subdivide_constraints,
)
from .tropical import (
    TropExternal,
    TropInternal,
    emb_external,
    extreme_filter,
    intersect_external,
    zone_to_internal,
)


class ChainMode(Enum):
    BOX = "box"
    ZONE = "zone"
    EXTERNAL = "external"


class AbsDomain(Enum):
    ZONE = "zone"
    OCTAGON = "octagon"


@dataclass(frozen=True)
class Network:
    """Layer list (weights, biases) with ReLU between layers.

    ``final_relu`` controls the activation after the last affine map; the
    bundled example networks all clamp their outputs, so it defaults on.
    """

    weights: tuple
    biases: tuple
    final_relu: bool = True

    def __post_init__(self):
        ws = tuple(np.atleast_2d(np.asarray(w, dtype=float)) for w in self.weights)
        bs = tuple(np.asarray(b, dtype=float).reshape(-1) for b in self.biases)
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "biases", bs)
        if len(ws) != len(bs) or not ws:
            raise DimensionMismatch("need matching, nonempty weight/bias lists")
        for w, b in zip(ws, bs):
            if w.shape[0] != b.shape[0]:
                raise DimensionMismatch("weight rows must match bias length")
        for prev, nxt in zip(ws, ws[1:]):
            if nxt.shape[1] != prev.shape[0]:
                raise DimensionMismatch("consecutive layer sizes are incompatible")

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def sizes(self) -> tuple:
        """Value-stage sizes: inputs, then each layer's output count."""
        return (self.weights[0].shape[1], *(w.shape[0] for w in self.weights))

    @property
    def n_inputs(self) -> int:
        return self.sizes[0]

    @property
    def n_outputs(self) -> int:
        return self.sizes[-1]

    def has_relu(self, layer_index: int) -> bool:
        return layer_index < self.n_layers - 1 or self.final_relu

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Concrete outputs for a batch of inputs."""
        v = np.atleast_2d(np.asarray(x, dtype=float))
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            v = v @ w.T + b
            if self.has_relu(i):
                v = np.maximum(v, 0.0)
        return v

    def trace(self, x: np.ndarray) -> list:
        """Per-stage values (inputs first) for a batch of inputs."""
        v = np.atleast_2d(np.asarray(x, dtype=float))
        out = [v]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            v = v @ w.T + b
            if self.has_relu(i):
                v = np.maximum(v, 0.0)
            out.append(v)
        return out


def relu_internal(
    poly: TropInternal, coords: Sequence[int], eps: float = DEFAULT_EPS
) -> TropInternal:
    """Clamp the selected coordinates of every generator at 0 (exact)."""
    coords = list(coords)
    if any(c < 0 or c >= poly.dim for c in coords):
        raise BadIndex("ReLU coordinate out of range")
    g = poly.generators.copy()
    g[:, coords] = np.maximum(g[:, coords], 0.0)
    return extreme_filter(TropInternal(g), eps=eps)


def relu_extend(
    poly: TropInternal, coords: Sequence[int], eps: float = DEFAULT_EPS
) -> TropInternal:
    """Append clamped copies of the selected coordinates as new dimensions."""
    coords = list(coords)
    if any(c < 0 or c >= poly.dim for c in coords):
        raise BadIndex("ReLU coordinate out of range")
    g = poly.generators
    return extreme_filter(
        TropInternal(np.hstack([g, np.maximum(g[:, coords], 0.0)])), eps=eps
    )


def relu_external(
    ext: TropExternal,
    h_dims: Sequence[int],
    y_dims: Sequence[int],
    h_bounds: Box,
) -> TropExternal:
    """Rows tying each post-activation y to its pre-activation h.

    Two exact rows per pair, max(0, h) <= y and y <= max(0, h), plus the
    derived zone rows y >= 0, y >= h, y - h <= -min(0, h_lo) and
    y <= max(0, h_hi).
    """
    h_dims = list(h_dims)
    y_dims = list(y_dims)
    if len(h_dims) != len(y_dims) or len(h_dims) != h_bounds.dim:
        raise BadIndex("h/y pairing does not match bounds")
    dim = ext.dim
    if any(d < 0 or d >= dim for d in h_dims + y_dims):
        raise BadIndex("ReLU dimension out of range")
    rows_l, rows_r = [], []
    for pair, (h, y) in enumerate(zip(h_dims, y_dims)):
        hc, yc = 1 + h, 1 + y
        # each row's (lhs, rhs) terms as {column: coefficient}; column 0 is the constant
        for lhs, rhs in (
            ({0: 0.0, hc: 0.0}, {yc: 0.0}),  # max(0, h) <= y
            ({yc: 0.0}, {0: 0.0, hc: 0.0}),  # y <= max(0, h)
            ({0: 0.0}, {yc: 0.0}),  # y >= 0
            ({hc: 0.0}, {yc: 0.0}),  # y >= h
            ({yc: 0.0}, {hc: -min(0.0, h_bounds.lo[pair])}),  # y - h <= -min(0, h_lo)
            ({yc: 0.0}, {0: max(0.0, h_bounds.hi[pair])}),  # y <= max(0, h_hi)
        ):
            for terms, rows in ((lhs, rows_l), (rhs, rows_r)):
                row = np.full(1 + dim, BOTTOM)
                row[list(terms)] = list(terms.values())
                rows.append(row)
    return TropExternal(np.vstack(rows_l), np.vstack(rows_r))


def _relu_append(zone: Dbm, h_vars: list) -> Dbm:
    """Append y_i = max(0, h_i) to a closed zone M (slot 0 the constant).

    Every new entry is a sup over the zone.  A max's sup is the max of the
    sups: M[y, v] = max(M[0, v], M[h, v]).  Either half of the zone split at
    h = 0 adds one zero-weight edge between h and 0, so
    M[v, y] = min(M[v, 0], M[v, h]), and M[y_i, y_k] is the max of those
    for v = 0 and v = h_i.  A matrix of sups is closed as it stands.
    """
    m = zone.entries
    n1 = m.shape[0]
    hs = np.asarray(h_vars, dtype=int) + 1
    e = np.empty((n1 + len(hs), n1 + len(hs)))
    e[:n1, :n1] = m
    e[n1:, :n1] = np.maximum(m[0], m[hs])
    e[:n1, n1:] = np.minimum(m[:, [0]], m[:, hs])
    e[n1:, n1:] = np.maximum(
        np.minimum(0.0, m[0, hs]), np.minimum(m[hs, 0][:, None], m[np.ix_(hs, hs)])
    )
    np.fill_diagonal(e, 0.0)
    return Dbm(e, closed=True)


def _oct_relu_append(o: OctDbm, h_vars: list, eps: float, keep: Optional[list] = None):
    """Append clamped copies g_i = max(0, h_i) to a closed octagon and keep
    the variables ``keep`` (default all) followed by the copies.

    Clamping distributes over sups: sup(max(0, h) - s) equals
    max(sup(-s), sup(h - s)), and symmetrically with min for the negated
    copy, so every new entry is the exact pairwise transfer of the closed
    input entries.  The transfer is written against every variable, then
    the matrix is cut to the kept variables and the copies before it is
    closed: a pass that pivots on the copies alone never goes through a
    dropped slot, so the kept entries are those of the full closure.
    """
    n = o.dim
    r = len(h_vars)
    m = n + r
    e = embed_oct(o, list(range(n)), m).entries.copy()
    old = o.entries

    def mirror_cols(size):
        return np.concatenate([np.arange(size, 2 * size), np.arange(0, size)])

    mir_old = mirror_cols(n)
    # per-slot bounds of the closed input matrix: ub[q] = sup(s_q)
    ub_old = old[np.arange(2 * n), mir_old] / 2.0
    src = np.concatenate([np.arange(0, n), np.arange(m, m + n)])  # old slots in e
    for i, hv in enumerate(h_vars):
        gp, gm = n + i, m + n + i
        hp, hm = hv, hv + n
        h_hi = ub_old[hp]
        h_lo = -ub_old[hm]
        e[gp, gm] = 2.0 * max(0.0, h_hi)
        e[gm, gp] = -2.0 * max(0.0, h_lo)
        # rows/columns against every old slot q (exact max/min transfer)
        e[gp, src] = np.minimum(e[gp, src], np.maximum(ub_old[mir_old], old[hp, :]))
        e[src, gp] = np.minimum(e[src, gp], np.minimum(ub_old, old[:, hp]))
        e[gm, src] = np.minimum(e[gm, src], np.minimum(ub_old[mir_old], old[hm, :]))
        e[src, gm] = np.minimum(e[src, gm], np.maximum(ub_old, old[:, hm]))
    # pairs of clamped copies (rows +g_i then -g_i, columns j != i),
    # decomposed on the column variable through the (g_i, h_j) entries just
    # written; each g-g entry depends only on itself and on entries this
    # update leaves alone, so it is one block update.  np.minimum(b, a)
    # keeps a on ties as min(a, b) does (signed zeros).
    gs = np.arange(n, m)
    rows = np.concatenate([gs, gs + m])
    row_sup = (np.concatenate([e[gs, gs + m], e[gs + m, gs]]) / 2.0)[:, None]
    hs = np.asarray(h_vars, dtype=int)
    pairs = np.tile(~np.eye(r, dtype=bool), (2, 1))
    plus_g, minus_g = np.ix_(rows, gs), np.ix_(rows, gs + m)
    e[plus_g] = np.where(
        pairs, np.minimum(e[np.ix_(rows, hs)], np.minimum(row_sup, e[plus_g])), e[plus_g]
    )
    e[minus_g] = np.where(
        pairs,
        np.minimum(np.maximum(e[np.ix_(rows, hs + m)], row_sup), e[minus_g]),
        e[minus_g],
    )
    np.fill_diagonal(e, 0.0)
    if keep is not None:
        vars_ = np.concatenate([np.asarray(keep, dtype=int), gs])
        slots = np.concatenate([vars_, vars_ + m])
        e = e[np.ix_(slots, slots)]
    # the old slots are strongly closed and every new entry is bounded by
    # their paths, so the copies are the only pivots the closure needs
    n_keep = len(e) // 2 - r
    out = oct_close(OctDbm(e), eps=eps, changed=range(n_keep, n_keep + r))
    if out is EMPTY:
        raise EmptyAbstraction("octagon ReLU transfer produced an empty octagon")
    return out


@dataclass(frozen=True)
class AnalysisOptions:
    mode: ChainMode = ChainMode.ZONE
    domain: AbsDomain = AbsDomain.ZONE
    track_all: bool = False
    subdiv: Optional[SubdivisionGrid] = None
    subdiv_cfg: SubdivisionConfig = SubdivisionConfig()
    eps: float = DEFAULT_EPS
    keep_layer_records: bool = True


@dataclass
class AnalysisResult:
    """Everything the checkers and the CLI need from one analysis run.

    ``internal`` (the generators over the tracked dimensions) is built on
    first access from the pre-activation zones kept in ``_gen_parts`` and
    then kept; nothing in ``analyze`` or ``speccheck.check`` reads it.
    """

    var_map: list  # (stage, neuron) per tracked dimension
    zone: Dbm  # enclosing zone over the tracked dimensions
    bounds: list  # one Box per value stage (inputs first)
    n_inputs: int
    n_outputs: int
    diagnostics: dict = field(default_factory=dict)
    cells: list = field(default_factory=list)  # (cell Box, closed cell Dbm) per grid cell
    # (closed pre-activation zone, ReLU slots, kept slots) per analysed box
    _gen_parts: list = field(default_factory=list, repr=False, compare=False)
    _eps: float = field(default=DEFAULT_EPS, repr=False, compare=False)

    @cached_property
    def internal(self) -> TropInternal:
        """Hull of the tracked dimensions: each part's n + 1 zone generators,
        with clamped copies of its ReLU slots appended, projected onto its
        kept slots and stacked in cell order, through one ``extreme_filter``."""
        points = []
        for pre_zone, relu_vars, sel in self._gen_parts:
            g = zone_to_internal(pre_zone, eps=self._eps).generators
            points.append(np.hstack([g, np.maximum(g[:, relu_vars], 0.0)])[:, sel])
        return extreme_filter(TropInternal(np.vstack(points)), eps=self._eps)

    @property
    def input_slots(self) -> list:
        return [i for i, (s, _) in enumerate(self.var_map) if s == 0]

    @property
    def output_slots(self) -> list:
        last = max(s for s, _ in self.var_map)
        return [i for i, (s, _) in enumerate(self.var_map) if s == last]


def analyze(net: Network, in_box: Box, options: AnalysisOptions = AnalysisOptions()) -> AnalysisResult:
    """Propagate the input box through the network (see module docstring)."""
    if in_box.dim != net.n_inputs:
        raise DimensionMismatch("input box does not match network inputs")
    if options.subdiv is not None and options.subdiv_cfg.mode is SubdivisionMode.CELLWISE_UNION:
        return _analyze_cellwise_union(net, options)
    res, layers = _analyze_single(net, in_box, options)
    if options.mode is ChainMode.EXTERNAL:
        res.diagnostics["external"], res.diagnostics["external_map"] = _external_system(
            net, layers, options
        )
    return res


def _analyze_cellwise_union(net: Network, options: AnalysisOptions) -> AnalysisResult:
    """Analyse every cell of ``options.subdiv`` once and join the cells.

    The zone is the entrywise max of the closed cell zones (a join of closed
    DBMs is closed) and each stage's bounds the hull of the cells' stage
    boxes.  ``cells`` keeps each cell's box and zone for the per-cell checks
    of ``speccheck.check``.  Each cell's pre-activation zone is kept too:
    the cell's generators are tighter than its zone, so ``internal`` is
    their union, built when first read.
    """
    grid = options.subdiv
    if grid.n_cells > options.subdiv_cfg.cell_budget:
        raise CellBudgetExceeded(
            f"{grid.n_cells} cells exceed the budget of {options.subdiv_cfg.cell_budget}"
        )
    cell_opts = replace(options, subdiv=None, keep_layer_records=False)
    t0 = time.perf_counter()
    cells = []
    gen_parts = []
    for cell in grid.cells():
        res, _ = _analyze_single(net, cell, cell_opts)
        gen_parts += res._gen_parts
        if not cells:
            zentries, bounds = res.zone.entries.copy(), res.bounds
        else:
            np.maximum(zentries, res.zone.entries, out=zentries)
            bounds = [
                Box(np.minimum(a.lo, b.lo), np.maximum(a.hi, b.hi))
                for a, b in zip(bounds, res.bounds)
            ]
        cells.append((cell, res.zone))
    return AnalysisResult(
        var_map=res.var_map,
        zone=Dbm(zentries, closed=True),
        bounds=bounds,
        n_inputs=net.n_inputs,
        n_outputs=net.n_outputs,
        diagnostics={
            "mode": options.mode.value,
            "domain": options.domain.value,
            "cells": len(cells),
            "seconds": time.perf_counter() - t0,
        },
        cells=cells,
        _gen_parts=gen_parts,
        _eps=options.eps,
    )


def _analyze_single(net: Network, in_box: Box, options: AnalysisOptions):
    """One pass of the layer loop over ``in_box``.

    Returns the result and the (layer, zone constants) pairs, from which
    ``analyze`` builds the external system of an unsubdivided run.
    """
    eps = options.eps
    t0 = time.perf_counter()
    var_map = [(0, j) for j in range(net.n_inputs)]
    zone = in_box.to_dbm()
    oct_zone = None
    if options.mode is ChainMode.ZONE and options.domain is AbsDomain.OCTAGON:
        oct_zone = _oct_from_box(in_box)
    stage_boxes = [in_box]
    layers = []
    records = []

    for li in range(net.n_layers):
        act = net.has_relu(li)
        n_old = len(var_map)
        cur = [i for i, (s, _) in enumerate(var_map) if s == li]
        if oct_zone is not None:
            full = oct_zone.box()
            cur_box = Box(full.lo[cur], full.hi[cur])
        else:
            if options.mode is not ChainMode.ZONE:
                zone = dbm_box(zone).to_dbm()
            cur_box = dbm_box(zone.slice([i + 1 for i in cur]))
        layer = AffineLayer(net.weights[li], net.biases[li], cur_box)
        k_oct = oct_constants(layer) if oct_zone is not None else None
        k = zone_constants(layer) if k_oct is None else k_oct.zone
        layers.append((layer, k))
        n_new = layer.n_outputs
        pre = list(range(n_old, n_old + n_new))
        # tracked slots of the (old, pre[, post]) space: inputs, every hidden
        # stage with track_all, and the new stage's values
        kept = [i for i, (s, _) in enumerate(var_map) if s == 0 or options.track_all]
        sel = kept + ([i + n_new for i in pre] if act else pre)
        if oct_zone is not None:
            oct_zone, zone, pre_zone = _oct_step(oct_zone, cur, layer, k_oct, act, kept, eps)
            big = None
        else:
            pre_zone = _layer_zone(zone, cur, layer, k, eps)
            big = _relu_append(pre_zone, pre) if act else pre_zone
            zone = big.slice([i + 1 for i in sel])
        stage_box = dbm_box(zone.slice(range(len(kept) + 1, len(sel) + 1)))
        stage_boxes.append(stage_box)
        if options.keep_layer_records:
            keys = list(var_map) + [("pre", j) for j in range(n_new)]
            if act:
                keys += [("post", j) for j in range(n_new)]
            if big is None:  # octagon domain: the zone ReLU image of its plus block
                big = _relu_append(pre_zone, pre) if act else pre_zone
            records.append(
                {
                    "stage": li + 1,
                    "input_box": cur_box,
                    "preact_box": Box(k.out_lo, k.out_hi),
                    "box": stage_box,
                    "preact_zone": {"dbm": big, "keys": keys},
                    "sizes": _step_sizes(
                        oct_zone is not None, n_old, len(cur), n_new, len(kept), act
                    ),
                }
            )
        var_map = [var_map[i] for i in kept] + [(li + 1, j) for j in range(n_new)]

    diag = {
        "mode": options.mode.value,
        "domain": options.domain.value,
        "cells": 1,
        "seconds": time.perf_counter() - t0,
        "layers": records,
    }
    return AnalysisResult(
        var_map=var_map,
        zone=zone,
        bounds=stage_boxes,
        n_inputs=net.n_inputs,
        n_outputs=net.n_outputs,
        diagnostics=diag,
        _gen_parts=[(pre_zone, pre if act else [], sel)],
        _eps=eps,
    ), layers


def _layer_zone(zone: Dbm, cur: list, layer: AffineLayer, k: ZoneAbsConstants, eps: float) -> Dbm:
    """Closed zone over (carried, h): the carried zone met with the layer's
    tight zone over (current layer, h), closed through their interface,
    slot 0 and the current layer."""
    c = np.asarray([0, *[i + 1 for i in cur]], dtype=int)
    e = _interface_close(zone.entries, c, zone_dbm(k, layer).entries, eps)
    if e is None:
        raise EmptyAbstraction("layer zone does not meet the carried zone")
    return Dbm(e, closed=True)


def _step_sizes(octagon: bool, n_old: int, n_cur: int, n_new: int, n_kept: int, act: bool) -> dict:
    """Slot counts of one layer step: the closed meet and its interface
    (with slot 0 in a zone, doubled in an octagon), and in the octagon
    domain the ReLU closure's slots and pivots (0 without a ReLU)."""
    if not octagon:
        return {"meet_slots": 1 + n_old + n_new, "interface_slots": 1 + n_cur}
    return {
        "meet_slots": 2 * (n_old + n_new),
        "interface_slots": 2 * n_cur,
        "relu_slots": 2 * (n_kept + n_new) if act else 0,
        "relu_pivots": 2 * n_new if act else 0,
    }


def _oct_from_box(box: Box) -> OctDbm:
    n = box.dim
    e = np.full((2 * n, 2 * n), INF)
    np.fill_diagonal(e, 0.0)
    e[:n, :n] = box.hi[:, None] - box.lo[None, :]
    e[n:, n:] = e[:n, :n].T.copy()
    e[:n, n:] = box.hi[:, None] + box.hi[None, :]
    e[n:, :n] = -(box.lo[:, None] + box.lo[None, :])
    np.fill_diagonal(e, 0.0)
    out = oct_close(OctDbm(e))
    assert isinstance(out, OctDbm)
    return out


def _oct_step(oct_zone, cur, layer, k_oct, act, kept, eps):
    """One layer of the octagon chain in the doubled space, with the
    layer's octagon constants ``k_oct``: the carried octagon met with the
    layer's, closed through their interface (+-current layer) and
    strengthened, then the ReLU copies closed on the ``kept`` variables.

    Returns the next octagon over (kept, post or pre), its plus-block zone
    and the plus-block zone of the (old, pre) space before ReLU.
    """
    n_new = layer.n_outputs
    n_old = oct_zone.dim
    n_pre = n_old + n_new
    n_cur = len(cur)
    cur = np.asarray(cur, dtype=int)
    # the raw octagon's entries are exact sups, so it is closed as it
    # stands; its slots (+cur, +h, -cur, -h) reordered to (+-cur, +-h)
    n_l = n_cur + n_new
    order = np.r_[0:n_cur, n_l : n_l + n_cur, n_cur:n_l, n_l + n_cur : 2 * n_l]
    b = _oct_entries(k_oct, layer)[np.ix_(order, order)]
    e = _interface_close(oct_zone.entries, np.concatenate([cur, cur + n_old]), b, eps)
    if e is not None:
        # (+old, -old, +h, -h) back to the doubled order (+old, +h, -old, -h)
        old_minus = np.arange(n_old, 2 * n_old)
        h_plus = np.arange(2 * n_old, 2 * n_old + n_new)
        back = np.concatenate([np.arange(n_old), h_plus, old_minus, h_plus + n_new])
        e = _strengthen(e[np.ix_(back, back)], n_pre, eps)
    if e is None:
        raise EmptyAbstraction("octagon chain produced an empty octagon")
    closed = OctDbm(e, closed=True)
    pre = list(range(n_old, n_pre))
    pre_zone = _plus_block_dbm(closed, list(range(n_pre)))
    if act:
        nxt_oct = _oct_relu_append(closed, pre, eps, keep=kept)
    else:
        idx = np.asarray(kept + pre + [i + n_pre for i in kept + pre], dtype=int)
        nxt_oct = OctDbm(closed.entries[np.ix_(idx, idx)], closed=True)
    return nxt_oct, _plus_block_dbm(nxt_oct, list(range(nxt_oct.dim))), pre_zone


def _plus_block_dbm(o: OctDbm, vars_: list) -> Dbm:
    """Plain zone over selected variables read off a strongly closed octagon.

    The plus block gives the differences and the halved mirror entries the
    bounds.  That zone is closed as it stands: strengthening bounds each
    difference by two halved unary bounds, and closure with coherence each
    unary bound by a difference plus another unary bound.
    """
    n = o.dim
    k = len(vars_)
    sel = np.asarray(vars_, dtype=int)
    e = np.empty((k + 1, k + 1))
    e[1:, 1:] = o.entries[np.ix_(sel, sel)]
    e[1:, 0] = o.entries[sel, sel + n] / 2.0
    e[0, 1:] = o.entries[sel + n, sel] / 2.0
    np.fill_diagonal(e, 0.0)
    return Dbm(e, closed=True)


def _external_system(net: Network, layers: list, options: AnalysisOptions):
    """Row system over every input, pre- and post-activation variable.

    Built from each layer's tight zone over its input box, plus the ReLU
    rows over its pre-activation box; inequality systems cannot be
    projected, so the system keeps every stage.  Returns (system, map).
    """
    ext = TropExternal.empty(net.n_inputs)
    ext_map = [("x", 0, j) for j in range(net.n_inputs)]
    feed = list(range(net.n_inputs))
    for li, (layer, k) in enumerate(layers):
        n_new = layer.n_outputs
        p_ext = zone_external(k, layer)
        if options.subdiv is not None and li == 0:
            p_ext = intersect_external(
                p_ext, subdivide_constraints(layer, options.subdiv, options.subdiv_cfg)
            )
        h_dims = list(range(len(ext_map), len(ext_map) + n_new))
        ext_map += [("pre", li + 1, j) for j in range(n_new)]
        p_big = _ext_embed(p_ext, feed, len(ext_map) - n_new, n_new)
        ext = intersect_external(emb_external(ext, n_new, ext.dim), p_big)
        feed = h_dims
        if net.has_relu(li):
            feed = list(range(len(ext_map), len(ext_map) + n_new))
            ext_map += [("post", li + 1, j) for j in range(n_new)]
            ext = emb_external(ext, n_new, ext.dim)
            ext = intersect_external(
                ext, relu_external(ext, h_dims, feed, Box(k.out_lo, k.out_hi))
            )
    return ext, ext_map


def _ext_embed(p_ext: TropExternal, cur_slots, n_before_new, n_new) -> TropExternal:
    """Spread a layer system over (cur, new) into the full external space."""
    total = n_before_new + n_new
    lhs = np.full((p_ext.n_rows, 1 + total), BOTTOM)
    rhs = np.full((p_ext.n_rows, 1 + total), BOTTOM)
    src_cols = [0] + [s + 1 for s in cur_slots] + [n_before_new + j + 1 for j in range(n_new)]
    lhs[:, src_cols] = p_ext.lhs
    rhs[:, src_cols] = p_ext.rhs
    return TropExternal(lhs, rhs)
