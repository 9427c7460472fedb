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
   of h at most.  A carried box (the first layer, and every layer in box
   and external mode) factors through slot 0, and its meet takes one
   row and one column product instead.  In the octagon domain both
   operands are coherent, so the meet's rows of h are the mirror of its
   columns of h, the same floats, and it takes two dense products, not
   three;
3. appends y = max(0, h) (``_relu_append``), each entry of the image's
   tightest zone a max or min of closed entries, and keeps the tracked slots.

The modes differ only in what the loop carries between layers:

* zone:     the zone itself.  Default.
* box:      the zone reset to its bounding box before each layer, so
            relations from earlier layers survive only through their
            interval bounds (the internal-only behaviour).
* external: box behaviour; afterwards (without a grid) an inequality
            system over every input, pre- and post-activation variable is
            built from the per-layer boxes and kept for membership
            diagnostics (inequality systems cannot be projected, so it
            keeps every stage).

In the octagon domain (zone mode) the carried relation lives in the
doubled space (+v, -v), which lets sum constraints tighten later layers
through closure.  The meet is closed through +-current layer and then
strengthened; ``_oct_relu_append`` writes the same exact entries there,
for the kept variables and the clamped copies only, and closes them.  The
full (old, pre, post) octagon is never built: with ``keep_layer_records``
each layer's record holds the exact zone ReLU image of the octagon's
pre-activation plus block, built for the record only.  Every record also
lists the step's slot counts under ``sizes``.

``AnalysisResult.internal`` is the one generator computation: the last
layer's pre-activation zone as n + 1 points, clamped and projected onto the
tracked slots (``tropical._zone_points``).  The analysis keeps these points
instead of the zone and filters them on first access, so a run whose
result is only checked never filters.

With a subdivision grid (``AnalysisOptions.subdiv``) the loop runs once
for all cells, in either domain: every box, zone, octagon and layer
constant carries a leading cell axis, and each cell's floats are computed
as they would be alone (``np.matmul`` of a layer's weights against one
column per cell gives each cell's matrix-vector product bit for bit; one
matrix product over the stacked cells would round differently).  Cells
go through in chunks that keep each stacked matrix within
``_CELL_FLOATS`` floats.  A run without a grid is the same loop on one
box, without the cell axis.  The grid must have one axis per input and
lie inside the input box.  The cells are joined: the zone, the
generators (the union of the cells' generators, also filtered on first
access) and every stage's bounds cover the union of the cells, and
``AnalysisResult.cells`` keeps each cell's zone so that ``speccheck.check``
decides assertions cell by cell without analysing again.  ``internal``
filters the cells' points in groups of whole cells (``_HULL_ROWS``), so
its residual matrix grows with the hull, not with the grid.
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
    OctDbm,
    _fill_diagonal,
    _interface_close,
    _strengthen,
    dbm_box,
    dbm_close,  # not called here; benchmarks/test_bench.py checks that tracing wraps this binding
    oct_close,
)
from .errors import BadIndex, DimensionMismatch, EmptyAbstraction, InfiniteEntry, InvalidDomain, TropReluError
from .maxplus import BOTTOM, DEFAULT_EPS, check_eps
from .layers import (
    AffineLayer,
    ZoneAbsConstants,
    _oct_entries,
    oct_constants,
    zone_constants,
    zone_dbm,
    zone_external,
)
from .subdivision import SubdivisionGrid, check_cell_budget
from .tropical import TropExternal, TropInternal, _zone_points, extreme_filter


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
    """Append y_i = max(0, h_i) to a closed zone M (slot 0 the constant),
    or to each zone of a stack.

    Every new entry is a sup over the zone.  A max's sup is the max of the
    sups: M[y, v] = max(M[0, v], M[h, v]).  Either half of the zone split at
    h = 0 adds one zero-weight edge between h and 0, so
    M[v, y] = min(M[v, 0], M[v, h]), and M[y_i, y_k] is the max of those
    for v = 0 and v = h_i.  A matrix of sups is closed as it stands.
    """
    m = zone.entries
    n1 = m.shape[-1]
    hs = np.asarray(h_vars, dtype=int) + 1
    e = np.empty(m.shape[:-2] + (n1 + len(hs), n1 + len(hs)))
    e[..., :n1, :n1] = m
    np.maximum(m[..., :1, :], m[..., hs, :], out=e[..., n1:, :n1])
    np.minimum(m[..., :, :1], m[..., :, hs], out=e[..., :n1, n1:])
    yy = e[..., n1:, n1:]
    np.minimum(m[..., hs, 0][..., :, None], m[..., hs[:, None], hs], out=yy)
    np.maximum(np.minimum(0.0, m[..., 0, hs])[..., None, :], yy, out=yy)
    _fill_diagonal(e, 0.0)
    return Dbm(e, closed=True)


def _oct_relu_append(o: OctDbm, h_vars: list, eps: float, keep: Optional[list] = None):
    """Append clamped copies g_i = max(0, h_i) to a closed octagon, or to
    each octagon of a stack, and keep the variables ``keep`` (default all)
    followed by the copies.

    Clamping distributes over sups: sup(max(0, h) - s) equals
    max(sup(-s), sup(h - s)), and symmetrically with min for the negated
    copy, so every new entry is the exact pairwise transfer of the closed
    input entries.  Only the kept slots and the copies are written: the
    kept block of the input, then each copy's transfer rows and columns
    against the kept slots, all copies at once.  A pair of copies is
    decomposed through each copy's transfer against the other's h slots.
    The closure then pivots on the copies alone: the kept slots are
    strongly closed, every new entry is bounded by their paths, and a pass
    over the copies never goes through a dropped slot, so the kept entries
    are those of the full closure.
    """
    n = o.dim
    r = len(h_vars)
    keep = np.arange(n) if keep is None else np.asarray(keep, dtype=int)
    k = len(keep)
    size = k + r
    old = o.entries
    mir = np.concatenate([np.arange(n, 2 * n), np.arange(0, n)])
    ub = old[..., np.arange(2 * n), mir] / 2.0  # ub[q] = sup(s_q) in the input
    hp = np.asarray(h_vars, dtype=int)
    hm = hp + n
    ks = np.concatenate([keep, keep + n])
    # each copy's rows against the kept slots, then +h and -h of every copy
    cols = np.concatenate([ks, hp, hm])
    col_sup = ub[..., None, mir[cols]]
    row_p = np.maximum(col_sup, old[..., hp[:, None], cols])  # rows +g
    row_m = np.minimum(col_sup, old[..., hm[:, None], cols])  # rows -g
    kpos = np.concatenate([np.arange(k), np.arange(size, size + k)])
    gp = np.arange(k, size)
    gm = gp + size
    e = np.empty(old.shape[:-2] + (2 * size, 2 * size))
    e[..., kpos[:, None], kpos] = old[..., ks[:, None], ks]
    e[..., gp[:, None], kpos] = row_p[..., : 2 * k]
    e[..., gm[:, None], kpos] = row_m[..., : 2 * k]
    e[..., kpos[:, None], gp] = np.minimum(ub[..., ks, None], old[..., ks[:, None], hp])
    e[..., kpos[:, None], gm] = np.maximum(ub[..., ks, None], old[..., ks[:, None], hm])
    # pairs of copies (rows +g_i then -g_i, columns j != i) through the
    # (g_i, h_j) transfers; the i = j entries are the copies' own bounds.
    # np.maximum(h, 0.0) keeps 0.0 on ties as max(0.0, h) does (signed zeros)
    g_hi = 2.0 * np.maximum(ub[..., hp], 0.0)
    g_lo = -2.0 * np.maximum(-ub[..., hm], 0.0)
    row_sup = (np.concatenate([g_hi, g_lo], axis=-1) / 2.0)[..., :, None]
    to_h = np.concatenate([row_p[..., 2 * k :], row_m[..., 2 * k :]], axis=-2)
    rows = np.concatenate([gp, gm])
    e[..., rows[:, None], gp] = np.minimum(to_h[..., :r], row_sup)
    e[..., rows[:, None], gm] = np.maximum(to_h[..., r:], row_sup)
    e[..., gp, gm] = g_hi
    e[..., gm, gp] = g_lo
    _fill_diagonal(e, 0.0)
    out = oct_close(OctDbm(e), eps=eps, changed=range(k, size))
    if out is EMPTY:
        raise EmptyAbstraction("octagon ReLU transfer produced an empty octagon")
    return out


@dataclass(frozen=True)
class AnalysisOptions:
    mode: ChainMode = ChainMode.ZONE
    domain: AbsDomain = AbsDomain.ZONE
    track_all: bool = False
    subdiv: Optional[SubdivisionGrid] = None
    eps: float = DEFAULT_EPS
    keep_layer_records: bool = True

    def __post_init__(self):
        check_eps(self.eps)


@dataclass
class AnalysisResult:
    """Everything the checkers and the CLI need from one analysis run.

    ``internal`` (the generators over the tracked dimensions) is filtered
    on first access from the points kept in ``_hull`` and then kept;
    nothing in ``analyze`` or ``speccheck.check`` reads it.
    """

    var_map: list  # (stage, neuron) per tracked dimension
    zone: Dbm  # enclosing zone over the tracked dimensions
    bounds: list  # one Box per value stage (inputs first)
    n_inputs: int
    n_outputs: int
    diagnostics: dict = field(default_factory=dict)
    # a grid's cell corners lo, hi (C, m) and closed cell zones (C, s, s)
    _cell_stack: Optional[tuple] = field(default=None, repr=False, compare=False)
    # unfiltered hull points (cells, n + 1, tracked); None if unbounded
    _hull: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    _eps: float = field(default=DEFAULT_EPS, repr=False, compare=False)

    @cached_property
    def internal(self) -> TropInternal:
        """Hull of the tracked dimensions: the cells' points through
        ``extreme_filter``, in groups of whole cells (``_HULL_ROWS``)."""
        if self._hull is None:
            raise InfiniteEntry("the hull needs finite pre-activation zones (bounded zones)")
        cells, rows, dim = self._hull.shape
        step = max(1, _HULL_ROWS // rows)
        hull = np.empty((0, dim))
        for i in range(0, cells, step):
            points = np.vstack([hull, self._hull[i : i + step].reshape(-1, dim)])
            hull = extreme_filter(TropInternal(points), eps=self._eps).generators
        return TropInternal(hull)

    @cached_property
    def cells(self) -> list:
        """(cell Box, closed cell Dbm) per grid cell; empty without a grid."""
        if self._cell_stack is None:
            return []
        lo, hi, zones = self._cell_stack
        return [(Box(l, h), Dbm(z, closed=True)) for l, h, z in zip(lo, hi, zones)]

    @property
    def input_slots(self) -> list:
        return [i for i, (s, _) in enumerate(self.var_map) if s == 0]

    @property
    def output_slots(self) -> list:
        last = max(s for s, _ in self.var_map)
        return [i for i, (s, _) in enumerate(self.var_map) if s == last]


def analyze(net: Network, in_box: Box, options: AnalysisOptions = AnalysisOptions()) -> AnalysisResult:
    """Propagate the input box through the network (see module docstring)."""
    if in_box.lo.ndim != 1 or in_box.dim != net.n_inputs:
        raise DimensionMismatch("input box does not match network inputs")
    if options.subdiv is not None:
        return _analyze_cellwise_union(net, in_box, options)
    res, layers = _analyze_single(net, in_box, options)
    if options.mode is ChainMode.EXTERNAL:
        res.diagnostics["external"], res.diagnostics["external_map"] = _external_system(net, layers)
    return res


# most floats one stacked matrix of the cell engine may hold: cells are
# analysed in chunks small enough for that (32 MB)
_CELL_FLOATS = 1 << 22
_HULL_ROWS = 256  # most points one step of ``internal`` adds to the hull so far


def _cell_floats(net: Network, track_all: bool, octagon: bool = False) -> int:
    """Floats of the largest matrix the layer loop builds for one cell: a
    layer's meet with its ReLU copies appended; with ``octagon`` four times
    that, for the doubled meet and the copies its closure keeps alive."""
    largest = 1
    for li in range(net.n_layers):
        hidden = sum(net.sizes[1:li]) if track_all else 0
        n_old = net.n_inputs + hidden + (net.sizes[li] if li else 0)
        largest = max(largest, (1 + n_old + 2 * net.sizes[li + 1]) ** 2)
    return 4 * largest if octagon else largest


def _analyze_cellwise_union(net: Network, in_box: Box, options: AnalysisOptions) -> AnalysisResult:
    """Analyse every cell of ``options.subdiv`` once and join the cells.

    The cells go through the layer loop stacked, a chunk of them at a time
    (``_analyze_chunk``).  The zone is the entrywise max of the closed cell
    zones (a join of closed DBMs is closed) and each stage's bounds the
    hull of the cells' stage boxes.  ``cells`` and the stacked form that
    ``speccheck.check`` reads keep each cell's box and zone.  Each cell's
    hull points are kept too: the cell's generators are tighter than its
    zone, so ``internal`` is their union, filtered when first read.
    """
    grid = options.subdiv
    if grid.dim != net.n_inputs:
        raise DimensionMismatch(f"the grid has {grid.dim} inputs, the network {net.n_inputs}")
    outer = grid.box
    if (outer.lo < in_box.lo - options.eps).any() or (outer.hi > in_box.hi + options.eps).any():
        raise InvalidDomain("the grid reaches outside the input box")
    check_cell_budget(grid.n_cells)
    cell_opts = replace(options, subdiv=None, keep_layer_records=False)
    t0 = time.perf_counter()
    lo, hi = grid.cell_bounds()
    octagon = options.mode is ChainMode.ZONE and options.domain is AbsDomain.OCTAGON
    step = max(1, _CELL_FLOATS // _cell_floats(net, options.track_all, octagon))
    parts = [
        _analyze_chunk(net, lo[i : i + step], hi[i : i + step], cell_opts)
        for i in range(0, len(lo), step)
    ]
    zones = np.concatenate([r.zone.entries for r in parts])
    bounds = []
    for s in range(len(parts[0].bounds)):
        stage_lo = np.concatenate([r.bounds[s].lo for r in parts])
        stage_hi = np.concatenate([r.bounds[s].hi for r in parts])
        bounds.append(Box(stage_lo.min(axis=0), stage_hi.max(axis=0)))
    return AnalysisResult(
        var_map=parts[0].var_map,
        zone=Dbm(zones.max(axis=0), closed=True),
        bounds=bounds,
        n_inputs=net.n_inputs,
        n_outputs=net.n_outputs,
        diagnostics={
            "mode": options.mode.value,
            "domain": options.domain.value,
            "cells": len(zones),
            "seconds": time.perf_counter() - t0,
        },
        _cell_stack=(lo, hi, zones),
        _hull=None if any(r._hull is None for r in parts) else np.concatenate([r._hull for r in parts]),
        _eps=options.eps,
    )


def _analyze_chunk(net: Network, lo: np.ndarray, hi: np.ndarray, options: AnalysisOptions) -> AnalysisResult:
    """The layer loop over the cells with corners ``lo``, ``hi`` (C, m),
    all passing through it together: its result with every zone and stage
    box stacked over the cells."""
    try:
        return _analyze_single(net, Box(lo, hi), options)[0]
    except TropReluError:
        # raise what analysing the cells one by one raises: the error of
        # the first cell that fails, not of the first layer where one does
        for l, h in zip(lo, hi):
            _analyze_single(net, Box(l, h), options)
        raise


def _analyze_single(net: Network, in_box: Box, options: AnalysisOptions):
    """One pass of the layer loop over ``in_box``: one box, or a stack of
    cell boxes (lo, hi of shape (C, m)), whose zones and stage boxes then
    carry the same leading axis.  Each cell's arithmetic is the same as
    alone.

    Returns the result and the (layer, zone constants) pairs, from which
    ``analyze`` builds the external system of an unsubdivided run.
    """
    eps = options.eps
    t0 = time.perf_counter()
    var_map = [(0, j) for j in range(net.n_inputs)]
    zone = in_box.to_dbm()
    full = in_box  # bounds of every carried slot, read off the carried matrix
    oct_zone = None
    if options.mode is ChainMode.ZONE and options.domain is AbsDomain.OCTAGON:
        oct_zone = _oct_from_box(in_box)
        full = oct_zone.box()
    stage_boxes = [in_box]
    layers = []
    records = []

    for li in range(net.n_layers):
        act = net.has_relu(li)
        n_old = len(var_map)
        cur = [i for i, (s, _) in enumerate(var_map) if s == li]
        if options.mode is not ChainMode.ZONE:
            zone = full.to_dbm()
        cur_box = Box(full.lo[..., cur], full.hi[..., cur])
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
        full = dbm_box(zone)
        stage_box = Box(full.lo[..., len(kept) :], full.hi[..., len(kept) :])
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
        del big  # the largest matrix of the step; free before the next one
        var_map = [var_map[i] for i in kept] + [(li + 1, j) for j in range(n_new)]

    m = pre_zone.entries  # kept as its hull points; None (``internal`` raises) if unbounded
    hull = _zone_points(m, np.add(kept + pre, 1), n_new if act else 0) if np.isfinite(m).all() else None
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
        _hull=hull,
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
    e = np.empty(box.lo.shape[:-1] + (2 * n, 2 * n))
    e[..., :n, :n] = box.hi[..., :, None] - box.lo[..., None, :]
    e[..., n:, n:] = e[..., :n, :n].swapaxes(-2, -1)
    e[..., :n, n:] = box.hi[..., :, None] + box.hi[..., None, :]
    e[..., n:, :n] = -(box.lo[..., :, None] + box.lo[..., None, :])
    _fill_diagonal(e, 0.0)
    out = oct_close(OctDbm(e))
    assert isinstance(out, OctDbm)
    return out


def _oct_step(oct_zone, cur, layer, k_oct, act, kept, eps):
    """One layer of the octagon chain in the doubled space, on one octagon
    or a stack, with the layer's octagon constants ``k_oct``: the carried
    octagon met with the layer's, closed through their interface
    (+-current layer) and strengthened, then the ReLU copies closed on the
    ``kept`` variables.

    Returns the next octagon over (kept, post or pre), its plus-block zone
    and the plus-block zone of the (old, pre) space before ReLU.
    """
    n_new = layer.n_outputs
    n_old = oct_zone.dim
    n_pre = n_old + n_new
    cur = np.asarray(cur, dtype=int)
    # the raw octagon's entries are exact sups, so it is closed as it
    # stands; its slots come in the interface order (+-cur, +-h)
    b = _oct_entries(k_oct, layer, interface=True)
    e = _interface_close(oct_zone.entries, np.concatenate([cur, cur + n_old]), b, eps)
    if e is not None:
        # (+old, -old, +h, -h) back to the doubled order (+old, +h, -old, -h)
        old_minus = np.arange(n_old, 2 * n_old)
        h_plus = np.arange(2 * n_old, 2 * n_old + n_new)
        back = np.concatenate([np.arange(n_old), h_plus, old_minus, h_plus + n_new])
        e = _strengthen(e[..., back[:, None], back], n_pre, eps)
    if e is None:
        raise EmptyAbstraction("octagon chain produced an empty octagon")
    closed = OctDbm(e, closed=True)
    pre = list(range(n_old, n_pre))
    pre_zone = _plus_block_dbm(closed, list(range(n_pre)))
    if act:
        nxt_oct = _oct_relu_append(closed, pre, eps, keep=kept)
    else:
        idx = np.asarray(kept + pre + [i + n_pre for i in kept + pre], dtype=int)
        nxt_oct = OctDbm(closed.entries[..., idx[:, None], idx], closed=True)
    return nxt_oct, _plus_block_dbm(nxt_oct, list(range(nxt_oct.dim))), pre_zone


def _plus_block_dbm(o: OctDbm, vars_: list) -> Dbm:
    """Plain zone over selected variables read off a strongly closed octagon
    (or off each octagon of a stack).

    The plus block gives the differences and the halved mirror entries the
    bounds.  That zone is closed as it stands: strengthening bounds each
    difference by two halved unary bounds, and closure with coherence each
    unary bound by a difference plus another unary bound.
    """
    n = o.dim
    k = len(vars_)
    sel = np.asarray(vars_, dtype=int)
    e = np.empty(o.entries.shape[:-2] + (k + 1, k + 1))
    e[..., 1:, 1:] = o.entries[..., sel[:, None], sel]
    e[..., 1:, 0] = o.entries[..., sel, sel + n] / 2.0
    e[..., 0, 1:] = o.entries[..., sel + n, sel] / 2.0
    _fill_diagonal(e, 0.0)
    return Dbm(e, closed=True)


def _external_system(net: Network, layers: list):
    """Row system over every input, pre- and post-activation variable.

    Built from each layer's tight zone over its input box, plus the ReLU
    rows over its pre-activation box; inequality systems cannot be
    projected, so the system keeps every stage.  Each block of rows is
    written once into the whole system, in layer order.  Returns (system,
    map).
    """
    ext_map = [("x", 0, j) for j in range(net.n_inputs)]
    parts = []  # (rows, the system columns they cover)
    feed = list(range(net.n_inputs))
    for li, (layer, k) in enumerate(layers):
        n_new = layer.n_outputs
        h_dims = list(range(len(ext_map), len(ext_map) + n_new))
        ext_map += [("pre", li + 1, j) for j in range(n_new)]
        parts.append((zone_external(k, layer), [0] + [v + 1 for v in feed + h_dims]))
        feed = h_dims
        if net.has_relu(li):
            feed = list(range(len(ext_map), len(ext_map) + n_new))
            ext_map += [("post", li + 1, j) for j in range(n_new)]
            # the ReLU rows over (h, y) alone, spread over the system below
            pairs = TropExternal.empty(2 * n_new)
            relu_rows = relu_external(pairs, range(n_new), range(n_new, 2 * n_new), Box(k.out_lo, k.out_hi))
            parts.append((relu_rows, [0] + [v + 1 for v in h_dims + feed]))
    n_rows = sum(p.n_rows for p, _ in parts)
    lhs = np.full((n_rows, 1 + len(ext_map)), BOTTOM)
    rhs = np.full((n_rows, 1 + len(ext_map)), BOTTOM)
    row = 0
    for p, cols in parts:
        lhs[row : row + p.n_rows, cols] = p.lhs
        rhs[row : row + p.n_rows, cols] = p.rhs
        row += p.n_rows
    return TropExternal(lhs, rhs), ext_map
