"""Whole-network propagation through tropical polyhedra and zones.

A network is a chain of affine layers with ReLU after each one (the last
activation is optional).  Each affine layer is abstracted by its tight zone
(or octagon) over the box of its inputs; ReLU is tropically affine, so its
image of a closed zone (a tropical polyhedron) is exact.

One loop serves every mode and domain.  It carries a closed zone over the
inputs, the current layer, and with ``track_all`` every hidden layer, and
reads stage bounds off it (``dbm_box``, or ``OctDbm.box``).  Per layer its
domain's step (``_zone_step`` or ``_oct_step``), which returns the next
carried matrix and the closed pre-activation zone over (carried, h),

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
   three.  The product of h against h is taken only on the entries that
   a bound leaves open (``dbm._min_with_product``);
3. writes the image of y = max(0, h) on the tracked slots and y only
   (``_relu_append``), each entry a max or min of closed entries.

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

The octagon domain runs in zone mode only; box and external mode run the
zone chain (``_domain``).  Its carried relation lives in the doubled
space (+v, -v), which lets sum constraints tighten later layers through
closure.  The meet is closed through +-current layer and strengthened,
whose diagonal check is its one emptiness test (``_oct_meet``);
``_oct_relu_append`` writes the same exact entries there.  That image and
the input box's octagon (``_oct_from_box``) are strongly closed as built,
so the chain runs no closure pass; the result's zone is the last octagon's
plus block.  A run without a grid keeps one record per layer in
``diagnostics["layers"]``: the step's ``sizes`` and pre-activation zone.

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
go through in chunks that keep the stacked matrices one step holds at
once within ``_CELL_FLOATS`` floats.  A run without a grid is the same
loop on one box, without the cell axis.  The grid must have one axis per
input and lie inside the input box.  The cells are joined: the zone, the
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
    OctDbm,
    _coherence_min,
    _diagonal,
    _fill_diagonal,
    _halves,
    _interface_close,
    _meet,
    _strengthen,
    _widen_and_redo,
    dbm_box,
    dbm_close,  # not called here; benchmarks/test_bench.py checks that tracing wraps this binding
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
            if w.ndim != 2 or w.shape[0] != b.shape[0]:
                raise DimensionMismatch(f"weights of shape {w.shape} are not a matrix with {b.shape[0]} rows")
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
        return self.trace(x)[-1]

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
    # a layer of size 0 gives no rows, which np.vstack would not take
    return TropExternal(np.reshape(rows_l, (-1, 1 + dim)), np.reshape(rows_r, (-1, 1 + dim)))


def _relu_append(zone: Dbm, h_vars: list, n_keep: Optional[int] = None) -> Dbm:
    """Append y_i = max(0, h_i) to a closed zone M (slot 0 the constant),
    or to each zone of a stack, keeping the first ``n_keep`` variables
    (default all): the whole image's entries on those and the copies.

    Every new entry is a sup over the zone.  A max's sup is the max of the
    sups: M[y, v] = max(M[0, v], M[h, v]).  Either half of the zone split at
    h = 0 adds one zero-weight edge between h and 0, so
    M[v, y] = min(M[v, 0], M[v, h]), and M[y_i, y_k] is the max of those
    for v = 0 and v = h_i.  A matrix of sups is closed as it stands.
    """
    m = zone.entries
    n1 = m.shape[-1] if n_keep is None else 1 + n_keep
    hs = np.asarray(h_vars, dtype=int) + 1
    e = np.empty(m.shape[:-2] + (n1 + len(hs), n1 + len(hs)))
    e[..., :n1, :n1] = m[..., :n1, :n1]
    np.maximum(m[..., :1, :n1], m[..., hs, :n1], out=e[..., n1:, :n1])
    np.minimum(m[..., :n1, :1], m[..., :n1, hs], out=e[..., :n1, n1:])
    yy = e[..., n1:, n1:]
    np.minimum(m[..., hs, 0][..., :, None], m[..., hs[:, None], hs], out=yy)
    np.maximum(np.minimum(0.0, m[..., 0, hs])[..., None, :], yy, out=yy)
    _fill_diagonal(e, 0.0)
    return Dbm(e, closed=True)


def _oct_relu_append(o: OctDbm, h_vars: list, keep: Optional[list] = None):
    """Append g_i = max(0, h_i) to a strongly closed octagon m (or a stack),
    keeping the variables ``keep`` (default all), then the copies: strongly
    closed as built after the coherence step.

    Proof, in exact arithmetic.  Add a zero slot z, D[p, z] = m[p, p̄] / 2
    and D[z, q] = m[q̄, q] / 2: m is strongly closed iff D is closed.  Over
    D, +g = max(z, +h) and -g = min(z, -h); +g's row and -g's column take
    the max over that choice of slot (the sup of a max is the max of sups),
    -g's row and +g's column the min (the sup of a min is at most it).
    Each entry N[p, q] is the max over the max sides' choices of the min
    over the min sides' of D[p's, q's choice]: D on kept x kept; a max or
    min of two D entries for a copy against a kept slot or z (g_hi / 2,
    g_lo / 2), mirrored as the same floats; for two copies, built with the
    column's choice outermost and mirrored with the row's, and where these
    differ coherence keeps the max-outside one (max-min <= min-max).  N is
    closed: fix N[p, q]'s max choices; r's side in N[p, r] or in N[r, q] is
    a min side, at the choice attaining that entry; the other entry is at
    least its inner min at r's same choice, and D's triangle inequality
    through that choice gives N[p, q] <= N[p, r] + N[r, q].  Diagonals are
    0, as D[z, h] + D[h, z] >= 0.  So every triangle and (through z)
    half-sum inequality holds, also on the kept slots.  The build is exact
    in floats (min, max, halves, doubles): a closure pass would move only
    the input's rounding.

    Layout: one row take and one column take gather the input's entries
    between the image's slots, in its order (+kept, +h, -kept, -h), so the
    kept x kept blocks are final and each h row and column sits where its
    copy's goes.  Seen as halves (sign of row, row, sign of column,
    column), the copies are then filled by slices, in place: each copy's
    row against every slot (a max with the column's mirror bound for +g,
    a min for -g), the kept rows' copy columns (a min with the row's own
    bound for +g, a max for -g), and the copy pairs against the copies'
    own bounds; no 2-d fancy gather or scatter.
    """
    n = o.dim
    r = len(h_vars)
    keep = np.arange(n) if keep is None else np.asarray(keep, dtype=int)
    k = len(keep)
    size = k + r
    hp = np.asarray(h_vars, dtype=int)
    sel = np.concatenate([keep, hp, keep + n, hp + n])
    e = o.entries.take(sel, axis=-2).take(sel, axis=-1)
    half = _halves(e)  # [..., sign of row, row, sign of column, column]
    # ub[s, i] = sup of slot (s, i) in the input; col_sup[s] = ub of the mirror
    ub = np.stack([_diagonal(half[..., 0, :, 1, :]), _diagonal(half[..., 1, :, 0, :])], axis=-2) / 2.0
    col_sup = ub[..., None, ::-1, :]
    # each copy's row against every slot: rows +g a max, rows -g a min
    np.maximum(col_sup, half[..., 0, k:, :, :], out=half[..., 0, k:, :, :])
    np.minimum(col_sup, half[..., 1, k:, :, :], out=half[..., 1, k:, :, :])
    # the kept slots' columns of the copies: columns +g a min, columns -g a max
    kept_ub = ub[..., :k, None]
    np.minimum(kept_ub, half[..., :, :k, 0, k:], out=half[..., :, :k, 0, k:])
    np.maximum(kept_ub, half[..., :, :k, 1, k:], out=half[..., :, :k, 1, k:])
    # pairs of copies (rows +g_i then -g_i, columns j != i) through the
    # (g_i, h_j) transfers; the i = j entries are the copies' own bounds.
    # np.maximum(h, 0.0) keeps 0.0 on ties as max(0.0, h) does (signed zeros)
    g_hi = 2.0 * np.maximum(ub[..., 0, k:], 0.0)
    g_lo = -2.0 * np.maximum(-ub[..., 1, k:], 0.0)
    row_sup = (np.stack([g_hi, g_lo], axis=-2) / 2.0)[..., :, :, None]
    np.minimum(half[..., :, k:, 0, k:], row_sup, out=half[..., :, k:, 0, k:])
    np.maximum(half[..., :, k:, 1, k:], row_sup, out=half[..., :, k:, 1, k:])
    i = np.arange(k, size)
    half[..., 0, i, 1, i] = g_hi
    half[..., 1, i, 0, i] = g_lo
    _fill_diagonal(e, 0.0)
    return OctDbm(_coherence_min(e, size), closed=True)


@dataclass(frozen=True)
class AnalysisOptions:
    mode: ChainMode = ChainMode.ZONE
    domain: AbsDomain = AbsDomain.ZONE
    track_all: bool = False
    subdiv: Optional[SubdivisionGrid] = None
    eps: float = DEFAULT_EPS

    def __post_init__(self):
        check_eps(self.eps)
        kinds = {"mode": ChainMode, "domain": AbsDomain, "subdiv": (SubdivisionGrid, type(None))}
        for name, kind in kinds.items():
            if not isinstance(getattr(self, name), kind):
                raise InvalidDomain(f"AnalysisOptions.{name} is {getattr(self, name)!r}")


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
    res = _analyze_single(net, in_box, options)
    if options.mode is ChainMode.EXTERNAL:
        res.diagnostics["external"], res.diagnostics["external_map"] = _external_system(
            net, res.diagnostics["layers"]
        )
    return res


# most floats the stacked matrices of one layer step may hold together:
# cells are analysed in chunks small enough for that (32 MB)
_CELL_FLOATS = 1 << 22
_HULL_ROWS = 256  # most points one step of ``internal`` adds to the hull so far


def _cell_floats(net: Network, track_all: bool, octagon: bool = False) -> int:
    """Floats one cell holds at once in the layer loop's largest step: the
    carried zone, the previous step's pre-activation zone (held until the
    step returns), the layer's zone, and the meet with two temporaries of
    its size (the interface blocks the dense products gather, or the Y
    block sums of the factored ones); with ``octagon`` four times that, for
    the doubled space."""
    largest, prev = 1, 0
    for li in range(net.n_layers):
        hidden = sum(net.sizes[1:li]) if track_all else 0
        n_old = net.n_inputs + hidden + (net.sizes[li] if li else 0)
        n_new = net.sizes[li + 1]
        meet = (1 + n_old + n_new) ** 2
        largest = max(largest, (1 + n_old) ** 2 + (1 + net.sizes[li] + n_new) ** 2 + 3 * meet + prev)
        prev = meet
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
    cell_opts = replace(options, subdiv=None)
    t0 = time.perf_counter()
    lo, hi = grid.cell_bounds()
    domain = _domain(options)
    step = max(1, _CELL_FLOATS // _cell_floats(net, options.track_all, domain is AbsDomain.OCTAGON))
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
            "domain": domain.value,
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
        return _analyze_single(net, Box(lo, hi), options)
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
    alone.  It holds one layer's object and constants at a time; only a
    run on one box keeps its layer records.
    """
    eps = options.eps
    t0 = time.perf_counter()
    domain = _domain(options)
    octagon = domain is AbsDomain.OCTAGON
    var_map = [(0, j) for j in range(net.n_inputs)]
    carried = _oct_from_box(in_box) if octagon else in_box.to_dbm()
    constants, step, read = (oct_constants, _oct_step, OctDbm.box) if octagon else (zone_constants, _zone_step, dbm_box)
    full = read(carried)  # bounds of every carried slot
    stage_boxes = [in_box]
    records = []

    for li in range(net.n_layers):
        act = net.has_relu(li)
        n_old = len(var_map)
        cur = [i for i, (s, _) in enumerate(var_map) if s == li]
        if options.mode is not ChainMode.ZONE:
            carried = full.to_dbm()
        cur_box = Box(full.lo[..., cur], full.hi[..., cur])
        layer = AffineLayer(net.weights[li], net.biases[li], cur_box)
        k = constants(layer)  # the zone's, or the octagon's holding them as .zone
        n_new = layer.n_outputs
        pre = list(range(n_old, n_old + n_new))
        # tracked old slots, a prefix: the inputs, and every hidden stage with track_all
        kept = [i for i, (s, _) in enumerate(var_map) if s == 0 or options.track_all]
        carried, pre_zone = step(carried, cur, layer, k, act, kept, eps)
        full = read(carried)
        stage_box = Box(full.lo[..., len(kept) :], full.hi[..., len(kept) :])
        stage_boxes.append(stage_box)
        if in_box.lo.ndim == 1:  # a stacked chunk of grid cells keeps no records
            records.append(
                {
                    "stage": li + 1,
                    "input_box": cur_box,
                    "preact_box": Box(k.zone.out_lo, k.zone.out_hi),
                    "box": stage_box,
                    "preact_zone": {"dbm": pre_zone, "keys": var_map + [("pre", j) for j in range(n_new)]},
                    "sizes": _step_sizes(domain, n_old, len(cur), n_new, len(kept), act),
                }
            )
        var_map = [var_map[i] for i in kept] + [(li + 1, j) for j in range(n_new)]

    m = pre_zone.entries  # kept as its hull points; None (``internal`` raises) if unbounded
    hull = _zone_points(m, np.add(kept + pre, 1), n_new if act else 0) if np.isfinite(m).all() else None
    return AnalysisResult(
        var_map=var_map,
        zone=_plus_block_dbm(carried) if octagon else carried,
        bounds=stage_boxes,
        n_inputs=net.n_inputs,
        n_outputs=net.n_outputs,
        diagnostics={
            "mode": options.mode.value,
            "domain": domain.value,
            "cells": 1,
            "seconds": time.perf_counter() - t0,
            "layers": records,
        },
        _hull=hull,
        _eps=eps,
    )


def _domain(options: AnalysisOptions) -> AbsDomain:
    """The domain that runs: box and external mode reset the carried
    relation to a box before each layer, so they run the zone chain."""
    return options.domain if options.mode is ChainMode.ZONE else AbsDomain.ZONE


def _zone_step(zone, cur, layer, k, act, kept, eps):
    """``_oct_step`` for the zone chain, whose carried matrix is its zone: the
    meet (``_layer_zone``, its one emptiness test), then the ReLU image on kept and y."""
    pre_zone = _layer_zone(zone, cur, layer, k, eps)
    pre = list(range(zone.dim, zone.dim + layer.n_outputs))
    nxt = _relu_append(pre_zone, pre, len(kept)) if act else pre_zone.slice([i + 1 for i in kept + pre])
    return nxt, pre_zone


def _layer_zone(zone: Dbm, cur: list, layer: AffineLayer, k: ZoneAbsConstants, eps: float) -> Dbm:
    """Closed zone over (carried, h): the carried zone met with the layer's
    tight zone over (current layer, h), closed through their interface,
    slot 0 and the current layer."""
    c = np.asarray([0, *[i + 1 for i in cur]], dtype=int)
    e = _interface_close(zone.entries, c, zone_dbm(k, layer).entries, eps)
    if e is None:
        raise EmptyAbstraction("layer zone does not meet the carried zone")
    return Dbm(e, closed=True)


def _step_sizes(domain: AbsDomain, n_old: int, n_cur: int, n_new: int, n_kept: int, act: bool) -> dict:
    """Slot counts of one layer step: the closed meet and its interface
    (with slot 0 in a zone, doubled in an octagon), and in the octagon
    domain the ReLU image's slots (0 without a ReLU)."""
    if domain is AbsDomain.ZONE:
        return {"meet_slots": 1 + n_old + n_new, "interface_slots": 1 + n_cur}
    relu = 2 * (n_kept + n_new) if act else 0
    return {"meet_slots": 2 * (n_old + n_new), "interface_slots": 2 * n_cur, "relu_slots": relu}


def _oct_from_box(box: Box) -> OctDbm:
    """The octagon of a box (or of each box of a stack), as built: its
    entries hi_i - lo_j, hi_i + hi_j and -(lo_i + lo_j) are the exact sups
    of x_i - x_j and +-(x_i + x_j) over a nonempty box, so it is closed,
    and strongly closed, as it stands (Miné, HOSC 2006), as ``Box.to_dbm``
    is.  Each entry rounds once, so a closure pass could only move
    rounding; on boxes that mix magnitudes that rounding made the pass cut
    true points or return EMPTY.  A zero sum is written +0.0, as in
    ``layers._oct_entries``."""
    n = box.dim
    e = np.empty(box.lo.shape[:-1] + (2 * n, 2 * n))
    e[..., :n, :n] = box.hi[..., :, None] - box.lo[..., None, :]
    e[..., n:, n:] = e[..., :n, :n].swapaxes(-2, -1)
    e[..., :n, n:] = box.hi[..., :, None] + box.hi[..., None, :]
    e[..., n:, :n] = 0.0 - (box.lo[..., :, None] + box.lo[..., None, :])
    _fill_diagonal(e, 0.0)
    return OctDbm(e, closed=True)


def _oct_step(oct_zone, cur, layer, k_oct, act, kept, eps):
    """One layer of the octagon chain in the doubled space, on one octagon
    or a stack, with the layer's octagon constants ``k_oct``: the carried
    octagon met with the layer's, closed through their interface
    (+-current layer) and strengthened (``_oct_meet``), then the ReLU
    image on the ``kept`` variables.  A meet that strengthening flags is
    redone by ``dbm``'s rounding rule on the layer octagon widened, and
    EmptyAbstraction is raised if a redone meet still fails.

    Returns the next octagon over (kept, post or pre) and the plus-block
    zone of the (old, pre) space before ReLU.
    """
    n_new = layer.n_outputs
    n_old = oct_zone.dim
    n_pre = n_old + n_new
    cur = np.asarray(cur, dtype=int)
    # the raw octagon's entries are exact sups, so it is closed as it
    # stands; its slots come in the interface order (+-cur, +-h)
    a = oct_zone.entries
    b = _oct_entries(k_oct, layer, interface=True)
    c = np.concatenate([cur, cur + n_old])
    # (+old, -old, +h, -h) back to the doubled order (+old, +h, -old, -h)
    old_minus = np.arange(n_old, 2 * n_old)
    h_plus = np.arange(2 * n_old, 2 * n_old + n_new)
    back = np.concatenate([np.arange(n_old), h_plus, old_minus, h_plus + n_new])
    e, still = _widen_and_redo(lambda a, b: _oct_meet(a, c, b, back, n_pre, eps), (a, b), (1,))
    if still.any():
        raise EmptyAbstraction("octagon chain produced an empty octagon")
    closed = OctDbm(e, closed=True)
    pre = list(range(n_old, n_pre))
    pre_zone = _plus_block_dbm(closed)
    if act:
        return _oct_relu_append(closed, pre, keep=kept), pre_zone
    idx = np.asarray(kept + pre + [i + n_pre for i in kept + pre], dtype=int)
    return OctDbm(e[..., idx[:, None], idx], closed=True), pre_zone


def _oct_meet(a, c, b, back, n, eps):
    """The carried octagon ``a`` (or a stack) met with the layer's ``b``
    through the interface slots ``c`` (``dbm._meet``), put in the doubled
    order ``back`` over n variables (a row take, then a column take: two
    plain copies, cheaper than one 2-D gather) and strengthened: the
    matrix and the mask of ``dbm._strengthen``, whose diagonal check also
    sees the meet's own cycles (strengthening only lowers entries)."""
    return _strengthen(_meet(a, c, b).take(back, axis=-2).take(back, axis=-1), n, eps)


def _plus_block_dbm(o: OctDbm) -> Dbm:
    """Plain zone over every variable read off a strongly closed octagon
    (or off each octagon of a stack).

    The plus block gives the differences and the halved mirror entries the
    bounds.  That zone is closed as it stands: strengthening bounds each
    difference by two halved unary bounds, and closure with coherence each
    unary bound by a difference plus another unary bound.
    """
    n = o.dim
    sel = np.arange(n)
    e = np.empty(o.entries.shape[:-2] + (n + 1, n + 1))
    e[..., 1:, 1:] = o.entries[..., :n, :n]
    e[..., 1:, 0] = o.entries[..., sel, sel + n] / 2.0
    e[..., 0, 1:] = o.entries[..., sel + n, sel] / 2.0
    _fill_diagonal(e, 0.0)
    return Dbm(e, closed=True)


def _external_system(net: Network, records: list):
    """Row system over every input, pre- and post-activation variable.

    Built from each layer's tight zone over its input box, the box its
    layer record keeps (external mode runs the zone chain, so these are the
    constants the chain used, rebuilt), plus the ReLU rows over its
    pre-activation box; inequality systems cannot be projected, so the
    system keeps every stage.  Each block of rows is written once into the
    whole system, in layer order.  Returns (system, map).
    """
    ext_map = [("x", 0, j) for j in range(net.n_inputs)]
    parts = []  # (rows, the system columns they cover)
    feed = list(range(net.n_inputs))
    for li, record in enumerate(records):
        layer = AffineLayer(net.weights[li], net.biases[li], record["input_box"])
        k = zone_constants(layer)
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
