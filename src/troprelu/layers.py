"""Optimal zone and octagon abstractions of one affine layer over a box.

Given y = Wx + b with x ranging over a box, the tightest zone containing
the graph {(x, y)} is described by a handful of closed-form constants:

    out_lo_i / out_hi_i   exact range of output i
    diff[i1, i2]          exact sup of y_i1 - y_i2
    slack[i, j]           per input/output slack tightening y_i - x_j:
                          0                      if w_ij <= 0
                          w_ij (hi_j - lo_j)     if 0 <= w_ij <= 1
                          (hi_j - lo_j)          if w_ij >= 1

yielding  out_lo_i - hi_j + slack_ij <= y_i - x_j <= out_hi_i - lo_j - slack_ij.

That zone has an exact tropical description: m + n + 1 inequalities
(external) or m + n + 1 extreme points (internal).  The octagon variant
adds tight bounds on sums y_i1 + y_i2 and y_i + x_j and lives in a doubled
space (+x, +y, -x, -y), where it is again a zone, hence again a tropical
polyhedron.

The pairwise constants are sups of a linear form over the box, and
sup_x a . x = a . lo + relu(a) . (hi - lo).  With c = W lo + b,
d = W hi + b and width = hi - lo they come in product form:

    diff[i, k]   = c_i - c_k + R[i, k],   R[i, k] = relu(w_i - w_k) . width
    sum_hi[i, k] = c_i + c_k + S[i, k],   S[i, k] = relu(w_i + w_k) . width
    sum_lo[i, k] = d_i + d_k - S[i, k]

Each of R and S is one subtraction (addition), one in-place max with 0
and one matrix-vector product, computed in row blocks so that the
(rows, n, m) temporary stays small however wide the layer.

All constructions here are exact sups over the graph; tests verify every
finite bound is attained by a vertex of the input box.  Exact in real
arithmetic, that is: every sum and product here rounds to nearest, and
no bound on the floating-point error is computed yet.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .dbm import Box, Dbm, _fill_diagonal
from .errors import DimensionMismatch
from .maxplus import BOTTOM, DEFAULT_EPS
from .tropical import TropExternal, TropInternal, zone_to_internal

# floats in one row block of ``_pair_widths``' temporary: 256 KB, small
# enough for the three passes over it to stay in cache
_BLOCK = 1 << 15


@dataclass(frozen=True)
class AffineLayer:
    """y = weights @ x + bias for x in in_box."""

    weights: np.ndarray
    bias: np.ndarray
    in_box: Box

    def __post_init__(self):
        w = np.atleast_2d(np.asarray(self.weights, dtype=float))
        b = np.asarray(self.bias, dtype=float).reshape(-1)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)
        if w.shape[0] != b.shape[0]:
            raise DimensionMismatch("weight rows must match bias length")
        if w.shape[1] != self.in_box.dim:
            raise DimensionMismatch("weight columns must match input box dimension")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise DimensionMismatch("layer weights and bias must be finite")

    @property
    def n_outputs(self) -> int:
        return self.weights.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.weights.shape[1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self.weights.T + self.bias


@dataclass(frozen=True)
class ZoneAbsConstants:
    """Tight zone constants of one affine layer (see module docstring)."""

    out_lo: np.ndarray  # (n,) exact minimum of each output
    out_hi: np.ndarray  # (n,) exact maximum of each output
    diff: np.ndarray  # (n, n) exact sup of y_i1 - y_i2
    slack: np.ndarray  # (n, m) difference-row slack

    @property
    def ext_offset(self) -> np.ndarray:
        """(n, n) constants d[i1, i2] = diff[i1, i2] + out_lo[i2] used in the
        external output rows."""
        return self.diff + self.out_lo[None, :]

    @property
    def covertex(self) -> np.ndarray:
        """(n, n) companion values c[i1, i2] = out_hi[i1] - diff[i1, i2]:
        output i2's coordinate at the vertex where output i1 peaks."""
        return self.out_hi[:, None] - self.diff

    @property
    def zone(self) -> "ZoneAbsConstants":
        return self  # as an octagon's constants give their zone part


@dataclass(frozen=True)
class OctAbsConstants:
    """Zone constants plus tight sum bounds for the octagon abstraction."""

    zone: ZoneAbsConstants
    sum_hi: np.ndarray  # (n, n) exact sup of y_i1 + y_i2
    sum_lo: np.ndarray  # (n, n) exact inf of y_i1 + y_i2
    sum_slack: np.ndarray  # (n, m) slack tightening y_i + x_j


def zone_constants(layer: AffineLayer) -> ZoneAbsConstants:
    return _constants(layer, sums=False)


def _mv(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """w @ x for x of shape (..., m): one matrix-vector product per cell,
    each bit for bit the product of that cell alone (one gemm over the
    stacked cells rounds differently).  x must be C-contiguous, as one
    cell's row is: ``np.matmul`` rounds a one-row w against a strided
    column differently (see ``_constants``)."""
    return np.matmul(w, x[..., None])[..., 0]


def _constants(layer: AffineLayer, sums: bool):
    """Zone constants, and with ``sums`` the octagon constants, in product
    form (see module docstring).  On a stacked input box (leading cell
    axes) every constant gets the same leading axes.

    The corners are made C-contiguous first.  A stack's column slice (the
    current layer's slots of the carried box) is in Fortran order, and
    ``np.matmul`` of a one-row weight against a column strided across the
    cells sums in another order than against one cell's contiguous row:
    without the copy, the products of ``_mv`` and ``_pair_widths`` would
    not be the cell's floats alone."""
    w = layer.weights
    b = layer.bias
    lo = np.ascontiguousarray(layer.in_box.lo)
    hi = np.ascontiguousarray(layer.in_box.hi)
    neg = np.minimum(w, 0.0)
    pos = np.maximum(w, 0.0)
    out_lo = _mv(neg, hi) + _mv(pos, lo) + b
    out_hi = _mv(neg, lo) + _mv(pos, hi) + b
    width = hi - lo
    cw = width[..., None, :]
    slack = np.where(w <= 0, 0.0, np.where(w <= 1, w * cw, cw))
    c = _mv(w, lo) + b
    r, s = _pair_widths(w, width, sums)
    zone = ZoneAbsConstants(out_lo, out_hi, c[..., :, None] - c[..., None, :] + r, slack)
    if not sums:
        return zone
    d = _mv(w, hi) + b
    sum_slack = np.where(w >= 0, 0.0, np.where(w >= -1, -w * cw, cw))
    with np.errstate(over="ignore"):
        sum_hi = c[..., :, None] + c[..., None, :] + s
        sum_lo = d[..., :, None] + d[..., None, :] - s
    # a sum bound that overflows bounds nothing: +inf above and -inf below,
    # never the other way round, so its negated entry is +inf, not -inf
    sum_hi[sum_hi == -np.inf] = np.inf
    sum_lo[sum_lo == np.inf] = -np.inf
    return OctAbsConstants(zone, sum_hi, sum_lo, sum_slack)


def _pair_widths(w: np.ndarray, width: np.ndarray, sums: bool):
    """R[..., i, k] = relu(w_i - w_k) . width and, with ``sums``,
    S[..., i, k] = relu(w_i + w_k) . width (else None), for widths of shape
    (..., m), in row blocks whose (rows, n, m) temporary holds at most
    ``_BLOCK`` floats; each block is shared by every cell's product."""
    n, m = w.shape
    r = np.empty(width.shape[:-1] + (n, n))
    s = np.empty_like(r) if sums else None
    col = width[..., None, :, None]  # each cell's widths as a column
    step = max(1, _BLOCK // max(n * m, 1))
    buf = np.empty((min(step, n), n, m))
    for start in range(0, n, step):
        rows = w[start : start + step, None, :]
        t = buf[: len(rows)]
        np.subtract(rows, w, out=t)
        np.maximum(t, 0.0, out=t)
        r[..., start : start + step, :] = np.matmul(t, col)[..., 0]
        if sums:
            np.add(rows, w, out=t)
            np.maximum(t, 0.0, out=t)
            s[..., start : start + step, :] = np.matmul(t, col)[..., 0]
    return r, s


def zone_external(k: ZoneAbsConstants, layer: AffineLayer) -> TropExternal:
    """External tropical form of the tight zone: m + n + 1 rows over
    variables (x_1..x_m, y_1..y_n).

    Row 0 caps everything: max_j (x_j - hi_j), max_i (y_i - out_hi_i) <= 0.
    Row per input j:  max(0, max_i (y_i - out_hi_i + slack_ij)) <= x_j - lo_j.
    Row per output i: max(0, max_j (x_j - hi_j + slack_ij),
                          max_i' (y_i' - d[i', i]))            <= y_i - out_lo_i.
    """
    m = layer.n_inputs
    size = 1 + m + layer.n_outputs
    xs, ys = slice(1, 1 + m), slice(1 + m, size)
    lhs = np.full((size, size), BOTTOM)
    rhs = np.full((size, size), BOTTOM)
    lhs[0, xs] = -layer.in_box.hi
    lhs[0, ys] = -k.out_hi
    lhs[1:, 0] = 0.0
    lhs[xs, ys] = k.slack.T - k.out_hi
    lhs[ys, xs] = k.slack - layer.in_box.hi
    lhs[ys, ys] = -k.ext_offset.T
    _fill_diagonal(rhs, np.concatenate([[0.0], -layer.in_box.lo, -k.out_lo]))
    return TropExternal(lhs, rhs)


def zone_internal(
    k: ZoneAbsConstants, layer: AffineLayer, eps: float = DEFAULT_EPS
) -> TropInternal:
    """Internal tropical form: the m + n + 1 extreme points of the zone,
    read off ``zone_dbm`` by ``tropical.zone_to_internal``.

    A is the all-lower corner; B_j raises input j to its max and each
    output by its slack; C_i is the graph vertex where output i peaks.
    Degenerate layers produce duplicates, which the filter removes.
    """
    return zone_to_internal(zone_dbm(k, layer), eps=eps)


def zone_dbm(k: ZoneAbsConstants, layer: AffineLayer) -> Dbm:
    """The tight zone as a closed DBM over (x_1..x_m, y_1..y_n); a stack of
    them on a stacked input box."""
    m = layer.n_inputs
    lo = layer.in_box.lo
    hi = layer.in_box.hi
    size = 1 + m + layer.n_outputs
    e = np.empty(lo.shape[:-1] + (size, size))
    xs = slice(1, 1 + m)
    ys = slice(1 + m, size)
    e[..., : 1 + m, : 1 + m] = layer.in_box.to_dbm().entries  # the input box's zone
    e[..., ys, 0] = k.out_hi
    e[..., 0, ys] = -k.out_lo
    e[..., ys, ys] = k.diff
    e[..., ys, xs] = k.out_hi[..., :, None] - lo[..., None, :] - k.slack
    e[..., xs, ys] = (hi[..., :, None] - k.out_lo[..., None, :]) - k.slack.swapaxes(-2, -1)
    _fill_diagonal(e, 0.0)
    return Dbm(e, closed=True)


def oct_constants(layer: AffineLayer) -> OctAbsConstants:
    return _constants(layer, sums=True)


def _oct_entries(k: OctAbsConstants, layer: AffineLayer, interface: bool = False) -> np.ndarray:
    """Raw coherent doubled matrix of the tight octagon, slots (+x, +y, -x, -y),
    or (+x, -x, +y, -y) with ``interface``; a stack of them on a stacked
    input box.

    The ++ block is the zone's difference block, ``zone_dbm``'s entries
    off slot 0, and the -- block its transpose; only the sum blocks are
    built here.  Every entry is the exact sup of the corresponding
    +-combination over the graph, so the matrix is strongly closed as it
    stands: the octagon chain's meet uses it with no closure pass.
    """
    m = layer.n_inputs
    dim = m + layer.n_outputs
    z, lo, hi = k.zone, layer.in_box.lo, layer.in_box.hi
    first = (0, 2 * m, m, m + dim) if interface else (0, m, dim, dim + m)  # of +x, +y, -x, -y
    px, py, mx, my = (slice(f, f + w) for f, w in zip(first, (m, dim - m) * 2))
    e = np.empty(lo.shape[:-1] + (2 * dim, 2 * dim))
    # sup of v_j - v_i at (+i, +j), and at (-j, -i): zone_dbm's blocks
    zone = zone_dbm(z, layer).entries
    slots = ((px, mx, slice(1, 1 + m)), (py, my, slice(1 + m, 1 + dim)))
    for (pi, mi, zi), (pj, mj, zj) in itertools.product(slots, repeat=2):
        e[..., pi, pj] = zone[..., zi, zj]
        e[..., mj, mi] = zone[..., zi, zj].swapaxes(-2, -1)
    # sup of v_i + v_j at (+i, -j)
    e[..., px, mx] = hi[..., :, None] + hi[..., None, :]
    e[..., py, my] = k.sum_hi
    e[..., py, mx] = z.out_hi[..., :, None] + hi[..., None, :] - k.sum_slack
    e[..., px, my] = (hi[..., :, None] + z.out_hi[..., None, :]) - k.sum_slack.swapaxes(-2, -1)
    # sup of -(v_i + v_j) at (-i, +j), as 0 - (sum): the same float as
    # -(sum) but +0.0 on a zero sum, so no -0.0 keeps the meet from mirroring
    e[..., mx, px] = 0.0 - (lo[..., :, None] + lo[..., None, :])
    e[..., my, py] = 0.0 - k.sum_lo
    e[..., my, px] = 0.0 - (z.out_lo[..., :, None] + lo[..., None, :] + k.sum_slack)
    e[..., mx, py] = 0.0 - ((lo[..., :, None] + z.out_lo[..., None, :]) + k.sum_slack.swapaxes(-2, -1))
    _fill_diagonal(e, 0.0)
    return e
