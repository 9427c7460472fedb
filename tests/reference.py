"""Reference constructions that only the tests run.

``troprelu`` holds what the analysis runs.  The functions here are oracles
and builders that tests compare against or draw inputs with; none of them
is on the analysis path, so they live beside the tests.

* ``internal_membership``: the one-point residuation test, a readable
  oracle for hull membership.  The analysis tests whole point sets at once
  through ``tropical._combines`` (``internal_membership_many``).
* ``intersect_external`` and ``emb_external``: build an inequality system
  by stacking and widening row systems.  ``network._external_system``
  writes each block of rows straight into the whole system instead.
* ``best_zone_of_points``: the tightest zone of a point set, which the
  tests use to draw closed zones.  The analysis never builds a zone from
  points.
* ``embed_oct``: an octagon placed in a larger doubled space.  The
  octagon chain grows its matrices in the meet and the ReLU image.
* ``oct_dbm``: the layer octagon wrapped as an ``OctDbm``.  The chain
  reads ``layers._oct_entries`` as a raw matrix in its interface layout.
* ``zone_external_explicit`` and ``zone_internal_explicit``: the paper's
  construction of the layer zone's m + n + 1 inequality rows and extreme
  points A, B_j and C_i, one row or point at a time.
  ``layers.zone_external`` writes the same rows by block, as ``zone_dbm``
  writes its entries, and ``layers.zone_internal`` reads the points off
  ``zone_dbm``.
* ``oct_entries_explicit``: every block of the layer octagon written out
  from the constants.  ``layers._oct_entries`` takes its difference blocks
  from ``zone_dbm``, and must match this bit for bit.
* ``reference_min_plus``: the min-plus product as one broadcast sum per
  block of rows, reduced over its middle axis.  ``dbm._min_plus`` computes
  the same floats in cache-sized blocks with the inner index outermost.
* ``reference_min_with_product``: the dense meet's h x h block as
  np.minimum(d, u ⊗ v), the whole product taken.  ``dbm._min_with_product``
  takes only the entries that a rank-one bound leaves open, and must match
  it bit for bit.
* ``reference_oct_relu_append``: the octagon ReLU image written by nine
  2-d fancy gathers and scatters.  ``network._oct_relu_append`` takes the
  slots it reads with one row take and one column take and fills the image
  by slices, and must match it bit for bit.
* ``reference_zone2d_corners``: a 2-d zone's vertices from eight clamped
  candidates, filtered with absolute 1e-9 tests, which hold only at
  ordinary magnitudes.  ``cli._zone2d_corners`` takes the zone's max-plus
  and min-plus extreme points instead.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from troprelu.dbm import INF, Dbm, OctDbm, _coherence_min, _fill_diagonal, _min_plus, _mirror
from troprelu.errors import BadIndex, DimensionMismatch, EmptyGenerators, EmptyInput
from troprelu.layers import AffineLayer, OctAbsConstants, ZoneAbsConstants, _oct_entries
from troprelu.maxplus import BOTTOM, DEFAULT_EPS
from troprelu.tropical import TropExternal, TropInternal, _combines, _residuals, extreme_filter


def internal_membership(
    poly: TropInternal, point: np.ndarray, eps: float = DEFAULT_EPS
) -> bool:
    """Residuation test for tropical affine hull membership.

    raw_j = min_k (p_k - g_{j,k}) is the largest coefficient keeping
    raw_j + g_j <= p.  Clamping at 0 gives the greatest *admissible*
    combination; the point is in the hull iff that combination reproduces
    it and the affine side condition max_j lam_j = 0 is reachable, i.e.
    some generator lies componentwise below the point (raw_j >= 0).
    """
    p = np.asarray(point, dtype=float)
    if poly.n_generators == 0:
        raise EmptyGenerators("membership test needs at least one generator")
    if p.shape != (poly.dim,):
        raise DimensionMismatch("point dimension does not match polyhedron")
    g = poly.generators
    return bool(_combines(p[None], g, _residuals(p[None], g), eps)[0])


def intersect_external(a: TropExternal, b: TropExternal) -> TropExternal:
    """Intersection: concatenation of the two row systems."""
    if a.dim != b.dim:
        raise DimensionMismatch("cannot intersect systems of different dimensions")
    return TropExternal(np.vstack([a.lhs, b.lhs]), np.vstack([a.rhs, b.rhs]))


def emb_external(ext: TropExternal, new_dims: int, position: int) -> TropExternal:
    """Embed an inequality system: new columns are -inf in every row."""
    if new_dims < 0 or position < 0 or position > ext.dim:
        raise BadIndex("bad embedding position or count")
    if new_dims == 0:
        return ext
    col = position + 1  # account for the constant slot
    fill_l = np.full((ext.n_rows, new_dims), BOTTOM)
    lhs = np.hstack([ext.lhs[:, :col], fill_l, ext.lhs[:, col:]])
    rhs = np.hstack([ext.rhs[:, :col], fill_l.copy(), ext.rhs[:, col:]])
    return TropExternal(lhs, rhs)


def best_zone_of_points(points: np.ndarray) -> Dbm:
    """Tightest zone containing a finite point set.

    Every entry is the sup of x_i - x_j over the set (with x_0 = 0), so the
    result is closed by construction and every finite constraint is
    attained by some input point.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0 or pts.shape[0] == 0:
        raise EmptyInput("best_zone_of_points needs at least one point")
    aug = np.hstack([np.zeros((pts.shape[0], 1)), pts])
    m = (aug[:, :, None] - aug[:, None, :]).max(axis=0)
    return Dbm(m, closed=True)


def embed_oct(o: OctDbm, old_vars: Sequence[int], new_dim: int) -> OctDbm:
    """Embed an octagon into a larger doubled space (0-based variable map)."""
    if len(old_vars) != o.dim:
        raise DimensionMismatch("variable map size does not match octagon")
    m = np.full((2 * new_dim, 2 * new_dim), INF)
    np.fill_diagonal(m, 0.0)
    slots = np.asarray([*old_vars, *[v + new_dim for v in old_vars]], dtype=int)
    m[np.ix_(slots, slots)] = o.entries
    return OctDbm(m, closed=o.closed)


def oct_dbm(k: OctAbsConstants, layer: AffineLayer) -> OctDbm:
    """Tight octagon as a coherent, strongly closed doubled DBM.

    Variable order (x_1..x_m, y_1..y_n); slot i is +v_i, slot m+n+i is
    -v_i.  The entries are those of ``_oct_entries``, strongly closed as
    built (see there), so no closure pass is run.
    """
    return OctDbm(_oct_entries(k, layer), closed=True)


def zone_external_explicit(k: ZoneAbsConstants, layer: AffineLayer) -> TropExternal:
    """External tropical form of the tight zone: m + n + 1 rows over
    variables (x_1..x_m, y_1..y_n).

    Row 0 caps everything: max_j (x_j - hi_j), max_i (y_i - out_hi_i) <= 0.
    Row per input j:  max(0, max_i (y_i - out_hi_i + slack_ij)) <= x_j - lo_j.
    Row per output i: max(0, max_j (x_j - hi_j + slack_ij),
                          max_i' (y_i' - d[i', i]))            <= y_i - out_lo_i.
    """
    m = layer.n_inputs
    n = layer.n_outputs
    lo = layer.in_box.lo
    hi = layer.in_box.hi
    d = k.ext_offset
    width = 1 + m + n
    lhs = np.full((1 + m + n, width), BOTTOM)
    rhs = np.full((1 + m + n, width), BOTTOM)
    # row 0
    lhs[0, 1 : 1 + m] = -hi
    lhs[0, 1 + m :] = -k.out_hi
    rhs[0, 0] = 0.0
    # input rows
    for j in range(m):
        r = 1 + j
        lhs[r, 0] = 0.0
        lhs[r, 1 + m :] = k.slack[:, j] - k.out_hi
        rhs[r, 1 + j] = -lo[j]
    # output rows
    for i in range(n):
        r = 1 + m + i
        lhs[r, 0] = 0.0
        lhs[r, 1 : 1 + m] = k.slack[i, :] - hi
        lhs[r, 1 + m :] = -d[:, i]
        rhs[r, 1 + m + i] = -k.out_lo[i]
    return TropExternal(lhs, rhs)


def zone_internal_explicit(
    k: ZoneAbsConstants, layer: AffineLayer, eps: float = DEFAULT_EPS
) -> TropInternal:
    """Internal tropical form: the m + n + 1 extreme points of the zone.

    A is the all-lower corner; B_j raises input j to its max and each
    output by its slack; C_i is the graph vertex where output i peaks.
    Degenerate layers produce duplicates, which the filter removes.
    """
    m = layer.n_inputs
    n = layer.n_outputs
    lo = layer.in_box.lo
    hi = layer.in_box.hi
    pts = np.empty((1 + m + n, m + n))
    pts[0] = np.concatenate([lo, k.out_lo])
    for j in range(m):
        x = lo.copy()
        x[j] = hi[j]
        pts[1 + j] = np.concatenate([x, k.out_lo + k.slack[:, j]])
    cov = k.covertex
    for i in range(n):
        pts[1 + m + i] = np.concatenate([lo + k.slack[i, :], cov[i, :]])
    return extreme_filter(TropInternal(pts), eps=eps)


def oct_entries_explicit(k: OctAbsConstants, layer: AffineLayer, interface: bool = False) -> np.ndarray:
    """``layers._oct_entries`` with every block written out from the
    constants: slots (+x, +y, -x, -y), or (+x, -x, +y, -y) with
    ``interface``; a stack of matrices on a stacked input box."""
    m = layer.n_inputs
    dim = m + layer.n_outputs
    z, lo, hi = k.zone, layer.in_box.lo, layer.in_box.hi
    first = (0, 2 * m, m, m + dim) if interface else (0, m, dim, dim + m)  # of +x, +y, -x, -y
    px, py, mx, my = (slice(f, f + w) for f, w in zip(first, (m, dim - m) * 2))
    e = np.empty(lo.shape[:-1] + (2 * dim, 2 * dim))
    # sup of v_j - v_i at (+i, +j), and at (-j, -i)
    e[..., px, px] = hi[..., :, None] - lo[..., None, :]
    e[..., py, py] = z.diff
    e[..., py, px] = z.out_hi[..., :, None] - lo[..., None, :] - z.slack
    e[..., px, py] = (hi[..., :, None] - z.out_lo[..., None, :]) - z.slack.swapaxes(-2, -1)
    e[..., mx, mx] = e[..., px, px].swapaxes(-2, -1)
    e[..., my, my] = e[..., py, py].swapaxes(-2, -1)
    e[..., mx, my] = e[..., py, px].swapaxes(-2, -1)
    e[..., my, mx] = e[..., px, py].swapaxes(-2, -1)
    # sup of v_i + v_j at (+i, -j)
    e[..., px, mx] = hi[..., :, None] + hi[..., None, :]
    e[..., py, my] = k.sum_hi
    e[..., py, mx] = z.out_hi[..., :, None] + hi[..., None, :] - k.sum_slack
    e[..., px, my] = (hi[..., :, None] + z.out_hi[..., None, :]) - k.sum_slack.swapaxes(-2, -1)
    # sup of -(v_i + v_j) at (-i, +j), as 0 - (sum)
    e[..., mx, px] = 0.0 - (lo[..., :, None] + lo[..., None, :])
    e[..., my, py] = 0.0 - k.sum_lo
    e[..., my, px] = 0.0 - (z.out_lo[..., :, None] + lo[..., None, :] + k.sum_slack)
    e[..., mx, py] = 0.0 - ((lo[..., :, None] + z.out_lo[..., None, :]) + k.sum_slack.swapaxes(-2, -1))
    _fill_diagonal(e, 0.0)
    return e


def reference_min_plus(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Min-plus product out[..., i, j] = min_k (p[..., i, k] + q[..., k, j]),
    +inf when k is empty, for one matrix pair or a stack of pairs (the same
    leading axes on both).  Blocks of rows, of whole cells when a cell's
    rows fit, keep each (cells, rows, k, j) temporary within 2^18 floats."""
    batch = p.shape[:-2]
    n = math.prod(batch)
    r, k, j = p.shape[-2], p.shape[-1], q.shape[-1]
    p3 = p.reshape((n, r, k))
    q3 = q.reshape((n, k, j))
    out = np.empty((n, r, j))
    rows = max(1, (1 << 18) // max(k * j, 1))
    cells = max(1, rows // max(r, 1))
    for c0 in range(0, n, cells):
        for r0 in range(0, r, rows):
            block = p3[c0 : c0 + cells, r0 : r0 + rows, :, None] + q3[c0 : c0 + cells, None]
            out[c0 : c0 + cells, r0 : r0 + rows] = block.min(axis=2, initial=INF)
    return out.reshape(batch + (r, j))


def reference_min_with_product(d: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """min(d, u ⊗ v) with the whole min-plus product taken."""
    return np.minimum(d, _min_plus(u, v))


def reference_oct_relu_append(o: OctDbm, h_vars: list, keep=None) -> OctDbm:
    """``network._oct_relu_append`` by fancy gathers and scatters: the copies
    g_i = max(0, h_i) of the ``h_vars`` appended to the strongly closed
    octagon ``o`` (or a stack), keeping the variables ``keep`` (default
    all)."""
    n = o.dim
    r = len(h_vars)
    keep = np.arange(n) if keep is None else np.asarray(keep, dtype=int)
    k = len(keep)
    size = k + r
    old = o.entries
    mir = _mirror(n)
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
    return OctDbm(_coherence_min(e, size), closed=True)


def reference_zone2d_corners(e: np.ndarray):
    """Vertices of {lo <= (u,v) <= hi, u-v <= c, v-u <= d}, counterclockwise."""
    u_lo, u_hi = -e[0, 1], e[1, 0]
    v_lo, v_hi = -e[0, 2], e[2, 0]
    duv, dvu = e[1, 2], e[2, 1]
    cand = [
        (u_lo, max(v_lo, u_lo - duv)),
        (min(u_hi, v_lo + duv), v_lo),
        (u_hi, max(v_lo, u_hi - duv)),
        (u_hi, min(v_hi, u_hi + dvu)),
        (min(u_hi, v_hi + duv), v_hi),
        (u_lo, min(v_hi, u_lo + dvu)),
        (max(u_lo, v_lo - dvu), v_lo),
        (max(u_lo, v_hi - dvu), v_hi),
    ]
    out = []
    for p in cand:
        if (
            u_lo - 1e-9 <= p[0] <= u_hi + 1e-9
            and v_lo - 1e-9 <= p[1] <= v_hi + 1e-9
            and p[0] - p[1] <= duv + 1e-9
            and p[1] - p[0] <= dvu + 1e-9
            and not any(abs(p[0] - q[0]) < 1e-9 and abs(p[1] - q[1]) < 1e-9 for q in out)
        ):
            out.append(p)
    center = (sum(p[0] for p in out) / len(out), sum(p[1] for p in out) / len(out))
    out.sort(key=lambda p: np.arctan2(p[1] - center[1], p[0] - center[0]))
    return out
