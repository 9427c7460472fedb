"""Tropical polyhedra in generator (internal) and inequality (external) form.

A tropical polyhedron in internal form is the tropical convex hull of
finitely many generators g_1..g_p: the set of points max_j (lam_j + g_j)
with all lam_j <= 0 and at least one lam_j = 0 (tropical affine
combinations).  In external form it is the solution set of rows

    max(l_0, l_1 + x_1, ..., l_k + x_k)  <=  max(r_0, r_1 + x_1, ...)

where slot 0 of each side is the constant term and absent terms are -inf.

Rays are not represented: the analysis starts from a finite input box and
every affine layer keeps its outputs bounded, so every variable it tracks
has finite bounds and all generators have finite coordinates.

The bridge to zones: a closed bounded zone over n variables equals the
hull of n + 1 explicit points (``zone_to_internal``), and the tightest
zone around a hull comes from the residuated matrix A/A with
(A/A)_{i,j} = min_k (a_{i,k} - a_{j,k}) over homogenized generator
columns (``internal_to_zone``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dbm import Dbm
from .errors import (
    BadIndex,
    DimensionMismatch,
    EmptyGenerators,
    InfiniteEntry,
    NotClosed,
)
from .maxplus import BOTTOM, DEFAULT_EPS


@dataclass(frozen=True)
class TropInternal:
    """Generator list of a tropical polyhedron; rows are extreme points."""

    generators: np.ndarray

    def __post_init__(self):
        g = np.atleast_2d(np.asarray(self.generators, dtype=float))
        object.__setattr__(self, "generators", g)
        if g.ndim != 2:
            raise DimensionMismatch("generators must form a 2-d array")

    @property
    def dim(self) -> int:
        return self.generators.shape[1]

    @property
    def n_generators(self) -> int:
        return self.generators.shape[0]


@dataclass(frozen=True)
class TropExternal:
    """Row system of tropical affine inequalities lhs <= rhs.

    ``lhs`` and ``rhs`` have shape (rows, dim + 1); column 0 is the
    constant term, column j+1 the coefficient of variable j.  Absent terms
    are -inf.
    """

    lhs: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        lhs = np.asarray(self.lhs, dtype=float)
        rhs = np.asarray(self.rhs, dtype=float)
        if lhs.ndim == 1:
            lhs = lhs.reshape(1, -1)
        if rhs.ndim == 1:
            rhs = rhs.reshape(1, -1)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        if lhs.ndim != 2 or lhs.shape != rhs.shape or lhs.shape[1] < 1:
            raise DimensionMismatch("lhs and rhs must be matching (rows, dim+1) arrays")

    @property
    def dim(self) -> int:
        return self.lhs.shape[1] - 1

    @property
    def n_rows(self) -> int:
        return self.lhs.shape[0]

    @staticmethod
    def empty(dim: int) -> "TropExternal":
        return TropExternal(np.zeros((0, dim + 1)), np.zeros((0, dim + 1)))


def _eval_rows(coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Max-evaluate affine rows at points: result[r, p] for row r, point p."""
    aug = np.hstack([np.zeros((points.shape[0], 1)), points])
    # -inf coefficients stay -inf after adding finite coordinates
    return (coeffs[:, None, :] + aug[None, :, :]).max(axis=2).T


def external_membership_many(
    ext: TropExternal, points: np.ndarray, eps: float = DEFAULT_EPS
) -> np.ndarray:
    """Vectorised membership mask over point rows (block processed)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != ext.dim:
        raise DimensionMismatch("point dimension does not match system")
    if ext.n_rows == 0:
        return np.ones(pts.shape[0], dtype=bool)
    per_point = max(ext.n_rows * (ext.dim + 1), 1)
    block = max(1, min(pts.shape[0], 4_000_000 // per_point))
    out = np.empty(pts.shape[0], dtype=bool)
    for start in range(0, pts.shape[0], block):
        p = pts[start : start + block]
        lhs = _eval_rows(ext.lhs, p)
        rhs = _eval_rows(ext.rhs, p)
        out[start : start + block] = (lhs <= rhs + eps).all(axis=1)
    return out


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


def _block_rows(per_row: int) -> int:
    """Rows per block so that a (rows, ...) temporary holds at most 2^16
    floats, which stays in cache."""
    return max(1, (1 << 16) // max(per_row, 1))


def _residuals(points: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """raw[i, j] = min_k (points[i, k] - gens[j, k]), in row blocks.

    The min runs over k one coordinate at a time, each step an elementwise
    min of two (i, j) planes, rather than over a trailing axis of length d
    (the 5 coordinates of a report), which reduces with one strided step
    per element and at a speed that depends on whether the points come C-
    or F-ordered.  min is exact, so the order of the reduction changes no
    value.
    """
    # coordinate k of every row as one contiguous run, whatever the input layout
    pts, gt = np.ascontiguousarray(points.T), np.ascontiguousarray(gens.T)
    raw = np.full((points.shape[0], gens.shape[0]), np.inf)
    step = _block_rows(gens.shape[0])
    for start in range(0, points.shape[0], step):
        block = raw[start : start + step]
        diff = np.empty_like(block)
        for pk, gk in zip(pts[:, start : start + step, None], gt):
            np.minimum(block, np.subtract(pk, gk, out=diff), out=block)
    return raw


def _combines(points: np.ndarray, gens: np.ndarray, raw: np.ndarray, eps: float) -> np.ndarray:
    """The test of ``internal_membership`` for every point row at once, from
    ``raw = _residuals(points, gens)``; a -inf residual leaves that
    generator out of that point's hull.

    One coordinate k at a time (see ``_residuals``): recon[i] = max_j
    (gens[j, k] + lam[i, j]) reduces over j, the contiguous axis of an
    (i, j) plane, and a point fails when |recon[i] - points[i, k]| > eps at
    some k.  max is exact, and abs hides the one thing the order could
    change, the sign of a zero.
    """
    out = raw.max(axis=1) >= -eps
    lam = np.minimum(0.0, raw)
    pts, gt = np.ascontiguousarray(points.T), np.ascontiguousarray(gens.T)
    step = _block_rows(gens.shape[0])
    for start in range(0, points.shape[0], step):
        lb, ok = lam[start : start + step], out[start : start + step]
        plane = np.empty_like(lb)
        for pk, gk in zip(pts[:, start : start + step], gt):
            recon = np.add(lb, gk, out=plane).max(axis=1)
            ok &= np.abs(recon - pk) <= eps
    return out


def internal_membership_many(
    poly: TropInternal, points: np.ndarray, eps: float = DEFAULT_EPS
) -> np.ndarray:
    """Vectorised residuation membership over point rows.

    Processed in blocks to keep the (points x generators x dim) temporary
    bounded.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if poly.n_generators == 0:
        raise EmptyGenerators("membership test needs at least one generator")
    if pts.shape[1] != poly.dim:
        raise DimensionMismatch("point dimension does not match polyhedron")
    return _combines(pts, poly.generators, _residuals(pts, poly.generators), eps)


def zone_to_internal(zone: Dbm, eps: float = DEFAULT_EPS) -> TropInternal:
    """Generator form of a closed bounded zone: n + 1 explicit points.

    The lower corner A = (-c_{0,1}, ..., -c_{0,n}) plus, for each variable
    k, the point B_k = (c_{k,0} - c_{k,1}, ..., c_{k,0} - c_{k,n}) where
    x_k sits at its maximum.  Closedness makes these points feasible and
    their hull exactly the zone.  They go through ``extreme_filter``.
    """
    m = zone.entries
    if not zone.closed:
        raise NotClosed("zone_to_internal needs a closed DBM")
    if not np.isfinite(m).all():
        raise InfiniteEntry("zone_to_internal needs finite entries (bounded zone)")
    return extreme_filter(TropInternal(_zone_points(m, np.arange(1, m.shape[-1]))[0]), eps=eps)


def _zone_points(m: np.ndarray, cols, clamped: int = 0) -> np.ndarray:
    """The points of ``zone_to_internal``, unfiltered, of a closed bounded
    zone m or of each zone of a stack, on the 1-based slots ``cols``, the
    last ``clamped`` of them clamped at 0: a (zones, n + 1, len(cols))
    array, the form in which a result keeps its last pre-activation zone."""
    m = m.reshape((-1,) + m.shape[-2:])
    points = np.concatenate([-m[:, :1, cols], m[:, 1:, :1] - m[:, 1:, cols]], axis=1)
    points[..., len(cols) - clamped :] = np.maximum(points[..., len(cols) - clamped :], 0.0)
    return points


def internal_to_zone(poly: TropInternal) -> Dbm:
    """Smallest zone containing the hull, via the residuated matrix A/A.

    Generators are homogenized (a 0 appended), placed as columns of A, and
    (A/A)_{i,j} = min_k (a_{i,k} - a_{j,k}) gives the valid lower bounds
    x_i - x_j >= (A/A)_{i,j}; row/column n+1 carries the interval bounds.
    """
    if poly.n_generators == 0:
        raise EmptyGenerators("internal_to_zone needs at least one generator")
    cols = np.vstack([poly.generators.T, np.zeros((1, poly.n_generators))])
    n1 = cols.shape[0]
    quot = _residuals(cols, cols)
    # x_i - x_j >= quot[i, j]  <=>  DBM bound on x_j - x_i is -quot[i, j];
    # the homogenization row n1-1 plays the constant slot 0.
    order = np.concatenate([[n1 - 1], np.arange(n1 - 1)])
    sub = quot[np.ix_(order, order)]
    return Dbm(-sub.T, closed=True)


def _distinct(raw: np.ndarray, eps: float) -> list:
    """Row indices without near-duplicates (max-abs within eps), first
    occurrence kept, in order, from ``raw = _residuals(g, g)``: rows i and
    j differ by max(-raw[i, j], -raw[j, i]) in max-abs.

    A row with no near-duplicate among the rows before it is kept whatever
    the others do, so all such rows are kept at once; only the rows that
    have one are scanned, in order, each kept iff none of the rows kept
    before it is near, which is the greedy first-occurrence scan.
    """
    near = np.tril(np.minimum(raw, raw.T) >= -eps, -1)
    keep = ~near.any(axis=1)
    for i in np.flatnonzero(~keep):
        keep[i] = not near[i, keep].any()
    return np.flatnonzero(keep).tolist()


def _first_distinct(g: np.ndarray, eps: float) -> list:
    """Row indices of g without near-duplicates (max-abs within eps), first
    occurrence kept, in order."""
    return _distinct(_residuals(g, g), eps)


def extreme_filter(poly: TropInternal, eps: float = DEFAULT_EPS) -> TropInternal:
    """Minimal generating set: drop generators the others already combine to.

    Duplicates (within eps) keep the first occurrence.  Every remaining
    generator is then tested against all the others at once: a generator
    that is not extreme lies in the hull of the extreme ones, which no test
    removes, so the redundant ones can all go together.  Tolerance can make
    two generators each combine from a set holding the other; when some
    dropped generator does not combine from the kept ones, the dropped ones
    are tested again one at a time, last first, against the generators
    still kept, which keeps one of such a pair.
    """
    g = poly.generators
    if g.shape[0] <= 1:
        return poly
    raw = _residuals(g, g)
    keep = _distinct(raw, eps)
    g, raw = g[keep], raw[np.ix_(keep, keep)]
    np.fill_diagonal(raw, -np.inf)
    drop = _combines(g, g, raw, eps)
    alive = ~drop
    if drop.any() and not (
        alive.any() and _combines(g[drop], g[alive], raw[np.ix_(drop, alive)], eps).all()
    ):
        alive[:] = True
        for i in np.flatnonzero(drop)[::-1]:
            alive[i] = False
            if not (alive.any() and _combines(g[[i]], g[alive], raw[np.ix_([i], alive)], eps)[0]):
                alive[i] = True
    return TropInternal(g[alive])


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


def proj_internal(
    poly: TropInternal, keep: Sequence[int], eps: float = DEFAULT_EPS
) -> TropInternal:
    """Project onto the kept coordinates (projected generators generate)."""
    keep = list(keep)
    if any(k < 0 or k >= poly.dim for k in keep):
        raise BadIndex("projection index out of range")
    return extreme_filter(TropInternal(poly.generators[:, keep]), eps=eps)
