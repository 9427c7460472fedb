"""Zones as difference-bound matrices, plus the doubled encoding for octagons.

A zone over variables x_1..x_n is a conjunction of difference constraints
x_i - x_j <= c and interval bounds a_i <= x_i <= b_i.  It is stored as a
difference-bound matrix (DBM): an (n+1) x (n+1) matrix of upper bounds on
x_i - x_j, where slot 0 is a phantom constant variable x_0 = 0, so that
row/column 0 carries the interval bounds:

    entries[i, 0] = upper bound of x_i          entries[0, i] = -(lower bound)

Missing constraints are ``+inf``.  The closure (all-pairs shortest paths)
is the smallest DBM with the same concretization; after closure every
finite constraint is saturated by some point of the zone.  Emptiness shows
up as a negative diagonal entry during closure and is returned as the
``EMPTY`` value, never raised.

The meet of two closed matrices that share only a few slots (a carried
zone and one layer's zone, which share the constant slot and the layer's
inputs) is closed by ``_interface_close``: min-plus products through the
shared slots, no Floyd-Warshall pass.  ``dbm_close`` and ``oct_close``
close everything else.

Octagons add constraints on sums x_i + x_j.  They are encoded as a DBM
over 2n doubled variables (+x_1..+x_n, -x_1..-x_n) with *no* constant
slot: a unary bound x_i <= b is written as (+x_i) - (-x_i) <= 2b.  The
encoding must stay coherent: the bound on (+x_i) - (-x_j) equals the bound
on (+x_j) - (-x_i), both meaning x_i + x_j <= c.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .errors import DimensionMismatch, EmptyInput, UnboundedVariable
from .maxplus import DEFAULT_EPS

INF = float("inf")


class _EmptyZone:
    """Singleton marker for the empty zone (bottom)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "EMPTY"


EMPTY = _EmptyZone()


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with finite per-variable intervals [lo_j, hi_j]."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise DimensionMismatch("box bounds must be 1-d arrays of equal length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise UnboundedVariable("box bounds must be finite")
        if (lo > hi).any():
            raise EmptyInput("box has lo > hi; empty boxes are not representable")

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def width(self) -> np.ndarray:
        return self.hi - self.lo

    def contains(self, points: np.ndarray, eps: float = DEFAULT_EPS) -> np.ndarray:
        """Boolean mask over points (rows) lying in the box within eps."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return ((pts >= self.lo - eps) & (pts <= self.hi + eps)).all(axis=1)

    def intersect(self, other: "Box") -> Union["Box", _EmptyZone]:
        if other.dim != self.dim:
            raise DimensionMismatch("box dimensions differ")
        lo = np.maximum(self.lo, other.lo)
        hi = np.minimum(self.hi, other.hi)
        if (lo > hi).any():
            return EMPTY
        return Box(lo, hi)

    def to_dbm(self) -> "Dbm":
        """The (already closed) DBM of the box."""
        n = self.dim
        m = np.full((n + 1, n + 1), INF)
        np.fill_diagonal(m, 0.0)
        m[1:, 0] = self.hi
        m[0, 1:] = -self.lo
        # pairwise sups over the product set
        m[1:, 1:] = self.hi[:, None] - self.lo[None, :]
        np.fill_diagonal(m, 0.0)
        return Dbm(m, closed=True)

    def vertices(self) -> Iterator[np.ndarray]:
        """All 2^dim corners (use only for small dimensions)."""
        n = self.dim
        for mask in range(1 << n):
            v = self.lo.copy()
            for j in range(n):
                if mask >> j & 1:
                    v[j] = self.hi[j]
            yield v

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=(count, self.dim))


@dataclass(frozen=True)
class Dbm:
    """Difference-bound matrix over n variables plus the constant slot 0.

    ``entries[i, j]`` is the upper bound on x_i - x_j (``+inf`` if
    unconstrained).  ``closed`` records whether the matrix is known to be
    shortest-path closed; operations that need closure check the flag.
    Instances are immutable by convention; operations return new values.
    """

    entries: np.ndarray
    closed: bool = False

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise DimensionMismatch("DBM must be a square matrix")

    @property
    def dim(self) -> int:
        """Number of variables, excluding the constant slot."""
        return self.entries.shape[0] - 1

    def upper(self, i: int) -> float:
        """Upper bound of x_i (1-based variable slot)."""
        return float(self.entries[i, 0])

    def lower(self, i: int) -> float:
        return float(-self.entries[0, i])

    def slice(self, slots: Sequence[int]) -> "Dbm":
        """Sub-DBM on the given variable slots (1-based), keeping slot 0.

        Projection of a closed zone is exact: shortest paths through the
        dropped variables are already folded into the kept entries.
        """
        idx = np.asarray([0, *slots], dtype=int)
        return Dbm(self.entries[np.ix_(idx, idx)].copy(), closed=self.closed)


MaybeDbm = Union[Dbm, _EmptyZone]


def _floyd_warshall(m: np.ndarray, pivots: Optional[Sequence[int]] = None) -> np.ndarray:
    for k in range(m.shape[0]) if pivots is None else pivots:
        np.minimum(m, m[:, k, None] + m[None, k, :], out=m)
    return m


def _shortest_paths(
    entries: np.ndarray, eps: float, pivots: Optional[Sequence[int]] = None, n_oct: int = 0
) -> Optional[np.ndarray]:
    """Floyd-Warshall over ``pivots`` (default all slots) on a copy of
    ``entries`` with its diagonal clamped to <= 0 (and made coherent if
    ``n_oct`` gives an octagon's variable count); None if a cycle weighs
    less than -eps.

    On a flat set (a point box, a dead unit) rounding leaves zero-weight
    cycles a few ulps negative, and the pass doubles that at every pivot.
    So a pass that ends with a negative diagonal is redone on entries
    widened (soundly) by size ulps of the largest one, more than rounding
    can take off a path; a cycle still below -eps is real.
    """

    def start(slack: float) -> np.ndarray:
        m = entries + slack if slack else entries.copy()
        np.fill_diagonal(m, np.minimum(np.diagonal(m), 0.0))
        return _coherence_min(m, n_oct) if n_oct else m

    m = _floyd_warshall(start(0.0), pivots)
    if (np.diagonal(m) >= 0.0).all():
        return m
    finite = np.abs(entries[np.isfinite(entries)])
    m = _floyd_warshall(start(len(m) * np.spacing(finite.max() if finite.size else 0.0)), pivots)
    if (np.diagonal(m) < -eps).any():
        return None
    return m


def dbm_close(d: Dbm, eps: float = DEFAULT_EPS) -> MaybeDbm:
    """Shortest-path closure; EMPTY iff a cycle weighs less than -eps."""
    m = _shortest_paths(d.entries, eps)
    if m is None:
        return EMPTY
    np.fill_diagonal(m, 0.0)
    return Dbm(m, closed=True)


def dbm_intersect(a: Dbm, b: Dbm, eps: float = DEFAULT_EPS) -> MaybeDbm:
    """Entrywise min followed by closure (zone intersection)."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"cannot intersect DBMs of dims {a.dim} and {b.dim}")
    return dbm_close(Dbm(np.minimum(a.entries, b.entries)), eps=eps)


def dbm_box(d: Dbm) -> Box:
    """Extract per-variable bounds from a closed, nonempty DBM."""
    if not d.closed:
        from .errors import NotClosed

        raise NotClosed("dbm_box needs a closed DBM")
    hi = d.entries[1:, 0]
    lo = -d.entries[0, 1:]
    if not (np.isfinite(hi).all() and np.isfinite(lo).all()):
        raise UnboundedVariable("zone has an unbounded variable")
    return _bounds_box(lo, hi)


def _bounds_box(lo: np.ndarray, hi: np.ndarray) -> Box:
    """Box of bounds read off a closed matrix, taking lo > hi within
    rounding as a point.

    Closure rounds to nearest, so a zero-width variable can come out with
    lo a few ulps above hi.  An inversion of at most
    DEFAULT_EPS * (1 + max(|lo|, |hi|)) becomes [min(lo, hi), max(lo, hi)],
    which only widens the bounds; a larger one still raises EmptyInput.
    """
    tol = DEFAULT_EPS * (1.0 + np.maximum(np.abs(lo), np.abs(hi)))
    point = (lo > hi) & (lo - hi <= tol)
    return Box(np.where(point, hi, lo), np.where(point, lo, hi))


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


def dbm_contains(d: Dbm, points: np.ndarray, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Boolean mask over points (rows) satisfying every finite constraint."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != d.dim:
        raise DimensionMismatch("point dimension does not match DBM")
    aug = np.hstack([np.zeros((pts.shape[0], 1)), pts])
    ok = np.ones(pts.shape[0], dtype=bool)
    m = d.entries
    for i in range(m.shape[0]):
        bound = m[i]
        finite = np.isfinite(bound)
        if not finite.any():
            continue
        diffs = aug[:, i, None] - aug[:, finite]
        ok &= (diffs <= bound[finite] + eps).all(axis=1)
    return ok


def embed_dbm(d: Dbm, old_slots: Sequence[int], new_dim: int) -> Dbm:
    """Embed a DBM into a larger space, leaving new variables unconstrained.

    ``old_slots[k]`` is the 1-based slot in the new space of the k-th
    variable of ``d``.  The result stays closed if ``d`` was: +inf columns
    cannot shorten any path.
    """
    if len(old_slots) != d.dim:
        raise DimensionMismatch("slot map size does not match DBM dimension")
    m = np.full((new_dim + 1, new_dim + 1), INF)
    np.fill_diagonal(m, 0.0)
    idx = np.asarray([0, *old_slots], dtype=int)
    m[np.ix_(idx, idx)] = d.entries
    return Dbm(m, closed=d.closed)


# ---------------------------------------------------------------------------
# Octagons: coherent doubled DBMs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OctDbm:
    """Octagon over n variables as a DBM on 2n slots, no constant slot.

    Slot i (0-based, i < n) is +x_i; slot n+i is -x_i.  ``entries[p, q]``
    bounds slot_p - slot_q, so mixed entries bound sums:
    entries[i, n+j] is the upper bound on x_i + x_j.  Unary bounds use the
    doubling trick x_i <= b  <=>  (+x_i) - (-x_i) <= 2b.
    """

    entries: np.ndarray
    closed: bool = False

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2 != 0:
            raise DimensionMismatch("octagon DBM must be square with even size")

    @property
    def dim(self) -> int:
        """Number of underlying variables (half the slot count)."""
        return self.entries.shape[0] // 2

    def mirror(self, slot: int) -> int:
        n = self.dim
        return slot + n if slot < n else slot - n

    def box(self) -> Box:
        n = self.dim
        hi = np.diagonal(self.entries[:n, n:]) / 2.0
        lo = -np.diagonal(self.entries[n:, :n]) / 2.0
        if not (np.isfinite(hi).all() and np.isfinite(lo).all()):
            raise UnboundedVariable("octagon has an unbounded variable")
        return _bounds_box(lo, hi)

    def to_bounded_dbm(self) -> Dbm:
        """View the doubled slots as a plain zone over 2n variables.

        Interval bounds for the constant slot come from halving the
        mirror-diagonal entries (x_i <= b stored as 2b on (+x_i) - (-x_i)).
        """
        n2 = 2 * self.dim
        m = np.full((n2 + 1, n2 + 1), INF)
        m[1:, 1:] = self.entries
        for p in range(n2):
            q = self.mirror(p)
            m[p + 1, 0] = self.entries[p, q] / 2.0
            m[0, p + 1] = self.entries[q, p] / 2.0
        np.fill_diagonal(m, 0.0)
        out = dbm_close(Dbm(m))
        if out is EMPTY:
            raise EmptyInput("octagon is empty")
        return out


def _mirror(n: int) -> np.ndarray:
    """Slot permutation p -> p̄ of a doubled space over n variables."""
    return np.concatenate([np.arange(n, 2 * n), np.arange(0, n)])


def _coherence_min(m: np.ndarray, n: int) -> np.ndarray:
    # entries[p, q] and entries[mirror(q), mirror(p)] encode the same fact
    perm = _mirror(n)
    return np.minimum(m, m[np.ix_(perm, perm)].T)


def oct_close(
    o: OctDbm, eps: float = DEFAULT_EPS, changed: Optional[Sequence[int]] = None
) -> Union[OctDbm, _EmptyZone]:
    """Strong closure of a coherent doubled DBM in one pass.

    One Floyd-Warshall pass gives the shortest-path closure, and one
    half-sum strengthening m[p,q] <- min(m[p,q], (m[p, p̄] + m[q̄, q]) / 2)
    then makes it strongly closed: for real-valued octagons a closed matrix
    stays closed under that step (Bagnara, Hill & Zaffanella, MSCS 2009;
    Miné, HOSC 2006).  A cycle below -eps after either step means EMPTY.

    ``changed`` lists the variables (0-based) whose rows and columns may
    have changed; the pass then pivots only on their two slots each.  That
    is the full closure whenever every other slot u is already a satisfied
    pivot, m[p, q] <= m[p, u] + m[u, q] for all p, q: each shortest path
    can then drop its unchanged intermediate vertices.  It holds when the
    unchanged slots are strongly closed among themselves and no changed
    entry exceeds its paths through them, as for the clamped copies that
    ``network._oct_relu_append`` appends.  Without ``changed`` every slot
    pivots.
    """
    n = o.dim
    pivots = None
    if changed is not None:
        var = np.asarray(changed, dtype=int)
        pivots = np.sort(np.concatenate([var, var + n]))
    m = _shortest_paths(o.entries, eps, pivots, n_oct=n)
    if m is not None:
        m = _strengthen(m, n, eps)
    return EMPTY if m is None else OctDbm(m, closed=True)


def _strengthen(m: np.ndarray, n: int, eps: float) -> Optional[np.ndarray]:
    """The tail of ``oct_close``: half-sum strengthening and coherence of a
    shortest-path closed doubled matrix over n variables, in place where it
    can; None if a diagonal entry then falls below -eps."""
    perm = _mirror(n)
    unary = m[np.arange(2 * n), perm]  # m[p, p̄], twice the bound of slot p
    np.minimum(m, (unary[:, None] + unary[perm][None, :]) / 2.0, out=m)
    m = _coherence_min(m, n)
    if (np.diagonal(m) < -eps).any():
        return None
    # bounds of a flat direction (a point box, a dead unit) can cross by
    # rounding, m[p, q] + m[q, p] < 0 within eps; the next pass would
    # double that negative cycle at every pivot, so widen such a pair to
    # the interval between its two bounds, as ``_bounds_box`` does
    np.maximum(m, -m.T, out=m)
    np.fill_diagonal(m, 0.0)
    return m


def _min_plus(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Min-plus product out[i, j] = min_k (p[i, k] + q[k, j]), +inf when k
    is empty, in row blocks whose (rows, k, j) temporary holds at most 2^18
    floats."""
    out = np.empty((p.shape[0], q.shape[1]))
    step = max(1, (1 << 18) // max(q.size, 1))
    for start in range(0, p.shape[0], step):
        block = p[start : start + step, :, None] + q[None]
        out[start : start + step] = block.min(axis=1, initial=INF)
    return out


def _interface_close(
    a: np.ndarray, c: np.ndarray, b: np.ndarray, eps: float
) -> Optional[np.ndarray]:
    """Closure of the meet of two closed matrices that share only the
    interface slots C.

    ``a`` is closed over X and C, with C at positions ``c``; ``b`` is closed
    over C and Y, C first in the order of ``c``, and its C block is no
    tighter than a's (it is built from a's own bounds; the meet still takes
    the entrywise min there, so rounding cannot loosen it).  Returns the
    closed meet E over a's slots followed by Y, with ⊗ the min-plus product:

        E[X∪C, X∪C] = a             E[X∪C, Y] = a[:, C] ⊗ b[C, Y]
        E[Y, X∪C] = b[Y, C] ⊗ a[C, :]
        E[Y, Y] = min(b[Y, Y], b[Y, C] ⊗ E[C, Y])

    A path of the meet alternates between a-edges and b-edges, and
    consecutive edges on one closed side collapse into one.  A detour
    through Y between two C slots is a b-path, never shorter than a's edge,
    so a shortest path needs at most one C hop on each side of Y.  Returns
    None if a cycle through Y weighs less than -eps; a diagonal entry
    within eps of 0 is set to 0.
    """
    p, k = a.shape[0], len(c)
    e = np.empty((p + b.shape[0] - k, p + b.shape[0] - k))
    e[:p, :p] = a
    cc = np.ix_(c, c)
    e[cc] = np.minimum(a[cc], b[:k, :k])
    e[:p, p:] = _min_plus(e[:p, c], b[:k, k:])
    e[p:, :p] = _min_plus(b[k:, :k], e[c, :p])
    yy = np.minimum(b[k:, k:], _min_plus(b[k:, :k], e[c, p:]))
    if (np.diagonal(yy) < -eps).any():
        return None
    np.fill_diagonal(yy, 0.0)
    e[p:, p:] = yy
    return e


def embed_oct(o: OctDbm, old_vars: Sequence[int], new_dim: int) -> OctDbm:
    """Embed an octagon into a larger doubled space (0-based variable map)."""
    if len(old_vars) != o.dim:
        raise DimensionMismatch("variable map size does not match octagon")
    m = np.full((2 * new_dim, 2 * new_dim), INF)
    np.fill_diagonal(m, 0.0)
    slots = np.asarray([*old_vars, *[v + new_dim for v in old_vars]], dtype=int)
    m[np.ix_(slots, slots)] = o.entries
    return OctDbm(m, closed=o.closed)
