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
shared slots, no Floyd-Warshall pass.  When the carried matrix factors
through the constant slot, a[i, j] = a[i, 0] + a[0, j] off the diagonal
(a box: every first layer, and every layer in box and external mode),
every path through it can go by slot 0, so the meet takes two thin
products, one row and one column, in place of three dense ones.  The
diagonal does not factor, so the shared slots' own rows and columns also
take the layer's direct bounds.  The test is exact, bit for bit, and made
for each matrix of a stack, so a stacked cell takes the path it takes
alone.  An octagon meet is coherent (below): a, b's C block and the pair
b[C, Y], b[Y, C] satisfy m[p, q] == m[q̄, p̄], so E[y, x] == E[x̄, ȳ]
and the meet copies one off-diagonal block from the other instead of
taking its product.  That is exact: each term b[y, c] + e[c, x] of the
dropped product is the term e[x̄, c̄] + b[c̄, ȳ] of the kept one with its
operands swapped, float addition commutes, and the min runs over the same
values.  The test for it is also exact and takes the three products on
any mismatch.  The dense meet's product b[Y, C] ⊗ E[C, Y] is taken only
where a bound leaves it open (``_min_with_product``): no term rounds
below min_c b[y, c] + min_c E[c, y'], so where b[y, y'] lies strictly
below that sum the min is b[y, y'], and the other entries' products are
taken alone, each reduced as in the whole product.  A closed zone met
with a box (an assertion's input restriction) is closed by
``_box_meet_close``: every edge of a box factors through slot 0, so one
column and one row product through slot 0 close the meet.  ``dbm_close`` closes everything else; ``oct_close``, the
strong closure of any octagon matrix, is the tests' reference, since the
octagon chain builds its matrices strongly closed and runs no closure pass.

One rounding rule serves every closure here and the octagon chain's meet
(``network._oct_step``), in ``_widen_and_redo``.  eps is absolute, and
rounding alone can leave a cycle of a nonempty matrix a few ulps of its
largest entry below 0 (one ulp of 1e7 is 1.9e-9, more than the default
eps).  So a matrix whose diagonal falls low is redone once on operands
widened (soundly) by size ulps of the largest finite entry of its
operands, more than rounding can take off a cycle, and a cycle still
below -eps is real: the matrix is empty.  The other matrices of a stack
keep their bits.  Each closure says what "low" is and which operands
widen: Floyd-Warshall (``_shortest_paths``) and the box meet
(``_box_meet_close``) redo a diagonal below 0, since their passes double
a negative cycle, and widen every operand; the layer meets
(``_interface_close``, and the octagon's, whose strengthening flags it)
redo a diagonal below -eps and widen only the layer's matrix.

A ``Box``, a ``Dbm`` and an ``OctDbm`` may carry leading axes, one box
or matrix per grid cell: lo and hi of shape (C, n), entries of shape
(C, n+1, n+1) or (C, 2n, 2n).  The layer loop analyses a grid in that
stacked form in either domain, every cell's arithmetic the same as
alone.  ``Box.dim``, ``Box.width``, ``Box.to_dbm``, ``Dbm.dim``,
``Dbm.slice``, ``OctDbm.dim``, ``OctDbm.box``, ``dbm_box``,
``embed_dbm``, ``oct_close``, ``_strengthen``, ``_interface_close``,
``_box_meet_close`` and ``_shortest_paths`` read stacks; every other
method and function, ``OctDbm.to_bounded_dbm`` among them, takes a single
box or matrix.

Octagons add constraints on sums x_i + x_j.  They are encoded as a DBM
over 2n doubled variables (+x_1..+x_n, -x_1..-x_n) with *no* constant
slot: a unary bound x_i <= b is written as (+x_i) - (-x_i) <= 2b.  The
encoding must stay coherent: the bound on (+x_i) - (-x_j) equals the bound
on (+x_j) - (-x_i), both meaning x_i + x_j <= c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .errors import DimensionMismatch, EmptyInput, UnboundedVariable
from .maxplus import DEFAULT_EPS, check_eps

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
    """Axis-aligned box with finite per-variable intervals [lo_j, hi_j]
    (leading axes: a stack of boxes, see the module docstring)."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo.shape != hi.shape or lo.ndim < 1:
            raise DimensionMismatch("box bounds must be arrays of equal shape")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise UnboundedVariable("box bounds must be finite")
        if (lo > hi).any():
            raise EmptyInput("box has lo > hi; empty boxes are not representable")

    @property
    def dim(self) -> int:
        return self.lo.shape[-1]

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
        m = np.empty(self.lo.shape[:-1] + (n + 1, n + 1))
        m[..., 1:, 0] = self.hi
        m[..., 0, 1:] = -self.lo
        # pairwise sups over the product set
        m[..., 1:, 1:] = self.hi[..., :, None] - self.lo[..., None, :]
        _fill_diagonal(m, 0.0)
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
        if m.ndim < 2 or m.shape[-2] != m.shape[-1] or m.shape[-1] < 1:
            raise DimensionMismatch("DBM must be a square matrix")

    @property
    def dim(self) -> int:
        """Number of variables, excluding the constant slot."""
        return self.entries.shape[-1] - 1

    def slice(self, slots: Sequence[int]) -> "Dbm":
        """Sub-DBM on the given variable slots (1-based), keeping slot 0.

        Projection of a closed zone is exact: shortest paths through the
        dropped variables are already folded into the kept entries.
        """
        idx = np.asarray([0, *slots], dtype=int)
        return Dbm(self.entries[..., idx[:, None], idx], closed=self.closed)


MaybeDbm = Union[Dbm, _EmptyZone]


def _diagonal(m: np.ndarray) -> np.ndarray:
    """Read-only view of the diagonal of each matrix of a stack."""
    return np.diagonal(m, axis1=-2, axis2=-1)


def _fill_diagonal(m: np.ndarray, value) -> None:
    """Set the diagonal of each matrix of a stack, in place."""
    i = np.arange(m.shape[-1])
    m[..., i, i] = value


def _floyd_warshall(m: np.ndarray) -> np.ndarray:
    """Floyd-Warshall over every slot of each matrix of a stack, in place:
    only for library input nobody closed, since the analysis runs none."""
    for k in range(m.shape[-1]):
        np.minimum(m, m[..., :, k, None] + m[..., None, k, :], out=m)
    return m


def _shortest_paths(entries: np.ndarray, eps: float):
    """Floyd-Warshall on a copy of ``entries`` with its diagonal clamped to
    <= 0.  Returns the closed matrix and whether a cycle weighs less than
    -eps (it is then empty); on a stack, each matrix is closed alone and
    the flag is a mask.  On a flat set (a point box, a dead unit) rounding
    leaves zero-weight cycles a few ulps negative and the pass doubles that
    at every pivot, so a pass that ends with a diagonal below 0 is redone
    by the rounding rule (module docstring) on widened entries.
    """

    def close(e: np.ndarray):
        m = e.copy()
        _fill_diagonal(m, np.minimum(_diagonal(m), 0.0))
        _floyd_warshall(m)
        return m, (_diagonal(m) < 0.0).any(axis=-1)

    m, low = _widen_and_redo(close, (entries,), (0,))
    return m, low & (_diagonal(m) < -eps).any(axis=-1)


def _box_meet_close(z: np.ndarray, slots: Sequence[int], lo: np.ndarray, hi: np.ndarray, eps: float):
    """Closure of the closed zone ``z`` met with the box [lo, hi] on its
    1-based ``slots`` (or of each zone of a stack met with its own box, lo
    and hi of shape (C, len(slots))), by one column and one row min-plus
    product through slot 0.  Returns the closed meet, its diagonal 0, and
    whether it is empty (a mask on a stack), as ``_shortest_paths`` does.

    With r the box's matrix (``Box.to_dbm``, embedded at ``slots``; r[k, 0]
    = hi_k, r[0, k] = -lo_k, r[0, 0] = 0, +inf on other slots) the meet is
    min(z, r), and its closure is

        col[i] = min_k z[i, k] + r[k, 0]        row[j] = min_k r[0, k] + z[k, j]
        E = min(z, col ⊕ row),   (col ⊕ row)[i, j] = col[i] + row[j]

    with k over slot 0 and ``slots``.  Every r-edge off slot 0 factors
    through it bit for bit: r[i, j] = hi_i - lo_j = hi_i + (-lo_j) =
    r[i, 0] + r[0, j].  So a path of the meet is a walk of z-edges and
    r-edges into and out of slot 0.  A walk that never meets slot 0 is a
    z-path, no shorter than z[i, j] since z is closed.  Otherwise cut it at
    its first and last visits of slot 0: the loops between them weigh >= 0
    unless the meet is empty, the head before the first visit is z-edges
    (one z-edge, z being closed) and one r-edge into slot 0, the tail
    likewise, so the walk weighs at least col[i] + row[j].  The k = 0 terms
    (r[0, 0] = 0) give the head without an r-edge, z[i, 0], and the k = i
    terms (z[i, i] = 0) a lone r-edge, so E <= min(z, r) and E is the
    meet's shortest-path closure.  A negative cycle of the meet either runs
    in z, which cannot be, or through slot 0; at any slot i on it the cycle
    is a head and a tail, so E[i, i] < 0.

    Each entry of E rounds three times, once per sum, and not at all on
    integer entries, where E is Floyd-Warshall's result bit for bit.  With
    L the largest finite |entry|, col and row are each within one ulp of L
    of their paths and their sum within two more, so rounding takes at most
    four ulps of L off a cycle.  A meet whose diagonal falls below 0 is
    redone by the rounding rule on z, hi and -lo: both the head and the
    tail of every cycle then gain at least size ulps of L, 2 * size >= 4,
    so rounding alone, at any magnitude, never makes a nonempty meet look
    empty, and a check never skips it as vacuous.
    """
    idx = np.asarray([0, *slots], dtype=int)

    def close(z, hi, neg_lo):
        zero = np.zeros(hi.shape[:-1] + (1,))
        to0 = np.concatenate([zero, hi], axis=-1)  # r[k, 0] over k in idx
        from0 = np.concatenate([zero, neg_lo], axis=-1)  # r[0, k]
        col = (z[..., :, idx] + to0[..., None, :]).min(axis=-1)
        row = (from0[..., :, None] + z[..., idx, :]).min(axis=-2)
        m = col[..., :, None] + row[..., None, :]
        np.minimum(z, m, out=m)
        return m, (_diagonal(m) < 0.0).any(axis=-1)

    m, low = _widen_and_redo(close, (z, np.asarray(hi), np.negative(lo)), (0, 1, 2))
    low &= (_diagonal(m) < -eps).any(axis=-1)
    _fill_diagonal(m, 0.0)
    return m, low


def _widen_and_redo(close, operands: tuple, widen: Sequence[int]):
    """``close(*operands)``, which returns a matrix or a stack and the mask
    of those whose diagonal fell low, with each flagged matrix redone once
    by the rounding rule (module docstring): its operands at positions
    ``widen`` gain size ulps of the largest finite |entry| of all its
    operands, a matrix's diagonal no further than 0.  The other matrices
    keep their bits.  Returns the matrix and the mask of the redone
    matrices that are still low."""
    m, low = close(*operands)
    if not low.any():
        return m, low
    ops = [x[low] for x in operands]
    slack = m.shape[-1] * _ulp_of_largest(*ops)
    for i in widen:
        ops[i] = ops[i] + slack.reshape((-1,) + (1,) * (ops[i].ndim - 1))
        if ops[i].ndim == 3:  # an entry x_v - x_v <= d with d > 0 bounds nothing
            _fill_diagonal(ops[i], np.minimum(_diagonal(ops[i]), 0.0))
    still = np.zeros_like(low)
    m[low], still[low] = close(*ops)
    return m, still


def _ulp_of_largest(*parts: np.ndarray) -> np.ndarray:
    """Spacing of the largest finite |entry| of each item of a stack (its
    first axis), over all the given stacks (one ulp of 0 if none is
    finite)."""
    finite = [np.where(np.isfinite(e), np.abs(e), 0.0).reshape(len(e), -1) for e in parts]
    return np.spacing(np.maximum.reduce([f.max(axis=1, initial=0.0) for f in finite]))


def _upper_sum(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x + y for two upper bounds (broadcast): a sum that overflows bounds
    nothing, so it is +inf, never -inf, which would read as a cycle below 0."""
    with np.errstate(over="ignore"):
        s = np.add(x, y)
    s[s == -INF] = INF
    return s


def dbm_close(d: Dbm, eps: float = DEFAULT_EPS) -> MaybeDbm:
    """Shortest-path closure; EMPTY iff a cycle weighs less than -eps."""
    check_eps(eps)
    m, empty = _shortest_paths(d.entries, eps)
    if empty:
        return EMPTY
    np.fill_diagonal(m, 0.0)
    return Dbm(m, closed=True)


def dbm_box(d: Dbm) -> Box:
    """Extract per-variable bounds from a closed, nonempty DBM."""
    if not d.closed:
        from .errors import NotClosed

        raise NotClosed("dbm_box needs a closed DBM")
    hi = d.entries[..., 1:, 0]
    lo = -d.entries[..., 0, 1:]
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
    m = np.full(d.entries.shape[:-2] + (new_dim + 1, new_dim + 1), INF)
    _fill_diagonal(m, 0.0)
    idx = np.asarray([0, *old_slots], dtype=int)
    m[..., idx[:, None], idx] = d.entries
    return Dbm(m, closed=d.closed)


# ---------------------------------------------------------------------------
# Octagons: coherent doubled DBMs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OctDbm:
    """Octagon over n variables as a DBM on 2n slots, no constant slot
    (leading axes: a stack of octagons, see the module docstring).

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
        if m.ndim < 2 or m.shape[-2] != m.shape[-1] or m.shape[-1] % 2 != 0:
            raise DimensionMismatch("octagon DBM must be square with even size")

    @property
    def dim(self) -> int:
        """Number of underlying variables (half the slot count)."""
        return self.entries.shape[-1] // 2

    def box(self) -> Box:
        n = self.dim
        hi = _diagonal(self.entries[..., :n, n:]) / 2.0
        lo = -_diagonal(self.entries[..., n:, :n]) / 2.0
        if not (np.isfinite(hi).all() and np.isfinite(lo).all()):
            raise UnboundedVariable("octagon has an unbounded variable")
        return _bounds_box(lo, hi)

    def to_bounded_dbm(self) -> Dbm:
        """View the doubled slots as a plain zone over 2n variables.

        Interval bounds for the constant slot come from halving the
        mirror-diagonal entries (x_i <= b stored as 2b on (+x_i) - (-x_i)).
        """
        n2 = 2 * self.dim
        p, q = np.arange(n2), _mirror(self.dim)
        m = np.full((n2 + 1, n2 + 1), INF)
        m[1:, 1:] = self.entries
        m[1:, 0] = self.entries[p, q] / 2.0
        m[0, 1:] = self.entries[q, p] / 2.0
        np.fill_diagonal(m, 0.0)
        out = dbm_close(Dbm(m))
        if out is EMPTY:
            raise EmptyInput("octagon is empty")
        return out


def _mirror(n: int) -> np.ndarray:
    """Slot permutation p -> p̄ of a doubled space over n variables."""
    return np.concatenate([np.arange(n, 2 * n), np.arange(0, n)])


def _coherence_min(m: np.ndarray, n: int) -> np.ndarray:
    # entries[p, q] and entries[q̄, p̄] encode the same fact; the mirror is
    # a view (``_mirrored``) of the 2n x 2n matrix, so nothing is gathered
    out = np.empty(m.shape[:-2] + (2 * n, 2 * n))
    np.minimum(_halves(m), _mirrored(m), out=_halves(out))
    return out


def oct_close(o: OctDbm, eps: float = DEFAULT_EPS) -> Union[OctDbm, _EmptyZone]:
    """Strong closure of a doubled DBM in one pass (the tests' reference;
    the analysis builds its octagons strongly closed and never calls it).

    After one coherence step, one Floyd-Warshall pass gives the shortest-path
    closure, and one half-sum strengthening m[p,q] <- min(m[p,q], (m[p, p̄] + m[q̄, q]) / 2)
    then makes it strongly closed: for real-valued octagons a closed matrix
    stays closed under that step (Bagnara, Hill & Zaffanella, MSCS 2009;
    Miné, HOSC 2006).  A cycle below -eps after either step means EMPTY;
    on a stack, each octagon is closed alone and EMPTY means one is empty.
    """
    check_eps(eps)
    n = o.dim
    m, empty = _shortest_paths(_coherence_min(o.entries, n), eps)
    if empty.any():
        return EMPTY
    m, empty = _strengthen(m, n, eps)
    return EMPTY if empty.any() else OctDbm(m, closed=True)


def _strengthen(m: np.ndarray, n: int, eps: float):
    """The tail of ``oct_close``: half-sum strengthening and coherence of a
    shortest-path closed doubled matrix over n variables (or of each matrix
    of a stack), in place where it can.  Returns the matrix and whether a
    diagonal entry fell below -eps (a mask on a stack); such a matrix is
    empty, or rounding made it look so, and its entries mean nothing."""
    perm = _mirror(n)
    unary = m[..., np.arange(2 * n), perm]  # m[p, p̄], twice the bound of slot p
    np.minimum(m, _upper_sum(unary[..., :, None], unary[..., None, perm]) / 2.0, out=m)
    m = _coherence_min(m, n)
    low = (_diagonal(m) < -eps).any(axis=-1)
    # bounds of a flat direction (a point box, a dead unit) can cross by
    # rounding, m[p, q] + m[q, p] < 0 within eps; the next pass would
    # double that negative cycle at every pivot, so widen such a pair to
    # the interval between its two bounds, as ``_bounds_box`` does
    np.maximum(m, -m.swapaxes(-2, -1), out=m)
    _fill_diagonal(m, 0.0)
    return m, low


# floats in each of ``_min_plus``'s two block buffers: 256 KiB, so both stay in cache
_MIN_PLUS_FLOATS = 1 << 15


def _min_plus(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Min-plus product out[..., i, j] = min_k (p[..., i, k] + q[..., k, j]),
    +inf when k is empty, for one matrix pair or a stack of pairs (the same
    leading axes on both).

    Layout: the inner index k is the outer axis of two (k, cells, rows, j)
    buffers.  ``tiles`` holds q's rows, each repeated over the block's
    rows, filled once per block of cells; for each block of rows ``sums``
    takes p's entries broadcast over j, adds ``tiles`` in one contiguous
    add and is reduced over axis 0 straight into the output.  A reduction
    over the outer axis is an elementwise min of contiguous slabs, where
    a min over a middle axis runs in strided pieces j long.

    Budget: a block is whole cells when a cell's k * r * j floats fit in
    2^15 (256 KiB, so both buffers stay in cache), else rows of one cell,
    and at least one row.  A product that fits one block (the factored
    meet's row and column products, a grid's small stacks) runs as that
    block, without the loop.

    Bits: each sum is the float p + q (addition commutes) and the
    reduction takes the min over k in order, so the result is that of the
    one broadcast sum reduced over k, but for the sign of a zero where
    +0.0 and -0.0 tie, which depends on the order a reduction visits
    them in."""
    batch = p.shape[:-2]
    n = math.prod(batch)
    r, k, j = p.shape[-2], p.shape[-1], q.shape[-1]
    out = np.empty((n, r, j))
    if not (k and out.size):
        out.fill(INF)
        return out.reshape(batch + (r, j))
    pk = p.reshape((n, r, k, 1)).transpose(2, 0, 1, 3)  # (k, n, r, 1)
    qk = q.reshape((n, k, 1, j)).transpose(1, 0, 2, 3)  # (k, n, 1, j)
    rows = min(r, max(1, _MIN_PLUS_FLOATS // (k * j)))
    cells = min(n, max(1, _MIN_PLUS_FLOATS // (k * r * j))) if rows == r else 1
    tiles = np.empty((k, cells, rows, j))
    sums = np.empty((k, cells, rows, j))
    if cells == n and rows == r:
        # one block, unsliced: the loop's slicing costs a thin product more than its sums
        tiles[...] = qk
        sums[...] = pk
        np.add(sums, tiles, out=sums)
        np.minimum.reduce(sums, axis=0, out=out)
        return out.reshape(batch + (r, j))
    for c0 in range(0, n, cells):
        c1 = min(c0 + cells, n)
        tile = tiles[:, : c1 - c0]
        tile[...] = qk[:, c0:c1]
        for r0 in range(0, r, rows):
            r1 = min(r0 + rows, r)
            block = sums[:, : c1 - c0, : r1 - r0]
            block[...] = pk[:, c0:c1, r0:r1]
            np.add(block, tile[:, :, : r1 - r0], out=block)
            np.minimum.reduce(block, axis=0, out=out[c0:c1, r0:r1])
    return out.reshape(batch + (r, j))


def _interface_close(
    a: np.ndarray, c: np.ndarray, b: np.ndarray, eps: float
) -> Optional[np.ndarray]:
    """Closure of the meet of two closed matrices that share only the
    interface slots C (or of each pair of two stacks of them).

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
    so a shortest path needs at most one C hop on each side of Y.  The
    last product is taken only on the entries of b[Y, Y] that its bound
    min_c b[y, c] + min_c E[c, y'] leaves open (``_min_with_product``).

    If slot 0 is in C and a factors through it, a[i, j] == a[i, 0] + a[0, j]
    bit for bit on every off-diagonal entry (a box, as ``Box.to_dbm``
    builds it), every a-edge into C goes by slot 0 and the products
    collapse to one row and one column (``_factored_meet``):

        row = a[0, C] ⊗ b[C, Y]          col = b[Y, C] ⊗ a[C, 0]
        E[X∪C, Y] = a[:, 0] + row        E[Y, X∪C] = col + a[0, :]
        E[Y, Y] = min(b[Y, Y], col + row)

    with the min of b[C, Y] on the rows of C and of b[Y, C] on its
    columns, since a[c, c] = 0 is the one entry that does not factor.
    The choice is made per matrix of a stack: a grid mixes factoring and
    non-factoring cells, and each cell must get the floats it gets alone.

    Otherwise, if the operands are coherent octagons (``_coherent_meet``,
    each slot p with a mirror p̄, m[p, q] == m[q̄, p̄]), the meet is
    coherent too and E[Y, X∪C] is E[X∪C, Y] mirrored, E[y, x] = E[x̄, ȳ]:
    the terms b[y, c] + e[c, x] of its product are those of E[x̄, ȳ],
    e[x̄, c̄] + b[c̄, ȳ], with the operands swapped, so the copy is the
    product's floats and the meet takes two dense products, not three.

    Returns None if a cycle through Y weighs less than -eps (in any pair of
    a stack); a diagonal entry within eps of 0 is set to 0.  A meet whose Y
    diagonal falls below -eps is redone by the rounding rule (module
    docstring) on b widened, and only a cycle still below -eps is empty.
    """
    p = a.shape[-1]

    def close(a, b):
        e = _meet(a, c, b)
        return e, (_diagonal(e[..., p:, p:]) < -eps).any(axis=-1)

    e, still = _widen_and_redo(close, (a, b), (1,))
    if still.any():
        return None
    _fill_diagonal(e[..., p:, p:], 0.0)
    return e


def _meet(a: np.ndarray, c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``_interface_close`` before its diagonal check: each matrix of the
    stack by ``_factored_meet`` if its a factors through slot 0, else by
    ``_dense_meet``."""
    p, k = a.shape[-1], len(c)
    factors = _factors_through_slot0(a, c)
    if factors.all():
        return _factored_meet(a, c, b)
    if not factors.any():
        return _dense_meet(a, c, b)
    size = p + b.shape[-1] - k
    e = np.empty(a.shape[:-2] + (size, size))
    e[factors] = _factored_meet(a[factors], c, b[factors])
    e[~factors] = _dense_meet(a[~factors], c, b[~factors])
    return e


def _factors_through_slot0(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Per matrix of a stack: slot 0 is in C and every entry of a factors
    through it (``_slot0_factors``)."""
    if not (c == 0).any():
        return np.zeros(a.shape[:-2], dtype=bool)
    return _slot0_factors(a).all(axis=(-2, -1))


def _slot0_factors(a: np.ndarray, rows: Optional[Sequence[int]] = None) -> np.ndarray:
    """Per entry of the ``rows`` (default: all) of a matrix, or of each
    matrix of a stack, over every column: whether a[i, j] ==
    a[i, 0] + a[0, j] bit for bit, the diagonal counted as factoring.  The
    one definition of "factors through slot 0", for the meet and for the
    zone LP (``simplex``), which reads columns as rows of the transpose
    (float addition commutes).  A sum that overflows is inf and factors
    only an inf entry, which bounds nothing."""
    g = a if rows is None else a[..., rows, :]
    with np.errstate(over="ignore"):
        same = g == g[..., :1] + a[..., :1, :]
    if rows is None:
        _fill_diagonal(same, True)
    else:
        same[..., np.arange(len(rows)), rows] = True
    return same


def _meet_block(a: np.ndarray, c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The meet's matrix with its X∪C block filled: a, with the entrywise
    min of a and b on the C block."""
    p, k = a.shape[-1], len(c)
    size = p + b.shape[-1] - k
    e = np.empty(a.shape[:-2] + (size, size))
    e[..., :p, :p] = a
    cc = (Ellipsis, c[:, None], c)
    e[cc] = np.minimum(a[cc], b[..., :k, :k])
    return e


def _dense_meet(a: np.ndarray, c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``_interface_close`` before its diagonal check, by three dense
    min-plus products through C, or two when the operands are coherent
    (``_coherent_meet``): E[Y, X∪C] is then E[X∪C, Y] mirrored,
    E[y, x] = E[x̄, ȳ], the same floats as its own product.  The Y x Y
    product is taken only where the bound min_c b[y, c] + min_c E[c, y']
    does not already lie above b[y, y'] (``_min_with_product``), still one
    ``_min_plus`` call."""
    p, k = a.shape[-1], len(c)
    e = _meet_block(a, c, b)
    e[..., :p, p:] = _min_plus(e[..., :p, c], b[..., :k, k:])
    if _coherent_meet(a, c, b):
        e[..., p:, :p] = _mirrored(e[..., :p, p:]).reshape(e[..., p:, :p].shape)
    else:
        e[..., p:, :p] = _min_plus(b[..., k:, :k], e[..., c, :p])
    e[..., p:, p:] = _min_with_product(b[..., k:, k:], b[..., k:, :k], e[..., c, p:])
    return e


def _min_with_product(d: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """np.minimum(d, _min_plus(u, v)) bit for bit, for d of shape (..., r, j),
    the product taken only on the entries that a bound leaves open.

    Every term u[i, c] + v[c, j] rounds to at least lb[i, j] = min_c u[i, c]
    + min_c v[c, j], since rounding to nearest is monotone, so where
    d[i, j] < lb[i, j] the min is d[i, j] and the product is not taken.
    The test is strict: a tie of +0.0 and -0.0, where np.minimum returns
    its second operand, goes through the product, and so does a NaN.  The
    open entries' one-entry products, u's row against v's column, go
    through one ``_min_plus`` call as a stack, each reduced over k in
    order, as in the whole product.  A block of that stack holding one
    entry would take numpy's unrolled reduction instead, which can give a
    zero tie another sign, so such a block gets its entry twice.  (The
    whole product takes that reduction only on 1 x 1 matrices, alone or
    last in a stack of more than 2^15 / k; in the meet such an entry is a
    diagonal, which is then set to 0.)"""
    with np.errstate(over="ignore"):  # an overflowed bound is +-inf, which prunes nothing wrongly
        lb = u.min(axis=-1, initial=INF)[..., :, None] + v.min(axis=-2, initial=INF)[..., None, :]
    open_ = np.nonzero(~(d < lb))
    count, per_block = len(open_[-1]), max(1, _MIN_PLUS_FLOATS // max(u.shape[-1], 1))
    take = open_
    if d.size > 1 and (count == 1 or (count > per_block and count % per_block == 1)):
        take = tuple(np.append(i, i[-1]) for i in open_)
    *lead, rows, cols = take
    prod = _min_plus(u[(*lead, rows)][:, None, :], v.swapaxes(-2, -1)[(*lead, cols)][:, :, None])
    out = d.copy()
    out[open_] = np.minimum(d[open_], prod[:count, 0, 0])
    return out


def _coherent_meet(a: np.ndarray, c: np.ndarray, b: np.ndarray) -> bool:
    """Whether the dense meet may mirror E[X∪C, Y] into E[Y, X∪C]: a, b's
    C block and the pair b[C, Y], b[Y, C] are coherent on every matrix of
    the stack, each slot space doubled (+ half, then - half) with C's
    mirror that of a's slots, and neither b[C, Y] nor b[Y, C] holds a -0.0.

    Without a -0.0 on b's side no term of either product is -0.0, so no
    +0.0 term meets a -0.0 in a min, where the order of the terms would
    choose the sign.  A NaN fails the equality.  The shape test, first,
    sends every zone meet of the layer chain back before any value is
    read: C there is slot 0 and the current layer, and its second half is
    not its first shifted by half of a's slots.
    """
    p, k = a.shape[-1], len(c)
    if p % 2 or k % 2 or (b.shape[-1] - k) % 2 or not k:
        return False
    if (c[k // 2 :] != c[: k // 2] + p // 2).any():
        return False
    b_cc, b_cy, b_yc = b[..., :k, :k], b[..., :k, k:], b[..., k:, :k]
    return (
        _mirrors(a, a)
        and _mirrors(b_cc, b_cc)
        and _mirrors(b_cy, b_yc)
        and not _negative_zero(b_cy)
        and not _negative_zero(b_yc)
    )


def _mirrors(u: np.ndarray, v: np.ndarray) -> bool:
    """u[..., r, s] == v[..., s̄, r̄] on every entry."""
    return bool((_halves(u) == _mirrored(v)).all())


def _mirrored(m: np.ndarray) -> np.ndarray:
    """m'[..., p, q] = m[..., q̄, p̄], each axis of m a doubled space (+
    half, then - half): a view of m's transpose with the halves of each
    axis swapped, shaped as ``_halves``."""
    return _halves(m.swapaxes(-2, -1))[..., ::-1, :, ::-1, :]


def _halves(m: np.ndarray) -> np.ndarray:
    """View of m as (..., 2, rows / 2, 2, columns / 2)."""
    return m.reshape(m.shape[:-2] + (2, m.shape[-2] // 2, 2, m.shape[-1] // 2))


def _negative_zero(x: np.ndarray) -> bool:
    zero = x == 0.0
    return bool(zero.any() and np.signbit(x[zero]).any())


def _factored_meet(a: np.ndarray, c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``_interface_close`` before its diagonal check, for an ``a`` that
    factors through slot 0: a one-row and a one-column product.

    The dense E[i, Y] = min_c a[i, c] + b[c, Y] splits into a[i, 0] + row
    (c != i, a[i, c] = a[i, 0] + a[0, c]) and b[i, Y] (c = i, a[i, i] = 0,
    only for i in C); E[Y, i] likewise.  In E[Y, Y] the first part gives
    col + row and the second b[Y, C] ⊗ b[C, Y], a b-path, never below
    b[Y, Y].
    """
    p, k = a.shape[-1], len(c)
    e = _meet_block(a, c, b)
    b_cy, b_yc = b[..., :k, k:], b[..., k:, :k]
    row = _min_plus(a[..., :1, c], b_cy)
    col = _min_plus(b_yc, a[..., c, :1])
    e[..., :p, p:] = _upper_sum(a[..., :, :1], row)
    e[..., p:, :p] = _upper_sum(col, a[..., :1, :])
    e[..., c, p:] = np.minimum(e[..., c, p:], b_cy)
    e[..., p:, c] = np.minimum(e[..., p:, c], b_yc)
    e[..., p:, p:] = np.minimum(b[..., k:, k:], _upper_sum(col, row))
    return e
