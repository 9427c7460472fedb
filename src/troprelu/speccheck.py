"""Verdicts for linear assertions over a computed abstraction.

An assertion  h(x, y) = in_coeffs.x + out_coeffs.y + const >= 0  is
checked by minimising h over the enclosing zone of the abstraction: a
linear program over the difference constraints, solved exactly on the
closed sub-DBM of h's variables as its dual transportation problem
(``simplex.minimize_over_dbms``).  A nonnegative minimum
proves the assertion for every concrete execution; a negative minimum
proves nothing, because the zone over-approximates, so the verdict is
Unknown rather than Violated.

Every result is checked as a stack of cells (``_cell_minima``): the
cells of its grid (``AnalysisResult.cells``) or, without a grid, one cell,
its input box and its zone.  The assertion is verified iff every cell
that meets its input restriction passes.  A cell meets a box only when
the assertion restricts its inputs: the restriction is met into those
cell zones at once, closed through slot 0 in one stacked pass
(``dbm._box_meet_close``).  Without a restriction the zones go to the LP
as the analysis closed them: the LP value is -(the cost of a flow), a
lower bound by weak duality over any DBM of the zone, so re-closing a
cell through its own box adds nothing to soundness.  The LPs of all
cells share one set-up (``simplex.minimize_over_dbms``) and only the
transportation solver runs cell by cell.  Refining the grid only shrinks
per-cell zones, so a Verified verdict never flips back to Unknown.
``min_over_zone`` takes the same route for one zone; only a zone not
marked closed, which the analysis never makes, is first closed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np

from .dbm import Box, Dbm, EMPTY, _box_meet_close, dbm_close
from .errors import DimensionMismatch, EmptyFeasibleSet, InvalidInterval, InvalidObjective, VariableMismatch
from .maxplus import DEFAULT_EPS, check_eps
from .network import AnalysisOptions, AnalysisResult, Network, analyze
from .simplex import minimize_over_dbms
from .subdivision import SubdivisionGrid


class VerdictStatus(Enum):
    VERIFIED = "Verified"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class LinearAssertion:
    """in_coeffs.x + out_coeffs.y + const >= 0, optionally on a sub-box.

    ``restrict`` narrows the input quantifier domain, one entry per input
    (``check`` raises VariableMismatch otherwise); ``None`` entries leave
    that input unrestricted.  An entry that is not a pair of real numbers,
    or has lo > hi or a NaN endpoint, raises InvalidInterval; one disjoint
    from the input box makes the assertion vacuous.
    """

    in_coeffs: np.ndarray
    out_coeffs: np.ndarray
    const: float = 0.0
    restrict: Optional[tuple] = None  # per-input (lo, hi) or None
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "in_coeffs", np.asarray(self.in_coeffs, dtype=float))
        object.__setattr__(self, "out_coeffs", np.asarray(self.out_coeffs, dtype=float))
        real = (int, float, np.integer, np.floating)
        for j, iv in enumerate(self.restrict or ()):
            try:  # a pair of real numbers, lo <= hi and no NaN
                ok = iv is None or len(iv) == 2 and all(isinstance(v, real) for v in iv) and iv[0] <= iv[1]
            except (TypeError, KeyError):
                ok = False
            if not ok:
                raise InvalidInterval(f"restriction of input {j + 1} is {iv!r}, not a pair lo <= hi")

    def value(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        y = np.atleast_2d(y)
        return x @ self.in_coeffs + y @ self.out_coeffs + self.const

    def restriction_box(self, in_box: Box) -> Optional[Box]:
        """The restricted input domain, or EMPTY-free None when vacuous."""
        if self.restrict is None:
            return in_box
        lo, hi = _clip(in_box.lo, in_box.hi, self.restrict)
        return None if (lo > hi).any() else Box(lo, hi)


def _clip(lo: np.ndarray, hi: np.ndarray, restrict: tuple):
    """Corners lo, hi (..., m) met with a restriction: a bound of the
    restriction replaces a corner only where it is strictly tighter (an
    input without one is restricted to [-inf, inf])."""
    rows = [(-np.inf, np.inf) if iv is None else iv for iv in restrict]
    r = np.array(rows, dtype=float).reshape(lo.shape[-1], 2)  # one row per input
    return np.where(r[:, 0] > lo, r[:, 0], lo), np.where(r[:, 1] < hi, r[:, 1], hi)


@dataclass(frozen=True)
class Verdict:
    status: VerdictStatus
    minimum: float
    method: str

    @property
    def verified(self) -> bool:
        return self.status is VerdictStatus.VERIFIED


def min_over_zone(
    zone: Dbm,
    box_restriction: Optional[Box],
    objective: np.ndarray,
    constant: float = 0.0,
    restrict_slots: Optional[list] = None,
    eps: float = DEFAULT_EPS,
) -> float:
    """Exact minimum of objective.v + constant over the zone polytope.

    ``box_restriction`` tightens the listed slots (default: the leading
    ones) before minimising; the intersection is closed first, so the
    restriction propagates into every difference bound.  Without one the
    zone meets no box: the LP value is a weak-duality bound over any DBM.
    The zone is a one-cell stack of ``_stack_minima``, as in ``check``, so
    both give the same bits; a zone not marked closed is first closed alone
    by Floyd-Warshall (``dbm_close``).  Returns -inf when the program is
    unbounded; raises EmptyFeasibleSet when the zone or its meet is empty,
    DimensionMismatch when ``restrict_slots`` does not fit the zone and the
    box, InvalidObjective on a non-finite coefficient or constant.
    """
    check_eps(eps)
    objective = np.asarray(objective, dtype=float)
    _check_objective(objective, zone.dim, constant)
    if not zone.closed:
        zone = dbm_close(zone, eps=eps)
        if zone is EMPTY:
            raise EmptyFeasibleSet("the zone is empty")
    meet = None
    if box_restriction is not None:
        slots = list(range(1, box_restriction.dim + 1)) if restrict_slots is None else restrict_slots
        if len(slots) != box_restriction.dim or not all(1 <= s <= zone.dim for s in slots):
            raise DimensionMismatch("restrict_slots must name one zone slot per restricted variable")
        meet = (slots, box_restriction.lo[None], box_restriction.hi[None])
    minima = _stack_minima(zone.entries[None], meet, objective, constant, eps)
    if not minima:
        raise EmptyFeasibleSet("the zone, met with the restriction, is empty")
    return minima[0]


def _stack_minima(zones: np.ndarray, meet: Optional[tuple], obj: np.ndarray, const: float, eps: float) -> list:
    """min obj.v + const over each closed zone of the stack ``zones``
    (C, s, s), in order; -inf where the program is unbounded.  ``meet`` =
    (slots, lo, hi), corners (C, len(slots)), first meets each zone with
    its box on those 1-based slots (``_box_meet_close``); the zones it
    empties give no minimum.  A zero objective's LP value is 0.0."""
    if meet is not None and len(zones):
        zones, empty = _box_meet_close(zones, *meet, eps)
        zones = zones[~empty]
    return [v + const for v in minimize_over_dbms(obj, zones)]


def _check_objective(objective: np.ndarray, dim: int, constant: float = 0.0) -> None:
    if objective.shape != (dim,):
        raise VariableMismatch("objective length does not match zone dimension")
    if not (math.isfinite(constant) and np.isfinite(objective).all()):
        raise InvalidObjective("objective coefficients and constant must be finite")


def _objective_of(a: LinearAssertion, result: AnalysisResult) -> np.ndarray:
    ins = result.input_slots
    outs = result.output_slots
    if len(ins) != a.in_coeffs.shape[0] or len(outs) != a.out_coeffs.shape[0]:
        raise VariableMismatch(
            "assertion coefficients do not match tracked inputs/outputs"
        )
    if a.restrict is not None and len(a.restrict) != len(ins):
        raise VariableMismatch(
            f"restriction lists {len(a.restrict)} inputs, the network has {len(ins)}"
        )
    obj = np.zeros(len(result.var_map))
    obj[ins] = a.in_coeffs
    obj[outs] = a.out_coeffs
    _check_objective(obj, len(obj), a.const)
    return obj


def check(a: LinearAssertion, result: AnalysisResult, eps: float = DEFAULT_EPS) -> Verdict:
    """Verified iff the zone minimum of h is >= -eps; otherwise Unknown.

    The minimum is the least over the result's cells (``_cell_minima``;
    without a grid, one cell: the input box and the zone).  Cells disjoint
    from the restriction are skipped, and a cell meets a box only under a
    restriction, since the LP value is a weak-duality bound on any DBM.
    Raises InvalidTolerance unless ``eps`` is a finite number >= 0,
    InvalidObjective on a non-finite ``const``.
    """
    check_eps(eps)
    minima = _cell_minima(a, result, _objective_of(a, result), eps)
    if not minima:
        return Verdict(VerdictStatus.VERIFIED, float("inf"), "vacuous")
    m = min(minima)
    status = VerdictStatus.VERIFIED if m >= -eps else VerdictStatus.UNKNOWN
    return Verdict(status, m, "zone-lp" if result._cell_stack is None else "cellwise-zone-lp")


def _cell_minima(a: LinearAssertion, result: AnalysisResult, obj: np.ndarray, eps: float) -> list:
    """``_stack_minima`` over every cell of ``result`` (its grid's cells,
    or its input box and zone), in cell order.  A cell meets a box, its
    own clipped to the restriction, only when the assertion restricts,
    and the cells disjoint from it are dropped.  Unrestricted, the cell
    zones go to the LP as the analysis closed them, as a lone box's zone
    does: the LP value is a weak-duality bound over any DBM of the zone,
    so a re-closure through the cell's box adds nothing to soundness."""
    box = result.bounds[0]
    lo, hi, zones = result._cell_stack or (box.lo[None], box.hi[None], result.zone.entries[None])
    if a.restrict is None:
        return _stack_minima(zones, None, obj, a.const, eps)
    lo, hi = _clip(lo, hi, a.restrict)
    meets = (lo <= hi).all(axis=1)
    slots = [s + 1 for s in result.input_slots]
    return _stack_minima(zones[meets], (slots, lo[meets], hi[meets]), obj, a.const, eps)


def check_with_subdivision(
    a: LinearAssertion,
    net: Network,
    in_box: Box,
    grid: SubdivisionGrid,
    options: AnalysisOptions = AnalysisOptions(),
    eps: float = DEFAULT_EPS,
) -> Verdict:
    """Per-cell check: every cell meeting the restriction must pass.

    One cell-wise analysis of ``grid`` (see ``check``); the witness is the
    least per-cell minimum, so shifting the assertion constant by its
    negation always yields a Verified assertion.
    """
    return check(a, analyze(net, in_box, replace(options, subdiv=grid)), eps=eps)
