"""Verdicts for linear assertions over a computed abstraction.

An assertion  h(x, y) = in_coeffs.x + out_coeffs.y + const >= 0  is
checked by minimising h over the enclosing zone of the abstraction: a
linear program over the difference constraints, solved exactly on the
closed sub-DBM of h's variables as its dual transportation problem
(``simplex.minimize_over_dbm``).  A nonnegative minimum
proves the assertion for every concrete execution; a negative minimum
proves nothing, because the zone over-approximates, so the verdict is
Unknown rather than Violated.

Under an input subdivision the check runs per grid cell of one cell-wise
analysis (``AnalysisResult.cells``): the assertion is verified iff every
cell whose box meets the assertion's input restriction passes.  The
restriction is met into all those cell zones at once, and one stacked
pass closes them through slot 0 (``dbm._box_meet_close``: a box's edges
all factor through the constant slot, so a closed zone met with it needs
one column and one row product, not a Floyd-Warshall pass); the LPs of
all cells share one set-up, the cells that settle the same slots in
closed form share one transport set-up (``simplex._split``), and only
the transportation solver runs cell by cell.
Refining the grid only shrinks per-cell zones, so a Verified verdict
never flips back to Unknown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np

from .dbm import Box, Dbm, EMPTY, _box_meet_close, dbm_close, embed_dbm
from .errors import EmptyFeasibleSet, InvalidInterval, InvalidObjective, VariableMismatch
from .maxplus import DEFAULT_EPS, check_eps
from .network import AnalysisOptions, AnalysisResult, Network, analyze
from .simplex import minimize_over_dbm, minimize_over_dbms
from .subdivision import SubdivisionGrid


class VerdictStatus(Enum):
    VERIFIED = "Verified"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class LinearAssertion:
    """in_coeffs.x + out_coeffs.y + const >= 0, optionally on a sub-box.

    ``restrict`` narrows the input quantifier domain, one entry per input
    (``check`` raises VariableMismatch otherwise); ``None`` entries leave
    that input unrestricted.  An interval with lo > hi or a NaN endpoint
    raises InvalidInterval; one disjoint from the input box makes the
    assertion vacuous.
    """

    in_coeffs: np.ndarray
    out_coeffs: np.ndarray
    const: float = 0.0
    restrict: Optional[tuple] = None  # per-input (lo, hi) or None
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "in_coeffs", np.asarray(self.in_coeffs, dtype=float))
        object.__setattr__(self, "out_coeffs", np.asarray(self.out_coeffs, dtype=float))
        for j, iv in enumerate(self.restrict or ()):
            if iv is not None and not iv[0] <= iv[1]:
                raise InvalidInterval(f"restriction of input {j + 1} is [{iv[0]}, {iv[1]}]")

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
    restriction propagates into every difference bound.  A closed zone's
    meet is closed through slot 0 (``_box_meet_close``), as a grid cell's
    is in ``check``, so both give the same bits; a zone not marked closed
    is met and closed by Floyd-Warshall (``dbm_close``).  Returns -inf when
    the program is unbounded; raises EmptyFeasibleSet when the restriction
    empties the zone, InvalidObjective on a non-finite coefficient or constant.
    """
    check_eps(eps)
    objective = np.asarray(objective, dtype=float)
    _check_objective(objective, zone.dim, constant)
    m, empty = zone.entries, False
    if box_restriction is not None:
        slots = list(range(1, box_restriction.dim + 1)) if restrict_slots is None else restrict_slots
        if zone.closed:
            m, empty = _box_meet_close(m, slots, box_restriction.lo, box_restriction.hi, eps)
        else:
            m = np.minimum(m, embed_dbm(box_restriction.to_dbm(), slots, zone.dim).entries)
    if not zone.closed:
        work = dbm_close(Dbm(m), eps=eps)
        empty = work is EMPTY
        m = None if empty else work.entries
    if empty:
        raise EmptyFeasibleSet("the zone, met with any restriction, is empty")
    if not objective.any():
        return float(constant)
    val = minimize_over_dbm(objective, m)
    return val + constant if np.isfinite(val) else val


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

    On a subdivided result (``result.cells`` non-empty) the minimum is taken
    per cell: cells disjoint from the restriction are skipped, each other
    cell's LP is restricted to the cell met with the restriction, and the
    witness is the least cell minimum.  Raises InvalidTolerance unless
    ``eps`` is a finite number >= 0, InvalidObjective on a non-finite ``const``.
    """
    check_eps(eps)
    obj = _objective_of(a, result)
    if result._cell_stack is not None:
        minima = _cell_minima(a, result, obj, eps)
        method = "cellwise-zone-lp"
    else:
        meet = a.restriction_box(result.bounds[0])
        minima = []
        if meet is not None:
            restriction = None if a.restrict is None else meet
            slots = [s + 1 for s in result.input_slots]
            try:
                minima.append(
                    min_over_zone(result.zone, restriction, obj, a.const, restrict_slots=slots, eps=eps)
                )
            except EmptyFeasibleSet:
                pass
        method = "zone-lp"
    if not minima:
        return Verdict(VerdictStatus.VERIFIED, float("inf"), "vacuous")
    m = min(minima)
    status = VerdictStatus.VERIFIED if m >= -eps else VerdictStatus.UNKNOWN
    return Verdict(status, m, method)


def _cell_minima(a: LinearAssertion, result: AnalysisResult, obj: np.ndarray, eps: float) -> list:
    """``min_over_zone`` of every grid cell whose box meets the assertion's
    restriction, on the cell met with the restriction, in cell order; cells
    that the restriction empties are skipped.

    The meets are closed through slot 0 in one stacked pass
    (``_box_meet_close``), with the same arithmetic per cell as alone and
    as ``min_over_zone`` on that cell and meet; without a restriction too,
    since closing a cell zone met with its own box can still move entries
    by rounding.  The LPs of all live cells then share one set-up
    (``minimize_over_dbms``).
    """
    lo, hi, zones = result._cell_stack
    if a.restrict is not None:
        lo, hi = _clip(lo, hi, a.restrict)
        meets = (lo <= hi).all(axis=1)
        lo, hi, zones = lo[meets], hi[meets], zones[meets]
    if not len(zones):
        return []
    m, empty = _box_meet_close(zones, [s + 1 for s in result.input_slots], lo, hi, eps)
    if empty.any():
        m = m[~empty]
    if not obj.any():
        return [float(a.const)] * len(m)
    return [v + a.const if np.isfinite(v) else v for v in minimize_over_dbms(obj, m)]


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
