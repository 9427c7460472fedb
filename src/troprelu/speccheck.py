"""Verdicts for linear assertions over a computed abstraction.

An assertion  h(x, y) = in_coeffs.x + out_coeffs.y + const >= 0  is
checked by minimising h over the enclosing zone of the abstraction (a
linear program over the difference constraints).  A nonnegative minimum
proves the assertion for every concrete execution; a negative minimum
proves nothing, because the zone over-approximates, so the verdict is
Unknown rather than Violated.

Under an input subdivision the check runs per grid cell: the assertion is
verified iff every cell whose box meets the assertion's input restriction
passes.  Refining the grid only shrinks per-cell zones, so a Verified
verdict never flips back to Unknown.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .dbm import Box, Dbm, EMPTY, dbm_intersect, embed_dbm
from .errors import EmptyFeasibleSet, VariableMismatch
from .maxplus import DEFAULT_EPS
from .network import AnalysisOptions, AnalysisResult, Network, analyze
from .simplex import minimize_over_halfspaces
from .subdivision import SubdivisionGrid


class VerdictStatus(Enum):
    VERIFIED = "Verified"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class LinearAssertion:
    """in_coeffs.x + out_coeffs.y + const >= 0, optionally on a sub-box.

    ``restrict`` narrows the input quantifier domain; ``None`` entries
    leave that input unrestricted.
    """

    in_coeffs: np.ndarray
    out_coeffs: np.ndarray
    const: float = 0.0
    restrict: Optional[tuple] = None  # per-input (lo, hi) or None
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "in_coeffs", np.asarray(self.in_coeffs, dtype=float))
        object.__setattr__(self, "out_coeffs", np.asarray(self.out_coeffs, dtype=float))

    def value(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        y = np.atleast_2d(y)
        return x @ self.in_coeffs + y @ self.out_coeffs + self.const

    def restriction_box(self, in_box: Box) -> Optional[Box]:
        """The restricted input domain, or EMPTY-free None when vacuous."""
        if self.restrict is None:
            return in_box
        lo = in_box.lo.copy()
        hi = in_box.hi.copy()
        for j, iv in enumerate(self.restrict):
            if iv is None:
                continue
            lo[j] = max(lo[j], iv[0])
            hi[j] = min(hi[j], iv[1])
        if (lo > hi).any():
            return None
        return Box(lo, hi)


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
    restriction propagates into every difference bound.  Returns -inf when
    the program is unbounded; raises EmptyFeasibleSet when the restriction
    empties the zone.
    """
    objective = np.asarray(objective, dtype=float)
    if objective.shape != (zone.dim,):
        raise VariableMismatch("objective length does not match zone dimension")
    work = zone
    if box_restriction is not None:
        slots = restrict_slots if restrict_slots is not None else list(
            range(1, box_restriction.dim + 1)
        )
        restr = embed_dbm(box_restriction.to_dbm(), slots, zone.dim)
        work = dbm_intersect(work, restr, eps=eps)
        if work is EMPTY:
            raise EmptyFeasibleSet("restriction does not meet the zone")
    support = np.flatnonzero(objective)
    if support.size == 0:
        return float(constant)
    # projection of a closed zone onto the support is the sub-DBM
    sub = work.slice([int(s) + 1 for s in support])
    rows, bnds = _halfspaces_of(sub.entries)
    val = minimize_over_halfspaces(objective[support], rows, bnds, eps=eps)
    return val + constant if np.isfinite(val) else val


def _halfspaces_of(entries: np.ndarray):
    size = entries.shape[0]
    rows = []
    bnds = []
    for i in range(size):
        for j in range(size):
            if i == j or not np.isfinite(entries[i, j]):
                continue
            r = np.zeros(size - 1)
            if i > 0:
                r[i - 1] = 1.0
            if j > 0:
                r[j - 1] = -1.0
            rows.append(r)
            bnds.append(entries[i, j])
    return np.asarray(rows), np.asarray(bnds)


def _objective_of(a: LinearAssertion, result: AnalysisResult) -> np.ndarray:
    ins = result.input_slots
    outs = result.output_slots
    if len(ins) != a.in_coeffs.shape[0] or len(outs) != a.out_coeffs.shape[0]:
        raise VariableMismatch(
            "assertion coefficients do not match tracked inputs/outputs"
        )
    obj = np.zeros(len(result.var_map))
    obj[ins] = a.in_coeffs
    obj[outs] = a.out_coeffs
    return obj


def check(a: LinearAssertion, result: AnalysisResult, eps: float = DEFAULT_EPS) -> Verdict:
    """Verified iff the zone minimum of h is >= -eps; otherwise Unknown."""
    obj = _objective_of(a, result)
    restriction = None
    slots = None
    if a.restrict is not None:
        restriction = a.restriction_box(result.bounds[0])
        if restriction is None:
            return Verdict(VerdictStatus.VERIFIED, float("inf"), "vacuous")
        slots = [s + 1 for s in result.input_slots]
    try:
        m = min_over_zone(
            result.zone, restriction, obj, a.const, restrict_slots=slots, eps=eps
        )
    except EmptyFeasibleSet:
        return Verdict(VerdictStatus.VERIFIED, float("inf"), "vacuous")
    status = VerdictStatus.VERIFIED if m >= -eps else VerdictStatus.UNKNOWN
    return Verdict(status, m, "zone-lp")


def check_with_subdivision(
    a: LinearAssertion,
    net: Network,
    in_box: Box,
    grid: SubdivisionGrid,
    options: AnalysisOptions = AnalysisOptions(),
    eps: float = DEFAULT_EPS,
) -> Verdict:
    """Per-cell check: every cell meeting the restriction must pass.

    Cells disjoint from the restriction are vacuously fine; if no cell
    meets it the verdict is Verified with an infinite witness.  All cells
    are scanned even after a failure, so the witness is the global
    per-cell minimum: shifting the assertion constant by its negation
    always yields a Verified assertion.
    """
    restriction = a.restriction_box(in_box)
    if restriction is None:
        return Verdict(VerdictStatus.VERIFIED, float("inf"), "vacuous")
    cell_options = AnalysisOptions(
        mode=options.mode,
        domain=options.domain,
        track_all=options.track_all,
        subdiv=None,  # the grid is handled here, one analysis per cell
        eps=options.eps,
        keep_layer_records=False,
    )
    worst = float("inf")
    all_ok = True
    for cell in grid.cells():
        meet = cell.intersect(restriction)
        if meet is EMPTY:
            continue
        res = analyze(net, cell, cell_options)
        cell_assert = LinearAssertion(
            a.in_coeffs, a.out_coeffs, a.const, _intervals_of(meet), a.name
        )
        v = check(cell_assert, res, eps=eps)
        worst = min(worst, v.minimum)
        all_ok &= v.verified
    status = VerdictStatus.VERIFIED if all_ok else VerdictStatus.UNKNOWN
    return Verdict(status, worst, "cellwise-zone-lp")


def _intervals_of(box: Box) -> tuple:
    return tuple((float(lo), float(hi)) for lo, hi in zip(box.lo, box.hi))
