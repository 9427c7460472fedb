"""Refinement of layer abstractions by partitioning the input box.

Two mechanisms, both sound:

* general case (``subdivide_constraints``): extra external rows valid for
  the whole graph, one family per interior cut (per input/output pair,
  plus aggregate rows over input groups and output groups of at most
  ``MAX_GROUP`` outputs).  A library function for callers who want the
  rows; the network analysis does not use them, since a grid there always
  means the cell-wise analysis below.

* cell-wise analysis: ``network.analyze`` with a ``SubdivisionGrid``
  analyses the whole network over every grid cell separately and joins
  the cells.  Precision grows with the grid: when each cell of a grid
  lies inside a cell of a coarser one, its zone is never larger.  The one
  cell loop first checks the grid against ``CELL_BUDGET``
  (``check_cell_budget``).
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dbm import Box
from .errors import CellBudgetExceeded, InvalidDomain
from .maxplus import BOTTOM
from .tropical import TropExternal
from .layers import AffineLayer, zone_constants


CELL_BUDGET = 1024  # most grid cells one analysis may run
MAX_GROUP = 2  # largest output subset used for the group rows


def check_cell_budget(n_cells: int) -> None:
    """Raise CellBudgetExceeded when a grid of ``n_cells`` cells exceeds
    ``CELL_BUDGET``."""
    if n_cells > CELL_BUDGET:
        raise CellBudgetExceeded(f"{n_cells} cells exceed the budget of {CELL_BUDGET}")


@dataclass(frozen=True)
class SubdivisionGrid:
    """Per-input cut points; cuts[i] runs from the box lower to upper bound.
    A point interval c is one cell, cuts [c, c]."""

    cuts: tuple

    def __post_init__(self):
        cuts = tuple(np.asarray(c, dtype=float) for c in self.cuts)
        object.__setattr__(self, "cuts", cuts)
        for c in cuts:
            if c.ndim != 1 or c.shape[0] < 2:
                raise InvalidDomain("each dimension needs at least two cut points")
            if not (np.diff(c) > 0).all() and not (c.shape[0] == 2 and c[0] == c[1]):
                raise InvalidDomain("cut points must be strictly increasing")

    @property
    def dim(self) -> int:
        return len(self.cuts)

    @property
    def box(self) -> Box:
        return Box([c[0] for c in self.cuts], [c[-1] for c in self.cuts])

    @property
    def n_cells(self) -> int:
        out = 1
        for c in self.cuts:
            out *= c.shape[0] - 1
        return out

    def cell_bounds(self):
        """Lower and upper corners of all grid cells, arrays of shape
        (n_cells, dim), in lexicographic order (the last input fastest)."""
        lo = np.meshgrid(*[c[:-1] for c in self.cuts], indexing="ij")
        hi = np.meshgrid(*[c[1:] for c in self.cuts], indexing="ij")
        return (
            np.stack([g.reshape(-1) for g in lo], axis=-1),
            np.stack([g.reshape(-1) for g in hi], axis=-1),
        )

    def cells(self):
        """All grid cells as boxes, in the order of ``cell_bounds``."""
        for lo, hi in zip(*self.cell_bounds()):
            yield Box(lo, hi)

    @staticmethod
    def uniform(box: Box, n_cells) -> "SubdivisionGrid":
        """Uniform grid; n_cells is an integer, or one integer per dimension."""
        counts = [n_cells] * box.dim if np.ndim(n_cells) == 0 else list(n_cells)
        if len(counts) != box.dim:
            raise InvalidDomain("one cell count per input dimension required")
        cuts = []
        for j, n in enumerate(counts):
            if not isinstance(n, numbers.Integral) or n < 1:
                raise InvalidDomain(f"cell counts must be integers >= 1, got {n!r}")
            cuts.append(np.linspace(box.lo[j], box.hi[j], n + 1))
            if n > 1 and not (np.diff(cuts[-1]) > 0).all():
                lo, hi = float(box.lo[j]), float(box.hi[j])
                raise InvalidDomain(f"input x{j + 1} in [{lo!r}, {hi!r}] is too narrow for {n} cells")
        return SubdivisionGrid(tuple(cuts))


def _greedy_unit_sum(slopes: np.ndarray, candidates: Sequence[int]):
    """Maximal subset with total slope <= 1: greedy by ascending slope."""
    order = sorted(candidates, key=lambda i: (slopes[i], i))
    chosen = []
    total = 0.0
    for i in order:
        if total + slopes[i] <= 1.0 + 1e-12:
            chosen.append(i)
            total += slopes[i]
    return sorted(chosen)


def subdivide_constraints(layer: AffineLayer, grid: SubdivisionGrid) -> TropExternal:
    """Extra external rows induced by a grid, over (x_1..x_m, y_1..y_n).

    Per interior cut c of input i and output j (slope = w_ji):
        slope <= 0:      0 <= max(x_i - c, y_j - out_lo_j + slope (b_i - c))
        0 <= slope <= 1: y_j - out_hi_j + slope (b_i - c) <= max(0, x_i - c)
        slope >= 1:      x_i - c <= max(0, y_j - out_lo_j - slope (c - a_i))

    Aggregate rows combine all nonpositive-slope inputs (and a maximal
    group of slopes summing to <= 1) at the common interior cut index.
    A group row per output subset J of at most ``MAX_GROUP`` outputs bounds
    sum_J y below by its exact minimum, split across the members
    proportionally to their ranges; the max(0, .) guard is dropped only
    when the group slopes sum to exactly 1, where the convex-combination
    bound needs no fallback branch.
    Singleton groups reduce to the base lower bound and are skipped.
    """
    if grid.dim != layer.n_inputs:
        raise InvalidDomain("grid dimension must match layer inputs")
    k = zone_constants(layer)
    m = layer.n_inputs
    n = layer.n_outputs
    w = layer.weights
    a = layer.in_box.lo
    b = layer.in_box.hi
    width = 1 + m + n
    lhs_rows, rhs_rows = [], []

    def new_row():
        return np.full(width, BOTTOM), np.full(width, BOTTOM)

    for i in range(m):
        for c in grid.cuts[i][1:-1]:
            for j in range(n):
                slope = w[j, i]
                lhs, rhs = new_row()
                if slope <= 0:
                    lhs[0] = 0.0
                    rhs[1 + i] = -c
                    rhs[1 + m + j] = -k.out_lo[j] + slope * (b[i] - c)
                elif slope <= 1:
                    lhs[1 + m + j] = -k.out_hi[j] + slope * (b[i] - c)
                    rhs[0] = 0.0
                    rhs[1 + i] = -c
                else:
                    lhs[1 + i] = -c
                    rhs[0] = 0.0
                    rhs[1 + m + j] = -k.out_lo[j] - slope * (c - a[i])
                lhs_rows.append(lhs)
                rhs_rows.append(rhs)

    interior_counts = [grid.cuts[i].shape[0] - 2 for i in range(m)]
    for j in range(n):
        neg = [i for i in range(m) if w[j, i] <= 0]
        if neg:
            common = min(interior_counts[i] for i in neg)
            for kk in range(1, common + 1):
                cut = np.array([grid.cuts[i][kk] for i in neg])
                sigma = float(sum(w[j, i] * (b[i] - grid.cuts[i][kk]) for i in neg))
                lhs, rhs = new_row()
                lhs[0] = 0.0
                rhs[1 + m + j] = -k.out_lo[j] + sigma
                for pos, i in enumerate(neg):
                    rhs[1 + i] = -cut[pos]
                lhs_rows.append(lhs)
                rhs_rows.append(rhs)
        unit = _greedy_unit_sum(w[j], [i for i in range(m) if 0 <= w[j, i] <= 1])
        if unit:
            common = min(interior_counts[i] for i in unit)
            full_sum = abs(float(w[j, unit].sum()) - 1.0) <= 1e-12
            for kk in range(1, common + 1):
                sigma = float(sum(w[j, i] * (b[i] - grid.cuts[i][kk]) for i in unit))
                lhs, rhs = new_row()
                lhs[1 + m + j] = -k.out_hi[j] + sigma
                if not full_sum:
                    rhs[0] = 0.0
                for i in unit:
                    rhs[1 + i] = -grid.cuts[i][kk]
                lhs_rows.append(lhs)
                rhs_rows.append(rhs)

    for size in range(2, min(MAX_GROUP, n) + 1):
        for group in itertools.combinations(range(n), size):
            gsum = w[list(group)].sum(axis=0)
            group_lo = float(
                np.where(gsum > 0, gsum * a, gsum * b).sum()
                + layer.bias[list(group)].sum()
            )
            los = k.out_lo[list(group)]
            his = k.out_hi[list(group)]
            widths = his - los
            total = widths.sum()
            if total <= 0:
                split = np.full(size, (group_lo - los.sum()) / size)
            else:
                split = (group_lo - los.sum()) * widths / total
            u = los + split
            lhs, rhs = new_row()
            lhs[0] = 0.0
            for pos, j in enumerate(group):
                rhs[1 + m + j] = -u[pos]
            lhs_rows.append(lhs)
            rhs_rows.append(rhs)

    if not lhs_rows:
        return TropExternal.empty(m + n)
    return TropExternal(np.vstack(lhs_rows), np.vstack(rhs_rows))
