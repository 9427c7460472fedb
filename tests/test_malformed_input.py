"""Malformed library input raises a typed error when the object is built.

Options of the wrong type, grid cell counts that are not integers and
weights that are not matrices raise InvalidDomain or DimensionMismatch
there, not an AttributeError, TypeError or ValueError inside ``analyze``;
a fractional count is not truncated.  Integer counts, Python or numpy,
are accepted, and strings are not read as numbers.  A restriction entry of a ``LinearAssertion`` that is not a pair of numbers
raises InvalidInterval, as an inverted one does.
"""

from __future__ import annotations

import numpy as np
import pytest

from troprelu import AnalysisOptions, Box, LinearAssertion, Network, SubdivisionGrid, analyze, check
from troprelu.errors import DimensionMismatch, InvalidDomain, InvalidInterval


@pytest.mark.parametrize(
    "field, value",
    [("domain", "octagon"), ("mode", "box"), ("subdiv", [2, 2]), ("mode", None), ("domain", 1)],
)
def test_options_of_the_wrong_type(field, value):
    with pytest.raises(InvalidDomain, match=field):
        AnalysisOptions(**{field: value})


@pytest.mark.parametrize("counts", [[1.5, 1], 1.5, [np.float64(2.0), 1], "2", ["2", 1], None, [2, None]])
def test_non_integer_cell_counts(unit_box2, counts):
    with pytest.raises(InvalidDomain):
        SubdivisionGrid.uniform(unit_box2, counts)


@pytest.mark.parametrize(
    "counts, n_cells",
    [(2, 4), (np.int64(3), 9), ([2, 3], 6), ([np.int32(2), 1], 2), (np.array([4, 2]), 8)],
)
def test_integer_cell_counts(unit_box2, counts, n_cells):
    grid = SubdivisionGrid.uniform(unit_box2, counts)
    assert grid.n_cells == n_cells
    assert np.array_equal(grid.box.lo, unit_box2.lo) and np.array_equal(grid.box.hi, unit_box2.hi)


@pytest.mark.parametrize("shape", [(2, 2, 2), (1, 2, 2), (2, 2, 1, 1)])
def test_weights_that_are_not_matrices(shape):
    with pytest.raises(DimensionMismatch):
        Network((np.zeros(shape),), (np.zeros(2),))


def test_weights_of_a_later_layer(running_net):
    with pytest.raises(DimensionMismatch):
        Network(running_net.weights + (np.zeros((1, 2, 1)),), running_net.biases + (np.zeros(1),))


def test_matrices_still_analyse(unit_box2):
    # a 1-D weight row is still read as a 1 x m matrix
    net = Network(([1.0, -1.0],), ([0.5],))
    assert net.weights[0].shape == (1, 2)
    assert analyze(net, unit_box2).bounds[-1].hi[0] == 2.5


@pytest.mark.parametrize("entry", [(0.0,), 0.5, (0.0, "a"), (0.0, 0.5, 1.0), "01", (0.0, None)])
def test_restriction_entries_that_are_not_pairs_of_numbers(entry):
    with pytest.raises(InvalidInterval, match="input 2"):
        LinearAssertion([0, 0], [1, 0], 0.0, (None, entry))


@pytest.mark.parametrize("entry", [(0, 1), [np.float64(-0.5), np.int64(1)], np.array([0.0, 0.5])])
def test_restriction_pairs_of_numbers(entry, running_net, unit_box2):
    a = LinearAssertion([0, 0], [1, 0], 0.0, (entry, None))
    assert a.restriction_box(unit_box2).lo[0] == max(-1.0, entry[0])
    assert np.isfinite(check(a, analyze(running_net, unit_box2)).minimum)
