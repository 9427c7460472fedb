"""The octagon meet redone on a widened layer octagon at large magnitudes.

eps is absolute, and from about |x| = 1e7 the half-sum strengthening after
an octagon meet can round a diagonal entry of a nonempty meet below -eps.
``network._oct_step`` then redoes that meet once on the layer octagon
widened by ulps of the largest entry of either operand, as
``dbm._interface_close`` does for its own cycles, and raises only if the
redone meet still fails.  The point-box sweep of ``test_large_magnitudes``
returns in the octagon domain at every scale, each output box holding the
forward pass.  On a grid only the failing cells are redone: a grid mixing
a point cell with a wide one gives every cell the bits it gets alone.
"""

from __future__ import annotations

import numpy as np
import pytest

from troprelu import network
from troprelu.dbm import Box
from troprelu.network import AbsDomain, AnalysisOptions, analyze
from troprelu.subdivision import SubdivisionGrid

from test_large_magnitudes import assert_contains_forward_pass, point_nets
from test_stacked_cells import same_bits

OCTAGON = AnalysisOptions(domain=AbsDomain.OCTAGON)


@pytest.fixture
def strengthened(monkeypatch):
    """Records the per-matrix failure mask of each ``_strengthen`` call of
    the octagon chain."""
    masks = []
    real = network._strengthen

    def spy(m, n, eps):
        out = real(m, n, eps)
        masks.append(np.atleast_1d(out[1]).copy())
        return out

    monkeypatch.setattr(network, "_strengthen", spy)
    return masks


@pytest.mark.parametrize("scale", [1e3, 1e7, 1e8, 1e9, 1e12])
def test_point_box_sweep(scale, strengthened):
    for net, x in point_nets(scale):
        assert_contains_forward_pass(analyze(net, Box(x, x), OCTAGON), net, x)
    if scale >= 1e7:
        assert any(mask.any() for mask in strengthened)  # some meets were redone


def mixed_grid(x):
    """A 2-cell grid on the first input, a wide cell [x - 1000, x] and a
    near-point one [x, x + 1 ulp]; every other input near-point too."""
    up = np.nextafter(x, np.inf)
    cuts = (np.array([x[0] - 1000.0, x[0], up[0]]),) + tuple(np.array([a, b]) for a, b in zip(x[1:], up[1:]))
    return SubdivisionGrid(cuts), Box([c[0] for c in cuts], [c[-1] for c in cuts])


@pytest.mark.parametrize("scale", [1e7, 1e9, 1e12])
def test_grid_cells_keep_their_bits(scale, strengthened):
    mixed = 0
    for net, x in point_nets(scale, count=60):
        grid, box = mixed_grid(x)
        strengthened.clear()
        res = analyze(net, box, AnalysisOptions(domain=AbsDomain.OCTAGON, subdiv=grid))
        first = strengthened[0]
        mixed += bool(first.any() and not first.all())
        for cell, zone in res.cells:
            alone = analyze(net, cell, AnalysisOptions(domain=AbsDomain.OCTAGON))
            assert same_bits(zone.entries, alone.zone.entries)
    assert mixed > 0  # a stack in which some cells were redone and some not
