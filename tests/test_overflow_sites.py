"""Two more sums of bounds that can leave the float range.

The octagon of an input box (``network._oct_from_box``) writes -(lo_i +
lo_j), and a layer's zone constants (``layers._constants``) write c_i -
c_k + R[i, k].  An upper bound that overflows bounds nothing, so it is
+inf, never -inf, which would read as a cycle below 0 (the rule of
``dbm._upper_sum``).  The point box at 1e308 and a layer whose biases are
1e308 and -1e308 reach these sites; pytest turns every numpy
RuntimeWarning into an error.  ``analyze`` on either net, in either
domain, raises ``UnboundedVariable`` or returns bounds that contain the
concrete values, and no matrix of the chain holds a -inf entry.
"""

from __future__ import annotations

import numpy as np
import pytest

from troprelu import network
from troprelu.dbm import INF, Box
from troprelu.errors import UnboundedVariable
from troprelu.layers import AffineLayer, zone_constants
from troprelu.network import AbsDomain, AnalysisOptions, Network, analyze
from troprelu.subdivision import SubdivisionGrid

POINT = (Network(([[1.0]], [[1.0]]), ([0.0], [0.0])), Box([1e308], [1e308]))
BIASES = (Network(([[1.0], [1.0]], [[1.0, 1.0]]), ([1e308, -1e308], [0.0])), Box([0.0], [1.0]))


@pytest.fixture
def matrices(monkeypatch):
    """Every matrix the chain builds: the box's octagon, each layer's zone
    or octagon, and what each step returns."""
    seen = []

    def spy(name, out):
        real = getattr(network, name)

        def wrapped(*args, **kwargs):
            got = real(*args, **kwargs)
            seen.extend(out(got))
            return got

        monkeypatch.setattr(network, name, wrapped)

    spy("_oct_from_box", lambda o: [o.entries])
    spy("_oct_entries", lambda e: [e])
    spy("zone_dbm", lambda d: [d.entries])
    for step in ("_zone_step", "_oct_step"):
        spy(step, lambda pair: [m.entries for m in pair])
    return seen


def test_octagon_of_a_box_at_1e308():
    e = network._oct_from_box(Box([1e308], [1e308])).entries
    assert e.tolist() == [[0.0, INF], [INF, 0.0]]


def test_octagon_of_boxes_whose_differences_overflow():
    # x0 - x1 <= -2e308 and the sums of the two lower bounds overflow
    # below; every other entry is the sum as written
    lo = np.array([[-1e308, 1e308], [1e308, 1e308], [0.0, 0.0]])
    hi = np.array([[-1e308, 1e308], [1e308, 1e308], [0.0, 1.0]])
    e = network._oct_from_box(Box(lo, hi)).entries
    assert not (e == -INF).any() and not np.isnan(e).any()
    assert e[0, 0, 1] == INF and e[0, 3, 1] == INF and e[0, 1, 0] == INF
    assert e[1].tolist() == [[0.0, 0.0, INF, INF], [0.0, 0.0, INF, INF], [INF, INF, 0.0, 0.0], [INF, INF, 0.0, 0.0]]
    assert not np.signbit(e[2]).any()  # a zero sum is +0.0
    assert e[2].tolist() == [[0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 1.0, 2.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0]]


def test_zone_constants_of_biases_at_1e308():
    k = zone_constants(AffineLayer([[1.0], [1.0]], [1e308, -1e308], Box([0.0], [1.0])))
    assert k.diff.tolist() == [[0.0, INF], [INF, 0.0]]
    k = zone_constants(AffineLayer([[1.0], [1.0]], [1e308, -1e308], Box([[0.0], [0.5]], [[0.5], [1.0]])))
    assert k.diff.tolist() == [[[0.0, INF], [INF, 0.0]]] * 2


@pytest.mark.parametrize("domain", list(AbsDomain))
@pytest.mark.parametrize("track_all", [False, True])
@pytest.mark.parametrize("grid", [False, True])
@pytest.mark.parametrize("net, box", [POINT, BIASES], ids=["point_box", "biases"])
def test_analyze_is_unbounded_or_sound(matrices, net, box, domain, track_all, grid):
    # a point box is one cell of its grid
    subdiv = SubdivisionGrid.uniform(box, [2 if box.hi[0] > box.lo[0] else 1]) if grid else None
    try:
        res = analyze(net, box, AnalysisOptions(domain=domain, track_all=track_all, subdiv=subdiv))
    except UnboundedVariable:
        res = None
    assert matrices
    for m in matrices:
        assert not (m == -INF).any() and not np.isnan(m).any()
    if domain is AbsDomain.OCTAGON:
        assert res is None  # the doubled bound 2e308 cannot be stored
        return
    assert res is not None
    x = np.linspace(box.lo, box.hi, 11)
    for b, v in zip(res.bounds, net.trace(x)):
        assert (b.lo <= v).all() and (v <= b.hi).all()
