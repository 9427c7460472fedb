"""The octagon ReLU image filled by slices, against the fancy-index build.

``network._oct_relu_append`` gathers the slots the image reads, the kept
variables and the pre-activations in the image's order (+kept, +h, -kept,
-h), with one row take and one column take, then turns the h rows and
columns into the copies' by slices of that matrix.
``reference.reference_oct_relu_append`` is the build it replaced, nine 2-d
fancy gathers and scatters; the two must agree bit for bit, signs of zeros
included, on random strongly closed octagons and stacks of them, with
+0.0, -0.0 and +inf entries, unsorted ``keep`` and ``h_vars``, an empty
``keep`` and the default (every variable kept).
"""

from __future__ import annotations

import numpy as np
import pytest

from troprelu import network
from troprelu.dbm import INF, OctDbm, oct_close

from reference import reference_oct_relu_append
from test_oct_closure import random_octagon


def same_bits(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(np.signbit(got), np.signbit(want))


def draw(rng, n, cells, integer):
    """A strongly closed octagon over n variables (a stack of ``cells`` of
    them, or one), some entries then set to +0.0, -0.0 or +inf."""
    count = 1 if cells is None else cells
    ms = np.stack([random_octagon(rng, n, drop=0.3, integer=integer) for _ in range(count)])
    closed = oct_close(OctDbm(ms if cells else ms[0]))
    if not isinstance(closed, OctDbm):
        return None
    e = closed.entries.copy()
    for value, share in ((0.0, 0.1), (-0.0, 0.1), (INF, 0.05)):
        e[rng.random(e.shape) < share] = value
    return OctDbm(e, closed=True)


@pytest.mark.parametrize("cells", [None, 1, 4])
@pytest.mark.parametrize("integer", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_matches_the_fancy_index_build(seed, integer, cells):
    rng = np.random.default_rng(3300 + seed)
    done = 0
    for _ in range(30):
        n = int(rng.integers(1, 8))
        o = draw(rng, n, cells, integer)
        if o is None:
            continue
        h_vars = rng.permutation(n)[: int(rng.integers(1, n + 1))].tolist()
        keep = rng.permutation(n)[: int(rng.integers(0, n + 1))].tolist()
        for kept in (keep, [], None):
            got = network._oct_relu_append(o, h_vars, keep=kept)
            want = reference_oct_relu_append(o, h_vars, keep=kept)
            assert got.closed
            same_bits(got.entries, want.entries)
        done += 1
    assert done >= 20


def test_deep_layer_shape():
    # a deep benchmark middle layer: 8 inputs kept, 32 copies of the
    # pre-activations of a 72-variable octagon, its h slots last
    rng = np.random.default_rng(3400)
    o = oct_close(OctDbm(random_octagon(rng, 72, drop=0.0)))
    h_vars, keep = list(range(40, 72)), list(range(8))
    same_bits(network._oct_relu_append(o, h_vars, keep=keep).entries, reference_oct_relu_append(o, h_vars, keep=keep).entries)
