"""The layer's generator form, inequality rows and octagon, built from its
tight zone.

``layers.zone_internal`` reads the zone's m + n + 1 extreme points off
``zone_dbm`` through ``tropical.zone_to_internal``,
``layers.zone_external`` writes its rows by block, and
``layers._oct_entries`` takes its ++ block from ``zone_dbm``'s difference
block and its -- block from that block's transpose.  Each is compared with
its explicit construction in ``reference.py`` on seeded layers drawn over
boxes of every kind: integer-valued weights and bounds, point boxes,
1e-12-wide boxes, and zero-weight, dead and all-zero layers.  The points
agree within 1e-12 (1 + |v|), in the same order; the rows bit for bit; the
octagon bit for bit, in both slot layouts, on one box and on a stack.
Bit for bit includes the sign of every zero.
"""

from __future__ import annotations

import numpy as np
import pytest

from troprelu.layers import _oct_entries, oct_constants, zone_constants, zone_external, zone_internal

from reference import oct_entries_explicit, zone_external_explicit, zone_internal_explicit
from test_factored_meet import draw_box
from test_interface_closure import KINDS, TOL, draw_layer
from test_stacked_cells import same_bits

N_LAYERS = 800  # per kind: 3200 layers in all


@pytest.mark.parametrize("kind", KINDS)
def test_zone_internal_reads_the_explicit_points(kind):
    rng = np.random.default_rng(KINDS.index(kind))
    for trial in range(N_LAYERS):
        layer = draw_layer(rng, kind, draw_box(rng, kind, int(rng.integers(1, 5))))
        k = zone_constants(layer)
        got = zone_internal(k, layer).generators
        want = zone_internal_explicit(k, layer).generators
        assert got.shape == want.shape, trial
        assert (np.abs(got - want) <= TOL * (1.0 + np.abs(want))).all(), trial


@pytest.mark.parametrize("interface", [False, True], ids=["doubled", "interface"])
@pytest.mark.parametrize("cells", [None, 3], ids=["one", "stack"])
@pytest.mark.parametrize("kind", KINDS)
def test_oct_entries_match_every_block_written_out(kind, cells, interface):
    rng = np.random.default_rng([KINDS.index(kind), cells or 1, interface])
    for trial in range(N_LAYERS // 2):
        layer = draw_layer(rng, kind, draw_box(rng, kind, int(rng.integers(1, 5)), cells))
        k = oct_constants(layer)
        got = _oct_entries(k, layer, interface=interface)
        assert same_bits(got, oct_entries_explicit(k, layer, interface=interface)), trial


@pytest.mark.parametrize("kind", KINDS)
def test_zone_external_writes_the_explicit_rows(kind):
    rng = np.random.default_rng(KINDS.index(kind) + len(KINDS))
    for trial in range(N_LAYERS // 2):
        layer = draw_layer(rng, kind, draw_box(rng, kind, int(rng.integers(1, 5))))
        k = zone_constants(layer)
        got, want = zone_external(k, layer), zone_external_explicit(k, layer)
        assert same_bits(got.lhs, want.lhs) and same_bits(got.rhs, want.rhs), trial
