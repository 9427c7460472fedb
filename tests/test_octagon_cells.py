"""The octagon chain on a stacked grid: chunk sizes, memory and errors.

A grid's cells pass through the octagon chain together, on a leading cell
axis, as they do through the zone chain.  An octagon cell counts four
times a zone cell's floats, so its chunks hold a quarter of the cells; a
failing chunk raises what analysing its cells one by one raises.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import troprelu.network as network
from troprelu import AnalysisOptions, Box, LinearAssertion, Network, SubdivisionGrid, analyze, check
from troprelu.dbm import EMPTY, OctDbm, oct_close
from troprelu.errors import EmptyAbstraction
from troprelu.network import AbsDomain

from test_layer_chain import battery
from test_lazy_generators import pre_zones  # noqa: F401  (a fixture)
from test_stacked_cells import assertions_of, last_pre_zones, outcome, same_bits

OCTAGON = AnalysisOptions(domain=AbsDomain.OCTAGON)


def hundred_wide_net():
    """The 2 -> 100 -> 2 -> 1 net of the zone-domain memory test."""
    rng = np.random.default_rng(9)
    sizes = (2, 100, 2, 1)
    return Network(
        tuple(rng.standard_normal((b, a)) / np.sqrt(a) for a, b in zip(sizes, sizes[1:])),
        tuple(0.1 * rng.standard_normal(b) for b in sizes[1:]),
    )


class TestStackedClosure:
    def test_a_stack_is_empty_if_one_octagon_is(self):
        stack = network._oct_from_box(Box([[0.0], [0.0]], [[1.0], [1.0]])).entries.copy()
        stack[1, 0, 1] = -3.0  # x <= -1.5 against x >= 0
        assert oct_close(OctDbm(stack[1])) is EMPTY
        assert oct_close(OctDbm(stack)) is EMPTY
        assert same_bits(oct_close(OctDbm(stack[:1])).entries[0], oct_close(OctDbm(stack[0])).entries)


class TestChunkSize:
    def test_octagon_counts_the_doubled_space(self):
        net = hundred_wide_net()
        assert network._cell_floats(net, False, octagon=True) == 4 * network._cell_floats(net, False)
        assert network._cell_floats(net, True, True) == 4 * network._cell_floats(net, True)

    @pytest.mark.parametrize("per_chunk", [4, 12])
    def test_chunks_change_nothing(self, monkeypatch, pre_zones, per_chunk):
        # 8 cells in chunks of one, or of three with the last one partial:
        # the patched budget counts zone-sized cells, four per octagon cell
        for track_all in (False, True):
            options = replace(OCTAGON, track_all=track_all)
            for net, box, objectives in battery()[:12]:
                opts = replace(options, subdiv=SubdivisionGrid.uniform(box, [2, 4] + [1] * (box.dim - 2)))
                pre_zones.clear()
                whole = outcome(analyze, net, box, opts)
                whole_zones = pre_zones[:]
                pre_zones.clear()
                with monkeypatch.context() as m:
                    m.setattr(network, "_CELL_FLOATS", per_chunk * network._cell_floats(net, track_all))
                    split = outcome(analyze, net, box, opts)
                if isinstance(whole, tuple):
                    assert split == whole
                    continue
                assert same_bits(split.zone.entries, whole.zone.entries)
                assert same_bits(split._cell_stack[2], whole._cell_stack[2])
                for a, b in zip(split.bounds, whole.bounds):
                    assert same_bits(a.lo, b.lo) and same_bits(a.hi, b.hi)
                whole_pre = last_pre_zones(whole_zones, net)
                assert same_bits(last_pre_zones(pre_zones, net), whole_pre) and len(whole_pre) == 8
                assert same_bits(split._hull, whole._hull)
                for a in assertions_of(box, objectives):
                    assert check(a, split) == check(a, whole)


class TestMemory:
    def test_64_octagon_cells_on_a_100_wide_layer(self, monkeypatch, record_property):
        # the first layer's doubled meet is 204 x 204 per cell, and the
        # octagon step keeps several such stacks alive at once.  Counted as
        # zone cells, 25 cells share a chunk of 2^20 floats and the peak is
        # about nine chunks.  Counted four times, a few stacked matrices of
        # at most _CELL_FLOATS floats are alive at once: the bound allows
        # three.
        monkeypatch.setattr(network, "_CELL_FLOATS", 1 << 20)
        net = hundred_wide_net()
        box = Box(-np.ones(2), np.ones(2))
        grid = SubdivisionGrid.uniform(box, [8, 8])
        tracemalloc.start()
        try:
            res = analyze(net, box, replace(OCTAGON, subdiv=grid))
            verdict = check(LinearAssertion([0, 0], [1], 0.0), res)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        record_property("peak_mb", round(peak / 2**20, 1))
        assert len(res.cells) == 64 and verdict.verified
        assert peak < 3 * network._CELL_FLOATS * 8, f"{peak / 2**20:.1f} MB"


class TestErrors:
    def test_first_failing_cell_decides(self, monkeypatch, running2_net, unit_box2):
        # of four cells along x1, the second fails at the second layer and
        # the fourth at the first; cell by cell, the second comes first and
        # raises its error
        oct_step = network._oct_step

        def failing(oct_zone, cur, layer, k_oct, act, kept, eps):
            x1_hi = np.atleast_1d(oct_zone.entries[..., 0, oct_zone.dim] / 2.0)
            if cur[0] == 0 and (x1_hi > 0.5).any():
                raise EmptyAbstraction("the fourth cell fails at the first layer")
            if cur[0] != 0 and ((x1_hi > -0.5) & (x1_hi <= 0.0)).any():
                raise EmptyAbstraction("the second cell fails at the second layer")
            return oct_step(oct_zone, cur, layer, k_oct, act, kept, eps)

        monkeypatch.setattr(network, "_oct_step", failing)
        grid = SubdivisionGrid.uniform(unit_box2, [4, 1])
        with pytest.raises(EmptyAbstraction, match="the second cell fails at the second layer"):
            analyze(running2_net, unit_box2, replace(OCTAGON, subdiv=grid))
