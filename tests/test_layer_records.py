"""Layer records hold the step's own pre-activation zone.

A run without a grid keeps one record per layer in
``diagnostics["layers"]``.  Its ``preact_zone`` is the closed zone over
(carried, h) that the layer's step built, not a copy with the ReLU image
appended, so keeping records costs no matrix work: the zone domain calls
``_relu_append`` once per ReLU layer, from ``_zone_step``, and the octagon
domain not at all.  A grid run keeps no records, nor does any stacked
chunk of its cells.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import pytest

import troprelu.network as network
from troprelu import AbsDomain, ChainMode, SubdivisionGrid, analyze

from test_layer_chain import battery, settings

SETTINGS = list(settings())
IDS = [name for name, _ in SETTINGS]
NETS = battery()


@pytest.fixture
def spies(monkeypatch):
    """The pre-activation zone each step returned, in order, and the name
    of the function that called ``_relu_append`` at each call."""
    pre_zones, callers = [], []
    relu_append = network._relu_append

    def recording(step):
        def record(*args):
            out = step(*args)
            pre_zones.append(out[-1])
            return out

        return record

    def record_relu_append(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return relu_append(*args, **kwargs)

    monkeypatch.setattr(network, "_zone_step", recording(network._zone_step))
    monkeypatch.setattr(network, "_oct_step", recording(network._oct_step))
    monkeypatch.setattr(network, "_relu_append", record_relu_append)
    return pre_zones, callers


def _runs(options, spies):
    """(net, result) per battery net, the spies cleared before each run."""
    pre_zones, callers = spies
    for net, box, _ in NETS:
        pre_zones.clear()
        callers.clear()
        yield net, analyze(net, box, options)


@pytest.mark.parametrize("name, options", SETTINGS, ids=IDS)
def test_one_record_per_layer_holding_the_steps_zone(name, options, spies):
    pre_zones, _ = spies
    for net, res in _runs(options, spies):
        records = res.diagnostics["layers"]
        assert len(records) == net.n_layers == len(pre_zones)
        for li, (rec, zone) in enumerate(zip(records, pre_zones)):
            assert rec["stage"] == li + 1
            dbm, keys = rec["preact_zone"]["dbm"], rec["preact_zone"]["keys"]
            assert dbm.entries.shape == zone.entries.shape
            assert dbm.entries.tobytes() == zone.entries.tobytes()
            assert len(keys) == dbm.dim == len(set(keys))
            n_new = net.sizes[li + 1]
            assert keys[-n_new:] == [("pre", j) for j in range(n_new)]
            assert all(s <= li for s, _ in keys[:-n_new])


@pytest.mark.parametrize("name, options", SETTINGS, ids=IDS)
def test_relu_append_once_per_relu_layer_in_the_zone_domain(name, options, spies):
    _, callers = spies
    octagon = options.mode is ChainMode.ZONE and options.domain is AbsDomain.OCTAGON
    for net, res in _runs(options, spies):
        assert res.diagnostics["domain"] == ("octagon" if octagon else "zone")
        relu_layers = sum(net.has_relu(li) for li in range(net.n_layers))
        assert callers == ([] if octagon else ["_zone_step"] * relu_layers)


@pytest.mark.parametrize("name, options", SETTINGS, ids=IDS)
def test_grid_run_keeps_no_records(name, options, monkeypatch):
    chunks = []
    analyze_chunk = network._analyze_chunk

    def record_chunk(*args):
        chunks.append(analyze_chunk(*args))
        return chunks[-1]

    monkeypatch.setattr(network, "_analyze_chunk", record_chunk)
    for net, box, _ in NETS:
        grid = SubdivisionGrid.uniform(box, [2, 2] + [1] * (box.dim - 2))
        res = analyze(net, box, replace(options, subdiv=grid))
        assert "layers" not in res.diagnostics
        assert res.diagnostics["cells"] == 4
    assert len(chunks) == len(NETS)
    assert all(chunk.diagnostics["layers"] == [] for chunk in chunks)
