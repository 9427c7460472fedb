"""``diagnostics["domain"]`` names the domain whose chain ran.

The octagon runs in zone mode only: box and external mode reset the
carried relation to a box before each layer, so they run the zone chain
whatever domain was asked for.  The records show which step ran: only the
octagon's lists its ReLU image's slots (``relu_slots``).  The CLI report
names the domain that ran, not the one asked for.
"""

from __future__ import annotations

import json

import pytest

from troprelu import AbsDomain, AnalysisOptions, ChainMode, SubdivisionGrid, analyze
from troprelu.cli import run_cli

from conftest import FIXTURES


@pytest.mark.parametrize("grid", [False, True])
@pytest.mark.parametrize("domain", list(AbsDomain))
@pytest.mark.parametrize("mode", list(ChainMode))
def test_octagon_iff_zone_mode(running2_net, unit_box2, mode, domain, grid):
    subdiv = SubdivisionGrid.uniform(unit_box2, [2, 1]) if grid else None
    res = analyze(running2_net, unit_box2, AnalysisOptions(mode=mode, domain=domain, subdiv=subdiv))
    octagon = mode is ChainMode.ZONE and domain is AbsDomain.OCTAGON
    assert res.diagnostics["domain"] == ("octagon" if octagon else "zone")
    assert res.diagnostics["cells"] == (2 if grid else 1)
    for rec in res.diagnostics.get("layers", []):
        assert ("relu_slots" in rec["sizes"]) == octagon


@pytest.mark.parametrize("mode", [ChainMode.BOX, ChainMode.EXTERNAL])
def test_box_and_external_mode_ignore_the_octagon(running2_net, unit_box2, mode):
    # the zone chain ran, so the octagon request changes no bound
    asked = analyze(running2_net, unit_box2, AnalysisOptions(mode=mode, domain=AbsDomain.OCTAGON))
    zone = analyze(running2_net, unit_box2, AnalysisOptions(mode=mode))
    for a, b in zip(asked.bounds, zone.bounds):
        assert a.lo.tobytes() == b.lo.tobytes() and a.hi.tobytes() == b.hi.tobytes()
    assert asked.zone.entries.tobytes() == zone.zone.entries.tobytes()


@pytest.mark.parametrize("mode, ran", [("box", "zone"), ("external", "zone"), ("zone", "octagon")])
def test_cli_report_names_the_domain_that_ran(mode, ran, tmp_path):
    report = tmp_path / "r.json"
    argv = ["--network", str(FIXTURES / "running.nt"), "--spec", str(FIXTURES / "p2.spec")]
    run_cli(argv + ["--mode", mode, "--domain", "octagon", "--report", str(report)])
    assert json.loads(report.read_text())["domain"] == ran
