"""Input errors of the CLI and the network-file parser.

A spec whose ``input_box`` or ``restrict_box`` lists the wrong number of
inputs, a ``--csv`` or ``--subdiv`` argument that names no tracked
variable or is badly formed, and a network file that stops early or gives
a layer no neurons each exit 1 with one ``troprelu: error:`` line and no
traceback; the parser raises MalformedFile naming the file.  The
hidden-layer names of ``--track all`` (``h1_1``) are valid ``--csv``
dimensions.  A restriction slot list that does not fit the zone and the
box raises DimensionMismatch from ``min_over_zone``, closed zone or not.
"""

from __future__ import annotations

import numpy as np
import pytest

from troprelu import Box, Dbm, min_over_zone, parse_sherlock
from troprelu.cli import run_cli
from troprelu.errors import DimensionMismatch, MalformedFile

from conftest import FIXTURES

RUNNING = str(FIXTURES / "running.nt")
P1 = str(FIXTURES / "p1.spec")


def exits_one(capsys, args) -> str:
    """The error line of a CLI call that must exit 1."""
    assert run_cli(args) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("troprelu: error:"), captured.err
    assert "Traceback" not in captured.out + captured.err
    return lines[0]


SPECS = {
    "input_box": ('{"input_box": [[-1, 1]]}', "input_box must list 2 intervals"),
    "restrict_box": (
        '{"input_box": [[-1, 1], [-1, 1]],'
        ' "assertions": [{"out_coeffs": [1, 0], "restrict_box": [null]}]}',
        "restrict_box must list 2 entries",
    ),
}


@pytest.mark.parametrize("case", sorted(SPECS))
def test_spec_of_the_wrong_length(case, tmp_path, capsys):
    text, message = SPECS[case]
    spec = tmp_path / "bad.spec"
    spec.write_text(text)
    line = exits_one(capsys, ["--network", RUNNING, "--spec", str(spec)])
    assert str(spec) in line and message in line


@pytest.mark.parametrize(
    "dims, message",
    [
        ("q1,y1:{}", "unknown dimension 'q1'"),
        ("y1,y1:{}", "two distinct tracked dimensions"),
        ("y1,y2", "--csv expects DIMS:PATH"),
        ("y1:{}", "exactly two dimension names"),
    ],
)
def test_bad_csv(dims, message, tmp_path, capsys):
    csv = tmp_path / "o.csv"
    line = exits_one(capsys, ["--network", RUNNING, "--spec", P1, "--csv", dims.format(csv)])
    assert message in line
    assert not csv.exists()


@pytest.mark.parametrize(
    "subdiv, message", [("z1:2", "input names like x1, got 'z1'"), ("x9:2", "no input named x9")]
)
def test_bad_subdiv_name(subdiv, message, capsys):
    line = exits_one(capsys, ["--network", RUNNING, "--spec", P1, "--subdiv", subdiv])
    assert message in line


def test_csv_of_a_hidden_neuron(tmp_path, capsys):
    csv = tmp_path / "o.csv"
    args = ["--network", str(FIXTURES / "running2.nt"), "--spec", P1, "--track", "all", "--csv", f"h1_1,y1:{csv}"]
    assert run_cli(args) in (0, 2)
    lines = csv.read_text().splitlines()
    assert lines[0] == "kind,h1_1,y1"
    assert any(line.startswith("generator,") for line in lines[1:])


NETWORKS = {
    "stops before the hidden-layer count": ("2 2", "missing hidden layer count"),
    "zero layer size": ("2 2 1 0", "layer sizes must be positive"),
    "layer short of numbers": ("2 1 0 1 2", "layer 0 needs 3 numbers, only 2 left"),
}


@pytest.mark.parametrize("case", sorted(NETWORKS))
def test_malformed_network_file(case, tmp_path, capsys):
    text, message = NETWORKS[case]
    path = tmp_path / "bad.nt"
    path.write_text(text)
    with pytest.raises(MalformedFile, match=message) as exc:
        parse_sherlock(path)
    assert str(path) in str(exc.value)
    line = exits_one(capsys, ["--network", str(path), "--spec", P1])
    assert str(path) in line and message in line


@pytest.mark.parametrize("closed", [True, False])
@pytest.mark.parametrize("slots", [[1, 2], [], [0], [3]])
def test_restriction_slots_that_do_not_fit(closed, slots):
    zone = Dbm(Box([0.0, 0.0], [1.0, 1.0]).to_dbm().entries, closed=closed)
    with pytest.raises(DimensionMismatch):
        min_over_zone(zone, Box([0.0], [0.5]), np.array([1.0, -1.0]), restrict_slots=slots)
