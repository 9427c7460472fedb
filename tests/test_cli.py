import json

import numpy as np
import pytest

from troprelu import Network, parse_sherlock, serialize_sherlock, zone_constants
from troprelu.cli import run_cli
from troprelu.errors import EmptyFile, MalformedFile
from troprelu.layers import AffineLayer
from troprelu.dbm import Box
from troprelu.sherlock import parse_sherlock_tokens

from conftest import FIXTURES


class TestParser:
    def test_running_file(self):
        net = parse_sherlock(FIXTURES / "running.nt")
        assert net.sizes == (2, 2)
        assert np.allclose(net.weights[0], [[1, -1], [1, 1]])
        assert np.allclose(net.biases[0], [-1, 1])
        layer = AffineLayer(net.weights[0], net.biases[0], Box([-1, -1], [1, 1]))
        k = zone_constants(layer)
        assert np.allclose(k.out_lo, [-3, -1]) and np.allclose(k.out_hi, [1, 3])

    def test_multi_file(self):
        net = parse_sherlock(FIXTURES / "multi.nt")
        assert net.sizes == (2, 3, 8)
        assert np.allclose(net.weights[0], [[1, 1], [1, -1], [-1, -1]])

    def test_weight_count_mismatch(self):
        tokens = "2 1 0 1 2 3 4".split()  # neuron needs 2 weights + bias = 3
        with pytest.raises(MalformedFile):
            parse_sherlock_tokens(tokens)

    def test_non_numeric_token(self):
        with pytest.raises(MalformedFile):
            parse_sherlock_tokens("2 1 zero".split())

    def test_trailing_tokens_strict(self):
        tokens = "1 1 0 2 0 99".split()
        with pytest.raises(MalformedFile):
            parse_sherlock_tokens(tokens)
        net = parse_sherlock_tokens(tokens, strict=False)
        assert net.sizes == (1, 1)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.nt"
        p.write_text("")
        with pytest.raises(EmptyFile):
            parse_sherlock(p)

    def test_roundtrip_all_fixtures(self):
        for name in ("running.nt", "running2.nt", "multi.nt", "krelu.nt"):
            src = (FIXTURES / name).read_text().split()
            net = parse_sherlock(FIXTURES / name)
            out = serialize_sherlock(net).split()
            assert [float(t) for t in src] == [float(t) for t in out], name


class TestCli:
    def test_p1_verified_exit_zero(self, capsys):
        rc = run_cli(
            ["--network", str(FIXTURES / "running.nt"), "--spec", str(FIXTURES / "p1.spec")]
        )
        assert rc == 0
        assert "p1: Verified" in capsys.readouterr().out

    def test_p2_unknown_exit_two(self, capsys):
        rc = run_cli(
            ["--network", str(FIXTURES / "running.nt"), "--spec", str(FIXTURES / "p2.spec")]
        )
        assert rc == 2
        assert "p2: Unknown" in capsys.readouterr().out

    def test_p2_with_subdivision_exit_zero(self, capsys):
        rc = run_cli(
            [
                "--network",
                str(FIXTURES / "running.nt"),
                "--spec",
                str(FIXTURES / "p2.spec"),
                "--subdiv",
                "x1:2",
            ]
        )
        assert rc == 0
        assert "p2: Verified" in capsys.readouterr().out

    def test_missing_file_exit_one(self, capsys):
        rc = run_cli(
            ["--network", str(FIXTURES / "missing.nt"), "--spec", str(FIXTURES / "p1.spec")]
        )
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_krelu_bounds(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = run_cli(
            [
                "--network",
                str(FIXTURES / "krelu.nt"),
                "--spec",
                str(FIXTURES / "bounds_only.spec"),
                "--report",
                str(report),
            ]
        )
        assert rc == 0
        doc = json.loads(report.read_text())
        out = [b for b in doc["bounds"] if b["stage"] == 1][0]
        assert out["lo"] == [0.0, 0.0]
        assert out["hi"] == [2.0, 2.0]

    def test_report_determinism(self, tmp_path):
        args = [
            "--network",
            str(FIXTURES / "running2.nt"),
            "--spec",
            str(FIXTURES / "p1.spec"),
            "--mode",
            "zone",
            "--domain",
            "octagon",
        ]
        docs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            rc = run_cli(args + ["--report", str(path)])
            doc = json.loads(path.read_text())
            doc.pop("timings")
            docs.append(json.dumps(doc, sort_keys=True))
        assert docs[0] == docs[1]

    def test_projection_csv(self, tmp_path, capsys):
        csv = tmp_path / "proj.csv"
        rc = run_cli(
            [
                "--network",
                str(FIXTURES / "running.nt"),
                "--spec",
                str(FIXTURES / "p1.spec"),
                "--csv",
                f"y1,y2:{csv}",
            ]
        )
        assert rc == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "kind,y1,y2"
        gens = {tuple(l.split(",")[1:]) for l in lines if l.startswith("generator")}
        assert gens == {("0", "0"), ("1", "1"), ("0", "3")}

    def test_subdivided_projection_csv(self, tmp_path, capsys):
        # with the first input split at 0 the (x1, y1) hull is the exact
        # clamped graph: a segment plus a triangle
        csv = tmp_path / "proj.csv"
        rc = run_cli(
            [
                "--network",
                str(FIXTURES / "running.nt"),
                "--spec",
                str(FIXTURES / "bounds_only.spec"),
                "--subdiv",
                "x1:2",
                "--csv",
                f"x1,y1:{csv}",
            ]
        )
        assert rc == 0
        lines = csv.read_text().strip().splitlines()
        gens = {tuple(l.split(",")[1:]) for l in lines if l.startswith("generator")}
        assert gens == {("-1", "0"), ("1", "1"), ("1", "0")}

    def test_projection_csv_merges_with_the_runs_eps(self, tmp_path, capsys):
        # a 2 -> 3 -> 2 net whose (y1, y2) projection keeps (0.48, 0) at the
        # default eps, a point that eps 0.05 merges into the hull
        net = Network(
            ([[-0.2, -1.2], [1.1, 1.3], [-2.0, 0.1]], [[-0.5, -1.8, -0.3], [-0.1, 0.1, -1.2]]),
            ([-0.1, -1.0, 0.5], [0.6, 0.7]),
        )
        (tmp_path / "net.nt").write_text(serialize_sherlock(net))
        csv = tmp_path / "proj.csv"
        args = ["--network", str(tmp_path / "net.nt"), "--spec", str(FIXTURES / "bounds_only.spec")]
        args += ["--subdiv", "x1:2,x2:2", "--csv", f"y1,y2:{csv}"]
        gens = {}
        for eps in ("1e-9", "0.05"):
            assert run_cli(args + ["--eps", eps]) == 0
            lines = csv.read_text().strip().splitlines()
            gens[eps] = {tuple(l.split(",")[1:]) for l in lines if l.startswith("generator")}
        assert gens["0.05"] == {("0", "0"), ("0.6", "0.16"), ("0", "0.84")}
        assert gens["1e-9"] == gens["0.05"] | {("0.48", "0")}

    def test_external_mode_runs(self, capsys):
        rc = run_cli(
            [
                "--network",
                str(FIXTURES / "running2.nt"),
                "--spec",
                str(FIXTURES / "p1.spec"),
                "--mode",
                "external",
            ]
        )
        assert rc in (0, 2)

    def test_bad_spec_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.spec"
        bad.write_text("{not json")
        rc = run_cli(["--network", str(FIXTURES / "running.nt"), "--spec", str(bad)])
        assert rc == 1

    @pytest.mark.parametrize("subdiv", ["x1:two", "x1"])
    def test_malformed_subdiv_exits_one(self, subdiv, capsys):
        rc = run_cli(
            [
                "--network",
                str(FIXTURES / "running.nt"),
                "--spec",
                str(FIXTURES / "p2.spec"),
                "--subdiv",
                subdiv,
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "--subdiv expects NAME:COUNT pairs" in err and repr(subdiv) in err


MALFORMED_SPECS = {
    "short input_box row": '{"input_box": [[-1], [-1, 1]]}',
    "long input_box row": '{"input_box": [[-1, 1, 2], [-1, 1]]}',
    "input_box not a list": '{"input_box": 3}',
    "non-numeric bound": '{"input_box": [["a", 1], [-1, 1]]}',
    "spec not an object": "[[-1, 1], [-1, 1]]",
    "short restrict_box interval": '{"input_box": [[-1, 1], [-1, 1]],'
    ' "assertions": [{"out_coeffs": [1, 0], "restrict_box": [[0], null]}]}',
    "non-numeric coefficient": '{"input_box": [[-1, 1], [-1, 1]],'
    ' "assertions": [{"out_coeffs": ["one", 0]}]}',
    "nested coefficients": '{"input_box": [[-1, 1], [-1, 1]],'
    ' "assertions": [{"out_coeffs": [[1], [0]]}]}',
    "non-finite coefficient": '{"input_box": [[-1, 1], [-1, 1]],'
    ' "assertions": [{"out_coeffs": [NaN, 0]}]}',
    "non-numeric const": '{"input_box": [[-1, 1], [-1, 1]],'
    ' "assertions": [{"out_coeffs": [1, 0], "const": [1]}]}',
    "assertion row not an object": '{"input_box": [[-1, 1], [-1, 1]], "assertions": [5]}',
    "assertions not a list": '{"input_box": [[-1, 1], [-1, 1]], "assertions": 5}',
}


class TestBadInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED_SPECS))
    def test_malformed_spec_exits_one(self, case, tmp_path, capsys):
        spec = tmp_path / "bad.spec"
        spec.write_text(MALFORMED_SPECS[case])
        rc = run_cli(["--network", str(FIXTURES / "running.nt"), "--spec", str(spec)])
        assert rc == 1
        assert str(spec) in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["inf", "-inf", "nan", "-1"])
    def test_bad_eps_exits_one(self, eps, tmp_path, capsys):
        # the assertion is false (-y1 + 0.5 < 0 at y1 = 1), so no eps may
        # turn it into Verified
        spec = tmp_path / "false.spec"
        spec.write_text(
            '{"input_box": [[-1, 1], [-1, 1]],'
            ' "assertions": [{"name": "f", "out_coeffs": [-1, 0], "const": 0.5}]}'
        )
        rc = run_cli(
            ["--network", str(FIXTURES / "running.nt"), "--spec", str(spec), f"--eps={eps}"]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert "--eps must be a finite number >= 0" in captured.err
        assert "Verified" not in captured.out

    @pytest.mark.parametrize("eps", ["0", "1e-6"])
    def test_valid_eps_runs(self, eps, capsys):
        rc = run_cli(
            [
                "--network",
                str(FIXTURES / "running.nt"),
                "--spec",
                str(FIXTURES / "p1.spec"),
                "--eps",
                eps,
            ]
        )
        assert rc == 0
        assert "p1: Verified" in capsys.readouterr().out


USAGE_ERRORS = {
    "non-numeric eps": ["--spec", str(FIXTURES / "p1.spec"), "--eps", "abc"],
    "eps read as an option": ["--spec", str(FIXTURES / "p1.spec"), "--eps", "-inf"],
    "missing spec": [],
    "unknown mode": ["--spec", str(FIXTURES / "p1.spec"), "--mode", "bogus"],
}


class TestUsageErrors:
    """Usage errors exit 1; exit code 2 is kept for an Unknown assertion."""

    @pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
    def test_usage_error_exits_one(self, case, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["--network", str(FIXTURES / "running.nt"), *USAGE_ERRORS[case]])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: troprelu") and "troprelu: error:" in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["--help"])
        assert exc.value.code == 0
        assert "--network" in capsys.readouterr().out


class TestBadRestriction:
    """An inverted or NaN restrict_box interval is an input error, not an
    empty or missing restriction: the false assertion y1 - 100 >= 0 must
    never come out Verified."""

    @pytest.mark.parametrize("interval", ["[0.5, 0.2]", "[NaN, NaN]", "[NaN, 0.5]", "[-0.5, NaN]"])
    def test_exits_one(self, interval, tmp_path, capsys):
        spec = tmp_path / "bad.spec"
        spec.write_text(
            '{"input_box": [[-1, 1], [-1, 1]], "assertions": [{"name": "f",'
            f' "out_coeffs": [1, 0], "const": -100, "restrict_box": [{interval}, null]}}]}}'
        )
        rc = run_cli(["--network", str(FIXTURES / "running.nt"), "--spec", str(spec)])
        assert rc == 1
        captured = capsys.readouterr()
        assert str(spec) in captured.err and "restriction of input 1" in captured.err
        assert "Verified" not in captured.out

    def test_disjoint_restriction_stays_vacuous(self, tmp_path, capsys):
        spec = tmp_path / "vacuous.spec"
        spec.write_text(
            '{"input_box": [[-1, 1], [-1, 1]], "assertions": [{"name": "f",'
            ' "out_coeffs": [1, 0], "const": -100, "restrict_box": [[5, 6], null]}]}'
        )
        rc = run_cli(["--network", str(FIXTURES / "running.nt"), "--spec", str(spec)])
        assert rc == 0
        assert "f: Verified" in capsys.readouterr().out


def test_huge_objective_is_unknown(capsys):
    # coefficients 1e308 overflow the LP's sums: the minimum is -inf, so the
    # assertion is Unknown and the exit code 2
    rc = run_cli(["--network", str(FIXTURES / "running.nt"), "--spec", str(FIXTURES / "huge.spec")])
    assert rc == 2
    captured = capsys.readouterr()
    assert "huge: Unknown" in captured.out
    assert "Traceback" not in captured.out + captured.err
