"""Command-line front end: analyse a network file and check assertions.

    troprelu --network net.nt --spec props.json [--mode zone] [--domain zone]
             [--subdiv x1:2,x2:4] [--track io|all] [--report out.json]
             [--csv y1,y2:proj.csv] [--eps 1e-9] [--no-final-relu]

Exit codes: 0 when every assertion is Verified, 2 when any is Unknown,
1 on usage or input errors.

The spec file is JSON:

    {"input_box": [[lo, hi], ...],
     "assertions": [{"name": "p1", "in_coeffs": [...], "out_coeffs": [...],
                     "const": 0.0, "restrict_box": [[lo, hi] | null, ...]}]}

Reports are deterministic apart from the ``timings`` block: identical
inputs and flags give byte-identical JSON once timings are dropped.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from .dbm import Box
from .errors import BadIndex, InvalidInterval, TropReluError
from .maxplus import DEFAULT_EPS, check_eps
from .network import (
    AbsDomain,
    AnalysisOptions,
    AnalysisResult,
    ChainMode,
    analyze,
)
from .sherlock import parse_sherlock
from .speccheck import LinearAssertion, check
from .subdivision import SubdivisionGrid, check_cell_budget
from .tropical import _zone_points, proj_internal


def _interval(iv):
    """(lo, hi) of a JSON pair of numbers; anything else raises."""
    lo, hi = iv
    return float(lo), float(hi)


def load_spec_file(path, n_inputs: int, n_outputs: int):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        box_rows = doc.get("input_box")
        if box_rows is None or len(box_rows) != n_inputs:
            raise TropReluError(f"{path}: input_box must list {n_inputs} intervals")
        box = Box(*zip(*map(_interval, box_rows)))
        assertions = []
        for i, row in enumerate(doc.get("assertions", [])):
            name = row.get("name", f"assertion_{i}")
            in_c = np.asarray(row.get("in_coeffs", [0.0] * n_inputs), dtype=float)
            out_c = np.asarray(row.get("out_coeffs", [0.0] * n_outputs), dtype=float)
            const = float(row.get("const", 0.0))
            if in_c.shape != (n_inputs,) or out_c.shape != (n_outputs,):
                raise TropReluError(f"{path}: coefficient lengths do not match network")
            if not np.isfinite([*in_c, *out_c, const]).all():
                raise TropReluError(f"{path}: coefficients must be finite")
            restrict = row.get("restrict_box")
            if restrict is not None:
                restrict = tuple(None if iv is None else _interval(iv) for iv in restrict)
                if len(restrict) != n_inputs:
                    raise TropReluError(f"{path}: restrict_box must list {n_inputs} entries")
            assertions.append(LinearAssertion(in_c, out_c, const, restrict, name))
    except (AttributeError, TypeError, ValueError, InvalidInterval) as exc:
        raise TropReluError(f"{path}: malformed spec ({exc})") from None
    return box, assertions


def _var_names(result: AnalysisResult):
    last = max(s for s, _ in result.var_map)
    names = []
    for s, j in result.var_map:
        if s == 0:
            names.append(f"x{j + 1}")
        elif s == last:
            names.append(f"y{j + 1}")
        else:
            names.append(f"h{s}_{j + 1}")
    return names


def _parse_dim_name(name: str, result: AnalysisResult) -> int:
    names = _var_names(result)
    if name in names:
        return names.index(name)
    raise BadIndex(f"unknown dimension {name!r}; known: {', '.join(names)}")


def emit_projection_csv(result: AnalysisResult, dims, path) -> None:
    """Projected generators (filtered with the run's eps) plus the 2-d
    zone's corners, its max-plus and min-plus extreme points."""
    d0, d1 = dims
    if min(d0, d1) < 0 or max(d0, d1) >= len(result.var_map) or d0 == d1:
        raise BadIndex("projection needs two distinct tracked dimensions")
    proj = proj_internal(result.internal, [d0, d1], eps=result._eps)
    sub = result.zone.slice([d0 + 1, d1 + 1])
    corners = _zone2d_corners(sub.entries, result._eps)
    names = _var_names(result)
    lines = [f"kind,{names[d0]},{names[d1]}"]
    for g in proj.generators:
        lines.append(f"generator,{g[0] + 0.0:.12g},{g[1] + 0.0:.12g}")
    for u, v in corners:
        lines.append(f"zone_corner,{u:.12g},{v:.12g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _zone2d_corners(e: np.ndarray, eps: float):
    """Vertices of the closed zone e over (u, v), counterclockwise: its
    three max-plus and three min-plus extreme points (the points of e and
    the negated points of its transpose, ``tropical._zone_points``), which
    closure puts inside it, each kept unless within eps (relative to
    magnitude) of one kept before."""
    six = np.vstack([_zone_points(e, [1, 2])[0], -_zone_points(e.T, [1, 2])[0]]) + 0.0  # no -0.0
    out = []
    for p in six:
        if not any((np.abs(p - q) <= eps * (1.0 + np.maximum(np.abs(p), np.abs(q)))).all() for q in out):
            out.append(p)
    center = np.mean(out, axis=0)
    out.sort(key=lambda p: np.arctan2(p[1] - center[1], p[0] - center[0]))
    return out


def _parse_subdiv(text: str, n_inputs: int):
    counts = [1] * n_inputs
    named = set()
    for part in text.split(","):
        name, _, num = part.partition(":")
        name = name.strip()
        if not name.startswith("x"):
            raise TropReluError(f"--subdiv expects input names like x1, got {name!r}")
        try:
            idx = int(name[1:]) - 1
            count = int(num)
        except ValueError:
            raise TropReluError(
                f"--subdiv expects NAME:COUNT pairs such as x1:2,x2:4, got {part!r}"
            ) from None
        if idx < 0 or idx >= n_inputs:
            raise TropReluError(f"--subdiv: no input named {name}")
        if idx in named:
            raise TropReluError(f"--subdiv names {name} twice")
        named.add(idx)
        counts[idx] = count
    return counts


def build_report(net_path, spec_path, args, result: AnalysisResult, verdicts, seconds):
    bounds = []
    for stage, box in enumerate(result.bounds):
        bounds.append(
            {
                "stage": stage,
                "lo": [round(float(v), 12) + 0.0 for v in box.lo],
                "hi": [round(float(v), 12) + 0.0 for v in box.hi],
            }
        )
    return {
        "network": str(net_path),
        "spec": str(spec_path),
        "mode": args.mode,
        "domain": result.diagnostics["domain"],
        "track": args.track,
        "subdiv": args.subdiv or "",
        "eps": args.eps,
        "bounds": bounds,
        "variables": _var_names(result),
        "generators": [
            [round(float(v), 12) + 0.0 for v in g] for g in result.internal.generators
        ],
        "assertions": [
            {
                "name": name,
                "status": v.status.value,
                "minimum": None if not np.isfinite(v.minimum) else round(float(v.minimum), 12) + 0.0,
                "method": v.method,
            }
            for name, v in verdicts
        ],
        "timings": {"seconds": seconds},
    }


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as input errors do: 2 means an assertion is Unknown."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def make_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="troprelu",
        description="Sound range analysis of ReLU networks with tropical polyhedra and zones.",
    )
    p.add_argument("--network", required=True, help="Sherlock-format network file")
    p.add_argument("--spec", required=True, help="JSON spec file (input box + assertions)")
    p.add_argument("--mode", choices=["box", "zone", "external"], default="zone")
    p.add_argument("--domain", choices=["zone", "octagon"], default="zone")
    p.add_argument("--subdiv", default=None, help="per-input cell counts, e.g. x1:2,x2:4")
    p.add_argument("--track", choices=["io", "all"], default="io")
    p.add_argument("--report", default=None, help="write a JSON report here")
    p.add_argument("--csv", default=None, help="projection dump, e.g. y1,y2:out.csv")
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument(
        "--no-final-relu",
        action="store_true",
        help="treat the last layer as affine only (no output clamp)",
    )
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``run_cli``, built once per process: parsing keeps no
    state in it, and building it costs more than a small grid query's
    parse."""
    return make_parser()


def run_cli(argv=None) -> int:
    args = _parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        check_eps(args.eps, "--eps")
        net = parse_sherlock(args.network, final_relu=not args.no_final_relu)
        in_box, assertions = load_spec_file(args.spec, net.n_inputs, net.n_outputs)
        grid = None
        if args.subdiv:
            counts = _parse_subdiv(args.subdiv, net.n_inputs)
            check_cell_budget(math.prod(counts))  # before any cut array is built
            grid = SubdivisionGrid.uniform(in_box, counts)
        options = AnalysisOptions(
            mode=ChainMode(args.mode),
            domain=AbsDomain(args.domain),
            track_all=args.track == "all",
            subdiv=grid,
            eps=args.eps,
        )
        result = analyze(net, in_box, options)
        verdicts = [(a.name, check(a, result, eps=args.eps)) for a in assertions]
        if args.csv:
            dims_text, _, csv_path = args.csv.partition(":")
            if not csv_path:
                raise TropReluError("--csv expects DIMS:PATH, e.g. y1,y2:out.csv")
            names = dims_text.split(",")
            if len(names) != 2:
                raise TropReluError("--csv needs exactly two dimension names")
            dims = [_parse_dim_name(n.strip(), result) for n in names]
            emit_projection_csv(result, dims, csv_path)
        seconds = time.perf_counter() - t0
        report = build_report(args.network, args.spec, args, result, verdicts, seconds)
        text = json.dumps(report, indent=2, sort_keys=True)
        if args.report:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        for name, v in verdicts:
            extra = "" if not np.isfinite(v.minimum) else f" (min {v.minimum:.6g})"
            print(f"{name}: {v.status.value}{extra}")
        if not args.report:
            print(text)
    except (TropReluError, OSError, json.JSONDecodeError) as exc:
        print(f"troprelu: error: {exc}", file=sys.stderr)
        return 1
    return 0 if all(v.verified for _, v in verdicts) else 2


def main() -> None:
    sys.exit(run_cli())
