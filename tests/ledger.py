"""Same-bits ledger: one sha256 per analysis run, to compare two trees.

    PYTHONPATH=src python tests/ledger.py --out ledger.json
    PYTHONPATH=src python tests/ledger.py --compare A.json B.json
    PYTHONPATH=src python tests/ledger.py --rev HEAD   # this checkout against a commit

A run is one net, one setting and one grid.  The runs are the 40
``test_layer_chain.battery()`` nets x its 12 ``settings()``, on the whole
input box and on a 2x2 grid over the first two inputs, each objective
checked unrestricted and restricted to the lower half of every input; then
the first 60 ``test_large_magnitudes.point_nets`` at 1e3, 1e7 and 1e12 x
the 12 settings, each on its point box; then 4 seeded 8->32x6->2 nets
(``deep_nets``, as wide as the ``deep`` benchmark's layers, where the meet
prunes its products) in the zone and the octagon domain, on the whole box
and on the 2x2 grid, with their objectives checked as the battery's are:
3136 runs.  A run's digest covers every array it returns, bytes, shape
and sign of zero included: the stage bounds, the zone, the cell stack, the
hull points, each layer record's boxes, sizes and pre-activation zone, the
external system, and each check's minimum, status and method; or the
name of the error where the run raises.  The JSON file also keeps one
digest per array, and an .npz file beside it every array's values, so
``--compare`` names the first array of a run that differs and its largest
difference.

``--rev REV`` unpacks ``git archive REV`` into a temporary directory and
runs the ledger twice in subprocesses, with ``PYTHONPATH`` at this
checkout's ``src`` and then at the archive's; it exits 1 if any run
differs.  Both sides take their nets from this checkout's tests.  The
ledger runs BLAS on one thread and takes under 30 s a side.

Bits may differ between BLAS builds and CPUs, so no digest is committed:
the ledger compares two trees on one machine.  pytest does not collect
this file.
"""

from __future__ import annotations

import os

if __name__ == "__main__":  # BLAS reads these once, when numpy loads
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

import argparse
import hashlib
import json
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

import troprelu
from troprelu import AbsDomain, AnalysisOptions, LinearAssertion, Network, SubdivisionGrid, analyze, check
from troprelu.dbm import Box
from troprelu.errors import TropReluError

from test_large_magnitudes import point_nets
from test_layer_chain import battery, settings

ROOT = Path(__file__).resolve().parent.parent
POINT_SCALES = (1e3, 1e7, 1e12)
POINT_NETS = 60
DEEP_SIZES = (8, 32, 32, 32, 32, 32, 32, 2)
DEEP_SEED = 32


def deep_nets(count: int = 4):
    """Seeded 8->32x6->2 nets (the ``deep`` benchmark's shape and weights:
    He-uniform, biases in [-0.5, 0.5]) on [-1, 1]^8, each with two
    objectives over its inputs and outputs."""
    rng = np.random.default_rng(DEEP_SEED)
    sizes = DEEP_SIZES
    for _ in range(count):
        weights = tuple(rng.uniform(-1, 1, (b, a)) * np.sqrt(6.0 / a) for a, b in zip(sizes, sizes[1:]))
        biases = tuple(rng.uniform(-0.5, 0.5, b) for b in sizes[1:])
        objectives = [LinearAssertion(rng.standard_normal(sizes[0]), rng.standard_normal(sizes[-1])) for _ in range(2)]
        yield Network(weights, biases), Box(-np.ones(sizes[0]), np.ones(sizes[0])), objectives


def result_arrays(res) -> list:
    """(label, array) for every array an ``AnalysisResult`` holds."""
    out = [("var_map", np.asarray(res.var_map, dtype=int).reshape(-1, 2))]
    for s, b in enumerate(res.bounds):
        out += [(f"bounds[{s}].lo", b.lo), (f"bounds[{s}].hi", b.hi)]
    out.append(("zone", res.zone.entries))
    if res._cell_stack is not None:
        out += [(f"cells.{name}", a) for name, a in zip(("lo", "hi", "zones"), res._cell_stack)]
    if res._hull is not None:
        out.append(("hull", res._hull))
    for i, rec in enumerate(res.diagnostics.get("layers", [])):
        for key in ("input_box", "preact_box", "box"):
            out += [(f"layers[{i}].{key}.lo", rec[key].lo), (f"layers[{i}].{key}.hi", rec[key].hi)]
        out.append((f"layers[{i}].preact_zone", rec["preact_zone"]["dbm"].entries))
        sizes = rec["sizes"]
        out.append((f"layers[{i}].sizes {sorted(sizes)}", np.asarray([sizes[k] for k in sorted(sizes)])))
    if "external" in res.diagnostics:
        ext = res.diagnostics["external"]
        out += [("external.lhs", ext.lhs), ("external.rhs", ext.rhs)]
        out.append((f"external_map {res.diagnostics['external_map']}", np.zeros(0)))
    return out


def lower_half(a: LinearAssertion, box: Box) -> LinearAssertion:
    mid = (box.lo + box.hi) / 2.0
    restrict = tuple((float(l), float(m)) for l, m in zip(box.lo, mid))
    return LinearAssertion(a.in_coeffs, a.out_coeffs, a.const, restrict)


def run_arrays(net, box: Box, objectives, options: AnalysisOptions) -> list:
    """(label, array) for one run: the analysis, then each objective
    checked unrestricted and on the lower half of every input."""
    try:
        res = analyze(net, box, options)
    except TropReluError as exc:
        return [(f"error {type(exc).__name__}", np.zeros(0))]
    out = result_arrays(res)
    for i, a in enumerate(objectives):
        for kind, assertion in (("whole", a), ("lower", lower_half(a, box))):
            try:
                v = check(assertion, res)
            except TropReluError as exc:
                out.append((f"check[{i}].{kind} error {type(exc).__name__}", np.zeros(0)))
                continue
            out.append((f"check[{i}].{kind} {v.status.value} {v.method}", np.asarray([v.minimum])))
    return out


def array_digest(label: str, a: np.ndarray) -> str:
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{label}|{a.dtype.str}|{a.shape}|".encode())
    h.update(a.tobytes())  # bytes: -0.0 and +0.0 differ
    return h.hexdigest()


def record(arrays: list) -> dict:
    """A run's ledger entry: its digest, and per array its label, digest
    and size."""
    rows = [[label, array_digest(label, a), int(a.size)] for label, a in arrays]
    digest = hashlib.sha256("".join(row[1] for row in rows).encode()).hexdigest()
    return {"digest": digest, "arrays": rows}


def runs():
    """(run id, net, box, objectives, options), in ledger order."""
    for n, (net, box, objectives) in enumerate(battery()):
        grid = SubdivisionGrid.uniform(box, [2, 2] + [1] * (box.dim - 2))
        for name, opts in settings():
            yield f"battery[{n}] {name} box", net, box, objectives, opts
            yield f"battery[{n}] {name} grid2x2", net, box, objectives, AnalysisOptions(
                mode=opts.mode, domain=opts.domain, track_all=opts.track_all, subdiv=grid
            )
    for scale in POINT_SCALES:
        for n, (net, x) in enumerate(point_nets(scale, count=POINT_NETS)):
            for name, opts in settings():
                yield f"point[{scale:g}][{n}] {name}", net, Box(x, x), [], opts
    for n, (net, box, objectives) in enumerate(deep_nets()):
        grid = SubdivisionGrid.uniform(box, [2, 2] + [1] * (box.dim - 2))
        for domain in AbsDomain:
            yield f"deep[{n}] {domain.value} box", net, box, objectives, AnalysisOptions(domain=domain)
            yield f"deep[{n}] {domain.value} grid2x2", net, box, objectives, AnalysisOptions(domain=domain, subdiv=grid)


def ledger(runs) -> tuple:
    """Run id -> ``record``, with the offset of the run's values, for each
    (run id, arrays) of ``runs``; and every array's values as one flat
    float array, in order."""
    out, values, offset = {}, [], 0
    for run_id, arrays in runs:
        out[run_id] = dict(record(arrays), offset=offset)
        for _, a in arrays:
            values.append(np.asarray(a, dtype=float).ravel())
            offset += a.size
    return out, np.concatenate(values) if values else np.zeros(0)


def write(path: Path) -> None:
    """The ledger of every run as JSON at ``path``, its values beside it (.npz)."""
    records, values = ledger((run_id, run_arrays(*args)) for run_id, *args in runs())
    path.write_text(json.dumps(records))
    np.savez_compressed(path.with_suffix(".npz"), values=values)


def read(path: Path):
    """(records, values) of the ledger ``write`` wrote at ``path``."""
    with np.load(path.with_suffix(".npz")) as npz:
        return json.loads(path.read_text()), npz["values"]


def compare(a, b) -> list:
    """One line per run that differs or is found on one side only, naming
    the first array that differs and its largest difference; a and b are
    (records, values) as ``read`` returns them."""
    (ra, va), (rb, vb) = a, b
    lines = []
    for run_id in list(ra) + [r for r in rb if r not in ra]:
        x, y = ra.get(run_id), rb.get(run_id)
        if x is None or y is None:
            lines.append(f"{run_id}: only in {'B' if x is None else 'A'}")
        elif x["digest"] != y["digest"]:
            lines.append(f"{run_id}: {_first_difference(x, y, va, vb)}")
    return lines


def _first_difference(x: dict, y: dict, va, vb) -> str:
    ox, oy = x["offset"], y["offset"]
    for row_x, row_y in zip(x["arrays"], y["arrays"]):
        label, size = row_x[0], row_x[2]
        if row_x == row_y:
            ox, oy = ox + size, oy + size
            continue
        if row_x[0] != row_y[0] or size != row_y[2]:
            return f"array {label!r} (size {size}) in A, {row_y[0]!r} (size {row_y[2]}) in B"
        p, q = va[ox : ox + size], vb[oy : oy + size]
        with np.errstate(invalid="ignore"):
            gap = np.where((p == q) | (np.isnan(p) & np.isnan(q)), 0.0, np.abs(p - q))
        return f"array {label!r}: largest difference {np.nan_to_num(gap, nan=np.inf).max():.3g}"
    return f"{len(x['arrays'])} arrays in A, {len(y['arrays'])} in B"


def _side(src: Path, out: Path):
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, __file__, "--out", str(out), "--expect-src", str(src)], env=env, check=True)
    print(f"ledger of {src}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return read(out)


def against_rev(rev: str):
    """This checkout's ledger (A) and ``rev``'s (B), each from a subprocess."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        tar = tmp / "rev.tar"
        subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", "-o", str(tar), rev], check=True)
        with tarfile.open(tar) as t:
            t.extractall(tmp / "rev", filter="data")
        return _side(ROOT / "src", tmp / "a.json"), _side(tmp / "rev" / "src", tmp / "b.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    act = parser.add_mutually_exclusive_group(required=True)
    act.add_argument("--out", type=Path, help="write this tree's ledger to a JSON file (values to .npz beside it)")
    act.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"), help="list the runs that differ")
    act.add_argument("--rev", help="compare this checkout (A) against a commit (B)")
    parser.add_argument("--expect-src", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.out:
        here = Path(troprelu.__file__).resolve().parent.parent
        if args.expect_src and here != args.expect_src.resolve():
            raise SystemExit(f"troprelu imported from {here}, not {args.expect_src}")
        write(args.out)
        return 0
    a, b = map(read, args.compare) if args.compare else against_rev(args.rev)
    lines = compare(a, b)
    print("\n".join(lines + [f"{len(lines)} differing runs of {len(set(a[0]) | set(b[0]))}"]))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
