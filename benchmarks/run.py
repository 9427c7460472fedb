"""Seeded benchmark of troprelu: one workload per run, as a closed loop.

    python3 benchmarks/run.py --workload wide --seed 1 --seconds 20 --trace 0

One client in one process sends the next query only when the previous one
has returned; no threads or pools.  Every query passes the soundness gate in
``workloads.py``.  With ``--trace 0`` the run prints the end-to-end metrics;
with ``--trace 1`` it runs every query twice, traced and untraced, and
prints per-module and per-function self times from spans recorded around
the calls into each module (``tracing.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the run
(metrics, fingerprint, gate problems, environment) and, when traced, the
spans go to ``.bench_out/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# One client, one thread: keep BLAS from starting worker threads that would
# compete with the client for the machine's cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread limits above)

from tracing import LAYERS, REPORTED, Tracer
from workloads import WORKLOADS, Checked, digest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 11
HARD_CAP_S = 140.0  # no query starts later than this, so a run ends within 180 s
# Scaled times are in seconds at the speed where one calibration kernel call
# takes CAL_REF_S; a kernel call runs after a query when CAL_EVERY_S passed.
CAL_REF_S = 0.002
CAL_EVERY_S = 0.2
_CAL_POINTS = np.random.default_rng(0).uniform(-1, 1, size=(24, 24))
# The tail percentile of each workload: the highest that had at least 10
# samples beyond it in a run at the baseline speed, except on props, whose
# 3 ms queries are hit often enough by the machine's other tenants that their
# p99 doubled in some runs; p95 stays clear of that.  It is fixed so that
# runs and commits compare the same percentile.
TAIL_PCT = {"wide": 60, "deep": 60, "subdiv": 60, "props": 95}

END_TO_END = {
    "setup_s": ("s", "lower"),
    "queries_per_s": ("1/s", "higher"),
    "query_p50_s": ("s", "lower"),
    "query_tail_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "width_ratio": ("ratio", "lower"),
    "verified_frac": ("ratio", "higher"),
    "passed_frac": ("ratio", "higher"),
}

SIZE_METRICS = {
    "tropical.emb_internal.gens_out": ("count", "lower"),
    "tropical.extreme_filter.kept_ratio": ("ratio", "higher"),
    "dbm.dbm_close.max_dim": ("count", "lower"),
    "dbm.oct_close.max_dim": ("count", "lower"),
    "simplex.minimize_over_halfspaces.rows": ("count", "lower"),
    "network.analyze.calls_per_query": ("count", "lower"),
}


def per_layer_specs() -> dict:
    """Name -> (unit, better) of every metric a traced run prints."""
    specs = {}
    for layer in LAYERS:
        specs[f"{layer}.self_s"] = ("s", "lower")
        specs[f"{layer}.share"] = ("ratio", "lower")
    for key in REPORTED:
        specs[f"{key}.calls"] = ("count", "lower")
        specs[f"{key}.self_s"] = ("s", "lower")
    specs.update(SIZE_METRICS)
    specs["remainder.self_s"] = ("s", "lower")
    specs["remainder.share"] = ("ratio", "lower")
    specs["trace.queries"] = ("count", "higher")
    specs["trace.qps_ratio"] = ("ratio", "higher")
    return specs


def load_program():
    """Import troprelu afresh from the checkout's ``src``."""
    for name in [m for m in sys.modules if m == "troprelu" or m.startswith("troprelu.")]:
        del sys.modules[name]
    tr = importlib.import_module("troprelu")
    importlib.import_module("troprelu.cli")
    if Path(tr.__file__).resolve().parent != SRC / "troprelu":
        raise ImportError(f"troprelu was imported from {tr.__file__}, not from {SRC}")
    return tr


def calibration_kernel():
    """Fixed work shaped like the library's hot loops: small numpy ops driven
    from Python (a pairwise max-abs scan) and one small Floyd-Warshall."""
    hits = 0
    for i in range(_CAL_POINTS.shape[0]):
        for k in range(_CAL_POINTS.shape[0]):
            hits += np.abs(_CAL_POINTS[i] - _CAL_POINTS[k]).max() <= 0.5
    m = _CAL_POINTS.copy()
    for k in range(m.shape[0]):
        np.minimum(m, m[:, k, None] + m[None, k, :], out=m)
    return hits


class Speed:
    """How fast the machine runs now, from calibration calls spread over a run.

    On a shared machine the same work can take twice as long from one minute
    to the next.  Dividing by the mean calibration time over the run removes
    most of that drift, so runs and commits compare the program, not the
    neighbours.
    """

    def __init__(self):
        self.samples = []
        self._last = -math.inf

    def sample(self):
        t0 = time.perf_counter()
        calibration_kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def maybe_sample(self):
        if time.perf_counter() - self._last >= CAL_EVERY_S:
            self.sample()

    def factor_since(self, first: int) -> float:
        """Multiply a time measured while samples ``first:`` were taken by
        this to express it at reference speed."""
        return CAL_REF_S / statistics.fmean(self.samples[first:])

    @property
    def factor(self) -> float:
        """The factor of every calibration call of the run."""
        return self.factor_since(0)


def set_up(workload, seed, workdir, speed):
    """Import, generate, write and parse SETUP_REPEATS times; keep the last.

    Returns the workload, the set-up times and the speed factor of the
    calibration samples taken between them: set-up lasts seconds, so the
    speed of the whole run would describe it less well.
    """
    first = len(speed.samples)
    times = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        t0 = time.perf_counter()
        tr = load_program()
        wl = WORKLOADS[workload](tr, seed, workdir)
        times.append(time.perf_counter() - t0)
    speed.sample()
    return wl, times, speed.factor_since(first)


class Loop:
    """Outcome of one closed-loop run."""

    def __init__(self):
        self.durations = []
        self.traced = []
        self.failed = 0
        self.problems = []
        self.first_pass = []


def run_loop(wl, seconds, min_queries, tracer=None, speed=None) -> Loop:
    """Query the pool in order until ``seconds`` pass and ``min_queries`` ran.

    With a tracer every item runs twice in a row, once traced and once not,
    the traced one first in every other pair, so both halves see the same
    items and the same machine conditions.
    """
    loop = Loop()
    start = time.perf_counter()
    i = 0
    while i == 0 or (
        (i < min_queries or time.perf_counter() - start < seconds)
        and time.perf_counter() - start < HARD_CAP_S
    ):
        item = (i // 2 if tracer else i) % len(wl.items)
        traced = tracer is not None and i % 2 != (i // 2) % 2
        if traced:
            tracer.install()
            tracer.query_id = i + 1
        t0 = time.perf_counter()
        try:
            out, error = wl.query(item), None
        except Exception as exc:  # a crash is a failed query, not a failed run
            out, error = None, f"query {item} raised {type(exc).__name__}: {exc}"
        loop.durations.append(time.perf_counter() - t0)
        loop.traced.append(traced)
        if traced:
            tracer.query_id = None
            tracer.uninstall()
        chk = Checked(problems=[error]) if error else wl.gate(item, out)
        if not chk.ok:
            loop.failed += 1
            if len(loop.problems) < 20:
                loop.problems += chk.problems[:3]
        if i < len(wl.items):
            loop.first_pass.append(chk)
        if speed is not None:
            speed.maybe_sample()
        i += 1
    return loop


def tail(durations, pct):
    """The ``pct`` percentile (nearest rank) and how many samples lie beyond it."""
    ordered = sorted(durations)
    rank = math.ceil(pct * len(ordered) / 100)
    return ordered[rank - 1], f"p{pct} of {len(ordered)}, {len(ordered) - rank} beyond"


def end_to_end(loop: Loop, setup_times, setup_factor, n_items, tail_pct, factor):
    """End-to-end metrics; set-up times are scaled by ``setup_factor``, query
    times by ``factor`` (see ``Speed``)."""
    ratios = [r for c in loop.first_pass for r in c.log_ratios]
    checked = sum(c.n_checked for c in loop.first_pass)
    verified = sum(c.n_verified for c in loop.first_pass)
    attempted = len(loop.durations)
    tail_s, tail_label = tail(loop.durations, tail_pct)
    raw = {
        "setup_s": statistics.median(setup_times),
        "queries_per_s": attempted / sum(loop.durations),
        "query_p50_s": statistics.median(loop.durations),
        "query_tail_s": tail_s,
    }
    metrics = {
        "setup_s": raw["setup_s"] * setup_factor,
        "queries_per_s": raw["queries_per_s"] / factor,
        "query_p50_s": raw["query_p50_s"] * factor,
        "query_tail_s": raw["query_tail_s"] * factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "width_ratio": math.exp(statistics.fmean(ratios)) if ratios else float("nan"),
        "verified_frac": verified / checked if checked else float("nan"),
        "passed_frac": (attempted - loop.failed) / attempted,
    }
    notes = {
        "query_tail_s": tail_label,
        "speed_factor": factor,
        "setup_speed_factor": setup_factor,
        "unscaled": raw,
        "durations_s": loop.durations,
        "first_pass_complete": len(loop.first_pass) == n_items,
        "first_pass_queries": len(loop.first_pass),
        "fingerprint": digest([c.fingerprint for c in loop.first_pass]),
    }
    return metrics, notes


def per_layer(loop: Loop, tracer: Tracer):
    traced = [d for d, on in zip(loop.durations, loop.traced) if on]
    untraced = [d for d, on in zip(loop.durations, loop.traced) if not on]
    wall = sum(traced)
    n = len(traced)
    modules = tracer.module_self_s()
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = modules[layer]
        metrics[f"{layer}.share"] = modules[layer] / wall
    for key in REPORTED:
        metrics[f"{key}.calls"] = tracer.calls.get(key, 0)
        metrics[f"{key}.self_s"] = tracer.self_s.get(key, 0.0)
    sizes = tracer.sizes
    emb_calls = tracer.calls.get("tropical.emb_internal", 0)
    minimize_calls = tracer.calls.get("simplex.minimize_over_halfspaces", 0)
    metrics["tropical.emb_internal.gens_out"] = sizes["emb_internal.gens_out"] / emb_calls if emb_calls else 0.0
    gens_in = sizes["extreme_filter.gens_in"]
    metrics["tropical.extreme_filter.kept_ratio"] = sizes["extreme_filter.gens_out"] / gens_in if gens_in else 0.0
    metrics["dbm.dbm_close.max_dim"] = sizes["dbm_close.max_dim"]
    metrics["dbm.oct_close.max_dim"] = sizes["oct_close.max_dim"]
    metrics["simplex.minimize_over_halfspaces.rows"] = (
        sizes["minimize_over_halfspaces.rows"] / minimize_calls if minimize_calls else 0.0
    )
    metrics["network.analyze.calls_per_query"] = tracer.calls.get("network.analyze", 0) / n
    covered = sum(modules.values())
    metrics["remainder.self_s"] = wall - covered
    metrics["remainder.share"] = (wall - covered) / wall
    metrics["trace.queries"] = n
    metrics["trace.qps_ratio"] = (n / wall) / (len(untraced) / sum(untraced))
    return metrics


def environment():
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        speed = Speed()
        try:
            wl, setup_times, setup_factor = set_up(args.workload, args.seed, workdir, speed)
        except ImportError as exc:
            print(f"run.py: cannot import troprelu from {SRC}: {exc}", file=sys.stderr)
            return 2
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": environment(),
                  "peak_rss_after_setup_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        if args.trace == 0:
            loop = run_loop(wl, args.seconds, len(wl.items), speed=speed)
            metrics, notes = end_to_end(
                loop, setup_times, setup_factor, len(wl.items), TAIL_PCT[args.workload], speed.factor
            )
            record.update(notes)
            units = END_TO_END
        else:
            tracer = Tracer()
            tracer.bind()
            loop = run_loop(wl, args.seconds, 2, tracer)
            metrics = per_layer(loop, tracer)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
            tracer.write_spans(spans_path)
            record["spans"] = str(spans_path.relative_to(ROOT))
            units = per_layer_specs()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(loop.durations)
    record["problems"] = loop.problems
    record["metrics"] = metrics
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8"
    )
    for problem in record["problems"]:
        print(f"gate: {problem}")
    for name, value in metrics.items():
        note = record.get(name)
        print(f"{args.workload} {name} = {value:.6g} {units[name][0]}" + (f"  ({note})" if note else ""))
    if "fingerprint" in record:
        print(f"{args.workload} fingerprint = {record['fingerprint']} "
              f"(first pass of {record['first_pass_queries']} queries)")
    result = {
        "correct": loop.failed == 0,
        "attempted": attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name][0]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
