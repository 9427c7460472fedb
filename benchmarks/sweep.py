"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 benchmarks/sweep.py --workloads wide deep subdiv props \\
        --seeds 1-10 --seconds 20 [--trace 1] [--out .bench_out/sweep.json]

Runs are made one after the other, each in its own process.  For every
workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median.  Fingerprints are
listed per seed, so two sweeps of the same code can be compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    fingerprint = next((ln.split(" = ")[1].split()[0] for ln in lines if " fingerprint = " in ln), None)
    return json.loads(lines[-1]), fingerprint


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("nan"),
            "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="write the summary here as JSON")
    args = p.parse_args(argv)

    summary = {}
    for workload in args.workloads:
        per_metric, fingerprints, bad = {}, {}, 0
        for seed in args.seeds:
            result, fingerprints[seed] = run_once(workload, seed, args.seconds, args.trace)
            bad += result["failed"] + (0 if result["correct"] else 1)
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        stats = {name: summarise(vals) for name, vals in per_metric.items()}
        summary[workload] = {"metrics": stats, "fingerprints": fingerprints, "failed": bad}
        for name, s in stats.items():
            print(f"{workload:7s} {name:40s} median {s['median']:.6g}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
