"""Tests of the benchmark itself: tiny workloads, tracing arithmetic, the gate.

    python3 -m pytest -q benchmarks/test_bench.py
"""

import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))

TINY = {
    "wide": {"nets": 2, "n": 6},
    "deep": {"nets": 2, "width": 5, "depth": 2},
    "subdiv": {"calls": 3, "sizes": (3, 4, 2)},
    "props": {"sizes": (4, 5, 3), "dense": 6},
}


@pytest.fixture(scope="module")
def tr():
    return run.load_program()


def tiny(tr, name, seed, tmp_path):
    return workloads.WORKLOADS[name](tr, seed, tmp_path, samples=200, **TINY[name])


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_clean_and_repeats(tr, name, tmp_path):
    fingerprints = []
    for attempt in range(2):
        workdir = tmp_path / str(attempt)
        workdir.mkdir()
        wl = tiny(tr, name, 5, workdir)
        loop = run.run_loop(wl, 0.0, len(wl.items))
        metrics, notes = run.end_to_end(loop, [0.1], 1.0, len(wl.items), run.TAIL_PCT[name], 1.0)
        assert loop.failed == 0, loop.problems
        assert notes["first_pass_complete"]
        assert set(metrics) == set(run.END_TO_END)
        assert all(np.isfinite(v) and v > 0 for v in metrics.values()), metrics
        fingerprints.append(notes["fingerprint"])
    assert fingerprints[0] == fingerprints[1]


def test_self_time_of_nested_calls():
    clock = {"t": 0.0}
    tracer = tracing.Tracer(clock=lambda: clock["t"])

    def inner():
        clock["t"] += 2.0

    wrapped_inner = tracer.wrap("dbm.inner", inner)

    def outer():
        clock["t"] += 1.0
        wrapped_inner()
        clock["t"] += 3.0
        wrapped_inner()

    wrapped_outer = tracer.wrap("network.outer", outer)
    wrapped_outer()  # outside a query: not recorded
    assert not tracer.spans
    tracer.query_id = 7
    wrapped_outer()
    assert tracer.self_s["network.outer"] == pytest.approx(4.0)
    assert tracer.self_s["dbm.inner"] == pytest.approx(4.0)
    assert tracer.calls == {"network.outer": 1, "dbm.inner": 2}
    outer_span = [s for s in tracer.spans if s[3] == "network.outer"][0]
    assert outer_span[4:] == (8.0, 16.0)
    assert [s[1] for s in tracer.spans if s[3] == "dbm.inner"] == [outer_span[0]] * 2
    assert {s[2] for s in tracer.spans} == {7}
    assert tracer.module_self_s()["network"] == pytest.approx(4.0)


def test_install_wraps_every_binding(tr):
    dbm_close = tr.dbm.dbm_close
    tracer = tracing.Tracer()
    tracer.bind()
    tracer.install()
    try:
        assert tr.network.dbm_close is tr.dbm.dbm_close is tr.dbm_close
        assert tr.network.dbm_close.__wrapped__ is dbm_close
    finally:
        tracer.uninstall()
    assert tr.network.dbm_close is dbm_close


def test_gate_rejects_a_shrunken_zone(tr, tmp_path):
    wl = tiny(tr, "wide", 3, tmp_path)
    res, verdicts = wl.query(0)
    assert wl.gate(0, (res, verdicts)).ok
    out_slot = res.output_slots[0] + 1
    y = wl.gate_stages(0)[-1][:, 0]
    entries = res.zone.entries.copy()
    entries[out_slot, 0] = y.max() - 0.5 * (y.max() - y.min())
    shrunk = dataclasses.replace(res, zone=tr.Dbm(entries, closed=True))
    problems = wl.gate(0, (shrunk, verdicts)).problems
    assert any("leaves the zone" in p for p in problems)


def test_gate_rejects_a_verdict_the_samples_refute(tr, tmp_path):
    wl = tiny(tr, "props", 3, tmp_path)
    v = wl.query(0)
    assert wl.gate(0, v).ok
    h = wl.gate_h(0)
    a = wl.assertions[0]
    wl.assertions[0] = dataclasses.replace(a, const=a.const - h.max() - 1.0)  # every sample refutes it
    forged = dataclasses.replace(v, status=tr.VerdictStatus.VERIFIED)
    assert any("Verified, but" in p for p in wl.gate(0, forged).problems)


def test_tail_percentile():
    assert run.tail(list(range(100, 0, -1)), 90) == (90, "p90 of 100, 10 beyond")
    assert run.tail([1.0, 2.0, 3.0], 60) == (2.0, "p60 of 3, 1 beyond")


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.per_layer_specs()


@pytest.mark.parametrize("trace", [0, 1])
def test_command_line_contract(trace):
    proc = subprocess.run(
        [sys.executable, str(run.ROOT / "benchmarks" / "run.py"), "--workload", "props",
         "--seed", "2", "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.per_layer_specs() if trace else run.END_TO_END
    assert set(result["metrics"]) == set(expected)
