"""The four seeded workloads and the soundness gate every query passes.

Each workload builds its inputs from the seed alone (nets, boxes, specs),
hands only those to troprelu, and checks every answer against concrete
executions of the same nets computed here with plain numpy.  A query that
raises or fails the gate counts as failed; nothing generated is filtered.

The gate's samples are drawn afresh for each query from a per-item seed and
dropped after it, so the harness keeps no samples resident and the process's
peak memory is the program's.

Assertion constants are set from concretely sampled ranges:
``c = -min(h) + t * (max(h) - min(h))`` over reference samples, so every
assertion holds on those samples with slack ``t`` times the sampled range.
It is Verified exactly when the analysis is looser than the sampled range
by less than the factor ``t``.  The ``t`` values sweep a fixed log range in
seeded order, so ``verified_frac`` reads how tight the analysis is and
moves little from one seed to the next.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TOL = 1e-6  # relative slack of every containment test


@dataclass
class Checked:
    """Gate outcome of one query, plus what the exact metrics need."""

    problems: list = field(default_factory=list)
    log_ratios: list = field(default_factory=list)
    n_checked: int = 0
    n_verified: int = 0
    fingerprint: str = ""

    @property
    def ok(self) -> bool:
        return not self.problems


def _tol(v):
    return TOL * (1.0 + np.abs(v))


def random_net(rng, sizes):
    """He-uniform weights and small biases, as plain arrays."""
    weights = [rng.uniform(-1, 1, size=(b, a)) * np.sqrt(6.0 / a) for a, b in zip(sizes, sizes[1:])]
    biases = [rng.uniform(-0.5, 0.5, size=b) for b in sizes[1:]]
    return weights, biases


def stages_of(weights, biases, x):
    """Concrete values per stage (inputs first); the last layer is affine."""
    out = [x]
    v = x
    for i, (w, b) in enumerate(zip(weights, biases)):
        v = v @ w.T + b
        if i < len(weights) - 1:
            v = np.maximum(v, 0.0)
        out.append(v)
    return out


def box_samples(rng, lo, hi, count):
    """Half uniform points, half random corners of the box [lo, hi]."""
    half = count // 2
    uniform = rng.uniform(lo, hi, size=(half, lo.size))
    corners = np.where(rng.random((count - half, lo.size)) < 0.5, lo, hi)
    return np.vstack([uniform, corners])


def slack_factors(rng, count, log_lo, log_hi):
    """Stratified factors t = exp(log_lo .. log_hi), in seeded order."""
    t = np.exp(log_lo + (log_hi - log_lo) * (np.arange(count) + 0.5) / count)
    return t[rng.permutation(count)]


def constant_for(h, t):
    lo, hi = float(h.min()), float(h.max())
    return -lo + t * (hi - lo)


def restriction_bounds(lo, hi, restrict):
    """The input box narrowed by a per-input (lo, hi)-or-None tuple."""
    lo, hi = lo.copy(), hi.copy()
    for j, iv in enumerate(restrict or ()):
        if iv is not None:
            lo[j], hi[j] = max(lo[j], iv[0]), min(hi[j], iv[1])
    return lo, hi


def zone_problems(entries, points):
    """Points (rows, one column per zone variable) violating a DBM bound."""
    aug = np.hstack([np.zeros((points.shape[0], 1)), points])
    for i in range(entries.shape[0]):
        finite = np.isfinite(entries[i])
        bound = entries[i, finite]
        diffs = aug[:, i, None] - aug[:, finite]
        excess = diffs - (bound + _tol(bound))
        if (excess > 0).any():
            j = np.flatnonzero(finite)[int(np.argmax(excess.max(axis=0)))]
            return [f"trace leaves the zone: x{i} - x{j} exceeds {entries[i, j]:.6g}"]
    return []


def bounds_problems(stage, lo, hi, values):
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if (values < lo - _tol(lo)).any() or (values > hi + _tol(hi)).any():
        return [f"trace leaves the stage-{stage} bounds"]
    return []


def verdict_problems(name, verified, minimum, h):
    """A Verified assertion holds on every sample; no minimum exceeds a sample."""
    low = float(h.min())
    out = []
    if verified and low < -_tol(low):
        out.append(f"{name}: Verified, but a sample gives {low:.6g}")
    if minimum is not None and np.isfinite(minimum) and minimum > low + _tol(low):
        out.append(f"{name}: minimum {minimum:.6g} above the sampled {low:.6g}")
    return out


def log_width_ratios(lo, hi, values):
    """log(abstract width / sampled width) per neuron with a sampled spread."""
    sampled = values.max(axis=0) - values.min(axis=0)
    width = np.asarray(hi, dtype=float) - np.asarray(lo, dtype=float)
    keep = sampled > 1e-12
    return list(np.log(width[keep] / sampled[keep]))


def rounded(values):
    return [f"{float(v):.8g}" for v in values]


def digest(items) -> str:
    return hashlib.sha256("\n".join(items).encode()).hexdigest()[:16]


class AnalyseAndCheck:
    """``wide`` and ``deep``: one query analyses one net and checks its assertions."""

    def __init__(self, tr, seed, workdir, *, name, sizes, nets, octagon, n_assert, dense_inputs,
                 log_slack, samples=2000):
        self.tr = tr
        self.samples = samples
        rng = np.random.default_rng([seed, sum(map(ord, name))])
        n_in, n_out = sizes[0], sizes[-1]
        self.lo, self.hi = -np.ones(n_in), np.ones(n_in)
        self.box = tr.Box(self.lo, self.hi)
        self.options = tr.AnalysisOptions(
            domain=tr.AbsDomain.OCTAGON if octagon else tr.AbsDomain.ZONE
        )
        slack = slack_factors(rng, nets * n_assert, *log_slack)
        self.items = []
        for k in range(nets):
            weights, biases = random_net(rng, sizes)
            x = box_samples(rng, self.lo, self.hi, samples)
            y = stages_of(weights, biases, x)[-1]
            assertions = []
            for q in range(n_assert):
                c_in = rng.uniform(-1, 1, size=n_in) if dense_inputs else np.zeros(n_in)
                c_out = np.ones(1) if n_out == 1 else rng.uniform(-1, 1, size=n_out)
                h = x @ c_in + y @ c_out
                const = constant_for(h, slack[k * n_assert + q])
                assertions.append(tr.LinearAssertion(c_in, c_out, const, name=f"{name}{k}_{q}"))
            net = tr.Network(tuple(weights), tuple(biases), final_relu=False)
            self.items.append({"weights": weights, "biases": biases, "net": net, "assertions": assertions,
                               "gate_seed": [seed, sum(map(ord, name)), 1, k]})

    def gate_stages(self, i):
        """The gate's concrete values per stage for item ``i``, drawn afresh."""
        it = self.items[i]
        x = box_samples(np.random.default_rng(it["gate_seed"]), self.lo, self.hi, self.samples)
        return stages_of(it["weights"], it["biases"], x)

    def query(self, i):
        tr = self.tr
        it = self.items[i]
        res = tr.analyze(it["net"], self.box, self.options)
        return res, [tr.check(a, res) for a in it["assertions"]]

    def gate(self, i, out):
        res, verdicts = out
        it = self.items[i]
        stages = self.gate_stages(i)
        chk = Checked()
        points = np.column_stack([stages[s][:, j] for s, j in res.var_map])
        chk.problems += zone_problems(res.zone.entries, points)
        for s, box in enumerate(res.bounds):
            if box is not None:
                chk.problems += bounds_problems(s, box.lo, box.hi, stages[s])
                if s > 0:
                    chk.log_ratios += log_width_ratios(box.lo, box.hi, stages[s])
        x, y = stages[0], stages[-1]
        fp = []
        for a, v in zip(it["assertions"], verdicts):
            h = x @ a.in_coeffs + y @ a.out_coeffs + a.const
            chk.problems += verdict_problems(a.name, v.verified, v.minimum, h)
            chk.n_checked += 1
            chk.n_verified += int(v.verified)
            fp.append(f"{v.status.value} {float(v.minimum):.8g}")
        out_box = res.bounds[-1]
        chk.fingerprint = " ".join(rounded(out_box.lo) + rounded(out_box.hi) + fp)
        return chk


def wide(tr, seed, workdir, nets=20, n=48, samples=2000):
    return AnalyseAndCheck(
        tr, seed, workdir, name="wide", sizes=(n, n, 1), nets=nets, octagon=False,
        n_assert=1, dense_inputs=True, log_slack=(1.5, 3.0), samples=samples,
    )


def deep(tr, seed, workdir, nets=24, width=32, depth=6, samples=2000):
    return AnalyseAndCheck(
        tr, seed, workdir, name="deep", sizes=(8, *[width] * depth, 2), nets=nets,
        octagon=True, n_assert=6, dense_inputs=False, log_slack=(3.0, 12.0), samples=samples,
    )


class Subdiv:
    """``subdiv``: in-process CLI calls on generated ``.nt`` and spec files."""

    MODES = ("zone", "box", "external")
    GRIDS = ("x1:2,x2:2", "x1:2,x2:2,x3:2", "x1:3,x3:2")
    N_ASSERT = 6

    def __init__(self, tr, seed, workdir, calls=48, sizes=(3, 12, 12, 2), samples=2000):
        self.tr = tr
        self.samples = samples
        rng = np.random.default_rng([seed, 7])
        n_in, n_out = sizes[0], sizes[-1]
        self.lo, self.hi = -np.ones(n_in), np.ones(n_in)
        slack = slack_factors(rng, calls * self.N_ASSERT, -2.5, 3.0)
        self.items = []
        self.setup_problems = []
        for k in range(calls):
            weights, biases = random_net(rng, sizes)
            net = tr.Network(tuple(weights), tuple(biases), final_relu=False)
            nt_path = Path(workdir) / f"net{k}.nt"
            tr.write_sherlock(net, nt_path)
            parsed = tr.parse_sherlock(nt_path, final_relu=False)
            if not all(np.array_equal(p, w) for p, w in zip(parsed.weights, weights)):
                self.setup_problems.append(f"net{k}.nt does not read back its weights")
            rows = []
            for q in range(self.N_ASSERT):
                restrict = None
                if q % 3 == 2:
                    a = rng.uniform(-1, 0.2, size=n_in)
                    restrict = [[float(v), float(v) + 0.8] for v in a]
                c_in = rng.uniform(-1, 1, size=n_in)
                c_out = rng.uniform(-1, 1, size=n_out)
                lo, hi = restriction_bounds(self.lo, self.hi, restrict)
                x = box_samples(rng, lo, hi, samples)
                h = x @ c_in + stages_of(weights, biases, x)[-1] @ c_out
                rows.append({
                    "name": f"a{q}",
                    "in_coeffs": c_in.tolist(),
                    "out_coeffs": c_out.tolist(),
                    "const": constant_for(h, slack[k * self.N_ASSERT + q]),
                    "restrict_box": restrict,
                })
            spec_path = Path(workdir) / f"net{k}.json"
            spec = {"input_box": [[-1.0, 1.0]] * n_in, "assertions": rows}
            spec_path.write_text(json.dumps(spec), encoding="utf-8")
            self.items.append({
                "weights": weights,
                "biases": biases,
                "rows": rows,
                "gate_seed": [seed, 7, 1, k],
                "argv": [
                    "--network", str(nt_path),
                    "--spec", str(spec_path),
                    "--mode", self.MODES[k % 3],
                    "--subdiv", self.GRIDS[(k // 3) % len(self.GRIDS)],
                    "--report", str(Path(workdir) / f"report{k}.json"),
                    "--no-final-relu",
                ],
            })

    def gate_samples(self, i):
        """Item ``i``'s concrete values per stage on the whole box, and each
        assertion's left-hand side on its own box, drawn afresh."""
        it = self.items[i]
        rng = np.random.default_rng(it["gate_seed"])
        stages = stages_of(it["weights"], it["biases"], box_samples(rng, self.lo, self.hi, self.samples))
        hs = []
        for row in it["rows"]:
            lo, hi = restriction_bounds(self.lo, self.hi, row["restrict_box"])
            xr = box_samples(rng, lo, hi, self.samples)
            yr = stages_of(it["weights"], it["biases"], xr)[-1]
            hs.append(xr @ np.asarray(row["in_coeffs"]) + yr @ np.asarray(row["out_coeffs"]) + row["const"])
        return stages, hs

    def query(self, i):
        it = self.items[i]
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
            code = self.tr.cli.run_cli(it["argv"])
        report = None
        if code != 1:
            with open(it["argv"][it["argv"].index("--report") + 1], encoding="utf-8") as fh:
                report = json.load(fh)
        return code, printed.getvalue(), report

    def gate(self, i, out):
        code, printed, report = out
        it = self.items[i]
        chk = Checked(problems=list(self.setup_problems))
        if report is None:
            chk.problems.append(f"run_cli exited with {code}: {printed.strip()[-200:]}")
            return chk
        verdicts = report["assertions"]
        all_verified = all(v["status"] == "Verified" for v in verdicts)
        if code != (0 if all_verified else 2):
            chk.problems.append(f"exit code {code} disagrees with the verdicts")
        lines = [f"{v['name']}: {v['status']}" for v in verdicts]
        if [ln.split(" (")[0] for ln in printed.splitlines()] != lines:
            chk.problems.append("printed verdicts differ from the report")
        stages, hs = self.gate_samples(i)
        for b in report["bounds"]:
            chk.problems += bounds_problems(b["stage"], b["lo"], b["hi"], stages[b["stage"]])
            if b["stage"] > 0:
                chk.log_ratios += log_width_ratios(b["lo"], b["hi"], stages[b["stage"]])
        fp = [str(code)]
        for v, h in zip(verdicts, hs):
            verified = v["status"] == "Verified"
            chk.problems += verdict_problems(v["name"], verified, v["minimum"], h)
            chk.n_checked += 1
            chk.n_verified += int(verified)
            fp.append(f"{v['status']} {v['minimum']!r}")
        last = report["bounds"][-1]
        chk.fingerprint = " ".join(rounded(last["lo"]) + rounded(last["hi"]) + fp)
        return chk


class Props:
    """``props``: one net analysed in set-up, then one assertion check per query."""

    def __init__(self, tr, seed, workdir, sizes=(16, 24, 24, 10), dense=315, samples=2000):
        self.tr = tr
        self.seed = seed
        self.samples = samples
        rng = np.random.default_rng([seed, 11])
        n_in, n_out = sizes[0], sizes[-1]
        self.lo, self.hi = -np.ones(n_in), np.ones(n_in)
        self.weights, self.biases = random_net(rng, sizes)
        self.net = tr.Network(tuple(self.weights), tuple(self.biases), final_relu=False)
        self.box = tr.Box(self.lo, self.hi)
        coeffs = []
        for j in range(n_out):
            for k in range(j + 1, n_out):
                c_out = np.zeros(n_out)
                sign = 1.0 if rng.random() < 0.5 else -1.0
                c_out[j], c_out[k] = sign, -sign
                coeffs.append((np.zeros(n_in), c_out))
        for _ in range(dense):
            coeffs.append((rng.uniform(-1, 1, size=n_in), rng.uniform(-1, 1, size=n_out)))
        restricted = set(rng.permutation(len(coeffs))[: len(coeffs) // 3].tolist())
        slack = slack_factors(rng, len(coeffs), -1.8, 6.2)
        x_all = box_samples(rng, self.lo, self.hi, samples)
        y_all = stages_of(self.weights, self.biases, x_all)[-1]
        self.assertions = []
        for q, (c_in, c_out) in enumerate(coeffs):
            restrict = None
            x, y = x_all, y_all
            if q in restricted:
                restrict = tuple(
                    (float(a), float(a) + w) if rng.random() < 0.5 else None
                    for a, w in zip(rng.uniform(-1, 0.0, size=n_in), rng.uniform(0.5, 1.0, size=n_in))
                )
                lo, hi = restriction_bounds(self.lo, self.hi, restrict)
                x = box_samples(rng, lo, hi, samples)
                y = stages_of(self.weights, self.biases, x)[-1]
            const = constant_for(x @ c_in + y @ c_out, slack[q])
            self.assertions.append(tr.LinearAssertion(c_in, c_out, const, restrict, name=f"p{q}"))
        self.result = tr.analyze(self.net, self.box)
        self.items = self.assertions

    @functools.cached_property
    def setup_check(self):
        """Gate of the shared analysis, made once: its problems and widths."""
        rng = np.random.default_rng([self.seed, 11, 1])
        stages = stages_of(self.weights, self.biases, box_samples(rng, self.lo, self.hi, self.samples))
        points = np.column_stack([stages[s][:, j] for s, j in self.result.var_map])
        chk = Checked(problems=zone_problems(self.result.zone.entries, points))
        for s, box in enumerate(self.result.bounds):
            if box is not None:
                chk.problems += bounds_problems(s, box.lo, box.hi, stages[s])
                if s > 0:
                    chk.log_ratios += log_width_ratios(box.lo, box.hi, stages[s])
        return chk

    def gate_h(self, i):
        """Assertion ``i``'s left-hand side on samples of its box, drawn afresh."""
        a = self.assertions[i]
        lo, hi = restriction_bounds(self.lo, self.hi, a.restrict)
        x = box_samples(np.random.default_rng([self.seed, 11, 1, i]), lo, hi, self.samples)
        y = stages_of(self.weights, self.biases, x)[-1]
        return x @ a.in_coeffs + y @ a.out_coeffs + a.const

    def query(self, i):
        return self.tr.check(self.assertions[i], self.result)

    def gate(self, i, v):
        a = self.assertions[i]
        chk = Checked(problems=list(self.setup_check.problems), n_checked=1, n_verified=int(v.verified))
        chk.problems += verdict_problems(a.name, v.verified, v.minimum, self.gate_h(i))
        # every check shares the set-up analysis, so its widths count once
        chk.log_ratios = self.setup_check.log_ratios if i == 0 else []
        chk.fingerprint = f"{v.status.value} {float(v.minimum):.8g}"
        return chk


WORKLOADS = {
    "wide": wide,
    "deep": deep,
    "subdiv": Subdiv,
    "props": Props,
}
