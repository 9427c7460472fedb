"""Spans around the calls into troprelu's modules, recorded from outside.

The library imports names with ``from .x import f``, so one function can be
reachable through several module attributes.  ``Tracer.bind`` finds every
such binding and ``install`` points each at one wrapper, so a call is timed
whichever name the caller used.  Spans stay in memory; each records its
parent span and the query it belongs to, and ``write_spans`` dumps them
when the run ends.

A span's self time is its duration minus the durations of its direct child
spans; summing self times over a module's functions gives the module's
self time without counting nested calls twice.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

# The modules that make up the analysis, in pipeline order.
LAYERS = (
    "cli",
    "sherlock",
    "network",
    "layers",
    "tropical",
    "dbm",
    "speccheck",
    "simplex",
    "subdivision",
)

# Public functions reported one by one (every other public function of a
# layer is still wrapped, so its time counts towards its own module).
REPORTED = (
    "cli.run_cli",
    "cli.load_spec_file",
    "cli.build_report",
    "sherlock.parse_sherlock",
    "network.analyze",
    "layers.zone_constants",
    "layers.zone_internal",
    "layers.zone_dbm",
    "layers.oct_constants",
    "layers.oct_dbm",
    "tropical.emb_internal",
    "tropical.emb_box_internal",
    "tropical.extreme_filter",
    "tropical.internal_to_zone",
    "tropical.zone_to_internal",
    "tropical.proj_internal",
    "tropical.union_internal",
    "dbm.dbm_close",
    "dbm.dbm_intersect",
    "dbm.oct_close",
    "dbm.embed_dbm",
    "dbm.embed_oct",
    "dbm.dbm_box",
    "speccheck.check",
    "speccheck.check_with_subdivision",
    "speccheck.min_over_zone",
    "simplex.minimize_over_halfspaces",
)

SPAN_CAP = 500_000  # spans kept for the dump; statistics cover every call


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _probe_emb_internal(sizes, args, kwargs, out):
    sizes["emb_internal.gens_out"] += out.n_generators


def _probe_extreme_filter(sizes, args, kwargs, out):
    sizes["extreme_filter.gens_in"] += _arg(args, kwargs, 0, "poly").n_generators
    sizes["extreme_filter.gens_out"] += out.n_generators


def _probe_dbm_close(sizes, args, kwargs, out):
    dim = _arg(args, kwargs, 0, "d").dim
    sizes["dbm_close.max_dim"] = max(sizes["dbm_close.max_dim"], dim)


def _probe_oct_close(sizes, args, kwargs, out):
    dim = _arg(args, kwargs, 0, "o").dim
    sizes["oct_close.max_dim"] = max(sizes["oct_close.max_dim"], dim)


def _probe_minimize(sizes, args, kwargs, out):
    sizes["minimize_over_halfspaces.rows"] += len(_arg(args, kwargs, 1, "rows"))


PROBES = {
    "tropical.emb_internal": _probe_emb_internal,
    "tropical.extreme_filter": _probe_extreme_filter,
    "dbm.dbm_close": _probe_dbm_close,
    "dbm.oct_close": _probe_oct_close,
    "simplex.minimize_over_halfspaces": _probe_minimize,
}


class Tracer:
    """Times wrapped calls made while a query is open.

    ``clock`` is injectable so the self-time arithmetic can be tested with
    a synthetic clock.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # (span_id, parent_id, query_id, key, start, end)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.sizes = defaultdict(float)
        self.query_id = None
        self._stack = []  # [span_id, seconds covered by child spans]
        self._next_id = 1
        self._bindings = []  # (module, attribute, original, wrapper)

    def wrap(self, key, fn):
        probe = PROBES.get(key)

        def traced(*args, **kwargs):
            if self.query_id is None:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else 0
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = self.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                dur = end - start
                if self._stack:
                    self._stack[-1][1] += dur
                self.calls[key] += 1
                self.self_s[key] += dur - frame[1]
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((span_id, parent, self.query_id, key, start, end))
            if probe is not None:
                probe(self.sizes, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def bind(self, package="troprelu"):
        """Find every binding of each layer's public functions; wrap each once."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for name, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and not name.startswith("_")
                    and fn.__module__ == mod.__name__
                ):
                    wrappers[id(fn)] = self.wrap(f"{layer}.{name}", fn)
        self._bindings = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for name, value in vars(mod).items():
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._bindings.append((mod, name, value, wrapper))

    def install(self):
        """Point every binding at its wrapper (``bind`` first)."""
        for mod, name, _, wrapper in self._bindings:
            setattr(mod, name, wrapper)

    def uninstall(self):
        for mod, name, original, _ in self._bindings:
            setattr(mod, name, original)

    def module_self_s(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for key, sec in self.self_s.items():
            out[key.split(".", 1)[0]] += sec
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span_id,parent_id,query_id,function,start_s,end_s\n")
            for sid, parent, qid, key, start, end in self.spans:
                fh.write(f"{sid},{parent},{qid},{key},{start:.9f},{end:.9f}\n")
