"""Spans around the calls into each ``qclocksync`` module, recorded from outside.

Each public function is wrapped where its caller looks it up: ``protocol``
imports the ``ensemble`` functions and ``channels.deliver`` by name,
``config`` imports the protocol entry points and ``es_rms_error`` by name,
``cli`` imports ``run_scenario`` by name, and ``protocol`` and
``first_envelope_maximum`` reach the fits through the ``estimation`` module's
own attributes. Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import json
import pickle
import time
from collections import Counter, defaultdict

# (module, attribute, span name). A function looked up in two modules gets
# one wrapper in each, under one span name.
WRAP_POINTS = (
    ("cli", "run_scenario", "config.run_scenario"),
    ("config", "run_single_frequency", "protocol.run_single_frequency"),
    ("config", "establish_time_origin", "protocol.establish_time_origin"),
    ("config", "es_rms_error", "channels.es_rms_error"),
    ("protocol", "run_single_frequency", "protocol.run_single_frequency"),
    ("protocol", "run_two_frequency", "protocol.run_two_frequency"),
    ("protocol", "broadcast_labels", "protocol.broadcast_labels"),
    ("protocol", "alice_collapse_all", "ensemble.alice_collapse_all"),
    ("protocol", "select_subensemble", "ensemble.select_subensemble"),
    ("protocol", "sample_batch", "ensemble.sample_batch"),
    ("protocol", "deliver", "channels.deliver"),
    ("estimation", "estimate_phase", "estimation.estimate_phase"),
    ("estimation", "beat_difference", "estimation.beat_difference"),
    ("estimation", "envelope_phase", "estimation.envelope_phase"),
    ("estimation", "first_envelope_maximum", "estimation.first_envelope_maximum"),
)

# per-layer metric -> (span name, statistic); statistics are per scenario
SPAN_METRICS = {
    "cli.main.self_s": ("cli.main", "self"),
    "config.run_scenario.self_s": ("config.run_scenario", "self"),
    "protocol.run_single_frequency.self_s": ("protocol.run_single_frequency", "self"),
    "protocol.broadcast_labels.s": ("protocol.broadcast_labels", "total"),
    "ensemble.alice_collapse_all.s": ("ensemble.alice_collapse_all", "total"),
    "ensemble.select_subensemble.s": ("ensemble.select_subensemble", "total"),
    "ensemble.sample_batch.s": ("ensemble.sample_batch", "total"),
    "ensemble.sample_batch.calls": ("ensemble.sample_batch", "calls"),
    "estimation.estimate_phase.s": ("estimation.estimate_phase", "total"),
    "estimation.estimate_phase.calls": ("estimation.estimate_phase", "calls"),
    "estimation.envelope_phase.s": ("estimation.envelope_phase", "total"),
    "estimation.envelope_phase.calls": ("estimation.envelope_phase", "calls"),
    "channels.es_rms_error.s": ("channels.es_rms_error", "total"),
}


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # span = (name id, start, end, parent span index or -1, scenario index)
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self.scenario = -1
        # per scenario index: counters measured at the wrapped boundaries
        self.counters: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._saved: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        after = _AFTER.get(name)

        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (nid, start, end, parent, self.scenario)
            if after is not None:
                after(self.counters[self.scenario], out)
            return out

        return traced

    def install(self, modules: dict) -> None:
        """Swap every wrap point for its traced wrapper."""
        for mod_name, attr, span in WRAP_POINTS:
            mod = modules[mod_name]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(span, fn))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def call(self, name: str, fn, *args):
        """Run fn under a span named by the caller (the benchmark's own boundary)."""
        return self.wrap(name, fn)(*args)

    def layer_stats(self, scenarios: list[int]) -> dict[str, dict[str, float]]:
        """Total time, self time and call count per span name, summed over
        the given scenario indices."""
        keep = set(scenarios)
        child = [0.0] * len(self.spans)
        for nid, start, end, parent, _sc in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, dict[str, float]] = {
            n: {"total": 0.0, "self": 0.0, "calls": 0} for n in self.names}
        for i, (nid, start, end, _parent, sc) in enumerate(self.spans):
            if sc in keep:
                st = stats[self.names[nid]]
                st["total"] += end - start
                st["self"] += end - start - child[i]
                st["calls"] += 1
        return stats

    def calls_by_scenario(self, name: str) -> Counter:
        nid = self._ids.get(name)
        return Counter(sc for n, _s, _e, _p, sc in self.spans if n == nid)

    def write(self, path: str, summary: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"summary": summary, "names": self.names,
                       "span_fields": ["name", "start", "end", "parent", "scenario"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def _count_pairs(counters, out) -> None:
    counters["sample_batch.pairs"] += out[1]


def _count_message(counters, out) -> None:
    if out is not None:
        counters["label_message_bytes"] += len(pickle.dumps(out, pickle.HIGHEST_PROTOCOL))


_AFTER = {
    "ensemble.sample_batch": _count_pairs,
    "protocol.broadcast_labels": _count_message,
}
