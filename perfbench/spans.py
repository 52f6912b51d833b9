"""Span recorder and the layer instrumentation used by the traced pass.

The traced pass measures each module of ``coexsim`` from outside.  It replaces
the public calls into a layer, and every event callback handed to
``Engine.schedule``, with wrappers that record a span around the original.
Each name is patched where its caller looks it up, and every patch is undone
when the pass ends, so the untraced timings run the unmodified program.
"""

from __future__ import annotations

import collections
import time
from array import array

import numpy as np

_clock = time.perf_counter_ns


class SpanRecorder:
    """Spans kept in memory as parallel arrays, written out once at the end.

    A span holds a name, its start and end (``perf_counter_ns``), the index of
    the span that was open when it began (its parent, -1 for none) and a run
    id.  Every span opened inside a run-root span shares that root's run id;
    spans outside any simulation run carry run id -1.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.run = array("i")
        self.counts: collections.Counter[str] = collections.Counter()
        self._stack: list[int] = []
        self._runs = 0
        self._run = -1
        self._run_root = -1

    def name(self, label: str) -> int:
        nid = self._ids.get(label)
        if nid is None:
            nid = self._ids[label] = len(self.names)
            self.names.append(label)
        return nid

    def open(self, nid: int, run_root: bool = False) -> int:
        idx = len(self.start)
        if run_root:
            if self._run_root >= 0:
                raise RuntimeError("a simulation run started inside another run")
            self._run, self._run_root = self._runs, idx
            self._runs += 1
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self._run)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _clock()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")
        if idx == self._run_root:
            self._run, self._run_root = -1, -1

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.uint16),
                "start": np.frombuffer(self.start, dtype=np.int64),
                "end": np.frombuffer(self.end, dtype=np.int64),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "run": np.frombuffer(self.run, dtype=np.int32)}


def self_times_ns(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration minus the time its child spans cover, per span.

    Spans come from one thread and nest strictly, so a span's children are
    disjoint intervals inside it and the time they cover is their summed
    duration.  A negative result means the nesting was broken.
    """
    duration = end - start
    covered = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


def check_spans(rec: SpanRecorder) -> list[str]:
    """Problems with the recorded spans; an empty list means they are sound.

    Every span is closed and has a non-negative self time, every run has one
    root, and the self times of each run's spans add up to its root span.
    """
    a = rec.arrays()
    start, end, parent, run = a["start"], a["end"], a["parent"], a["run"]
    problems = []
    if rec._stack:
        problems.append(f"{len(rec._stack)} spans never closed")
        return problems
    self_ns = self_times_ns(start, end, parent)
    if (self_ns < 0).any():
        problems.append(f"{int((self_ns < 0).sum())} spans have negative self time")
    in_run = run >= 0
    roots = in_run & ((parent < 0) | (run[np.maximum(parent, 0)] != run))
    n_runs = rec._runs
    if np.bincount(run[roots], minlength=n_runs).tolist() != [1] * n_runs:
        problems.append("a run does not have exactly one root span")
        return problems
    self_sum = np.zeros(n_runs, dtype=np.int64)
    np.add.at(self_sum, run[in_run], self_ns[in_run])
    root_ns = np.zeros(n_runs, dtype=np.int64)
    root_ns[run[roots]] = (end - start)[roots]
    bad = int((self_sum != root_ns).sum())
    if bad:
        problems.append(f"{bad} runs whose self times do not add up to the root span")
    return problems


def layer_totals(rec: SpanRecorder) -> dict[str, tuple[int, float, float]]:
    """Per span name: (count, inclusive seconds, self seconds)."""
    a = rec.arrays()
    nid = a["name_id"].astype(np.int64)
    duration = a["end"] - a["start"]
    self_ns = self_times_ns(a["start"], a["end"], a["parent"])
    n = len(rec.names)
    count = np.bincount(nid, minlength=n)
    total = np.zeros(n, dtype=np.int64)
    own = np.zeros(n, dtype=np.int64)
    np.add.at(total, nid, duration)
    np.add.at(own, nid, self_ns)
    return {name: (int(count[i]), total[i] / 1e9, own[i] / 1e9)
            for i, name in enumerate(rec.names)}


def _span(rec: SpanRecorder, label: str, fn, run_root: bool = False, count=None):
    """``fn`` wrapped in a span; ``count(result)``, if given, updates the counters."""
    nid = rec.name(label)

    def wrapper(*args, **kwargs):
        i = rec.open(nid, run_root)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if count is not None:
            count(result)
        return result
    return wrapper


def timed(rec: SpanRecorder, label: str, fn, *args, run_root: bool = False):
    """Call ``fn(*args)`` inside one span recorded by the benchmark itself."""
    return _span(rec, label, fn, run_root)(*args)


class Instrumentation:
    """Installs span wrappers at coexsim's layer boundaries; ``restore`` undoes them.

    ``mods`` maps a layer name (``engine``, ``wifi``, ...) to its module.
    """

    def __init__(self, mods: dict, rec: SpanRecorder) -> None:
        self.mods = mods
        self.rec = rec
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, make) -> None:
        # A boundary the program no longer has is never called: its figures read 0.
        original = vars(owner).get(attr)
        if original is None:
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        m, rec = self.mods, self.rec
        engine_cls = m["engine"].Engine
        counts = rec.counts

        def cancelled(ok):
            counts["engine.cancelled"] += ok

        def decoded(ok):
            counts["radio.decode_failures"] += not ok

        def finalized(metrics):
            counts["wifi.attempts"] += metrics.attempts
            counts["wifi.failures"] += metrics.failures

        wrapped = [
            (engine_cls, "run_until", "engine.run_until", None),
            (engine_cls, "rng_stream", "engine.rng_stream", None),
            (engine_cls, "trace_lines", "engine.trace_lines", None),
            (engine_cls, "cancel", "engine.cancel", cancelled),
            (m["simulation"].Simulation, "__init__", "simulation.init", None),
            (m["simulation"].Simulation, "run", "simulation.run", None),
            (m["simulation"].Medium, "sinr_trace_at_rx", "simulation.medium.query", None),
            (m["simulation"].Medium, "sinr_trace_at_tx", "simulation.medium.query", None),
            # Medium._trace imports SinrTrace from the radio module at each call.
            (m["radio"], "SinrTrace", "radio.sinr_trace_build", None),
            (m["wifi"], "packet_outcome", "radio.packet_outcome", decoded),
            (m["metrics"].MetricsAccumulator, "finalize", "metrics.finalize", finalized),
            (m["experiments"], "box_stats", "metrics.box_stats", None),
            (m["experiments"].SweepResult, "to_csv_text", "experiments.csv", None),
            (m["experiments"].SweepResult, "summary_csv_text", "experiments.csv", None),
            (m["experiments"], "serialize_config", "config.serialize", None),
            (m["config"], "serialize_config", "config.serialize", None),
            (m["experiments"], "derive_seed", "config.derive_seed", None),
            (m["cli"], "parse_config", "config.parse", None),
            (m["cli"], "run_sweep", "experiments.run_sweep", None),
        ]
        for owner, attr, label, count in wrapped:
            self._patch(owner, attr,
                        lambda fn, label=label, count=count: _span(rec, label, fn, count=count))
        # One sweep run is one simulation run: its spans share a run id.
        self._patch(m["experiments"], "_execute",
                    lambda fn: _span(rec, "experiments.execute", fn, run_root=True))
        self._patch(engine_cls, "schedule", self._schedule)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _schedule(self, fn):
        """Engine.schedule, with the event callback wrapped in a span of its layer."""
        rec = self.rec
        nid = rec.name("engine.schedule")
        callback_ids: dict[str, int] = {}

        def schedule(engine, fire_time, kind, target, callback, detail=""):
            i = rec.open(nid)
            try:
                module = callback.__module__
                cb_nid = callback_ids.get(module)
                if cb_nid is None:
                    layer = module.rpartition(".")[2]
                    cb_nid = callback_ids[module] = rec.name(f"{layer}.callback")
                return fn(engine, fire_time, kind, target,
                          _callback(rec, cb_nid, callback), detail)
            finally:
                rec.close(i)
        return schedule


def _callback(rec: SpanRecorder, nid: int, callback):
    """An event callback in a span; kept minimal, as every dispatched event runs it."""
    def traced_callback():
        i = rec.open(nid)
        try:
            callback()
        finally:
            rec.close(i)
    return traced_callback
