"""coexsim benchmark: one closed-loop workload per call, one JSON result line.

    python3 perfbench/run.py --workload runs|sweeps|traced-soft --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  ``--trace 0`` times the workload untraced for S seconds and prints
the end-to-end metrics.  Times are in reference seconds: host seconds scaled
by the speed of the host during the run, which ``yardstick.py`` samples
between the timed steps.  ``--trace 1`` alternates untraced iterations with
iterations traced at every layer boundary and prints the per-layer metrics.
Every output is checked against the digests in ``pins.json``; the last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}`` and the exit code
is 1 when any output is wrong.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from spans import Instrumentation, SpanRecorder, check_spans, layer_totals
from workloads import WORKLOADS, Workload
from yardstick import HostSpeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
LAYERS = ("engine", "radio", "lte", "wifi", "metrics", "config", "simulation",
          "experiments", "cli")
SETUPS_PER_ITERATION = 3
# The load is sized for two cores; never ask for more workers than we may use.
TARGET_JOBS = 2


def load_pins() -> dict:
    return json.loads((BENCH_DIR / "pins.json").read_text(encoding="utf-8"))


def import_program() -> dict:
    """Fresh import of every coexsim module from ``src/``."""
    for name in [n for n in sys.modules if n == "coexsim" or n.startswith("coexsim.")]:
        del sys.modules[name]
    mods = {layer: importlib.import_module(f"coexsim.{layer}") for layer in LAYERS}
    for mod in mods.values():
        if not Path(mod.__file__).resolve().is_relative_to(SRC):
            raise ImportError(f"{mod.__name__} was imported from {mod.__file__}, not {SRC}")
    return mods


def set_up(workload: Workload, tmp: Path, walls: list[tuple[float, float]],
           speed: HostSpeed) -> dict:
    """Import plus building configs and scenarios, a few times over.

    Appends each set-up's (host, reference) seconds to ``walls``; the last
    set-up is the one the next iteration uses.
    """
    def once():
        mods = import_program()
        workload.setup(mods, tmp)
        return mods

    for _ in range(SETUPS_PER_ITERATION):
        host, ref = speed.host_s, speed.reference_s
        mods = speed.measure(once)
        walls.append((speed.host_s - host, speed.reference_s - ref))
    return mods


class Tally:
    """Runs attempted and failed; a run fails if it raised or a digest mismatched."""

    def __init__(self, workload: Workload, pins: list) -> None:
        self.workload = workload
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, k: int, artifacts: dict) -> None:
        w = self.workload
        for key, artifact in artifacts.items():
            runs = w.key_runs(key)
            self.attempted += runs
            where = f"{w.name} pool entry {k} {key}"
            if isinstance(artifact, BaseException):
                ok, problem = False, f"{where}: {artifact!r}"
            else:
                try:
                    ok = w.digests(artifact) == self.pins[k].get(key)
                    problem = f"{where}: output digest mismatch"
                except Exception as exc:
                    ok, problem = False, f"{where}: {exc!r}"
            if not ok:
                self.failed += runs
                self.problems.append(problem)
        self.problems += w.extra_problems(artifacts)


def run_iteration(w: Workload, start: int, i: int, jobs: int, rec: SpanRecorder | None,
                  tally: Tally, speed: HostSpeed) -> tuple[float, float]:
    """One closed-loop iteration; returns its (host, reference) seconds.

    Only the calls into the program are timed; the outputs are checked after.
    Each iteration starts from a collected heap, so garbage cycles left by the
    previous one neither add to its time nor pile up into the peak RSS.
    """
    units = w.units(start, i)
    gc.collect()
    host, ref = speed.host_s, speed.reference_s
    outputs = [w.run_unit(k, jobs, rec, speed.measure) for k in units]
    times = (speed.host_s - host, speed.reference_s - ref)
    for k, artifacts in zip(units, outputs):
        tally.add(k, artifacts)
    return times


def median_times(label: str, times: list[tuple[float, float]]) -> float:
    """Prints the host and reference medians; returns the reference one."""
    host, ref = (statistics.median(t[j] for t in times) for j in (0, 1))
    print(f"{label} over {len(times)}: median {host:.5f} host s, {ref:.5f} reference s")
    return ref


def untraced_pass(w, start, seconds, jobs, tally, tmp) -> dict:
    """Set-ups and iterations in turn, so both sample the whole measured span.

    Set-ups run in one process.  Iterations of a workload with a pool keep
    ``jobs`` cores busy, so their host speed is sampled on as many.
    """
    walls, setup_walls = [], []
    deadline = time.perf_counter() + seconds
    with HostSpeed() as speed, HostSpeed(jobs if w.uses_pool else 1) as pool_speed:
        while not walls or time.perf_counter() < deadline:
            set_up(w, tmp, setup_walls, speed)
            walls.append(run_iteration(w, start, len(walls), jobs, None, tally, pool_speed))
        rss = peak_rss_mb()  # before the yardstick helpers end and count as children
    print("host s per iteration: " + " ".join(f"{h:.4f}" for h, _ in walls))
    print("reference s per iteration: " + " ".join(f"{r:.4f}" for _, r in walls))
    for label, sp in (("set-up", speed), ("iteration", pool_speed)):
        print(f"{label} yardstick: median {statistics.median(sp.samples):.5f} host s "
              f"over {len(sp.samples)} samples")
    setup = median_times("set-ups", setup_walls)
    wall = median_times("iterations", walls)
    units = w.units_per_iteration
    return {"setup_s": (setup, "s"),
            "wall_s": (wall, "s"),
            "sim_s_per_host_s": (w.sim_s_per_unit * units / wall, "s/s"),
            "runs_per_s": (w.runs_per_unit * units / wall, "1/s"),
            "peak_rss_mb": (rss, "MB")}


def layer_metrics(rec: SpanRecorder) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced iteration, with units (see README.md)."""
    totals = layer_totals(rec)
    count = lambda n: totals.get(n, (0, 0.0, 0.0))[0]
    incl = lambda n: totals.get(n, (0, 0.0, 0.0))[1]
    own = lambda n: totals.get(n, (0, 0.0, 0.0))[2]
    ratio = lambda a, b: a / b if b else 0.0
    c = rec.counts
    events = sum(n for name, (n, _, _) in totals.items() if name.endswith(".callback"))
    queries = count("simulation.medium.query")
    outcomes = count("radio.packet_outcome")
    attempts = c["wifi.attempts"]
    return {
        "engine.events": (events, "count"),
        "engine.cancelled": (c["engine.cancelled"], "count"),
        "engine.schedule_s": (incl("engine.schedule"), "s"),
        "engine.dispatch_self_s": (own("engine.run_until"), "s"),
        "engine.events_per_s": (ratio(events, incl("engine.run_until")), "1/s"),
        "engine.rng_stream_s": (incl("engine.rng_stream"), "s"),
        "engine.trace_lines_s": (incl("engine.trace_lines"), "s"),
        "simulation.medium.queries": (queries, "count"),
        "simulation.medium.query_s": (incl("simulation.medium.query"), "s"),
        "simulation.medium.queries_per_s": (
            ratio(queries, incl("simulation.medium.query")), "1/s"),
        "simulation.init_s": (incl("simulation.init"), "s"),
        "radio.sinr_trace_build_s": (incl("radio.sinr_trace_build"), "s"),
        "radio.packet_outcome_calls": (outcomes, "count"),
        "radio.packet_outcome_s": (incl("radio.packet_outcome"), "s"),
        "radio.decode_fail_ratio": (ratio(c["radio.decode_failures"], outcomes), "ratio"),
        "wifi.attempts": (attempts, "count"),
        "wifi.callback_self_s": (own("wifi.callback"), "s"),
        "wifi.us_per_attempt": (ratio(incl("wifi.callback") * 1e6, attempts), "us"),
        "wifi.success_ratio": (ratio(attempts - c["wifi.failures"], attempts), "ratio"),
        "lte.transitions": (count("lte.callback"), "count"),
        "lte.callback_s": (incl("lte.callback"), "s"),
        "metrics.finalize_s": (incl("metrics.finalize"), "s"),
        "metrics.box_stats_s": (incl("metrics.box_stats"), "s"),
        "config.serialize_calls": (count("config.serialize"), "count"),
        "config.serialize_s": (incl("config.serialize"), "s"),
        "config.derive_seed_s": (incl("config.derive_seed"), "s"),
        "config.parse_s": (incl("config.parse"), "s"),
        "experiments.runs_planned": (count("experiments.execute"), "count"),
        "experiments.run_sweep_self_s": (own("experiments.run_sweep"), "s"),
        "experiments.csv_s": (incl("experiments.csv"), "s"),
        "cli.self_s": (own("cli.main"), "s"),
    }


def traced_pass(w, start, seconds, jobs, tally, tmp) -> tuple[dict, list[SpanRecorder]]:
    """Rounds of: untraced at ``jobs``, untraced at 1 job, traced at 1 job.

    Each round runs the same inputs three ways, so the traced wall compares
    with the untraced single-process wall of the same work.  Returns the
    per-layer metrics and the recorder of every traced iteration.
    """
    plain, single, traced, layers, recorders = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    # One-process samples for every iteration, so that pool_efficiency compares
    # the two job counts on one scale.
    with HostSpeed() as speed:
        while not traced or time.perf_counter() < deadline:
            i = len(traced)
            mods = set_up(w, tmp, [], speed)
            plain.append(run_iteration(w, start, i, jobs, None, tally, speed)[1])
            single.append(run_iteration(w, start, i, 1, None, tally, speed)[1]
                          if w.uses_pool and jobs > 1 else plain[-1])
            rec = SpanRecorder()
            inst = Instrumentation(mods, rec)
            inst.install()
            try:
                traced.append(run_iteration(w, start, i, 1, rec, tally, speed)[1])
            finally:
                inst.restore()
            tally.problems += [f"traced iteration {i}: {p}" for p in check_spans(rec)]
            layers.append(layer_metrics(rec))
            recorders.append(rec)

    # Spans time the traced iterations in host seconds; one scale for the pass
    # turns their figures into reference seconds.
    scale = speed.scale()
    per_unit = {"s": scale, "us": scale, "1/s": 1.0 / scale}
    out = {name: (statistics.median(it[name][0] for it in layers) * per_unit.get(unit, 1.0),
                  unit)
           for name, (_, unit) in layers[0].items()}
    out["experiments.pool_efficiency"] = (
        statistics.median(single) / (jobs * statistics.median(plain))
        if w.uses_pool else 0.0, "ratio")
    out["trace_overhead_frac"] = (
        statistics.median(traced) / statistics.median(single) - 1.0, "ratio")
    return out, recorders


def save_spans(recorders: list[SpanRecorder], path: Path, stamp_text: str) -> None:
    """All spans of the pass; keys ``<field>_<i>`` hold traced iteration i."""
    columns = {}
    for i, rec in enumerate(recorders):
        columns[f"names_{i}"] = np.array(rec.names)
        columns.update({f"{key}_{i}": value for key, value in rec.arrays().items()})
    np.savez(path, stamp=np.array(stamp_text), **columns)


def peak_rss_mb() -> float:
    """Highest peak RSS among this process and its waited-for children."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def stamp(args, nproc: int, jobs: int, start: int) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
        git_sha = done.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "coexsim").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "pool_start": start, "nproc": nproc, "jobs": jobs,
            "python": platform.python_version(), "numpy": np.__version__,
            "git_sha": git_sha, "src_sha256": src_hash.hexdigest()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: list[str] | None = None, pins: dict | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "coexsim" / "__init__.py").is_file():
        print(f"error: no coexsim sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    w = WORKLOADS[args.workload]()
    pins = (pins or load_pins())[w.name]
    if len(pins) != w.pool_size:
        print(f"error: pins.json holds {len(pins)} entries for {w.name}, "
              f"expected {w.pool_size}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    jobs = min(TARGET_JOBS, nproc)
    start = w.pool_start(args.seed)
    stamp_text = json.dumps(stamp(args, nproc, jobs, start), sort_keys=True)
    tally = Tally(w, pins)

    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=OUT_DIR))
    try:
        if args.trace:
            metrics, recorders = traced_pass(w, start, args.seconds, jobs, tally, tmp)
            save_spans(recorders, OUT_DIR / f"spans-{w.name}.npz", stamp_text)
            del recorders
        else:
            metrics = untraced_pass(w, start, args.seconds, jobs, tally, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for problem in tally.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:34} {value:>16.6g} {unit}")
    print("stamp " + stamp_text)
    correct = not tally.problems
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
