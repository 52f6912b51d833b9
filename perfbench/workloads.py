"""The benchmark's three closed-loop workloads, their inputs and their output digests.

Inputs come from a fixed pool per workload whose outputs were pinned from the
seed code (``pins.json``), so every run of every benchmark seed is checked bit
for bit.  The benchmark seed picks where in the pool a run starts; iteration
``i`` then uses the next pool entries in order, wrapping around.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
from pathlib import Path

from spans import SpanRecorder, timed
from yardstick import unmeasured

SWEEP_SCENARIOS = ("duty", "power", "prb", "freq")
# Unique runs of the four default grids at 5 reps, duty-0 baselines included
# once per (rep, WiFi parameters): duty 410, power 140, prb 380, freq 280.
SWEEP_RUNS = {"duty": 410, "power": 140, "prb": 380, "freq": 280}
SWEEP_RUN_S = 0.2

TRACED_SOFT_INI = """\
[run]
seed = {seed}
duration_s = 10

[lte]
n_prb = 50
tx_power_dbm = -16

[wifi]
mcs_mbps = 54
cca_profile = vendor-B

[radio]
soft_slope_k = 2
"""


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pool_seed(workload: str, k: int) -> int:
    """The k-th simulation or master seed of a workload's input pool."""
    digest = hashlib.sha256(f"{workload}:{k}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


class Workload:
    """One closed-loop workload: one client, each unit starts when the last ends."""

    name = ""
    pool_size = 0
    units_per_iteration = 1
    uses_pool = False
    runs_per_unit = 0
    sim_s_per_unit = 0.0

    def pool_start(self, bench_seed: int) -> int:
        digest = hashlib.sha256(f"{self.name}:start:{bench_seed}".encode()).digest()
        return int.from_bytes(digest[:8], "little") % self.pool_size

    def units(self, start: int, iteration: int) -> list[int]:
        first = start + iteration * self.units_per_iteration
        return [(first + j) % self.pool_size for j in range(self.units_per_iteration)]

    def setup(self, mods: dict, tmp: Path) -> None:
        """Build the configs and scenarios; this is the timed set-up after the import."""
        raise NotImplementedError

    def run_unit(self, k: int, jobs: int, rec: SpanRecorder | None,
                 measure=unmeasured) -> dict:
        """Run pool entry k; returns per-key artifacts, or the exception a key raised.

        Each call into the program goes through ``measure(fn, *args)``, which
        times it as one step (see ``yardstick.HostSpeed.measure``).
        """
        raise NotImplementedError

    def digests(self, artifacts) -> list[str]:
        raise NotImplementedError

    def key_runs(self, key: str) -> int:
        return 1

    def extra_problems(self, artifacts: dict) -> list[str]:
        return []


class Runs(Workload):
    """In-process Simulation(cfg, seed).run() at 10 s over the three canonical configs."""

    name = "runs"
    pool_size = 64
    runs_per_unit = 3
    sim_s_per_unit = 30.0

    def setup(self, mods, tmp):
        self.mods = mods
        base = mods["config"].RunConfig(duration_s=10.0)
        replace = dataclasses.replace
        self.configs = {
            "defaults": base,
            "duty0-mcs54": replace(base, lte=replace(base.lte, duty=0.0)),
            "lte-16dbm-mcs6": replace(base, lte=replace(base.lte, tx_power_dbm=-16.0),
                                      wifi=replace(base.wifi, mcs_mbps=6)),
        }

    def run_unit(self, k, jobs, rec, measure=unmeasured):
        simulation = self.mods["simulation"].Simulation
        seed = pool_seed(self.name, k)
        out = {}
        for label, cfg in self.configs.items():
            one_run = lambda: simulation(cfg, seed=seed).run()
            try:
                if rec is None:
                    out[label] = measure(one_run)
                else:
                    out[label] = measure(timed, rec, "run", one_run, run_root=True)
            except Exception as exc:
                out[label] = exc
        return out

    def digests(self, metrics):
        return [_sha(repr(dataclasses.astuple(metrics)).encode())]

    def oracle_rel_err(self, metrics) -> float:
        """Duty-0 goodput against the exact-expectation DCF goodput (Bianchi 2000)."""
        wifi = self.mods["wifi"]
        cfg = self.configs["duty0-mcs54"]
        analytic = wifi.analytic_goodput_mbps(cfg.wifi.mcs_mbps, cfg.wifi.payload_bytes,
                                              cfg.wifi.dcf_params())
        return abs(self.mods["metrics"].throughput_mbps(metrics) - analytic) / analytic

    def extra_problems(self, artifacts):
        metrics = artifacts.get("duty0-mcs54")
        if metrics is None or isinstance(metrics, Exception):
            return []
        err = self.oracle_rel_err(metrics)
        # Acceptance criterion 1 of the simulator pins the oracle gap at 2%.
        return [f"duty-0 goodput is {err:.2%} off the analytic DCF goodput"] if err > 0.02 else []


class _CliWorkload(Workload):
    def _main(self, argv: list[str], rec: SpanRecorder | None, run_root: bool,
              measure) -> int:
        main = self.mods["cli"].main
        with contextlib.redirect_stdout(io.StringIO()):
            if rec is None:
                return measure(main, argv)
            return measure(timed, rec, "cli.main", main, argv, run_root=run_root)

    def digests(self, artifacts):
        code, paths = artifacts
        try:
            if code != 0:
                raise RuntimeError(f"coexsim exited with code {code}")
            return [_sha(p.read_bytes()) for p in paths]
        finally:
            for p in paths:
                p.unlink(missing_ok=True)


class Sweeps(_CliWorkload):
    """coexsim sweep over the four default scenarios, full grids, 0.2 s per run."""

    name = "sweeps"
    pool_size = 16
    uses_pool = True
    runs_per_unit = sum(SWEEP_RUNS.values())
    sim_s_per_unit = runs_per_unit * SWEEP_RUN_S

    def setup(self, mods, tmp):
        self.mods = mods
        self.tmp = tmp
        self.scenarios = {name: mods["experiments"].SCENARIOS[name]()
                          for name in SWEEP_SCENARIOS}

    def run_unit(self, k, jobs, rec, measure=unmeasured):
        master = pool_seed(self.name, k)
        out = {}
        for name in self.scenarios:
            paths = [self.tmp / f"{name}-{k}.csv", self.tmp / f"{name}-{k}.summary.csv"]
            argv = ["sweep", name, "--seed", str(master), "--reps", "5",
                    "--duration", str(SWEEP_RUN_S), "--jobs", str(jobs),
                    "--out", str(paths[0]), "--summary", str(paths[1])]
            try:
                out[name] = (self._main(argv, rec, False, measure), paths)
            except (Exception, SystemExit) as exc:
                out[name] = exc
        return out

    def key_runs(self, key):
        return SWEEP_RUNS[key]


class TracedSoft(_CliWorkload):
    """coexsim run --config <ini> --trace <file> at 10 s: vendor-B, 50 PRB, soft PER."""

    name = "traced-soft"
    pool_size = 64
    units_per_iteration = 3
    runs_per_unit = 1
    sim_s_per_unit = 10.0

    def setup(self, mods, tmp):
        self.mods = mods
        self.tmp = tmp
        self.inis = []
        for k in range(self.pool_size):
            text = TRACED_SOFT_INI.format(seed=pool_seed(self.name, k))
            path = tmp / f"traced-soft-{k}.ini"
            path.write_text(text, encoding="utf-8")
            mods["config"].parse_config(path.read_text(encoding="utf-8"))
            self.inis.append(path)

    def run_unit(self, k, jobs, rec, measure=unmeasured):
        paths = [self.tmp / f"run-{k}.csv", self.tmp / f"trace-{k}.log"]
        argv = ["run", "--config", str(self.inis[k]), "--out", str(paths[0]),
                "--trace", str(paths[1])]
        try:
            return {"run": (self._main(argv, rec, True, measure), paths)}
        except (Exception, SystemExit) as exc:
            return {"run": exc}


WORKLOADS = {w.name: w for w in (Runs, Sweeps, TracedSoft)}
