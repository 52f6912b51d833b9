"""Scenario builders and sweep runner for the four coexistence experiments.

Each built-in scenario fixes the testbed defaults and sweeps one axis family:

- duty:  LTE duty cycle 0..100% x LTE power x WiFi MCS
- power: LTE power x WiFi power x WiFi MCS at 50% duty
- prb:   LTE occupied bandwidth x LTE power x CCA profile x WiFi MCS
- freq:  LTE center-frequency offset x LTE power x WiFi MCS

Every run's seed derives from (master seed, canonical config, rep), so sweeps
are byte-reproducible and each grid point is independent of the others.
Normalization divides by the duty-0 run sharing all non-LTE parameters and
the same rep index, which makes duty-0 rows exactly 1.0.

A sweep is planned in full, and so every config built and checked, before
any run starts.  A sweep with little planned work runs in process; otherwise pool
workers fork warm if runs outnumber them, then get indices in chunks.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .config import (WIFI_ONLY, ConfigError, RunConfig, canonical_for_seed, parse_value,
                     resolve_path, seed_from_text, serialize_config)
from .engine import NS_PER_S
from .metrics import RunMetrics, box_stats, normalized_throughput, throughput_mbps
from .simulation import Simulation, plan

CSV_METRIC_COLUMNS = ("throughput_mbps", "normalized", "wifi_airtime_frac",
                      "lte_airtime_frac", "attempts", "failures", "drops")
# A sweep pools its runs only from this much planned work, runs x (duration + 1 s),
# the 1 s standing for a run's set-up and its result's trip back from a worker.
# Against the in-process loop (2 workers, 2 vCPUs, 9 alternating rounds of 10-800 runs
# of 0.2, 2 and 10 s): below 300 the pool lost every round, from 300 to 720 about half,
# and from 750 up it won 7-9 of 9 at each run length (median 0.67-0.80x the time).  It
# pays only while the second vCPU is free: two processes ran 0.9-2.1x as fast as one.
POOL_MIN_WORK_S = 750.0


class SweepError(Exception):
    """A run inside a sweep aborted; the message names the grid point."""


@dataclass
class Scenario:
    """A named sweep: a fixed base config plus (path, value grid) axes.

    Axis paths are stored resolved (``section.field``) and their values
    converted to the field's type, so axis cells print the value a run used.
    """

    name: str
    base: RunConfig
    axes: list[tuple[str, list]]
    reps: int = 5
    duration_s: float = 10.0

    def __post_init__(self) -> None:
        axes, self.axes = self.axes, []
        for path, values in axes:
            self.override_grid(path, values)

    def override_grid(self, path: str, values: list) -> None:
        """Replace an axis's grid (or add a new axis) for this scenario."""
        if not values:
            raise ConfigError(f"axis {path!r} has an empty grid")
        section_name, field_name = resolve_path(path)
        path = f"{section_name}.{field_name}"
        values = [parse_value(section_name, field_name, str(v)) for v in values]
        if len(set(values)) < len(values):
            raise ConfigError(f"axis {path!r} repeats a value in {values}")
        for i, (existing, _) in enumerate(self.axes):
            if existing == path:
                self.axes[i] = (path, values)
                return
        self.axes.append((path, values))

    def points(self) -> list[tuple]:
        return list(itertools.product(*(values for _, values in self.axes)))

    def config_for(self, point: tuple) -> RunConfig:
        sections: dict[str, dict] = {}  # one replace per section the axes touch
        for (path, _), value in zip(self.axes, point):
            section_name, _, field_name = path.partition(".")
            sections.setdefault(section_name, {})[field_name] = value
        return dataclasses.replace(self.base, duration_s=self.duration_s, **{
            name: dataclasses.replace(getattr(self.base, name), **values)
            for name, values in sections.items()})


def exp_duty_cycle() -> Scenario:
    """Duty sweep at fixed 17 dBm WiFi, 100 PRB, zero offset."""
    return Scenario("duty", RunConfig(), [
        ("lte.duty", [round(0.1 * i, 1) for i in range(11)]),
        ("lte.tx_power_dbm", [-16.0, -6.0, -1.0, 12.0]),
        ("wifi.mcs_mbps", [6, 54]),
    ])


def exp_tx_power() -> Scenario:
    """Power sweep at 50% duty: both transmitters' powers and the WiFi MCS."""
    return Scenario("power", RunConfig(), [
        ("lte.tx_power_dbm", [-16.0, -11.0, -6.0, -1.0, 4.0, 12.0]),
        ("wifi.tx_power_dbm", [8.0, 17.0]),
        ("wifi.mcs_mbps", [6, 54]),
    ])


def exp_prb_sweep() -> Scenario:
    """Occupied-bandwidth sweep at 50% duty, under both vendor CCA profiles."""
    return Scenario("prb", RunConfig(), [
        ("lte.n_prb", [6, 15, 25, 50, 75, 100]),
        ("lte.tx_power_dbm", [-16.0, -1.0, 12.0]),
        ("wifi.cca_profile", ["vendor-A", "vendor-B"]),
        ("wifi.mcs_mbps", [6, 54]),
    ])


def exp_center_freq() -> Scenario:
    """Center-frequency offset sweep at 50% duty, 100 PRB."""
    return Scenario("freq", RunConfig(), [
        ("lte.center_offset_mhz", [float(x) for x in range(-20, 25, 5)]),
        ("lte.tx_power_dbm", [-16.0, -1.0, 12.0]),
        ("wifi.mcs_mbps", [6, 54]),
    ])


SCENARIOS = {"duty": exp_duty_cycle, "power": exp_tx_power,
             "prb": exp_prb_sweep, "freq": exp_center_freq}


def _execute(payload: tuple[RunConfig, int, str]) -> RunMetrics:
    """One sweep run; a failure names its own grid point, also from a worker."""
    cfg, seed, label = payload
    try:
        return Simulation(cfg, seed=seed).run()
    except Exception as exc:
        raise SweepError(f"run failed at {label}: {exc}") from exc


_payloads: list[tuple[RunConfig, int, str]] = []  # a worker's runs, set when it starts


def _set_payloads(payloads: list[tuple[RunConfig, int, str]]) -> None:
    _payloads[:] = payloads


def _execute_at(i: int) -> RunMetrics:
    """A worker's run ``i``: pool tasks carry an index, not a config."""
    return _execute(_payloads[i])


@dataclass
class SweepResult:
    scenario: str
    axis_names: list[str]
    rows: list[dict] = field(default_factory=list)

    def add(self, point: tuple, rep: int, seed: int, metrics: RunMetrics,
            normalized: float | str) -> None:
        """Append one run's row; ``normalized`` is "" for a run with no baseline."""
        self.rows.append({
            "scenario": self.scenario,
            **{axis: _fmt(value) for axis, value in zip(self.axis_names, point)},
            "rep": rep,
            "seed": seed,
            "throughput_mbps": throughput_mbps(metrics),
            "normalized": normalized,
            "wifi_airtime_frac": metrics.wifi_airtime_ns / metrics.duration_ns,
            "lte_airtime_frac": metrics.lte_airtime_ns / metrics.duration_ns,
            "attempts": metrics.attempts,
            "failures": metrics.failures,
            "drops": metrics.drops,
        })

    def header(self) -> list[str]:
        return ["scenario", *self.axis_names, "rep", "seed", *CSV_METRIC_COLUMNS]

    def to_csv_text(self) -> str:
        lines = [",".join(self.header())]
        for row in self.rows:
            cells = [row["scenario"], *[row[a] for a in self.axis_names],
                     str(row["rep"]), str(row["seed"])]
            for col in CSV_METRIC_COLUMNS:
                value = row[col]
                cells.append(f"{value:.6f}" if isinstance(value, float) else str(value))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def summary_csv_text(self) -> str:
        """Per-grid-point box statistics over the repetitions."""
        header = ["scenario", *self.axis_names, "n"]
        for prefix in ("thr", "norm"):
            header += [f"{prefix}_{s}" for s in
                       ("median", "q25", "q75", "whisker_lo", "whisker_hi", "outliers")]
        lines = [",".join(header)]
        for _, group in itertools.groupby(
                self.rows, key=lambda r: tuple(r[a] for a in self.axis_names)):
            group = list(group)
            cells = [group[0]["scenario"], *[group[0][a] for a in self.axis_names],
                     str(len(group))]
            for col in ("throughput_mbps", "normalized"):
                stats = box_stats([r[col] for r in group])
                cells += [f"{stats.median:.6f}", f"{stats.q25:.6f}", f"{stats.q75:.6f}",
                          f"{stats.whisker_lo:.6f}", f"{stats.whisker_hi:.6f}",
                          str(len(stats.outliers))]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def run_sweep(scenario: Scenario, master_seed: int, jobs: int = 1) -> SweepResult:
    """Execute reps x grid runs plus duty-0 baselines; deterministic output.

    A baseline is its run's config with the WiFi-only LTE, so grid points that
    differ only in LTE parameters share one baseline per rep.  Each distinct
    config is serialized once, and every config is built, and so checked,
    before the first run, so a bad grid value is a config error, not a failed
    run.
    """
    if scenario.reps < 1:
        raise ConfigError(f"reps must be >= 1, got {scenario.reps}")
    axis_names = [path for path, _ in scenario.axes]
    texts: dict[RunConfig, str] = {}  # config -> canonical text for its seed

    def canonical_text(cfg: RunConfig) -> str:
        text = texts.get(cfg)
        if text is None:
            text = texts[cfg] = serialize_config(canonical_for_seed(cfg))
        return text

    runs: dict[tuple[int, str], tuple[RunConfig, int, str]] = {}  # -> cfg, seed, label
    row_keys: list[tuple[tuple, int, tuple[int, str], tuple[int, str]]] = []

    def plan_run(cfg: RunConfig, text: str, rep: int, label: str) -> tuple[int, str]:
        key = (rep, text)
        if key not in runs:
            runs[key] = (cfg, seed_from_text(master_seed, text, rep), label)
        return key

    for point in scenario.points():
        cfg = scenario.config_for(point)
        baseline_cfg = dataclasses.replace(cfg, lte=WIFI_ONLY)
        run_text, base_text = canonical_text(cfg), canonical_text(baseline_cfg)
        point_label = str(dict(zip(axis_names, point)))
        for rep in range(scenario.reps):
            label = f"{point_label} rep {rep}"
            row_keys.append((point, rep, plan_run(cfg, run_text, rep, label),
                             plan_run(baseline_cfg, base_text, rep, f"baseline for {label}")))
    # A baseline has its run's WiFi settings.  One shorter than DIFS, data, SIFS and
    # ACK acknowledges no frame, so no row could be normalized against it.
    cycle_ns = max(plan(c.lte, c.wifi, c.radio).station["shortest_cycle_ns"]
                   for c in {cfg for cfg, _, _ in runs.values()})
    if round(scenario.duration_s * NS_PER_S) < cycle_ns:
        raise ConfigError(f"run.duration_s must be at least one baseline DIFS, data, SIFS "
                          f"and ACK ({cycle_ns} ns), got {scenario.duration_s!r}")

    # Little planned work runs here.  A fork pool starts all its workers at the first
    # submit, so it gets no more than there are runs or cores.  With more runs than
    # workers, the first goes here, so the workers fork warm (numpy.random loaded, code
    # run) and every one still has a run.  One chunk holds about 1/16 of a worker's
    # share: few enough round trips for millisecond runs, small enough that
    # the last chunk's tail stays short when runs take seconds.
    # A failing run raises here or in map, which cancels chunks not yet started.
    payloads = list(runs.values())
    workers = (min(jobs, len(runs), os.cpu_count() or 1)
               if len(runs) * (scenario.duration_s + 1.0) >= POOL_MIN_WORK_S else 1)
    here = len(runs) if workers == 1 else int(len(runs) > workers)
    outcomes = [_execute(payload) for payload in payloads[:here]]
    if here < len(runs):
        with ProcessPoolExecutor(max_workers=workers, initializer=_set_payloads,
                                 initargs=(payloads,)) as pool:
            outcomes += pool.map(_execute_at, range(here, len(payloads)),
                                 chunksize=-(-len(runs) // (16 * workers)))
    results = dict(zip(runs, outcomes))

    result = SweepResult(scenario.name, axis_names)
    for point, rep, run_key, base_key in row_keys:
        try:
            normalized = normalized_throughput(results[run_key], results[base_key])
        except ValueError as exc:
            raise SweepError(f"cannot normalize against the {runs[base_key][2]}: "
                             f"{exc}") from exc
        result.add(point, rep, runs[run_key][1], results[run_key], normalized)
    return result
