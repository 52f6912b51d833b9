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
import operator
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .config import (WIFI_ONLY, ConfigError, RunConfig, lte_for_seed, parse_value,
                     resolve_path, run_text, section_text, seed_from_text)
from .engine import NS_PER_S, Seed, stream_words
from .metrics import BoxStats, RunMetrics, box_stats, normalized_throughput, throughput_mbps
from .simulation import Simulation, plan

CSV_METRIC_COLUMNS = ("throughput_mbps", "normalized", "wifi_airtime_frac",
                      "lte_airtime_frac", "attempts", "failures", "drops")
# A row's CSV_METRIC_COLUMNS as "%" formats: a float to 6 decimals, a count as str
# prints it; "normalized" is a float, or "" for a run with no baseline (the second).
_METRIC_CELLS = tuple(f",%.6f,%{normalized},%.6f,%.6f,%s,%s,%s\n" for normalized in (".6f", "s"))
# A summary line after its point: n, then each box's five values and outlier count.
_STATS_CELLS = ",%d" + (",%.6f" * 5 + ",%d") * 2 + "\n"
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

    def grid(self) -> list[tuple[tuple, RunConfig, str, RunConfig, str]]:
        """Each point with its config and its baseline's, the point's with the
        WiFi-only LTE, each followed by its canonical text for the seed,
        ``serialize_config(canonical_for_seed(cfg))``.

        Each distinct section is built, and so checked, and written once: a
        point's configs share its sections, and its texts join theirs.
        """
        head, wifi_only = run_text(0, self.duration_s), section_text("lte", WIFI_ONLY)
        axes = {name: [(i, path.partition(".")[2]) for i, (path, _) in enumerate(self.axes)
                       if path.partition(".")[0] == name] for name in ("lte", "wifi", "radio")}
        built: dict[tuple, tuple] = {}  # (section name, its axis values) -> section, key, text

        def section(name: str, point: tuple) -> tuple:
            key = (name, *[point[i] for i, _ in axes[name]])
            if key not in built:
                value = dataclasses.replace(getattr(self.base, name),
                                            **{attr: point[i] for i, attr in axes[name]})
                for_seed = lte_for_seed(value) if name == "lte" else value
                built[key] = value, key, (wifi_only if for_seed is WIFI_ONLY
                                          else section_text(name, for_seed))
            return built[key]

        out, baselines = [], {}
        for point in self.points():
            (lte, _, lte_text), (wifi, wifi_key, wifi_text), (radio, radio_key, radio_text) = (
                section(name, point) for name in ("lte", "wifi", "radio"))
            cfg = RunConfig(self.base.seed, self.duration_s, lte, wifi, radio)
            baseline = baselines.get((wifi_key, radio_key))
            if baseline is None:
                baseline = baselines[wifi_key, radio_key] = (
                    dataclasses.replace(cfg, lte=WIFI_ONLY),
                    head + wifi_only + wifi_text + radio_text)
            out.append((point, cfg, head + lte_text + wifi_text + radio_text, *baseline))
        return out


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


def _execute(payload: tuple[RunConfig, Seed, tuple]) -> RunMetrics:
    """One sweep run; a failure names its own grid point, also from a worker."""
    cfg, seed, where = payload
    try:
        return Simulation(cfg, seed=seed).run()
    except Exception as exc:
        raise SweepError(f"run failed at {_run_label(*where)}: {exc}") from exc


def _run_label(axis_names: list[str], point: tuple, rep: int, baseline: bool) -> str:
    """A run as an error names it: its grid point and rep, or whose baseline it is."""
    return f"{'baseline for ' * baseline}{dict(zip(axis_names, point))} rep {rep}"


_payloads: list[tuple[RunConfig, Seed, tuple]] = []  # a worker's runs, set when it starts


def _set_payloads(payloads: list[tuple[RunConfig, Seed, tuple]]) -> None:
    _payloads[:] = payloads


def _execute_at(i: int) -> RunMetrics:
    """A worker's run ``i``: pool tasks carry an index, not a config."""
    return _execute(_payloads[i])


@dataclass
class SweepResult:
    scenario: str
    axis_names: list[str]
    rows: list[dict] = field(default_factory=list)

    def axis_cells(self, point: tuple) -> dict[str, str]:
        return {axis: repr(value) if isinstance(value, float) else str(value)
                for axis, value in zip(self.axis_names, point)}

    def add(self, cells: dict[str, str], rep: int, seed: int, metrics: RunMetrics,
            normalized: float | str) -> None:
        """Append one run's row, its point as ``axis_cells`` gives it; ``normalized``
        is "" for a run with no baseline."""
        self.rows.append({
            "scenario": self.scenario,
            **cells,
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
        """One line a row, from one "%" template over its cells in header order."""
        head = ",".join(["%s"] * (3 + len(self.axis_names)))  # scenario, axes, rep, seed
        floats, text = (head + cells for cells in _METRIC_CELLS)
        header = self.header()
        cells = operator.itemgetter(*header)
        return ",".join(header) + "\n" + "".join([
            (floats if isinstance(row["normalized"], float) else text) % cells(row)
            for row in self.rows])

    def summary_csv_text(self) -> str:
        """Per-grid-point box statistics over the repetitions."""
        header = ["scenario", *self.axis_names, "n",
                  *(f"{prefix}_{s}" for prefix in ("thr", "norm") for s in BoxStats._fields)]
        point = ",".join(f"%({key})s" for key in ("scenario", *self.axis_names))
        lines = [",".join(header) + "\n"]
        for _, group in itertools.groupby(self.rows, operator.itemgetter("scenario",
                                                                         *self.axis_names)):
            group = list(group)
            thr, norm = (box_stats([r[col] for r in group]) for col in ("throughput_mbps",
                                                                          "normalized"))
            lines.append(point % group[0] + _STATS_CELLS % (
                len(group), *thr[:5], len(thr.outliers), *norm[:5], len(norm.outliers)))
        return "".join(lines)


def check_one_cycle(duration_s: float, plans) -> None:
    """Raise ConfigError unless runs of ``duration_s`` hold the longest of these plans'
    DIFS, data, SIFS and ACK: a shorter baseline acknowledges no frame."""
    cycle_ns = max(p.station["shortest_cycle_ns"] for p in plans)
    if round(duration_s * NS_PER_S) < cycle_ns:
        raise ConfigError(f"run.duration_s must be at least one baseline DIFS, data, SIFS "
                          f"and ACK ({cycle_ns} ns), got {duration_s!r}")


def run_sweep(scenario: Scenario, master_seed: int, jobs: int = 1) -> SweepResult:
    """Execute reps x grid runs plus duty-0 baselines; deterministic output.

    A baseline is its run's config with the WiFi-only LTE, so grid points that
    differ only in LTE parameters share one baseline per rep.  A run is its
    canonical text and rep, and the first point to plan it names it in errors.
    Every config is built, and so checked, before the first run, so a bad grid
    value is a config error, not a failed run.  The seed words of every stream
    the runs draw from are computed per label, in one batch for the sweep.
    """
    if scenario.reps < 1:
        raise ConfigError(f"reps must be >= 1, got {scenario.reps}")
    axis_names = [path for path, _ in scenario.axes]
    result = SweepResult(scenario.name, axis_names)
    firsts: dict[str, tuple[RunConfig, tuple, bool]] = {}  # text -> cfg, point, baseline?
    runs: dict[tuple[str, int], int] = {}  # (text, rep) -> index, in the order planned
    row_keys: list[tuple[dict, int, int, int]] = []  # axis cells, rep, run, baseline
    for point, cfg, text, baseline_cfg, baseline_text in scenario.grid():
        firsts.setdefault(text, (cfg, point, False))
        firsts.setdefault(baseline_text, (baseline_cfg, point, True))
        cells = result.axis_cells(point)
        for rep in range(scenario.reps):
            row_keys.append((cells, rep, runs.setdefault((text, rep), len(runs)),
                             runs.setdefault((baseline_text, rep), len(runs))))
    plans = {text: plan(cfg.lte, cfg.wifi, cfg.radio) for text, (cfg, _, _) in firsts.items()}
    check_one_cycle(scenario.duration_s, plans.values())  # a baseline has its run's WiFi
    seeds = [seed_from_text(master_seed, text, rep) for text, rep in runs]
    words = {label: stream_words(seeds, label)
             for label in {label for p in plans.values() for label in p.streams}}
    payloads = []
    for j, ((text, rep), seed) in enumerate(zip(runs, seeds)):
        cfg, point, baseline = firsts[text]
        payloads.append((cfg, Seed(seed, words, j, plans[text]),
                         (axis_names, point, rep, baseline)))

    # Little planned work runs here.  A fork pool starts all its workers at the first
    # submit, so it gets no more than there are runs or cores.  With more runs than
    # workers, the first goes here, so the workers fork warm (numpy.random loaded, code
    # run) and every one still has a run.  One chunk holds about 1/16 of a worker's
    # share: few enough round trips for millisecond runs, small enough that
    # the last chunk's tail stays short when runs take seconds.
    # A failing run raises here or in map, which cancels chunks not yet started.
    workers = (min(jobs, len(runs), os.cpu_count() or 1)
               if len(runs) * (scenario.duration_s + 1.0) >= POOL_MIN_WORK_S else 1)
    here = len(runs) if workers == 1 else int(len(runs) > workers)
    outcomes = [_execute(payload) for payload in payloads[:here]]
    if here < len(runs):
        with ProcessPoolExecutor(max_workers=workers, initializer=_set_payloads,
                                 initargs=(payloads,)) as pool:
            outcomes += pool.map(_execute_at, range(here, len(payloads)),
                                 chunksize=-(-len(runs) // (16 * workers)))

    for cells, rep, run, baseline in row_keys:
        try:
            normalized = normalized_throughput(outcomes[run], outcomes[baseline])
        except ValueError as exc:
            raise SweepError(f"cannot normalize against the "
                             f"{_run_label(*payloads[baseline][2])}: {exc}") from exc
        result.add(cells, rep, seeds[run], outcomes[run], normalized)
    return result
