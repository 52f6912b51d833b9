import multiprocessing
import pickle
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from coexsim import experiments
from coexsim.config import ConfigError, RunConfig
from coexsim.experiments import (SCENARIOS, Scenario, SweepError, exp_center_freq,
                                 exp_duty_cycle, exp_prb_sweep, exp_tx_power,
                                 run_sweep)
from coexsim.metrics import RunMetrics

from conftest import config_for, derive_seed


def tiny_scenario(reps=2, duration=0.3):
    scenario = Scenario("tiny", RunConfig(), [
        ("lte.duty", [0.0, 0.5]),
        ("wifi.mcs_mbps", [54]),
    ], reps=reps, duration_s=duration)
    return scenario


class TestScenarioBuilders:
    def test_duty_grid_shape(self):
        s = exp_duty_cycle()
        assert len(s.points()) == 11 * 4 * 2
        assert s.reps == 5 and s.duration_s == 10.0
        duties = dict(s.axes)["lte.duty"]
        assert duties[0] == 0.0 and duties[-1] == 1.0 and len(duties) == 11

    def test_power_grid_shape(self):
        s = exp_tx_power()
        assert len(s.points()) == 6 * 2 * 2
        assert s.base.lte.duty == 0.5

    def test_prb_grid_shape(self):
        s = exp_prb_sweep()
        assert len(s.points()) == 6 * 3 * 2 * 2
        assert dict(s.axes)["lte.n_prb"] == [6, 15, 25, 50, 75, 100]

    def test_freq_grid_shape(self):
        s = exp_center_freq()
        offsets = dict(s.axes)["lte.center_offset_mhz"]
        assert offsets == [-20.0, -15.0, -10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0]
        assert len(s.points()) == 9 * 3 * 2

    def test_registry_names(self):
        assert set(SCENARIOS) == {"duty", "power", "prb", "freq"}


def grid_config(path, value):
    """The defaults with one grid axis set to ``value``, as a sweep sets it."""
    scenario = Scenario("one", RunConfig(), [(path, [value])])
    return scenario.grid()[0][1]


class TestSetPath:
    def test_coerces_to_declared_type(self):
        cfg = grid_config("lte.duty", 0)
        assert cfg.lte.duty == 0.0 and isinstance(cfg.lte.duty, float)
        cfg = grid_config("lte.n_prb", 50)
        assert cfg.lte.n_prb == 50

    def test_unresolvable_path_rejected(self):
        with pytest.raises(ConfigError):
            grid_config("lte.nonsense", 1)
        with pytest.raises(ConfigError):
            grid_config("nowhere.duty", 1)


class TestRunSweep:
    def test_row_count_and_coverage(self):
        result = run_sweep(tiny_scenario(), master_seed=5)
        assert len(result.rows) == 2 * 1 * 2  # grid x reps
        assert result.header()[:4] == ["scenario", "lte.duty", "wifi.mcs_mbps", "rep"]

    def test_duty_zero_rows_normalize_to_exactly_one(self):
        result = run_sweep(tiny_scenario(), master_seed=5)
        for row in result.rows:
            if row["lte.duty"] == "0.0":
                assert row["normalized"] == 1.0

    def test_identical_master_seed_gives_identical_csv_bytes(self):
        a = run_sweep(tiny_scenario(), master_seed=5).to_csv_text()
        b = run_sweep(tiny_scenario(), master_seed=5).to_csv_text()
        assert a == b

    def test_different_master_seed_changes_rows(self):
        a = run_sweep(tiny_scenario(), master_seed=5).to_csv_text()
        b = run_sweep(tiny_scenario(), master_seed=6).to_csv_text()
        assert a != b

    def test_seed_isolation_per_grid_point(self):
        # A single-point scenario reproduces exactly the rows that the same
        # point produced inside the full sweep.
        full = run_sweep(tiny_scenario(), master_seed=5)
        single = Scenario("tiny", RunConfig(), [
            ("lte.duty", [0.5]),
            ("wifi.mcs_mbps", [54]),
        ], reps=2, duration_s=0.3)
        solo = run_sweep(single, master_seed=5)
        full_rows = [r for r in full.rows if r["lte.duty"] == "0.5"]
        for a, b in zip(solo.rows, full_rows):
            assert a["seed"] == b["seed"]
            assert a["throughput_mbps"] == b["throughput_mbps"]
            assert a["normalized"] == b["normalized"]

    def test_parallel_equals_serial(self, monkeypatch, pool_always):
        pools = []

        def counting_pool(*args, **kwargs):
            pools.append(kwargs["max_workers"])
            return ProcessPoolExecutor(*args, **kwargs)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", counting_pool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        serial = run_sweep(tiny_scenario(), master_seed=5, jobs=1)
        parallel = run_sweep(tiny_scenario(), master_seed=5, jobs=2)
        assert pools == [2]
        assert serial.to_csv_text() == parallel.to_csv_text()
        assert serial.summary_csv_text() == parallel.summary_csv_text()

    def test_override_grid_restricts_axis(self):
        scenario = tiny_scenario()
        scenario.override_grid("lte.duty", [0.0, 1.0])
        assert dict(scenario.axes)["lte.duty"] == [0.0, 1.0]
        scenario.override_grid("lte.tx_power_dbm", [-16.0])
        assert ("lte.tx_power_dbm", [-16.0]) in scenario.axes

    def test_summary_has_one_line_per_grid_point(self):
        result = run_sweep(tiny_scenario(), master_seed=5)
        lines = result.summary_csv_text().strip().splitlines()
        assert len(lines) == 1 + 2  # header + grid points
        assert lines[0].startswith("scenario,lte.duty,wifi.mcs_mbps,n,thr_median")

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError, match="'lte.duty' has an empty grid"):
            Scenario("bad", RunConfig(), [("lte.duty", [])])

    @pytest.mark.parametrize("values", [[0.5, 0.5], ["50%", "0.5"], [0.0, 0.5, -0.0]])
    def test_repeated_grid_value_rejected(self, values):
        with pytest.raises(ConfigError, match=r"'lte.duty' repeats a value in \["):
            Scenario("bad", RunConfig(), [("lte.duty", values)])

    def test_baseline_runs_are_deduplicated(self):
        # duty-0 baselines ignore LTE-side parameters entirely, so sweeping an
        # LTE axis reuses one baseline per rep: the normalized value of equal
        # WiFi configurations is computed against the same denominator.
        scenario = Scenario("dedupe", RunConfig(), [
            ("lte.tx_power_dbm", [-16.0, 12.0]),
        ], reps=1, duration_s=0.3)
        result = run_sweep(scenario, master_seed=5)
        assert len({row["seed"] for row in result.rows}) == 2


class TestSetPathBool:
    @pytest.mark.parametrize("token,expected", [("false", False), ("true", True),
                                                ("False", False), ("1", True)])
    def test_bool_tokens_are_parsed(self, token, expected):
        cfg = grid_config("wifi.cca_mid_packet_abort", token)
        assert cfg.wifi.cca_mid_packet_abort is expected
        assert cfg.wifi.cca().mid_packet_abort is expected

    def test_bad_bool_token_is_a_config_error(self):
        with pytest.raises(ConfigError, match="cca_mid_packet_abort"):
            grid_config("wifi.cca_mid_packet_abort", "maybe")


# Pool workers must inherit a Simulation patched in the test process.
forked_workers = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers do not inherit the test process's patches")

FAKE_METRICS = RunMetrics(1500, 1, 0, 0, 1_000, 0, 1_000_000)


def chunked_scenario():
    # 4 duties x 10 reps: 40 planned runs (each duty-0 run is its own baseline
    # and the others share it), so at jobs=2 every chunk holds two runs.
    return Scenario("chunked", RunConfig(), [
        ("lte.duty", [0.0, 0.25, 0.5, 0.75]),
    ], reps=10, duration_s=0.05)


def failing_simulation(fail_seed, log_path=None, delay_s=0.0):
    """A stand-in for Simulation that fails one run and logs every run it starts."""
    class FakeSimulation:
        def __init__(self, cfg, seed):
            self.seed = seed

        def run(self):
            if log_path is not None:
                with open(log_path, "a", encoding="utf-8") as log:
                    log.write(f"{self.seed}\n")
            if self.seed == fail_seed:
                raise RuntimeError("injected failure")
            time.sleep(delay_s)
            return FAKE_METRICS
    return FakeSimulation


@pytest.mark.usefixtures("pool_always")
class TestChunkedPool:
    def test_multi_chunk_parallel_equals_serial(self):
        scenario = Scenario("chunked", RunConfig(), [
            ("lte.duty", [0.0, 0.5, 1.0]),
            ("wifi.mcs_mbps", [6, 54]),
        ], reps=6, duration_s=0.1)
        # 36 planned runs: chunks of 2 at jobs=2, so no chunk is a single run.
        serial = run_sweep(scenario, master_seed=5, jobs=1)
        parallel = run_sweep(scenario, master_seed=5, jobs=2)
        assert len(serial.rows) == 36
        assert serial.to_csv_text() == parallel.to_csv_text()
        assert serial.summary_csv_text() == parallel.summary_csv_text()

    @forked_workers
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_run_is_named_by_its_own_grid_point(self, monkeypatch, jobs):
        scenario = chunked_scenario()
        fail_seed = derive_seed(5, config_for(scenario, (0.5,)), 3)
        # Duty 0.5 rep 3 is planned 24th: the second run of its chunk.
        monkeypatch.setattr(experiments, "Simulation", failing_simulation(fail_seed))
        with pytest.raises(SweepError, match=r"\{'lte.duty': 0.5\} rep 3: injected"):
            run_sweep(scenario, master_seed=5, jobs=jobs)

    @forked_workers
    def test_leftover_chunks_are_not_run(self, monkeypatch, tmp_path):
        scenario = chunked_scenario()
        log = tmp_path / "runs.log"
        fail_seed = derive_seed(5, config_for(scenario, (0.0,)), 0)  # the first run
        monkeypatch.setattr(experiments, "Simulation",
                            failing_simulation(fail_seed, log, delay_s=0.05))
        with pytest.raises(SweepError):
            run_sweep(scenario, master_seed=5, jobs=2)
        started = log.read_text().splitlines()
        assert str(fail_seed) in started
        assert len(started) < 20  # of 40 planned, which would sleep about 2 s in all


class RecordingExecutor:
    """A ProcessPoolExecutor stand-in that records its size and tasks, starts
    its one worker in process and maps there."""

    built = []

    def __init__(self, max_workers, initializer=None, initargs=()):
        self.max_workers = max_workers
        self.chunksize = None
        self.tasks = None
        if initializer is not None:
            initializer(*initargs)
        RecordingExecutor.built.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        self.chunksize = chunksize
        self.tasks = list(iterable)
        return map(fn, self.tasks)


@pytest.mark.usefixtures("pool_always")
class TestPoolSize:
    @pytest.fixture
    def pools(self, monkeypatch):
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(experiments, "Simulation", failing_simulation(fail_seed=None))
        RecordingExecutor.built = []
        return RecordingExecutor.built

    @pytest.mark.parametrize("cores, workers, chunksize", [
        (64, 40, 1),   # one worker per planned run, not 500
        (4, 4, 1),     # one per core: 40 runs in chunks of ceil(40 / 64)
        (2, 2, 2),     # ceil(40 / 32)
        (None, None, None),  # an unknown core count gives one worker: no pool
    ])
    def test_workers_capped_by_runs_and_cores(self, pools, monkeypatch, cores, workers,
                                              chunksize):
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cores)
        result = run_sweep(chunked_scenario(), master_seed=5, jobs=500)
        assert len(result.rows) == 40
        assert [(p.max_workers, p.chunksize) for p in pools] == (
            [] if workers is None else [(workers, chunksize)])

    def test_pool_tasks_carry_no_config(self, pools, monkeypatch):
        # Each worker gets the planned runs once; a task is an index into them.
        # The first of the 40 runs goes here, before the pool's 2 workers fork.
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        run_sweep(chunked_scenario(), master_seed=5, jobs=2)
        [pool] = pools
        assert len(pool.tasks) == 39
        for task in pool.tasks:
            assert not isinstance(task, (RunConfig, tuple))
            assert len(pickle.dumps(task)) < 100

    @pytest.mark.parametrize("duties, tasks", [
        ([0.5], 2),        # one point and its duty-0 baseline: both in the pool
        ([0.25, 0.5], 2),  # 3 runs: the first here, one for each worker
    ])
    def test_a_pool_gets_a_run_for_each_worker(self, pools, monkeypatch, duties, tasks):
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 64)
        scenario = Scenario("two", RunConfig(), [("lte.duty", duties)], reps=1,
                            duration_s=0.05)
        result = run_sweep(scenario, master_seed=5, jobs=2)
        [pool] = pools
        assert (pool.max_workers, len(pool.tasks)) == (2, tasks)
        assert len(result.rows) == len(duties)

    def test_one_planned_run_starts_no_pool(self, pools, monkeypatch):
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 64)
        scenario = Scenario("one", RunConfig(), [("lte.duty", [0.0])], reps=1,
                            duration_s=0.05)
        run_sweep(scenario, master_seed=5, jobs=500)
        assert pools == []


def no_pool(*args, **kwargs):
    raise AssertionError("a worker pool started")


class TestPoolThreshold:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_a_default_grid_of_short_runs_starts_no_pool(self, monkeypatch, name):
        # perfbench's sweeps shape: 5 reps of 0.2 s runs plan 168 to 492 s of work.
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(experiments, "Simulation", failing_simulation(fail_seed=None))
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        scenario = SCENARIOS[name]()
        scenario.duration_s = 0.2
        result = run_sweep(scenario, master_seed=5, jobs=2)
        assert len(result.rows) == 5 * len(scenario.points())

    @pytest.mark.parametrize("reps, duration, workers", [
        (10, 17.75, [2]),      # 40 runs x (17.75 + 1 s) is 750 s: the threshold
        (10, 17.7499, []),     # just below it
        (158, 0.2, [2]),       # 632 runs x 1.2 s is 758 s
        (155, 0.2, []),        # 620 runs: 744 s
        (18, 10.0, [2]),       # 72 runs x 11 s is 792 s
        (17, 10.0, []),        # 68 runs: 748 s
    ])
    def test_a_pool_starts_at_the_threshold(self, monkeypatch, reps, duration, workers):
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(experiments, "Simulation", failing_simulation(fail_seed=None))
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        RecordingExecutor.built = []
        scenario = chunked_scenario()
        scenario.reps, scenario.duration_s = reps, duration
        run_sweep(scenario, master_seed=5, jobs=2)
        assert [pool.max_workers for pool in RecordingExecutor.built] == workers
