import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coexsim.experiments import SCENARIOS
from coexsim.metrics import (BoxStats, MetricsAccumulator, RunMetrics, box_stats,
                             normalized_throughput, throughput_mbps)
from coexsim.simulation import Simulation

from conftest import airtime_partition, lte_intervals, make_cfg, run_sim, traced_emissions


def metrics_with(delivered=0, duration_s=10.0):
    return RunMetrics(delivered_payload_bytes=delivered, attempts=0, failures=0,
                      drops=0, wifi_airtime_ns=0, lte_airtime_ns=0,
                      duration_ns=int(duration_s * 1e9))


class TestThroughput:
    def test_37_5_megabytes_in_ten_seconds_is_30_mbps(self):
        assert throughput_mbps(metrics_with(delivered=37_500_000)) == 30.0

    def test_zero_delivered_is_zero(self):
        assert throughput_mbps(metrics_with()) == 0.0

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            throughput_mbps(metrics_with(duration_s=0.0))


class TestRunMetrics:
    def test_is_a_frozen_dataclass_in_the_field_order_digests_read(self):
        # perfbench pins each run by repr(dataclasses.astuple(metrics)): this order.
        assert dataclasses.is_dataclass(RunMetrics)
        assert [f.name for f in dataclasses.fields(RunMetrics)] == [
            "delivered_payload_bytes", "attempts", "failures", "drops", "wifi_airtime_ns",
            "lte_airtime_ns", "duration_ns"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            metrics_with().attempts = 1

    @settings(max_examples=50, deadline=None)
    @given(counts=st.lists(st.integers(0, 2**63), min_size=7, max_size=7))
    @example(counts=[1, 2, 3, 4, 5, 6, 7])
    def test_finalize_is_the_keyword_construction(self, counts):
        acc = MetricsAccumulator()
        (acc.delivered_payload_bytes, acc.attempts, acc.failures, acc.drops,
         acc.wifi_airtime_ns, lte_airtime_ns, duration_ns) = counts
        assert acc.finalize(duration_ns, lte_airtime_ns) == RunMetrics(
            delivered_payload_bytes=acc.delivered_payload_bytes, attempts=acc.attempts,
            failures=acc.failures, drops=acc.drops, wifi_airtime_ns=acc.wifi_airtime_ns,
            lte_airtime_ns=lte_airtime_ns, duration_ns=duration_ns)


class TestNormalized:
    def test_run_against_itself_is_exactly_one(self):
        m = metrics_with(delivered=12345678)
        assert normalized_throughput(m, m) == 1.0

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            normalized_throughput(metrics_with(delivered=1), metrics_with())


class TestBoxStats:
    def test_small_odd_sample_inclusive_quartiles(self):
        stats = box_stats([1, 2, 3, 4, 5])
        assert (stats.q25, stats.median, stats.q75) == (2.0, 3.0, 4.0)
        assert (stats.whisker_lo, stats.whisker_hi) == (1.0, 5.0)
        assert stats.outliers == []

    def test_matches_numpy_linear_interpolation(self):
        samples = [0.3, 1.7, 2.2, 9.1, 4.4, 4.5, 6.0]
        stats = box_stats(samples)
        q25, med, q75 = np.percentile(samples, [25, 50, 75])
        assert stats.q25 == pytest.approx(q25)
        assert stats.median == pytest.approx(med)
        assert stats.q75 == pytest.approx(q75)

    def test_constant_samples_collapse(self):
        stats = box_stats([2.5] * 6)
        assert stats == BoxStats(2.5, 2.5, 2.5, 2.5, 2.5, [])

    def test_far_value_is_flagged_outlier(self):
        stats = box_stats([1, 2, 3, 4, 100])
        # Hand-computed under inclusive interpolation: q25=2, q75=4, IQR=2,
        # upper fence 7, so 100 is an outlier and the whisker stops at 4.
        assert stats.outliers == [100.0]
        assert stats.whisker_hi == 4.0
        assert stats.whisker_lo == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            box_stats([])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_subnormal=False), min_size=1,
                    max_size=40))
    def test_permutation_invariant(self, samples):
        shuffled = list(reversed(samples))
        assert box_stats(samples) == box_stats(shuffled)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_subnormal=False), min_size=1,
                    max_size=40))
    def test_quartiles_ordered_and_whiskers_inside_fences(self, samples):
        stats = box_stats(samples)
        assert stats.q25 <= stats.median <= stats.q75
        iqr = stats.q75 - stats.q25
        assert stats.whisker_lo >= stats.q25 - 1.5 * iqr - 1e-9
        assert stats.whisker_hi <= stats.q75 + 1.5 * iqr + 1e-9
        assert stats.whisker_lo <= stats.whisker_hi
        for outlier in stats.outliers:
            assert (outlier < stats.q25 - 1.5 * iqr
                    or outlier > stats.q75 + 1.5 * iqr)


class TestAirtimePartition:
    def test_hand_built_intervals(self):
        wifi = [(0, 10), (20, 30)]
        lte = [(5, 25)]
        parts = airtime_partition(wifi, lte, 40)
        assert parts == {"wifi_only": 10, "lte_only": 10, "overlap": 10, "idle": 10}

    def test_real_run_partition_sums_to_duration(self):
        cfg = make_cfg(duty=0.5, lte_power=-16.0, mcs=6, duration=2.0)
        metrics, sim = run_sim(cfg, seed=6, trace=True)
        parts = airtime_partition(traced_emissions(sim), lte_intervals(sim.medium),
                                  metrics.duration_ns)
        assert sum(parts.values()) == metrics.duration_ns
        # The independent sweep agrees with the closed-form airtime.
        assert parts["wifi_only"] + parts["overlap"] == metrics.wifi_airtime_ns
        assert parts["lte_only"] + parts["overlap"] == metrics.lte_airtime_ns
        assert parts["overlap"] > 0  # capture regime transmits during on-periods


def default_grid_configs(duration_s):
    """Every config of the four default sweeps' grids, baselines included, once each."""
    configs = {}
    for name in sorted(SCENARIOS):
        scenario = SCENARIOS[name]()
        scenario.duration_s = duration_s
        for _, cfg, _, baseline, _ in scenario.grid():
            configs.update(dict.fromkeys((cfg, baseline)))
    return list(configs)


@pytest.mark.parametrize("seed", (1, 2))
def test_closed_form_airtime_over_the_default_grids(seed):
    # Sweep-shaped runs: the airtime the station sets from its counters at the run
    # end is the same traced and untraced, and equals the emissions in the trace.
    configs = default_grid_configs(0.2)
    assert len(configs) > 200
    for cfg in configs:
        untraced = Simulation(cfg, seed=seed).run()
        sim = Simulation(cfg, seed=seed, trace=True)
        assert sim.run() == untraced
        assert untraced.wifi_airtime_ns == sum(t1 - t0 for t0, t1 in traced_emissions(sim))
