"""The station's fast-forward against the event path, and run-end invariants.

The reference is the same run with ``DcfStation._skip_whole_cycles`` patched
to advance nothing, which keeps every packet on the event path.  Runs are
compared traced and untraced, under the hard and the soft PER rule.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coexsim.simulation import Simulation
from coexsim.wifi import DcfStation

from conftest import make_cfg

SEEDS = (1, 2, 5)
SOFT_SLOPES = (0.5, 2.0, 40.0)


def observe(cfg, seed, trace, fast=True):
    with pytest.MonkeyPatch.context() as patch:
        if not fast:
            patch.setattr(DcfStation, "_skip_whole_cycles", lambda self, now: now)
        sim = Simulation(cfg, seed=seed, trace=trace)
        sim.station.draw_log = []
        metrics = sim.run()
    station = sim.station
    return {
        "metrics": metrics,
        "metrics_repr": repr(metrics),  # tells an int from a numpy integer
        "counters": (station.difs_completed, station.backoff_slots_elapsed,
                     station.data_decode_failures, station.ack_decode_failures),
        "state": (station.cw, station.consecutive_failures, station.pending_k),
        "wifi_intervals": sim.acc.wifi_intervals,
        "lte_intervals": sim.acc.lte_intervals,
        "draw_log": station.draw_log,
        "backoff_rng": station.rng.bit_generator.state,
        "decode_rng": (None if station.decode_rng is None
                       else station.decode_rng.bit_generator.state),
        "trace": sim.engine.trace_lines(),
        "scheduled": sim.engine._seq,
    }


def assert_paths_agree(cfg, seed):
    """Traced and untraced fast runs against the traced event path."""
    events = observe(cfg, seed, True, fast=False)
    traced, untraced = observe(cfg, seed, True), observe(cfg, seed, False)
    for key in events.keys() - {"scheduled"}:
        assert traced[key] == events[key], f"traced {key} differs at seed {seed}"
    for key in events.keys() - {"scheduled", "trace"}:
        assert untraced[key] == events[key], f"untraced {key} differs at seed {seed}"
    assert untraced["trace"] == []
    return events, traced


MATRIX = [make_cfg(duty=duty, lte_power=power, mcs=mcs, profile=profile, duration=0.8)
          for duty, power, mcs, profile in itertools.product(
              (0.0, 0.5, 1.0), (-16.0, 12.0), (6, 54), ("vendor-A", "vendor-B"))]
# Carrier sensing off under LTE: every packet collides and climbs the retry ladder.
FORCED = [make_cfg(duty=1.0, lte_power=12.0, duration=0.8, cca_ed_threshold_dbm=30.0),
          make_cfg(duty=0.5, lte_power=12.0, duration=0.8, cca_ed_threshold_dbm=30.0,
                   retry_limit=3),
          make_cfg(duty=0.5, lte_power=-1.0, mcs=54, duration=0.8,
                   profile="vendor-B", cca_ed_threshold_dbm=30.0)]
# Soft PER: decodes are drawn, and under LTE they fail by chance, always
# (k = 40 far below the threshold) or almost never.
SOFT = [make_cfg(duty=duty, lte_power=power, mcs=mcs, profile=profile, duration=0.8,
                 soft_slope_k=k, **extra)
        for duty, power, mcs, profile, k, extra in itertools.product(
            (0.0, 0.5, 1.0), (-16.0, -1.0, 12.0), (6, 54), ("vendor-A", "vendor-B"),
            SOFT_SLOPES, ({}, {"cca_ed_threshold_dbm": 30.0, "retry_limit": 3}))]


def config_id(cfg):
    soft = f"-k{cfg.radio.soft_slope_k}" if cfg.radio.soft_slope_k else ""
    return (f"duty{cfg.lte.duty}-{cfg.lte.tx_power_dbm}dBm-mcs{cfg.wifi.mcs_mbps}-"
            f"{cfg.wifi.cca_profile}-ed{cfg.wifi.cca_ed_threshold_dbm}-"
            f"retry{cfg.wifi.retry_limit}{soft}")


@pytest.mark.parametrize("cfg", MATRIX + FORCED, ids=config_id)
def test_fast_path_matches_event_path(cfg):
    for seed in SEEDS:
        events, fast = assert_paths_agree(cfg, seed)
        if cfg.lte.duty == 0.0:
            # A whole idle run is one step plus the cycles cut by the run end.
            assert fast["scheduled"] < 20 < events["scheduled"]


@pytest.mark.parametrize("cfg", SOFT, ids=config_id)
def test_fast_path_matches_event_path_under_soft_per(cfg):
    events, fast = assert_paths_agree(cfg, 3)
    if cfg.lte.duty == 0.0:
        assert fast["scheduled"] < 20 < events["scheduled"]


@pytest.mark.parametrize("retry_limit", [7, 1, 0])
def test_soft_per_draws_mixed_outcomes_in_one_step(retry_limit):
    # vendor-A does not sense the low-power LTE, so packets under it decode
    # by chance: the steps between LTE transitions see both outcomes.
    cfg = make_cfg(duty=1.0, lte_power=-16.0, prb=50, mcs=54, duration=0.8,
                   soft_slope_k=2.0, retry_limit=retry_limit)
    events, fast = assert_paths_agree(cfg, 4)
    metrics = fast["metrics"]
    assert 0 < metrics.failures < metrics.attempts // 2
    assert fast["scheduled"] < events["scheduled"] // 50


def test_forced_collisions_cross_the_retry_ladder():
    fast = observe(FORCED[0], 3, False)
    metrics = fast["metrics"]
    assert metrics.delivered_payload_bytes == 0 and metrics.failures > 7
    assert metrics.attempts - metrics.failures in (0, 1)  # one may be in flight
    assert metrics.drops == metrics.failures // 7
    assert max(fast["draw_log"]) > 15


def assert_run_end_invariants(sim, metrics):
    station = sim.station
    delivered = metrics.delivered_payload_bytes // sim.cfg.wifi.payload_bytes
    assert metrics.attempts - delivered - metrics.failures in (0, 1)
    decode_failures = station.data_decode_failures + station.ack_decode_failures
    assert metrics.failures <= decode_failures <= metrics.failures + 1
    assert 0 <= metrics.wifi_airtime_ns <= metrics.duration_ns
    assert 0 <= metrics.lte_airtime_ns <= metrics.duration_ns
    for intervals in (sim.acc.wifi_intervals, sim.acc.lte_intervals):
        for t0, t1 in intervals:
            assert t0 <= t1  # a frame that starts exactly at the run end has length 0
        for (_, a1), (b0, _) in zip(intervals, intervals[1:]):
            assert a1 <= b0


@settings(max_examples=30, deadline=None)
@given(duty=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
       lte_power=st.floats(min_value=-20.0, max_value=15.0),
       mcs=st.sampled_from([6, 9, 12, 18, 24, 36, 48, 54]),
       profile=st.sampled_from(["vendor-A", "vendor-B"]),
       prb=st.sampled_from([6, 15, 25, 50, 75, 100]),
       offset=st.sampled_from([-15.0, 0.0, 5.0]),
       mean_period_ms=st.sampled_from([10.0, 40.0, 150.0]),
       ed_threshold=st.one_of(st.none(), st.floats(min_value=-70.0, max_value=30.0)),
       retry_limit=st.integers(min_value=1, max_value=9),
       soft_slope_k=st.sampled_from([0.0, *SOFT_SLOPES]),
       trace=st.booleans(),
       duration=st.floats(min_value=0.02, max_value=0.3),
       seed=st.integers(min_value=0, max_value=2**32))
def test_run_end_invariants(duty, lte_power, mcs, profile, prb, offset, mean_period_ms,
                            ed_threshold, retry_limit, soft_slope_k, trace, duration,
                            seed):
    cfg = make_cfg(duty=duty, lte_power=lte_power, mcs=mcs, profile=profile, prb=prb,
                   offset=offset, mean_period_ms=mean_period_ms, duration=duration,
                   cca_ed_threshold_dbm=ed_threshold, retry_limit=retry_limit,
                   soft_slope_k=soft_slope_k)
    sim = Simulation(cfg, seed=seed, trace=trace)
    assert_run_end_invariants(sim, sim.run())


@settings(max_examples=25, deadline=None)
@given(duty=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
       lte_power=st.floats(min_value=-20.0, max_value=15.0),
       mcs=st.sampled_from([6, 24, 54]),
       profile=st.sampled_from(["vendor-A", "vendor-B"]),
       mean_period_ms=st.sampled_from([5.0, 40.0, 150.0]),
       ed_threshold=st.one_of(st.none(), st.floats(min_value=-70.0, max_value=30.0)),
       retry_limit=st.integers(min_value=0, max_value=9),
       slot_us=st.sampled_from([9, 20, 300]),
       cw=st.sampled_from([(15, 1023), (7, 7), (0, 3)]),
       soft_slope_k=st.sampled_from([0.0, *SOFT_SLOPES]),
       duration=st.floats(min_value=0.01, max_value=0.3),
       seed=st.integers(min_value=0, max_value=2**32))
def test_fast_path_matches_event_path_on_random_mac_settings(
        duty, lte_power, mcs, profile, mean_period_ms, ed_threshold, retry_limit,
        slot_us, cw, soft_slope_k, duration, seed):
    cfg = make_cfg(duty=duty, lte_power=lte_power, mcs=mcs, profile=profile,
                   mean_period_ms=mean_period_ms, duration=duration,
                   cca_ed_threshold_dbm=ed_threshold, retry_limit=retry_limit,
                   slot_us=slot_us, cw_min=cw[0], cw_max=cw[1],
                   soft_slope_k=soft_slope_k)
    assert_paths_agree(cfg, seed)
