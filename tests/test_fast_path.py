"""The station's fast-forward against the event path, and run-end invariants.

The reference is the same run with ``DcfStation._skip_whole_cycles`` patched
to advance nothing, which keeps every packet on the event path.  Runs are
compared traced and untraced, under the hard and the soft PER rule, with the
station as a run builds it.
"""

import dataclasses
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from coexsim.config import ConfigError
from coexsim.engine import NS_PER_S, NS_PER_US, Engine
from coexsim.experiments import SCENARIOS, run_sweep
from coexsim.simulation import Simulation
from coexsim.wifi import (FAST_FORWARD_CHUNK, BackoffStream, DcfStation, ack_airtime_us,
                          frame_airtime_us)

from conftest import backoffs, lte_intervals, make_cfg, traced_emissions

SEEDS = (1, 2, 5)
INT64_MAX = 2**63 - 1
SOFT_SLOPES = (0.5, 2.0, 40.0)


def observe(cfg, seed, trace, fast=True):
    words = 0
    skip = BackoffStream.skip

    def counted(stream, n):
        nonlocal words
        words += n
        skip(stream, n)

    with pytest.MonkeyPatch.context() as patch:
        # draw, take and stretch all take their words through skip.
        patch.setattr(BackoffStream, "skip", counted)
        if not fast:
            patch.setattr(DcfStation, "_skip_whole_cycles", lambda self, now: now)
        sim = Simulation(cfg, seed=seed, trace=trace)
        metrics = sim.run()
    station = sim.station
    emissions = None
    if trace:
        emissions = traced_emissions(sim)
        assert metrics.wifi_airtime_ns == sum(t1 - t0 for t0, t1 in emissions)
    return {
        "metrics": metrics,
        "metrics_repr": repr(metrics),  # tells an int from a numpy integer
        "counters": (station.difs_completed, station.backoff_slots_elapsed,
                     station.data_decode_failures, station.ack_decode_failures),
        "state": (station.cw, station.consecutive_failures, station.pending_k),
        "wifi_emissions": emissions,
        "lte_intervals": lte_intervals(sim.medium),
        "backoff_words": words,
        "backoff_rng": station.rng.bit_generator.state,
        "decode_rng": (None if station.decode_rng is None
                       else station.decode_rng.bit_generator.state),
        "trace": "".join(sim.engine.trace or ()),
        "scheduled": sim.engine._seq,
        "feels_lte": station._feels_lte,
    }


def assert_paths_agree(cfg, seed):
    """Traced and untraced fast runs against the traced event path.

    The trace does not pick the path: where the station feels the LTE, a
    traced run steps and walks as an untraced one does, event for event.
    """
    events = observe(cfg, seed, True, fast=False)
    traced, untraced = observe(cfg, seed, True), observe(cfg, seed, False)
    for key in events.keys() - {"scheduled"}:
        assert traced[key] == events[key], f"traced {key} differs at seed {seed}"
    for key in events.keys() - {"scheduled", "trace", "wifi_emissions", "feels_lte"}:
        assert untraced[key] == events[key], f"untraced {key} differs at seed {seed}"
    assert untraced["trace"] == ""
    if untraced["feels_lte"]:
        assert traced["scheduled"] == untraced["scheduled"], f"event counts differ at seed {seed}"
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
    fast = observe(FORCED[0], 3, True)
    metrics = fast["metrics"]
    assert metrics.delivered_payload_bytes == 0 and metrics.failures > 7
    assert metrics.attempts - metrics.failures in (0, 1)  # one may be in flight
    assert metrics.drops == metrics.failures // 7
    assert max(backoffs(fast["trace"])) > 15


def assert_run_end_invariants(sim, metrics):
    station = sim.station
    delivered = metrics.delivered_payload_bytes // station.payload_bytes
    assert metrics.attempts - delivered - metrics.failures in (0, 1)
    decode_failures = station.data_decode_failures + station.ack_decode_failures
    assert metrics.failures <= decode_failures <= metrics.failures + 1
    assert 0 <= metrics.wifi_airtime_ns <= metrics.duration_ns
    assert 0 <= metrics.lte_airtime_ns <= metrics.duration_ns
    checked = [lte_intervals(sim.medium)]
    assert metrics.lte_airtime_ns == sum(t1 - t0 for t0, t1 in checked[0])
    if sim.engine.trace is not None:
        emissions = traced_emissions(sim)
        assert metrics.wifi_airtime_ns == sum(t1 - t0 for t0, t1 in emissions)
        checked.append(emissions)
    for intervals in checked:
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


@st.composite
def contention_timing(draw):
    """(slot_us, cw_min, cw_max) from the whole range RunConfig can accept:
    any slot, and windows 2^k - 1 of at most 32 bits whose longest backoff
    keeps the step's arithmetic within int64 ns.  Half the draws of each stay
    near 802.11's values, where a short run still sees many cycles."""
    top = draw(st.integers(0, 10) | st.integers(0, 32))
    bottom = draw(st.integers(0, top))
    longest_slots = 2**top + 2  # cw_max slots of backoff, two in DIFS, one after a failure
    bound = max(1, INT64_MAX // (FAST_FORWARD_CHUNK * NS_PER_US) // longest_slots)
    slot_us = draw(st.integers(1, min(bound, 400)) | st.integers(1, bound))
    return slot_us, 2**bottom - 1, 2**top - 1


@settings(max_examples=100, deadline=None)
@given(duty=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
       lte_power=st.floats(min_value=-20.0, max_value=15.0),
       mcs=st.sampled_from([6, 24, 54]),
       profile=st.sampled_from(["vendor-A", "vendor-B"]),
       mean_period_ms=st.sampled_from([5.0, 40.0, 150.0]),
       ed_threshold=st.one_of(st.none(), st.floats(min_value=-70.0, max_value=30.0)),
       retry_limit=st.integers(min_value=0, max_value=9),
       timing=contention_timing(),
       soft_slope_k=st.sampled_from([0.0, *SOFT_SLOPES]),
       duration=st.floats(min_value=0.01, max_value=0.3),
       seed=st.integers(min_value=0, max_value=2**32))
def test_fast_path_matches_event_path_on_random_mac_settings(
        duty, lte_power, mcs, profile, mean_period_ms, ed_threshold, retry_limit,
        timing, soft_slope_k, duration, seed):
    slot_us, cw_min, cw_max = timing
    try:
        cfg = make_cfg(duty=duty, lte_power=lte_power, mcs=mcs, profile=profile,
                       mean_period_ms=mean_period_ms, duration=duration,
                       cca_ed_threshold_dbm=ed_threshold, retry_limit=retry_limit,
                       slot_us=slot_us, cw_min=cw_min, cw_max=cw_max,
                       soft_slope_k=soft_slope_k)
    except ConfigError:
        reject()  # just past the int64 bound, which the corner tests cover
    assert_paths_agree(cfg, seed)


def test_step_matches_event_path_when_station_times_hit_lte_transitions():
    # LTE transitions on whole milliseconds and every MAC time a multiple of
    # 10 us (these payload and ACK sizes take a multiple of 5 OFDM symbols at
    # both MCSs) put station events exactly on transitions.  There the event path
    # dispatches the station's event after the LTE node's, so the walk must
    # leave such an edge to the events, and the events the step hands over to
    # must keep that order.
    ties = []

    @settings(max_examples=100, deadline=None)
    # A transmission that starts at the end of its DIFS (k = 0) and ends on
    # the next LTE-on, after the step's last whole cycle.
    @example(slot_us=30, sifs_us=20, preamble_us=40, cw_min=0, mean_period_ms=17, duty=0.2,
             mcs=54, profile="vendor-B", lte_power=12.0, soft_slope_k=0.0, seed=3170611280)
    # An LTE-off on the 50 ms run end: the event path writes run-end first,
    # so the walk leaves that edge to the events.
    @example(slot_us=10, sifs_us=10, preamble_us=10, cw_min=0, mean_period_ms=3, duty=0.8,
             mcs=6, profile="vendor-A", lte_power=12.0, soft_slope_k=0.0, seed=0)
    @given(slot_us=st.sampled_from([10, 20, 30]), sifs_us=st.sampled_from([10, 20]),
           preamble_us=st.sampled_from([10, 20, 40]), cw_min=st.sampled_from([0, 1, 15]),
           mean_period_ms=st.integers(3, 20), duty=st.sampled_from([0.2, 0.5, 0.8]),
           mcs=st.sampled_from([6, 54]), profile=st.sampled_from(["vendor-A", "vendor-B"]),
           lte_power=st.sampled_from([-16.0, 12.0]),  # not sensed, and deferred to
           soft_slope_k=st.sampled_from([0.0, 2.0]), seed=st.integers(0, 2**32))
    def check(slot_us, sifs_us, preamble_us, cw_min, mean_period_ms, duty, mcs, profile,
              lte_power, soft_slope_k, seed):
        cfg = make_cfg(duty=duty, lte_power=lte_power, mcs=mcs, profile=profile,
                       duration=0.05, mean_period_ms=mean_period_ms,
                       soft_slope_k=soft_slope_k, slot_us=slot_us, sifs_us=sifs_us,
                       preamble_us=preamble_us, cw_min=cw_min, payload_bytes=1445,
                       ack_bytes=56)
        cfg = dataclasses.replace(cfg, lte=dataclasses.replace(cfg.lte, frame_align_ms=1))
        events, _ = assert_paths_agree(cfg, seed)
        lines = [line.split(" ") for line in events["trace"].splitlines()]
        lte_times = {t for t, _, node, *_ in lines if node == "lte"}
        ties.append(sum(t in lte_times for t, _, node, *_ in lines if node == "wifi-tx"))

    check()
    assert sum(ties) > 0


@pytest.mark.parametrize("soft_slope_k", [0.0, 2.0])
@pytest.mark.parametrize("duty,ed_threshold", [(0.0, None), (0.5, None), (1.0, 30.0)])
def test_stepped_run_metrics_are_python_ints(duty, ed_threshold, soft_slope_k):
    # The benchmark digests repr(astuple(metrics)): an np.int64 would change it.
    cfg = make_cfg(duty=duty, lte_power=-16.0, prb=50, duration=1.0,
                   cca_ed_threshold_dbm=ed_threshold, soft_slope_k=soft_slope_k)
    sim = Simulation(cfg, seed=3)
    metrics = sim.run()
    assert sim.station.difs_completed > sim.engine._seq  # most cycles were stepped
    assert [type(v) for v in dataclasses.astuple(metrics)] == [int] * 7


# -- the trace text of a stepped block ---------------------------------------

def per_line_trace(station, start, cycles):
    """The lines the event path writes for ``cycles`` of (k, outcome) from ``start``,
    each formatted from its (time, kind, node, detail) on its own."""
    events, t = [], start
    for k, outcome in cycles:
        t += station.difs_ns
        events.append((t, "difs-end", station.name, ""))
        if k:
            t += k * station.slot_ns
            events.append((t, "backoff-slot", station.name, f"k={k}"))
        t += station.data_air_ns
        events.append((t, "tx-end", station.name, ""))
        t += station.sifs_ns + station.ack_air_ns
        if outcome != "data lost":
            events.append((t, "ack-result", station.name, ""))
        if outcome != "ok":
            t += station.slot_ns
            kind = "cca-sample" if outcome == "ack lost" else "ack-timeout"
            events.append((t, kind, station.name, ""))
    return "".join(f"{t} {kind} {node} {detail}".rstrip() + "\n"
                   for t, kind, node, detail in events)


TRACE_STATION = Simulation(make_cfg(duration=0.01)).station


@settings(max_examples=200, deadline=None)
@given(cycles=st.lists(st.tuples(st.integers(0, 1023),
                                 st.sampled_from(["ok", "ack lost", "data lost"])),
                       min_size=1, max_size=30),
       start=st.integers(0, 10**15))
def test_block_text_equals_the_per_line_format(cycles, start):
    station = TRACE_STATION
    ks = np.array([k for k, _ in cycles], dtype=np.int64)
    data = np.array([outcome != "data lost" for _, outcome in cycles])
    ok = np.array([outcome == "ok" for _, outcome in cycles])
    lengths = (station.difs_ns + ks * station.slot_ns + station.data_air_ns
               + station.sifs_ns + station.ack_air_ns + ~ok * station.slot_ns)
    ends = start + np.cumsum(lengths)
    tx_start = ends - (lengths - station.difs_ns - ks * station.slot_ns)
    trace = []
    station._trace_cycles(trace, ends, tx_start, ks, data, ok)
    assert trace == [per_line_trace(station, start, cycles)]


@pytest.mark.parametrize("cfg", [
    # The traced-soft benchmark's run: a step per LTE off period.
    make_cfg(duty=0.5, lte_power=-16.0, prb=50, profile="vendor-B", soft_slope_k=2.0),
    # LTE always on and not sensed: one step over the whole run, in many chunks.
    make_cfg(duty=1.0, lte_power=-16.0, prb=100, profile="vendor-B", soft_slope_k=2.0),
], ids=["duty0.5-prb50", "duty1-prb100"])
def test_ten_second_traced_soft_run_writes_the_event_path_text(cfg):
    events, fast = assert_paths_agree(cfg, 7)
    assert fast["trace"] == events["trace"]
    assert fast["trace"].endswith("\n10000000000 run-end engine\n")
    assert fast["scheduled"] < events["scheduled"] // 20
    if cfg.lte.duty == 1.0:
        assert fast["metrics"].attempts > 4 * FAST_FORWARD_CHUNK


# -- the int64 range of the step ---------------------------------------------


def longest_cycle_ns(w):
    """cw_max slots, DIFS, data, SIFS, ACK and the slot after a failure."""
    return NS_PER_US * (w.cw_max * w.slot_us + (w.sifs_us + 2 * w.slot_us)
                        + frame_airtime_us(w.mcs_mbps, w.payload_bytes, w) + w.sifs_us
                        + ack_airtime_us(w.mcs_mbps, w) + w.slot_us)


def fits(wifi, duration_s):
    """FAST_FORWARD_CHUNK longest cycles past the run end stay within int64 ns."""
    end_ns = round(duration_s * NS_PER_S)
    return FAST_FORWARD_CHUNK * longest_cycle_ns(wifi) + end_ns <= INT64_MAX


def with_value(cfg, key, value):
    """cfg with one run or WiFi key set."""
    if key == "duration_s":
        return dataclasses.replace(cfg, duration_s=value)
    return dataclasses.replace(cfg, wifi=dataclasses.replace(cfg.wifi, **{key: value}))


def corner(cfg, key):
    """(largest value of ``key`` that fits, the next value), the rest as in cfg.

    The search builds WiFi settings alone, which leave the range to RunConfig.
    """
    if key == "duration_s":
        ok = lambda v: fits(cfg.wifi, v)  # noqa: E731
        value = (INT64_MAX - FAST_FORWARD_CHUNK * longest_cycle_ns(cfg.wifi)) / NS_PER_S
        while not ok(value):
            value = math.nextafter(value, 0.0)
        return value, math.nextafter(value, math.inf)
    ok = lambda v: fits(dataclasses.replace(cfg.wifi, **{key: v}), cfg.duration_s)  # noqa: E731
    if key == "cw_max":
        bits = max(b for b in range(cfg.wifi.cw_min.bit_length(), 33) if ok(2**b - 1))
        return 2**bits - 1, 2**(bits + 1) - 1
    low, high = getattr(cfg.wifi, key), 2**63
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if ok(mid) else (low, mid)
    return low, high


QUARTER_RANGE_S = INT64_MAX // 4 / NS_PER_S  # about 73 years
COLLIDING = dict(duty=1.0, lte_power=12.0, cca_ed_threshold_dbm=30.0)
NARROW = dict(cw_min=1, cw_max=1)  # backoffs of 0 and 1 slot: cycles near the longest
CORNERS = [
    # The whole retry ladder under forced collisions, up to the largest cw_max.
    ("cw_max", make_cfg(duration=0.2, retry_limit=100, **COLLIDING)),
    ("cw_max", make_cfg(duration=QUARTER_RANGE_S, retry_limit=100, **COLLIDING)),
    ("slot_us", make_cfg(duty=0.0, duration=QUARTER_RANGE_S, **NARROW)),
    ("sifs_us", make_cfg(duration=QUARTER_RANGE_S, **COLLIDING, **NARROW)),
    ("preamble_us", make_cfg(duty=0.0, duration=QUARTER_RANGE_S, soft_slope_k=2.0, **NARROW)),
    ("payload_bytes", make_cfg(duty=1.0, lte_power=-16.0, prb=50, duration=QUARTER_RANGE_S,
                               soft_slope_k=2.0, **NARROW)),
    ("ack_bytes", make_cfg(duty=0.0, duration=QUARTER_RANGE_S, **NARROW)),
    ("mac_overhead_bytes", make_cfg(duration=QUARTER_RANGE_S, **COLLIDING, **NARROW)),
    ("duration_s", make_cfg(duty=0.0, duration=1.0, slot_us=2 * 10**11, **NARROW)),
]


@pytest.mark.parametrize("key,cfg", CORNERS, ids=[key for key, _ in CORNERS])
def test_step_equals_event_path_at_each_corner_of_its_int64_range(key, cfg):
    value, past = corner(cfg, key)
    with pytest.raises(ConfigError, match=key):
        with_value(cfg, key, past)
    events, fast = assert_paths_agree(with_value(cfg, key, value), 2)
    assert fast["metrics"].attempts > 4


# -- the clean-stretch path --------------------------------------------------


def count_clean_stretches(monkeypatch):
    """Count the calls of the clean-stretch path that advanced, by whether
    the run was traced."""
    calls = {True: 0, False: 0}
    clean = DcfStation._skip_alike_cycles

    def counted(self, now, *args):
        end = clean(self, now, *args)
        calls[self.engine.trace is not None] += end > now
        return end

    monkeypatch.setattr(DcfStation, "_skip_alike_cycles", counted)
    return calls


@pytest.mark.parametrize("cfg", [cfg for cfg in MATRIX if cfg.lte.duty == 0.5],
                         ids=config_id)
def test_clean_path_runs_in_the_compared_runs(cfg, monkeypatch):
    # These runs are compared with the event path above, traced and untraced,
    # so those comparisons cover the clean-stretch path.
    calls = count_clean_stretches(monkeypatch)
    for seed in SEEDS:
        observe(cfg, seed, True)
        observe(cfg, seed, False)
    if cfg.lte.tx_power_dbm == -16.0 and cfg.wifi.mcs_mbps == 6:
        # The station neither defers to this LTE nor decodes differently under
        # it: an untraced run is one stretch, a traced one stops at each transition.
        assert calls[False] == len(SEEDS) < calls[True]
    else:
        assert calls[True] == calls[False] > len(SEEDS)


# perfbench's `runs` configs at seed 5: the events a 10 s run schedules, none
# past its end.  A run that walks from its start at 0 to its end schedules
# only its run-end.
RUN_EVENTS = [("defaults", make_cfg(), False, 8), ("defaults", make_cfg(), True, 8),
              ("duty0-mcs54", make_cfg(duty=0.0), False, 1),
              ("lte-16dbm-mcs6", make_cfg(lte_power=-16.0, mcs=6), False, 1),
              ("lte-16dbm-mcs6", make_cfg(lte_power=-16.0, mcs=6), True, 1)]


@pytest.mark.parametrize("name,cfg,trace,scheduled", RUN_EVENTS,
                         ids=[f"{name}-{'traced' if trace else 'untraced'}"
                              for name, _, trace, _ in RUN_EVENTS])
def test_events_a_ten_second_run_schedules(name, cfg, trace, scheduled):
    sim = Simulation(cfg, seed=5, trace=trace)
    sim.run()
    assert sim.engine._seq == scheduled


def test_no_lte_event_is_scheduled_past_the_run_end(monkeypatch):
    # Every run of the default grids at 0.2 s, the runs above, and runs without
    # a station, whose LTE node arms itself at each transition.
    scheduled = {}  # engine -> (fire_time, kind, target) of each event it scheduled
    schedule = Engine.schedule

    def spy(engine, fire_time, kind, target, fn, detail=""):
        scheduled.setdefault(engine, []).append((fire_time, kind, target))
        return schedule(engine, fire_time, kind, target, fn, detail)

    monkeypatch.setattr(Engine, "schedule", spy)
    for name in sorted(SCENARIOS):
        scenario = SCENARIOS[name]()
        scenario.duration_s = 0.2
        run_sweep(scenario, 1)
    for _, cfg, trace, _ in RUN_EVENTS:
        Simulation(cfg, seed=5, trace=trace).run()
    for duty, seed in itertools.product((0.3, 0.5), SEEDS):
        Simulation(make_cfg(duty=duty, duration=1.0), seed=seed, include_wifi=False).run()
    late, armed = [], 0
    for events in scheduled.values():
        (end,) = [t for t, kind, _ in events if kind == "run-end"]
        lte = [(t, kind) for t, kind, target in events if target == "lte"]
        late += [(t, kind, end) for t, kind in lte if t > end]
        armed += bool(lte)
    assert late == [] and armed > 2 * len(SEEDS)  # more than the runs without a station


def test_clean_path_at_the_int64_corner_of_a_fixed_window(monkeypatch):
    # At duty 0 with cw_min == cw_max every cycle is clean and draws from
    # one window.  At this slot the widest window RunConfig accepts is the
    # widest the prefix reads, so k runs up to 2^32 - 1: a prefix sums
    # cycles of up to 15 days over a run of about 73 years.
    cfg = make_cfg(duty=0.0, duration=QUARTER_RANGE_S, slot_us=300)

    def fixed_window(bits):
        return dataclasses.replace(cfg.wifi, cw_min=2**bits - 1, cw_max=2**bits - 1)

    bits = max(b for b in range(33) if fits(fixed_window(b), cfg.duration_s))
    assert bits == 32
    # One bit wider is past the int64 bound as well as the 32-bit one.
    wider = {**dataclasses.asdict(fixed_window(bits)), "cw_max": 2**(bits + 1) - 1}
    assert not fits(SimpleNamespace(**wider), cfg.duration_s)
    with pytest.raises(ConfigError, match="cw_max"):
        dataclasses.replace(fixed_window(bits), cw_max=wider["cw_max"])
    calls = count_clean_stretches(monkeypatch)
    events, fast = assert_paths_agree(dataclasses.replace(cfg, wifi=fixed_window(bits)), 2)
    assert fast["metrics"].attempts > 1000 and calls[True] == calls[False] > 0
    assert max(backoffs(fast["trace"])) > 2**31


def test_clean_path_logs_a_long_stretch_a_prefix_at_a_time():
    # An idle run is one clean stretch over several prefixes.  Its trace text
    # is written a prefix at a time, the first cycle with the first prefix,
    # which bounds the memory it takes.
    cfg = make_cfg(duty=0.0, duration=5.0)
    events, fast = assert_paths_agree(cfg, 1)
    assert fast["metrics"].attempts > 3 * FAST_FORWARD_CHUNK
    sim = Simulation(cfg, seed=1, trace=True)
    sim.run()
    cycles_per_chunk = max(chunk.count("difs-end") for chunk in sim.engine.trace)
    assert cycles_per_chunk <= FAST_FORWARD_CHUNK + 1


# -- the walk past LTE transitions -------------------------------------------


def count_walked_edges(monkeypatch):
    """Count the edges runs settled in closed form and the ones they left to
    the events, keyed by whether the run was traced and by which."""
    counts = dict.fromkeys(itertools.product((True, False), ("settled", "events")), 0)
    walk_edge = DcfStation._walk_edge

    def counted(self, t, horizon):
        resume = walk_edge(self, t, horizon)
        counts[self.engine.trace is not None, "events" if resume is None else "settled"] += 1
        return resume

    monkeypatch.setattr(DcfStation, "_walk_edge", counted)
    return counts


def test_walked_edges_match_the_event_path(monkeypatch):
    # Short periods, long slots and a SIFS of whole milliseconds put edges
    # where the closed form must hand over: on-periods shorter than a cycle,
    # and vendor-B slot boundaries on the LTE-off.  Soft PER draws inside an
    # edge, and retry limits of 0 and 1 drop a packet there.
    counts = count_walked_edges(monkeypatch)

    @settings(max_examples=150, deadline=None)
    @given(duty=st.sampled_from([0.2, 0.5, 0.8]), mean_period_ms=st.integers(5, 40),
           align_ms=st.sampled_from([1, 10]), profile=st.sampled_from(["vendor-A", "vendor-B"]),
           lte_power=st.sampled_from([-16.0, -1.0, 12.0]),
           ed_threshold=st.sampled_from([None, 30.0]),  # 30 dBm: never defers
           soft_slope_k=st.sampled_from([0.0, 2.0]), retry_limit=st.sampled_from([0, 1, 7]),
           slot_us=st.sampled_from([9, 20, 1000]), sifs_us=st.sampled_from([16, 1000]),
           cw_min=st.sampled_from([0, 1, 15]), mcs=st.sampled_from([6, 54]),
           duration=st.floats(0.05, 0.2), seed=st.integers(0, 2**32))
    def check(duty, mean_period_ms, align_ms, profile, lte_power, ed_threshold, soft_slope_k,
              retry_limit, slot_us, sifs_us, cw_min, mcs, duration, seed):
        cfg = make_cfg(duty=duty, lte_power=lte_power, mcs=mcs, profile=profile,
                       mean_period_ms=mean_period_ms, duration=duration,
                       cca_ed_threshold_dbm=ed_threshold, soft_slope_k=soft_slope_k,
                       retry_limit=retry_limit, slot_us=slot_us, sifs_us=sifs_us,
                       cw_min=cw_min)
        cfg = dataclasses.replace(cfg, lte=dataclasses.replace(cfg.lte, frame_align_ms=align_ms))
        assert_paths_agree(cfg, seed)

    check()
    assert counts[False, "settled"] > 0 and counts[False, "events"] > 0
    assert counts[True, "settled"] > 0


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_walk_keeps_the_bytes_of_each_default_sweep(name):
    # Every grid point of the full default grid, at 0.5 s and 2 reps, walked
    # and on the event path.
    scenario = SCENARIOS[name]()
    scenario.reps, scenario.duration_s = 2, 0.5
    walked = run_sweep(scenario, 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DcfStation, "_skip_whole_cycles", lambda self, now: now)
        events = run_sweep(scenario, 1)
    assert walked.to_csv_text() == events.to_csv_text()
    assert walked.summary_csv_text() == events.summary_csv_text()


# -- the cycle the run end cuts ------------------------------------------------


def cut_marks(trace: str, station) -> dict[str, list[int]]:
    """Where a traced run's phases begin and end, by kind: each line's time (a
    backoff-slot line without k is vendor-B's slot boundary), and each ACK's
    start, SIFS after a tx-end."""
    marks: dict[str, list[int]] = {}
    for t, kind, _, *detail in (line.split(" ") for line in trace.splitlines()):
        kind = "slot-boundary" if kind == "backoff-slot" and not detail else kind
        marks.setdefault(kind, []).append(int(t))
        if kind == "tx-end":
            marks.setdefault("ack-start", []).append(int(t) + station.sifs_ns)
    return marks


def cut_phase(trace: str, station, end: int) -> str:
    """Where ``end`` falls in a traced run's cycles: on a station event, or in the
    phase the next one ends (DIFS, backoff, data, SIFS, ACK, failure slot)."""
    names = {"difs-end": "difs", "backoff-slot": "backoff", "tx-end": "data",
             "ack-timeout": "no ack", "cca-sample": "failure slot"}
    for t, kind, node, *detail in (line.split(" ") for line in trace.splitlines()):
        if node != station.name or int(t) < end:
            continue
        if int(t) == end:
            return f"on {kind}"
        if kind == "ack-result":
            return "sifs" if end < int(t) - station.ack_air_ns else "ack"
        if kind == "ack-timeout" and end >= int(t) - station.slot_ns:
            return "failure slot"
        return "slot boundary" if kind == "backoff-slot" and not detail else names[kind]
    return "none"


CUT_PHASES = {"difs", "backoff", "data", "sifs", "ack", "no ack", "failure slot",
              "slot boundary", "on difs-end", "on backoff-slot", "on tx-end",
              "on ack-result", "on ack-timeout", "on cca-sample", "frozen residual"}


# Configs for the examples below, as ``check`` takes them: an idle channel; LTE
# that the station does not sense and that makes data frames fail; vendor-B at an
# LTE it defers to, which lands on its backoff slots; vendor-A, whose mid-packet
# abort freezes a residual, and which defers to an LTE its frames decode under.
IDLE = dict(duty=0.0, mean_period_ms=10, profile="vendor-A", lte_power=12.0, ed_threshold=None,
            soft_slope_k=0.0, retry_limit=7, mcs=54, cw_min=15, seed=1)
UNSENSED = dict(IDLE, duty=0.2, mean_period_ms=3, profile="vendor-B", lte_power=-1.0,
                ed_threshold=30.0, seed=60)
SLOTTED = dict(IDLE, duty=0.5, mean_period_ms=3, profile="vendor-B", lte_power=3.3, mcs=6, seed=40)
ABORTING = dict(IDLE, duty=0.5, mean_period_ms=3, seed=0)
DECODING = dict(IDLE, duty=0.2, mean_period_ms=5, lte_power=-1.0, mcs=6, seed=151)


def test_cut_cycle_at_the_run_end_matches_the_event_path():
    # Runs cut at a mark of a reference run or near one: in each phase of a
    # cycle and exactly on each boundary, near LTE transitions, with frozen
    # residuals, vendor-B slot boundaries and mid-packet aborts, for stations
    # that defer and ones that do not, under the hard rule and soft odds that
    # are certain or drawn.  At LTE 3.3 dBm and 6 Mbps a station that does not
    # defer sends data that decodes and gets ACKs that do not.  The examples pin
    # each phase.
    seen = set()

    @settings(max_examples=300, deadline=None)
    # A last stretch whose horizon is the run end: its cut cycle ran on events
    # from its DIFS.
    @example(**IDLE, mark="tx-end", nth=20, shift=-100_000)
    # A deferring station whose last LTE-on lasts past the run end: its crossing
    # cycle ran on events.
    @example(**dict(IDLE, duty=0.5), mark="lte-on", nth=2, shift=1000)
    # Inside the backoff, SIFS and ACK, and exactly on each boundary.
    @example(**IDLE, mark="backoff-slot", nth=20, shift=-1)
    @example(**IDLE, mark="ack-start", nth=20, shift=-1)
    @example(**IDLE, mark="ack-result", nth=20, shift=-1)
    @example(**IDLE, mark="difs-end", nth=20, shift=0)
    @example(**IDLE, mark="tx-end", nth=20, shift=0)
    @example(**IDLE, mark="ack-result", nth=20, shift=0)
    @example(**UNSENSED, mark="backoff-slot", nth=0, shift=0)
    # After data that did not decode, before its timeout slot and on its end; on
    # the slot after an ACK that did not decode, and inside it.
    @example(**UNSENSED, mark="ack-timeout", nth=0, shift=-9001)
    @example(**UNSENSED, mark="ack-timeout", nth=0, shift=0)
    @example(**UNSENSED, mark="cca-sample", nth=1, shift=0)
    @example(**UNSENSED, mark="cca-sample", nth=1, shift=-1)
    # Just before vendor-B's slot boundary after an LTE-on, and exactly on it.
    @example(**SLOTTED, mark="slot-boundary", nth=0, shift=-1)
    @example(**SLOTTED, mark="slot-boundary", nth=0, shift=0)
    # In the DIFS of a cycle that resumes a residual frozen by a mid-packet abort.
    @example(**ABORTING, mark="lte-off", nth=2, shift=10_000)
    # A transition on the run end, whose line follows the run-end line: an
    # LTE-on, an LTE-off, one with an ACK in the air, and two with a station
    # event there too, which the events order.
    @example(**dict(IDLE, duty=0.5), mark="lte-on", nth=2, shift=0)
    @example(**dict(IDLE, duty=0.5), mark="lte-off", nth=2, shift=0)
    @example(**DECODING, mark="lte-off", nth=6, shift=0)
    @example(**dict(UNSENSED, mcs=6, seed=54), mark="lte-off", nth=2, shift=0)
    @example(**UNSENSED, mark="lte-off", nth=6, shift=0)
    @given(duty=st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]),
           mean_period_ms=st.sampled_from([3, 10, 40]),
           profile=st.sampled_from(["vendor-A", "vendor-B"]),
           lte_power=st.sampled_from([-16.0, -1.0, 3.3, 12.0]),
           ed_threshold=st.sampled_from([None, 30.0]),  # 30 dBm: never defers
           soft_slope_k=st.sampled_from([0.0, 0.5, 2.0]),  # hard, drawn, certain off LTE
           retry_limit=st.sampled_from([0, 1, 7]), mcs=st.sampled_from([6, 54]),
           cw_min=st.sampled_from([0, 15]), seed=st.integers(0, 2**32),
           mark=st.sampled_from(["difs-end", "backoff-slot", "slot-boundary", "tx-end",
                                 "ack-start", "ack-result", "ack-timeout", "cca-sample",
                                 "lte-on", "lte-off"]),
           nth=st.integers(0, 200),
           shift=st.sampled_from([0, 1, -1]) | st.integers(-20_000, 20_000)
           | st.integers(-3 * 10**6, 3 * 10**6))
    def check(duty, mean_period_ms, profile, lte_power, ed_threshold, soft_slope_k,
              retry_limit, mcs, cw_min, seed, mark, nth, shift):
        cfg = make_cfg(duty=duty, lte_power=lte_power, mcs=mcs, profile=profile,
                       mean_period_ms=mean_period_ms, duration=0.03,
                       cca_ed_threshold_dbm=ed_threshold, soft_slope_k=soft_slope_k,
                       retry_limit=retry_limit, cw_min=cw_min)
        cfg = dataclasses.replace(cfg, lte=dataclasses.replace(cfg.lte, frame_align_ms=1))
        sim = Simulation(cfg, seed=seed, trace=True)
        sim.run()
        trace, station = "".join(sim.engine.trace), sim.station
        marks = cut_marks(trace, station)
        times = marks.get(mark) or [t for kind in marks for t in marks[kind]]
        end = min(max(times[nth % len(times)] + shift, 1), sim.duration_ns)
        events, _ = assert_paths_agree(dataclasses.replace(cfg, duration_s=end / NS_PER_S), seed)
        seen.add(cut_phase(trace, station, end))
        if events["state"][2] is not None:
            seen.add("frozen residual")

    check()
    assert CUT_PHASES <= seen, CUT_PHASES - seen


def cycle_marks(station, t):
    """The times of the events of a cycle from ``t``: DIFS end, backoff end, data
    end, ACK end and the slot after it."""
    k = station.pending_k
    k = station.backoff.peek_one(station.cw.bit_length()) if k is None else k
    tx_start = t + station.difs_ns + k * station.slot_ns
    ack_end = tx_start + station.data_air_ns + station.sifs_ns + station.ack_air_ns
    return (t + station.difs_ns, tx_start, tx_start + station.data_air_ns, ack_end,
            ack_end + station.slot_ns)


def test_default_grids_leave_no_edge_at_the_run_end_to_the_events(monkeypatch):
    # At the sweeps' 0.2 s the run end cuts a cycle of every run whose station
    # contends.  The walk settles it, and hands a cycle over to the events
    # only for a station event on an LTE transition before the run end (a tie).
    counts = dict.fromkeys(("contending runs", "settled at the run end", "tie", "other"), 0)
    walk_edge, flush = DcfStation._walk_edge, DcfStation.flush

    def counted(self, t, horizon):
        marks, end = cycle_marks(self, t), self.channel.end_ns
        resume = walk_edge(self, t, horizon)
        if resume is None:
            counts["tie" if horizon < end and horizon in marks else "other"] += 1
        counts["settled at the run end"] += resume is not None and resume >= end
        return resume

    def flushed(self, t_end_ns):
        counts["contending runs"] += self.difs_completed > 0
        flush(self, t_end_ns)

    monkeypatch.setattr(DcfStation, "_walk_edge", counted)
    monkeypatch.setattr(DcfStation, "flush", flushed)
    for name in sorted(SCENARIOS):
        scenario = SCENARIOS[name]()
        scenario.reps, scenario.duration_s = 2, 0.2
        run_sweep(scenario, 1)
    assert counts["other"] == 0
    assert counts["settled at the run end"] + counts["tie"] >= counts["contending runs"] > 400


# -- stretches in which every cycle fails ----------------------------------------

# Links whose cycles fail: every frame lost on a dead link, in both LTE states;
# under the LTE, the data lost at the testbed geometry, or the data decoded and
# the ACK lost with the LTE far from the receiver and next to the transmitter.
FAILING_LINKS = {"dead": dict(gain_wifi_link_db=-150.0), "data lost": {},
                 "ack lost": dict(gain_lte_to_wifi_rx_db=-150.0, gain_lte_to_wifi_tx_db=-10.0)}
FAILING_CASES = ({f"phase {f0} of {period}" for period in range(1, 8) for f0 in range(period)}
                 | {f"retry limit {limit}" for limit in range(8)}
                 | {f"cw_min {cw_min}" for cw_min in (0, 1, 15)}
                 | {"mid-ladder after a period", "frozen residual", "ack timeout",
                    "ack undecoded", "traced", "untraced"})


def count_failing_stretches(monkeypatch):
    """Name the cases of the all-failing stretches that advanced."""
    seen = set()
    stretch = DcfStation._skip_alike_cycles

    def counted(self, now, horizon, data_ok, ack_ok):
        f0, frozen = self.consecutive_failures, self.pending_k
        end = stretch(self, now, horizon, data_ok, ack_ok)
        if not ack_ok and end > now:
            seen.update({f"phase {f0} of {self._retry_period}",
                         f"retry limit {self.params.retry_limit}",
                         f"cw_min {self.params.cw_min}",
                         "ack undecoded" if data_ok else "ack timeout",
                         "untraced" if self.engine.trace is None else "traced"})
            seen.update({"frozen residual"} if frozen is not None else ())
            seen.update({"mid-ladder after a period"} if f0 and self.channel.lte.passed else ())
        return end

    monkeypatch.setattr(DcfStation, "_skip_alike_cycles", counted)
    return seen


# A dead link under a deferring vendor-A: short periods, each resuming the ladder.
DEAD = dict(link="dead", defer=True, profile="vendor-A", duty=0.5, mean_period_ms=3, cw_min=15,
            duration=0.2)


def test_all_failing_stretches_match_the_event_path(monkeypatch):
    # An all-failing stretch is one prefix search over the retry ladder's
    # windows from its start phase.  A dead link fails in both LTE states, so
    # its stretches start anywhere on the ladder after an earlier period, and a
    # station that defers resumes a frozen residual there; under an LTE it does
    # not sense, the other links lose the data, or only the ACK.
    seen = count_failing_stretches(monkeypatch)

    @settings(max_examples=300, deadline=None)
    # Every start phase of each retry ladder, and frozen residuals.
    @example(**DEAD, retry_limit=2, seed=1)
    @example(**DEAD, retry_limit=3, seed=1)
    @example(**DEAD, retry_limit=4, seed=1)
    @example(**DEAD, retry_limit=5, seed=1)
    @example(**DEAD, retry_limit=6, seed=1)
    @example(**DEAD, retry_limit=7, seed=20)
    # The data lost and only the ACK lost under an unsensed LTE, from a zero window.
    @example(**dict(DEAD, link="data lost", defer=False, cw_min=0), retry_limit=1, seed=2)
    @example(**dict(DEAD, link="ack lost", defer=False, cw_min=1), retry_limit=0, seed=2)
    @given(link=st.sampled_from(sorted(FAILING_LINKS)), defer=st.booleans(),
           profile=st.sampled_from(["vendor-A", "vendor-B"]),
           duty=st.sampled_from([0.5, 0.8, 1.0]), mean_period_ms=st.sampled_from([3, 10, 40]),
           retry_limit=st.integers(0, 7), cw_min=st.sampled_from([0, 1, 15]),
           duration=st.floats(0.02, 0.2), seed=st.integers(0, 2**32))
    def check(link, defer, profile, duty, mean_period_ms, retry_limit, cw_min, duration, seed):
        cfg = make_cfg(duty=duty, lte_power=12.0, profile=profile,
                       mean_period_ms=mean_period_ms, duration=duration,
                       cca_ed_threshold_dbm=None if defer else 30.0,
                       retry_limit=retry_limit, cw_min=cw_min)
        cfg = dataclasses.replace(cfg, radio=dataclasses.replace(cfg.radio,
                                                                 **FAILING_LINKS[link]))
        assert_paths_agree(cfg, seed)

    check()
    assert FAILING_CASES <= seen, FAILING_CASES - seen


# -- the start of a run ---------------------------------------------------------

# 12 dBm LTE, which vendor-A and vendor-B defer to unless their threshold is 30 dBm.
# At duty 0.5 of 150 ms the first LTE-off is at 75 ms.
DEFERS = dict(lte_power=12.0)
DOES_NOT_DEFER = dict(lte_power=12.0, cca_ed_threshold_dbm=30.0)
FIRST_OFF_NS = 75_000_000
# At duty 0.1 of 10 ms the LTE is on for the first 1 ms, at -16 dBm, which vendor-A
# does not sense and under which 6 Mbps frames decode.  A cycle of exactly 1 ms (no
# backoff at cw_min 0) ends its ACK on the first LTE-off; a DIFS of 1 ms (slots of
# 400 us) ends there.
TIED = dict(duty=0.1, mean_period_ms=10.0, lte_power=-16.0, mcs=6, duration=0.05)
TIED_CYCLE = dict(TIED, slot_us=10, sifs_us=10, preamble_us=10, payload_bytes=604,
                  ack_bytes=56, cw_min=0)
TIED_DIFS = dict(TIED, slot_us=400, sifs_us=200)
# Each case's config and whether its station defers to the LTE.
START_CASES = {
    "duty 0": (dict(duty=0.0, duration=0.05), True),
    "duty 1, defers": (dict(duty=1.0, duration=0.05, **DEFERS), True),
    "duty 1, does not defer": (dict(duty=1.0, duration=0.05, **DOES_NOT_DEFER), False),
    **{f"first LTE-off {where} the run end, {name}": (
        dict(duty=0.5, duration=(FIRST_OFF_NS + shift) / NS_PER_S, **extra), defers)
       for where, shift in (("1 ns before", 1), ("on", 0), ("1 ns past", -1))
       for name, extra, defers in (("defers", DEFERS, True),
                                   ("does not defer", DOES_NOT_DEFER, False))},
    "first cycle ends on the first LTE-off": (TIED_CYCLE, False),
    "first DIFS ends on the first LTE-off": (TIED_DIFS, False),
    "vendor-B, defers": (dict(duty=0.5, duration=0.3, profile="vendor-B", **DEFERS), True),
    "vendor-B, does not defer": (dict(duty=0.5, duration=0.3, profile="vendor-B",
                                      **DOES_NOT_DEFER), False),
}


@pytest.mark.parametrize("soft_slope_k", [0.0, 2.0], ids=["hard", "soft"])
@pytest.mark.parametrize("case", sorted(START_CASES))
def test_the_start_matches_the_event_path(case, soft_slope_k):
    # The walk starts a run at its first idle instant, 0 or a deferring station's
    # first LTE-off, and counts the transitions before it; the event path starts
    # there too.  A traced run's first lines are those the LTE node's events and a
    # start event wrote: an LTE-off on the run end follows the run-end line.
    settings_, defers = START_CASES[case]
    cfg = make_cfg(**settings_, soft_slope_k=soft_slope_k)
    sim, end = Simulation(cfg), round(cfg.duration_s * NS_PER_S)
    assert sim.medium.defer_to_lte == defers and sim.duration_ns == end
    start = 0 if not defers or cfg.lte.duty == 0 else (
        FIRST_OFF_NS if cfg.lte.duty < 1 and FIRST_OFF_NS <= end else None)
    lines = ["0 lte-on lte"] * (cfg.lte.duty > 0) + ["0 cca-sample wifi-tx start"]
    if start:
        lines += ([f"{start} lte-off lte"] if start < end else
                  [f"{end} run-end engine", f"{start} lte-off lte"])
    for seed in SEEDS:
        events, fast = assert_paths_agree(cfg, seed)
        head = "".join(line + "\n" for line in lines)
        assert events["trace"].startswith(head)
        if start is not None and start + sim.station.difs_ns <= end:
            first = next(line for line in events["trace"][len(head):].splitlines()
                         if " wifi-tx" in line)
            assert first == f"{start + sim.station.difs_ns} difs-end wifi-tx"
        else:  # no station event by the run end
            assert events["trace"] == head + f"{end} run-end engine\n" * (start != end)
    if "ends on the first LTE-off" in case:
        # The tie dispatches the LTE-off first: it was armed at 0, before the station's events.
        kind = "ack-result" if "cycle" in case else "difs-end"
        assert f"1000000 lte-off lte\n1000000 {kind} wifi-tx\n" in events["trace"]


def test_a_walk_to_the_run_end_schedules_its_run_end_and_a_later_start(monkeypatch):
    # Every untraced run of the four default grids at 0.2 s whose station walks from
    # its first contention to the run end schedules its run-end, and an event to
    # start it if that is after 0 (a first LTE-off); the LTE node schedules nothing.
    first_walks, counts = {}, dict.fromkeys(("at 0", "after 0", "never", "handed over"), 0)
    skip, run = DcfStation._skip_whole_cycles, Simulation.run

    def walk(self, now):
        advanced_to = skip(self, now)
        first_walks.setdefault(self, (now, advanced_to))
        return advanced_to

    def counted(self):
        metrics = run(self)
        start, advanced_to = first_walks.pop(self.station, (None, None))
        if start is None:  # a deferring station under an LTE-on past the run end
            assert self.engine._seq == 1
            counts["never"] += 1
        elif advanced_to == self.duration_ns:
            assert self.engine._seq == 1 + (start > 0)
            counts["after 0" if start else "at 0"] += 1
        else:
            counts["handed over"] += 1
        return metrics

    monkeypatch.setattr(DcfStation, "_skip_whole_cycles", walk)
    monkeypatch.setattr(Simulation, "run", counted)
    for name in sorted(SCENARIOS):
        scenario = SCENARIOS[name]()
        scenario.reps, scenario.duration_s = 2, 0.2
        run_sweep(scenario, 1)
    # Nearly every run walks to its end; the rest hand a tie on a transition to the events.
    assert min(counts["at 0"], counts["after 0"]) > 100 and counts["never"] > 0
    assert counts["handed over"] < 20
