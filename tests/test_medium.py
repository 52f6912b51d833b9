"""The medium's SINR windows and carrier sense, derived from the one LTE record.

The LTE node's ``times`` holds its schedule, "on" at even indices, and the
medium reads only its first ``passed``: the transitions so far.  A window is
a list of (duration_ns, sinr_db) segments; the old per-packet trace builder
stays here as the oracle the windows must equal, and the windows are the
oracle of the hard rule's per-state verdicts.
"""

import bisect

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coexsim.config import RunConfig
from coexsim.engine import Engine
from coexsim.lte import LteNode
from coexsim.radio import packet_outcome
from coexsim.simulation import Medium, plan

from conftest import lte_intervals, make_cfg


def old_trace(times, t0, t1, on_value, off_value):
    """(start_ns, end_ns, sinr_db) segments as the medium built them from its
    separate transition-time and state lists."""
    states = [i % 2 == 0 for i in range(len(times))]
    idx = bisect.bisect_right(times, t0) - 1
    state = states[idx] if idx >= 0 else False
    segments = []
    cursor = t0
    for i in range(idx + 1, len(times)):
        t = times[i]
        if t >= t1:
            break
        if t > cursor:
            segments.append((cursor, t, on_value if state else off_value))
            cursor = t
        state = states[i]
    segments.append((cursor, t1, on_value if state else off_value))
    return segments


def scheduled_medium(cfg, times, passed=None):
    """A medium whose LTE node has drawn ``times``, of which the first ``passed``
    (all by default) have happened."""
    run_plan = plan(cfg.lte, cfg.wifi, cfg.radio)
    medium = Medium(run_plan, LteNode(Engine(0), 10**9, run_plan.period))
    medium.lte.times = times
    medium.lte.passed = len(times) if passed is None else passed
    return medium


def lte_on_at(times, t):
    """The schedule's state at ``t``: on after an odd number of transitions."""
    return bisect.bisect_right(times, t) % 2 == 1


@settings(max_examples=500, deadline=None)
@given(times=st.lists(st.integers(0, 2000), unique=True).map(sorted),
       t0=st.integers(0, 2100), length=st.integers(1, 2100),
       direction=st.sampled_from(["rx", "tx"]))
def test_window_segments_follow_the_schedule(times, t0, length, direction):
    t1 = t0 + length
    medium = scheduled_medium(RunConfig(), times)
    off, on = getattr(medium, f"sinr_{direction}")
    window = medium._window(t0, t1, getattr(medium, f"sinr_{direction}"))

    assert window and all(duration > 0 for duration, _ in window)
    assert sum(duration for duration, _ in window) == t1 - t0
    start = t0
    for duration, sinr in window:
        # Constant over the segment, and one segment per LTE state.
        for t in (start, start + duration - 1):
            assert sinr == (on if lte_on_at(times, t) else off)
        if start > t0:
            assert lte_on_at(times, start) != lte_on_at(times, start - 1)
        start += duration
    assert window == [(b - a, s) for a, b, s in old_trace(times, t0, t1, on, off)]


def test_carrier_sense_follows_the_parity_of_the_record():
    # 12 dBm LTE: vendor-A defers to it
    medium = scheduled_medium(RunConfig(), [0, 75, 150], passed=0)
    assert medium.defer_to_lte and not medium.busy
    for t, busy in ((0, True), (75, False), (150, True)):
        medium.lte.advance_to(t)
        assert medium.lte_on == medium.busy == busy


# Frames that clear the threshold with LTE off and on, off only, or never.
VERDICT_CFGS = [make_cfg(lte_power=power, mcs=mcs, wifi_power=wifi_power)
                for power in (-16.0, 12.0) for mcs in (6, 54) for wifi_power in (17.0, -60.0)]


@settings(max_examples=500, deadline=None)
@given(cfg=st.sampled_from(VERDICT_CFGS), ack=st.booleans(), swapped=st.booleans(),
       times=st.lists(st.integers(0, 2000), unique=True).map(sorted),
       t0=st.integers(0, 2100), inside=st.integers(0, 4), past=st.integers(0, 100))
def test_hard_rule_verdicts_equal_packet_outcome_over_the_window(cfg, ack, swapped, times,
                                                                 t0, inside, past):
    # A frame over 0, 1 or several transitions, which may fall on its start or
    # end; swapped, the frame clears with LTE on and not off.
    later = [t for t in times if t > t0]
    assume(len(later) >= inside)
    t1 = (later[inside - 1] if inside else t0) + 1 + past
    t1 = min(t1, later[inside]) if inside < len(later) else t1
    medium = scheduled_medium(cfg, times)
    station = plan(cfg.lte, cfg.wifi, cfg.radio).station
    threshold, sinr, clears = ((station["ack_threshold_db"], medium.sinr_tx, station["_ack_clears"])
                               if ack else (station["data_threshold_db"], medium.sinr_rx,
                                            station["_data_clears"]))
    if swapped:
        sinr, clears = sinr[::-1], clears[::-1]
    window = medium._window(t0, t1, sinr)
    assert len(window) == inside + 1
    assert medium.clears(t0, t1, clears) == packet_outcome(threshold, 0.0, window, None)


@settings(max_examples=300, deadline=None)
@given(cfg=st.sampled_from(VERDICT_CFGS),
       times=st.lists(st.integers(0, 2000), unique=True).map(sorted),
       passed=st.integers(0, 50), t0=st.integers(0, 2100), length=st.integers(1, 2100))
def test_the_medium_reads_only_the_transitions_passed(cfg, times, passed, t0, length):
    # The node's schedule runs ahead of the run: what has not happened cuts no window.
    passed, t1 = min(passed, len(times)), t0 + length
    medium = scheduled_medium(cfg, times, passed)
    happened = scheduled_medium(cfg, times[:passed])
    station = plan(cfg.lte, cfg.wifi, cfg.radio).station
    for sinr, clears in ((medium.sinr_rx, station["_data_clears"]),
                         (medium.sinr_tx, station["_ack_clears"])):
        assert medium._window(t0, t1, sinr) == happened._window(t0, t1, sinr)
        assert medium.clears(t0, t1, clears) == happened.clears(t0, t1, clears)
    assert medium.lte_on == happened.lte_on
    assert lte_intervals(medium) == lte_intervals(happened)
