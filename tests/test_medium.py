"""The medium's SINR windows and carrier sense, derived from its one LTE record.

``Medium.lte_times`` holds the LTE transitions so far, "on" at even indices.
A window is a list of (duration_ns, sinr_db) segments; the old per-packet
trace builder stays here as the oracle the windows must equal, and the
windows are the oracle of the hard rule's per-state verdicts.
"""

import bisect

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coexsim.config import RunConfig
from coexsim.radio import packet_outcome
from coexsim.simulation import Medium

from conftest import make_cfg


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


def lte_on_at(times, t):
    """The schedule's state at ``t``: on after an odd number of transitions."""
    return bisect.bisect_right(times, t) % 2 == 1


@settings(max_examples=500, deadline=None)
@given(times=st.lists(st.integers(0, 2000), unique=True).map(sorted),
       t0=st.integers(0, 2100), length=st.integers(1, 2100),
       direction=st.sampled_from(["rx", "tx"]))
def test_window_segments_follow_the_schedule(times, t0, length, direction):
    t1 = t0 + length
    medium = Medium(RunConfig(), 10**9)
    medium.lte_times = times
    off, on = getattr(medium, f"sinr_{direction}")
    window = getattr(medium, f"sinr_trace_at_{direction}")(t0, t1)

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
    medium = Medium(RunConfig(), 10**9)  # 12 dBm LTE: vendor-A defers to it
    assert medium.defer_to_lte and not medium.busy
    for t, busy in ((0, True), (75, False), (150, True)):
        medium.lte_switched(t)
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
    medium = Medium(cfg, 10**9)
    medium.lte_times = times
    station = medium.plan.station
    threshold, sinr, clears = ((station["ack_threshold_db"], medium.sinr_tx, station["_ack_clears"])
                               if ack else (station["data_threshold_db"], medium.sinr_rx,
                                            station["_data_clears"]))
    if swapped:
        sinr, clears = sinr[::-1], clears[::-1]
    window = medium._window(t0, t1, sinr)
    assert len(window) == inside + 1
    assert medium.clears(t0, t1, clears) == packet_outcome(threshold, 0.0, window, None)
