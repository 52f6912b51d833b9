import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from coexsim.config import WIFI_ONLY, ConfigError, LteSettings
from coexsim.engine import NS_PER_MS, NS_PER_S, Engine
from coexsim.lte import PRB_CHOICES, RNG_LABEL, occupied_band, on_duration_ns
from coexsim.simulation import Simulation
from coexsim.wifi import CCA_PRESETS, MCS_RATES

from conftest import draw_silent_duration_ns, lte_transitions, make_cfg, observe, run_sim


class TestOnDuration:
    def test_half_duty_150ms_period(self):
        assert on_duration_ns(LteSettings(duty=0.5)) == 75 * NS_PER_MS

    def test_zero_duty_never_transmits(self):
        assert on_duration_ns(LteSettings(duty=0.0)) == 0

    def test_full_duty_is_whole_period(self):
        assert on_duration_ns(LteSettings(duty=1.0)) == 150 * NS_PER_MS


class TestSilentDraw:
    def test_bounds_and_mean_at_half_duty(self):
        cfg = LteSettings(duty=0.5, silent_spread=0.5)
        rng = Engine(seed=2).rng_stream("lte-silent")
        draws = np.array([draw_silent_duration_ns(cfg, rng) for _ in range(100_000)])
        # Uniform on [37.5, 112.5] ms before subframe rounding.
        assert draws.min() >= 37 * NS_PER_MS
        assert draws.max() <= 113 * NS_PER_MS
        assert abs(draws.mean() / NS_PER_MS - 75.0) < 0.75  # within 1%

    def test_zero_spread_is_degenerate(self):
        cfg = LteSettings(duty=0.5, silent_spread=0.0)
        rng = Engine(seed=2).rng_stream("lte-silent")
        assert all(draw_silent_duration_ns(cfg, rng) == 75 * NS_PER_MS
                   for _ in range(100))

    def test_high_duty_short_silences(self):
        cfg = LteSettings(duty=0.9)  # mean off 15 ms, draws in [7.5, 22.5]
        rng = Engine(seed=2).rng_stream("lte-silent")
        draws = [draw_silent_duration_ns(cfg, rng) for _ in range(10_000)]
        assert min(draws) >= 7 * NS_PER_MS
        assert max(draws) <= 23 * NS_PER_MS

    def test_full_duty_has_no_silent_period(self):
        rng = Engine(seed=2).rng_stream("lte-silent")
        with pytest.raises(ValueError):
            draw_silent_duration_ns(LteSettings(duty=1.0), rng)

    def test_minimum_one_subframe(self):
        cfg = LteSettings(duty=0.995, silent_spread=0.9)
        rng = Engine(seed=2).rng_stream("lte-silent")
        assert min(draw_silent_duration_ns(cfg, rng) for _ in range(1000)) >= NS_PER_MS


class TestOccupiedBand:
    def test_100_prb_is_18_mhz(self):
        band = occupied_band(LteSettings(n_prb=100, center_offset_mhz=0.0))
        assert band.width_mhz == pytest.approx(18.0)
        assert band.center_mhz == 0.0

    def test_6_prb_is_1_08_mhz(self):
        assert occupied_band(LteSettings(n_prb=6)).width_mhz == pytest.approx(1.08)

    def test_offset_band_edges(self):
        band = occupied_band(LteSettings(n_prb=100, center_offset_mhz=20.0))
        assert band.low_mhz == pytest.approx(11.0)
        assert band.high_mhz == pytest.approx(29.0)

    def test_prb_outside_channelization_set_rejected(self):
        with pytest.raises(ValueError):
            LteSettings(n_prb=40)


def lte_on_time_ns(transitions, t_end):
    """Independent integration of the on-time from the transition list."""
    total, last_on = 0, None
    for t, on in transitions:
        if on:
            last_on = t
        elif last_on is not None:
            total += t - last_on
            last_on = None
    if last_on is not None:
        total += t_end - last_on
    return total


class TestScheduleActivity:
    def test_half_duty_on_time_over_ten_seconds(self):
        _, sim = run_sim(make_cfg(duty=0.5), seed=4, include_wifi=False)
        on_ns = lte_on_time_ns(lte_transitions(sim), 10 * NS_PER_S)
        assert 4.5 * NS_PER_S <= on_ns <= 5.5 * NS_PER_S

    def test_full_duty_single_transition(self):
        _, sim = run_sim(make_cfg(duty=1.0), seed=4, include_wifi=False)
        assert lte_transitions(sim) == [(0, True)]
        assert sim.medium.lte_on

    def test_zero_duty_never_transitions(self):
        _, sim = run_sim(make_cfg(duty=0.0), seed=4, include_wifi=False)
        assert lte_transitions(sim) == []

    def test_on_transitions_sit_on_frame_boundaries(self):
        _, sim = run_sim(make_cfg(duty=0.5, duration=30.0), seed=4,
                         include_wifi=False)
        ons = [t for t, on in lte_transitions(sim) if on]
        assert len(ons) > 100
        assert all(t % (10 * NS_PER_MS) == 0 for t in ons)

    def test_alignment_defers_to_next_frame_boundary(self):
        # duty 0.5 over a 145 ms period: on 73 ms (rounded), silent 73 ms
        # (spread 0), so the silence expires at 146 ms and the next on-start
        # must wait for the 150 ms frame boundary.
        cfg = make_cfg(duty=0.5, mean_period_ms=145.0, silent_spread=0.0,
                       duration=0.4)
        _, sim = run_sim(cfg, seed=4, include_wifi=False)
        assert lte_transitions(sim)[:3] == [
            (0, True), (73 * NS_PER_MS, False), (150 * NS_PER_MS, True)]

    def test_schedule_is_independent_of_wifi_presence(self):
        cfg = make_cfg(duty=0.5, duration=5.0)
        _, with_wifi = run_sim(cfg, seed=4, include_wifi=True)
        _, without_wifi = run_sim(cfg, seed=4, include_wifi=False)
        assert lte_transitions(with_wifi) == lte_transitions(without_wifi)

    @settings(max_examples=100, deadline=None)
    @given(power=st.floats(-30.0, 30.0), prb=st.sampled_from(PRB_CHOICES),
           offset=st.floats(-30.0, 30.0), period=st.floats(1.0, 1e4),
           spread=st.floats(0.0, 0.9), align=st.integers(1, 20),
           mcs=st.sampled_from(MCS_RATES), profile=st.sampled_from(sorted(CCA_PRESETS)),
           soft_slope_k=st.sampled_from([0.0, 0.5, 40.0]), trace=st.booleans(),
           seed=st.integers(0, 2**64 - 1))
    def test_duty_zero_ignores_every_other_lte_setting(self, power, prb, offset, period,
                                                       spread, align, mcs, profile,
                                                       soft_slope_k, trace, seed):
        # A sweep's baselines are WiFi-only runs: a silent LTE is no LTE at all.
        lte = LteSettings(duty=0.0, mean_period_ms=period, silent_spread=spread,
                          frame_align_ms=align, n_prb=prb, center_offset_mhz=offset,
                          tx_power_dbm=power)
        cfg = make_cfg(mcs=mcs, profile=profile, soft_slope_k=soft_slope_k, duration=0.3)
        wifi_only = observe(dataclasses.replace(cfg, lte=WIFI_ONLY), seed, trace)
        assert observe(dataclasses.replace(cfg, lte=lte), seed, trace) == wifi_only


def one_draw_at_a_time(cfg, seed, end_ns):
    """The transitions up to ``end_ns`` and the silent stream's end state, from
    one ``draw_silent_duration_ns`` call at each off, in time order."""
    rng = Engine(seed).rng_stream(RNG_LABEL) if 0.0 < cfg.duty < 1.0 else None
    on_ns, align_ns = on_duration_ns(cfg), cfg.frame_align_ms * NS_PER_MS
    times, t = [], 0
    while on_ns and t <= end_ns:
        times.append(t)
        if len(times) % 2:  # an on
            if rng is None:
                break
            t += on_ns
        else:
            t = -(-(t + draw_silent_duration_ns(cfg, rng)) // align_ns) * align_ns
    return times, None if rng is None else rng.bit_generator.state


class TestScheduleAhead:
    @settings(max_examples=150, deadline=None)
    @given(duty=st.sampled_from([0.0, 0.1, 0.5, 0.9, 0.995, 1.0]) | st.floats(0.0, 1.0),
           mean_period_ms=st.sampled_from([2.0, 3.0, 17.0, 150.0, 1e6, 1e300])
           | st.floats(1.0, 1e4),
           spread=st.sampled_from([0.0, 0.5, 0.9]), align_ms=st.sampled_from([1, 10]),
           duration_ms=st.integers(1, 3000), at_transition=st.booleans(),
           pick=st.integers(0, 10**6), seed=st.integers(0, 2**64 - 1))
    def test_block_draws_equal_one_at_a_time_draws(self, duty, mean_period_ms, spread,
                                                   align_ms, duration_ms, at_transition,
                                                   pick, seed):
        try:
            lte = LteSettings(duty=duty, mean_period_ms=mean_period_ms, silent_spread=spread,
                              frame_align_ms=align_ms)
        except ConfigError:
            reject()  # radiates less than 1 ms a period
        end_ns = duration_ms * NS_PER_MS
        if at_transition:  # an on or an off exactly at the run end
            later = [t for t in one_draw_at_a_time(lte, seed, 3 * NS_PER_S)[0] if t > 0]
            end_ns = later[pick % len(later)] if later else end_ns
        cfg = dataclasses.replace(make_cfg(duration=end_ns / NS_PER_S), lte=lte)
        sim = Simulation(cfg, seed=seed, include_wifi=False)
        assert sim.duration_ns == end_ns
        sim.run()
        times, state = one_draw_at_a_time(lte, seed, end_ns)
        assert sim.lte_node.times[:sim.lte_node.passed] == times
        assert (None if sim.lte_node.rng is None else sim.lte_node.rng.bit_generator.state) == state

    @settings(max_examples=200, deadline=None)
    @given(low=st.floats(0.0, 1e300) | st.sampled_from([0.0, 37.5, 0.5]),
           width=st.floats(0.0, 1e300) | st.sampled_from([0.0, 75.0, 1e-300]),
           n=st.integers(1, 40), seed=st.integers(0, 2**64 - 1))
    def test_a_silent_draw_is_uniforms_value_from_one_raw_output(self, low, width, n, seed):
        """``_schedule`` reads each silent period from one raw PCG64 output as
        ``Generator.uniform`` does, to the last bit, and leaves the stream alike."""
        high = low + width
        raw, drawn = (Engine(seed).rng_stream(RNG_LABEL) for _ in range(2))
        values = [low + (high - low) * ((r >> 11) * 2**-53)  # as in LteNode._schedule
                  for r in raw.bit_generator.random_raw(n).tolist()]
        assert values == drawn.uniform(low, high, size=n).tolist()
        assert raw.bit_generator.state == drawn.bit_generator.state


def exact_on_fraction(cfg) -> float:
    """E[on] / E[period] of the schedule, from its distribution in closed form.

    The on time is fixed.  A silent time of s ms (at least 1) comes from the
    uniform's mass in [s - 1/2, s + 1/2), the half-up rounding bin, and gives
    the period ceil((on + s) / align) x align, since every on starts on a frame
    boundary.
    """
    on_ms = on_duration_ns(cfg) // NS_PER_MS
    if cfg.duty in (0.0, 1.0):
        return cfg.duty
    mean_off = (1.0 - cfg.duty) * cfg.mean_period_ms
    low, high = (1.0 - cfg.silent_spread) * mean_off, (1.0 + cfg.silent_spread) * mean_off
    align = cfg.frame_align_ms

    def period_ms(silent_ms):
        return -(-(on_ms + silent_ms) // align) * align

    if high == low:
        return on_ms / period_ms(max(math.floor(low + 0.5), 1))
    mean_period = 0.0
    for s in range(max(math.floor(low + 0.5), 1), math.floor(high + 0.5) + 1):
        bin_low = -math.inf if s == 1 else s - 0.5
        mass = max(0.0, min(s + 0.5, high) - max(bin_low, low)) / (high - low)
        mean_period += mass * period_ms(s)
    return on_ms / mean_period


@pytest.mark.parametrize("duty", [round(0.1 * i, 1) for i in range(11)])
def test_on_fraction_matches_the_closed_form(duty):
    # 20 seeds x 100 s of LTE alone, at each duty of the default sweep.  The
    # mean's tolerance is 4 standard errors of the sample plus the most one
    # run's partial last period can move its fraction.
    cfg = make_cfg(duty=duty, duration=100.0)
    fractions = [Simulation(cfg, seed=seed, include_wifi=False).run().lte_airtime_ns
                 / (100 * NS_PER_S) for seed in range(20)]
    expected = exact_on_fraction(cfg.lte)
    standard_error = float(np.std(fractions, ddof=1)) / math.sqrt(len(fractions))
    lte = cfg.lte
    longest_period_ms = (lte.mean_period_ms * (duty + (1 + lte.silent_spread) * (1 - duty))
                         + lte.frame_align_ms + 1)
    tolerance = 4 * standard_error + longest_period_ms / 100_000
    assert abs(float(np.mean(fractions)) - expected) <= tolerance


class TestConfigValidation:
    def test_duty_out_of_range(self):
        with pytest.raises(ValueError):
            LteSettings(duty=1.3)

    def test_spread_must_be_below_one(self):
        with pytest.raises(ValueError):
            LteSettings(silent_spread=1.0)
