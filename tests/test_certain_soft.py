"""Soft-PER stretches whose outcome is certain, stepped as hard-rule stretches.

Under the soft rule a cycle in an LTE state whose odds are each exactly 1.0
or a sure failure ends alike every time, so the step takes it through the
stretch routine that hard-rule stretches take, clean or failing, and moves the
``wifi-decode`` stream on with one ``bit_generator.advance`` by the draws
the cycles would have taken.  The event path still draws every frame, so
comparing the two checks the jump as well as the outcomes.
"""

import dataclasses

from hypothesis import example, given, settings
from hypothesis import strategies as st

from coexsim.engine import Engine
from coexsim.simulation import Simulation, plan
from coexsim.wifi import DcfStation

from conftest import make_cfg
from test_fast_path import assert_paths_agree

# perfbench's traced-soft config: vendor-B defers to this LTE, whose off
# state has soft odds of exactly (1.0, 1.0) at every k >= 1.
TRACED_SOFT = make_cfg(prb=50, lte_power=-16.0, mcs=54, profile="vendor-B", soft_slope_k=2.0)


def ack_fails(cfg):
    """``cfg`` with the LTE far from the receiver and next to the transmitter:
    under it the data decodes and, at k = 40, the ACK surely fails, so a
    cycle takes 1 decode draw."""
    return dataclasses.replace(cfg, radio=dataclasses.replace(
        cfg.radio, gain_lte_to_wifi_rx_db=-150.0, gain_lte_to_wifi_tx_db=-10.0))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), before=st.integers(0, 300), n=st.integers(0, 5000))
@example(seed=0, before=0, n=0)
@example(seed=3, before=7, n=0)
def test_advance_leaves_the_state_uniform_draws_leave(seed, before, n):
    jumped, drawn = (Engine(seed).rng_stream("wifi-decode") for _ in range(2))
    for rng in (jumped, drawn):
        rng.uniform(size=before)
    jumped.bit_generator.advance(n)
    drawn.uniform(size=n)
    assert jumped.bit_generator.state == drawn.bit_generator.state
    assert jumped.uniform(size=3).tolist() == drawn.uniform(size=3).tolist()


def count_certain_stretches(monkeypatch):
    """Count the stretches of soft runs that start in a certain state, by kind."""
    counts = dict.fromkeys(("clean", "frozen", "failing", "one draw"), 0)
    stretch = DcfStation._skip_alike_cycles

    def counted(self, now, horizon, data_ok, ack_ok):
        if self.decode_rng is not None and ack_ok:
            counts["clean"] += 1
            counts["frozen"] += self.pending_k is not None
        elif self.decode_rng is not None:
            counts["failing"] += 1
            counts["one draw"] += data_ok
        return stretch(self, now, horizon, data_ok, ack_ok)

    monkeypatch.setattr(DcfStation, "_skip_alike_cycles", counted)
    return counts


def test_certain_soft_stretches_match_the_event_path(monkeypatch):
    # At k >= 1 the LTE-off state is certain at the testbed geometry; under
    # LTE the odds are certain, certain to fail with 0 or 1 draws, or drawn.
    # An ED threshold of 30 dBm senses no LTE, so stretches run under it.
    # Short periods and run ends anywhere cut stretches; vendor-A at -1 and
    # 12 dBm freezes residuals that the next off stretch resumes.
    counts = count_certain_stretches(monkeypatch)

    @settings(max_examples=300, deadline=None)
    @given(k=st.sampled_from([1.0, 2.0, 40.0]), duty=st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]),
           lte_power=st.sampled_from([-16.0, -1.0, 12.0]), mcs=st.sampled_from([6, 54]),
           profile=st.sampled_from(["vendor-A", "vendor-B"]),
           retry_limit=st.sampled_from([0, 1, 3, 7]), mean_period_ms=st.sampled_from([10, 40]),
           geometry=st.sampled_from(["testbed", "ack fails"]),
           ed_threshold=st.sampled_from([None, 30.0]), duration=st.floats(0.01, 0.25),
           seed=st.integers(0, 2**32))
    @example(k=2.0, duty=0.5, lte_power=-1.0, mcs=54, profile="vendor-A", retry_limit=7,
             mean_period_ms=10, geometry="testbed", ed_threshold=None, duration=0.2,
             seed=1)  # frozen residuals
    @example(k=40.0, duty=0.5, lte_power=12.0, mcs=54, profile="vendor-A", retry_limit=3,
             mean_period_ms=40, geometry="ack fails", ed_threshold=30.0, duration=0.2,
             seed=2)  # 1-draw failures
    @example(k=2.0, duty=0.5, lte_power=-16.0, mcs=6, profile="vendor-A", retry_limit=7,
             mean_period_ms=40, geometry="testbed", ed_threshold=None, duration=0.2,
             seed=3)  # both states certain
    @example(k=40.0, duty=0.5, lte_power=12.0, mcs=54, profile="vendor-B", retry_limit=7,
             mean_period_ms=40, geometry="testbed", ed_threshold=30.0, duration=0.2,
             seed=4)  # 0-draw failures
    def check(k, duty, lte_power, mcs, profile, retry_limit, mean_period_ms, geometry,
              ed_threshold, duration, seed):
        cfg = make_cfg(duty=duty, lte_power=lte_power, mcs=mcs, profile=profile,
                       mean_period_ms=mean_period_ms, duration=duration, soft_slope_k=k,
                       retry_limit=retry_limit, cca_ed_threshold_dbm=ed_threshold)
        if geometry == "ack fails":
            cfg = ack_fails(cfg)
        outcomes = plan(cfg.lte, cfg.wifi, cfg.radio).station["_outcomes"]
        assert any(odds is None for _, _, odds, _ in outcomes)
        assert_paths_agree(cfg, seed)

    check()
    assert counts["clean"] > counts["frozen"] > 0
    assert counts["failing"] - counts["one draw"] > 0 < counts["one draw"]


def test_certain_stretches_draw_no_decode_chunks(monkeypatch):
    # The traced-soft config's stretches all lie in its certain LTE-off
    # state, so none draws decode chunks.  At k = 0.5 the same state's odds
    # fall short of 1.0 by 3e-11, and its stretches draw them.
    calls = []
    drawn = DcfStation._drawn_outcomes

    def counted(self, m, *odds):
        calls.append(self.channel.lte_on)
        return drawn(self, m, *odds)

    monkeypatch.setattr(DcfStation, "_drawn_outcomes", counted)
    for trace in (True, False):
        Simulation(TRACED_SOFT, seed=5, trace=trace).run()
    assert calls == []
    uncertain = dataclasses.replace(TRACED_SOFT, radio=dataclasses.replace(
        TRACED_SOFT.radio, soft_slope_k=0.5))
    for trace in (True, False):
        Simulation(uncertain, seed=5, trace=trace).run()
    assert len(calls) > 100 and not any(calls)  # vendor-B defers: no stretch under LTE
