import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coexsim.engine import NS_PER_MS, NS_PER_S, Engine, SchedulingError

from conftest import make_cfg, run_sim, trace_lines


def trace_times(engine):
    """Fire times of the traced events, read back from the trace text."""
    return [int(line.split(" ", 1)[0]) for line in trace_lines(engine)]


class TestScheduleAndDispatch:
    def test_event_at_current_time_dispatches(self):
        engine = Engine(seed=1, trace=True)
        fired = []
        engine.schedule(0, "a", "n", lambda: fired.append(engine.now))
        engine.run_until(10)
        assert fired == [0]

    def test_equal_fire_times_dispatch_in_insertion_order(self):
        engine = Engine(seed=1)
        order = []
        engine.schedule(5, "first", "n", lambda: order.append("first"))
        engine.schedule(5, "second", "n", lambda: order.append("second"))
        engine.schedule(3, "early", "n", lambda: order.append("early"))
        engine.run_until(10)
        assert order == ["early", "first", "second"]

    def test_ten_ms_is_exactly_ten_million_ns(self):
        engine = Engine(seed=1)
        seen = []
        engine.schedule(10 * NS_PER_MS, "t", "n", lambda: seen.append(engine.now))
        engine.run_until(NS_PER_S)
        assert seen == [10_000_000]

    def test_scheduling_in_the_past_is_rejected(self):
        engine = Engine(seed=1)
        engine.schedule(5, "x", "n", lambda: engine.schedule(
            2, "bad", "n", lambda: None))
        with pytest.raises(SchedulingError):
            engine.run_until(10)


class TestCancel:
    def test_cancel_pending_prevents_dispatch(self):
        engine = Engine(seed=1)
        fired = []
        handle = engine.schedule(5, "x", "n", lambda: fired.append(1))
        assert engine.cancel(handle) is True
        engine.run_until(10)
        assert fired == []

    def test_cancel_after_fire_returns_false(self):
        engine = Engine(seed=1)
        handle = engine.schedule(5, "x", "n", lambda: None)
        engine.run_until(10)
        assert engine.cancel(handle) is False

    def test_double_cancel_returns_false(self):
        engine = Engine(seed=1)
        handle = engine.schedule(5, "x", "n", lambda: None)
        assert engine.cancel(handle) is True
        assert engine.cancel(handle) is False


class TestHandlesAfterTheRun:
    @pytest.mark.parametrize("fate", ["fired", "cancelled", "past t_end"])
    def test_a_handle_holds_no_callback_once_the_run_is_over(self, fate):
        engine = Engine(seed=1)
        handle = engine.schedule(20 if fate == "past t_end" else 5, "x", "n", lambda: None)
        if fate == "cancelled":
            engine.cancel(handle)
        engine.run_until(10)
        assert handle.fn is None and not engine._queue
        assert engine.cancel(handle) is False


class TestRunUntil:
    def test_empty_queue_advances_clock(self):
        engine = Engine(seed=1)
        engine.run_until(10 * NS_PER_S)
        assert engine.now == 10 * NS_PER_S

    def test_one_ms_period_gives_ten_thousand_boundaries_in_ten_seconds(self):
        engine = Engine(seed=1)
        count = [0]

        def tick():
            count[0] += 1
            engine.schedule_in(NS_PER_MS, "tick", "n", tick)

        engine.schedule(NS_PER_MS, "tick", "n", tick)
        engine.run_until(10 * NS_PER_S)
        # Fire times 1 ms .. 10_000 ms inclusive (run_until is inclusive).
        assert count[0] == 10_000

    def test_dispatch_order_is_monotone_in_fire_time_then_seq(self):
        engine = Engine(seed=3, trace=True)
        rng = engine.rng_stream("chaos")
        for _ in range(200):
            t = int(rng.integers(0, 1000))
            engine.schedule(t, "e", "n", lambda: None)
        engine.run_until(2000)
        times = trace_times(engine)
        assert len(times) == 200 and times == sorted(times)

    def test_identical_seed_and_config_give_bit_identical_traces(self):
        # Full-run determinism: the strongest form of the trace-order contract.
        hashes = []
        for _ in range(2):
            _, sim = run_sim(make_cfg(duration=1.0), seed=42, trace=True)
            text = "\n".join(trace_lines(sim.engine))
            hashes.append(hashlib.sha256(text.encode()).hexdigest())
        assert hashes[0] == hashes[1]


class TestRngStreams:
    def test_same_seed_and_label_reproduce_draws(self):
        a = Engine(seed=9).rng_stream("lte-silent").uniform(size=1000)
        b = Engine(seed=9).rng_stream("lte-silent").uniform(size=1000)
        assert np.array_equal(a, b)

    def test_distinct_labels_differ(self):
        engine = Engine(seed=9)
        a = engine.rng_stream("lte-silent").uniform(size=1000)
        b = engine.rng_stream("wifi-backoff").uniform(size=1000)
        assert not np.array_equal(a, b)

    def test_seeds_past_64_bits_do_not_alias(self):
        a = Engine(seed=5).rng_stream("lte-silent").uniform(size=1000)
        b = Engine(seed=5 + 2**64).rng_stream("lte-silent").uniform(size=1000)
        assert not np.array_equal(a, b)
        with pytest.raises(ValueError):
            Engine(seed=-1).rng_stream("lte-silent")

    def test_uniform_mean_converges(self):
        draws = Engine(seed=5).rng_stream("check").uniform(size=1_000_000)
        assert abs(draws.mean() - 0.5) < 0.001


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=60))
def test_dispatch_order_property(times):
    engine = Engine(seed=1, trace=True)
    for t in times:
        engine.schedule(t, "e", "n", lambda: None)
    engine.run_until(20_000)
    assert trace_times(engine) == sorted(times)
