"""The station's backoff stream against numpy's bounded draw.

``DcfStation`` reads its backoff draws from raw PCG64 outputs
(``wifi.BackoffStream``) instead of calling ``Generator.integers``.  For every
window cw = 2^b - 1 with b <= 32, each k must equal ``integers(0, cw + 1)``
drawn one at a time from a generator with the same seed, whether the station
draws one window at a time (the event path) or reads a chunk of windows (the
step).
"""

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from coexsim.config import ConfigError, RunConfig
from coexsim.engine import Engine
from coexsim.simulation import Simulation
from coexsim.wifi import FAST_FORWARD_CHUNK, BackoffStream

from conftest import make_cfg
from event_path import EventSimulation

LABEL = "wifi-backoff"
# Draws per example: past two refills even when every window is narrow.
DRAWS = 3 * FAST_FORWARD_CHUNK


def oracle_draws(seed, windows):
    rng = Engine(seed).rng_stream(LABEL)
    return [int(rng.integers(0, cw + 1)) for cw in windows]


def stream_draws(seed, windows, chunk, most_words=2 * FAST_FORWARD_CHUNK):
    """Draw the windows in chunks of up to ``chunk`` windows as the step reads
    them, or one at a time for 0, from a first block sized to ``most_words``."""
    stream = BackoffStream(Engine(seed).rng_stream(LABEL), most_words)
    if not chunk:
        return [stream.draw(cw) for cw in windows]
    bits = np.array([cw.bit_length() for cw in windows])
    ks = []
    for i in range(0, len(windows), chunk):
        ks += stream.peek(bits[i:i + chunk]).tolist()
        stream.take(bits[i:i + chunk])
    return ks


# First blocks sized to a short run: one output, one pending high half, a few.
SIZED = (1, 3, 101)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       pattern=st.lists(st.integers(0, 32), min_size=1, max_size=12),
       chunk=st.sampled_from([0, 1, 7, 300, FAST_FORWARD_CHUNK]),
       most_words=st.sampled_from([2 * FAST_FORWARD_CHUNK, *SIZED]))
def test_draws_equal_numpy_bounded_draws(seed, pattern, chunk, most_words):
    # A sized first block is read past: its first refill is a read's, never short.
    windows = [2**b - 1 for b in (pattern * DRAWS)[:DRAWS]]
    assert stream_draws(seed, windows, chunk, most_words) == oracle_draws(seed, windows)


def end_states(most_words=2 * FAST_FORWARD_CHUNK):
    """The generator's state after the same windows are read one at a time and
    in chunks of 5 and of FAST_FORWARD_CHUNK."""
    windows = [2**b - 1 for b in [3, 0, 10, 32, 1] * 2000]
    states = []
    for chunk in (0, 5, FAST_FORWARD_CHUNK):
        rng = Engine(11).rng_stream(LABEL)
        stream = BackoffStream(rng, most_words)
        bits = np.array([cw.bit_length() for cw in windows])
        for start in range(0, len(windows), chunk or 1):
            part = bits[start:start + (chunk or 1)]
            if chunk:
                stream.peek(part)
                stream.take(part)
            else:
                stream.draw(windows[start])
        states.append(rng.bit_generator.state)
    return states


def test_refills_depend_on_the_stream_position_alone():
    # The same windows read one at a time and in chunks leave the generator
    # in the same state, so the step and the events cannot tell apart.
    states = end_states()
    assert states[0] == states[1] == states[2]


@pytest.mark.parametrize("most_words", SIZED)
def test_refills_of_a_sized_stream_depend_on_the_stream_position_alone(most_words):
    # Each read pattern takes every word it reads, so each passes a sized first
    # block once, and the refills after it follow the position as before.
    states = end_states(most_words)
    assert states[0] == states[1] == states[2]


def test_a_short_run_draws_a_block_sized_to_it():
    # A 0.2 s default run takes about 166 words.  Its first block holds one
    # word per shortest cycle (DIFS, data, SIFS and ACK), not FAST_FORWARD_CHUNK
    # outputs, and it never refills.
    sim = Simulation(RunConfig(duration_s=0.2), seed=3)
    sim.run()
    ahead = Engine(3).rng_stream(LABEL).bit_generator.random_raw(FAST_FORWARD_CHUNK).tolist()
    drawn = ahead.index(int(sim.station.rng.bit_generator.random_raw()))  # outputs drawn
    shortest_ns = (34 + 248 + 16 + 28) * 1_000
    assert drawn == -(-(sim.duration_ns // shortest_ns + 2) // 2) < FAST_FORWARD_CHUNK
    assert 150 < sim.station.difs_completed <= 2 * drawn


@settings(max_examples=150, deadline=None)
@given(duty=st.sampled_from([0.0, 0.2, 0.5, 1.0]), lte_power=st.sampled_from([-16.0, 12.0]),
       mcs=st.sampled_from([6, 54]), profile=st.sampled_from(["vendor-A", "vendor-B"]),
       mean_period_ms=st.sampled_from([5, 150]), soft_slope_k=st.sampled_from([0.0, 2.0]),
       ed_threshold=st.sampled_from([None, 30.0]), retry_limit=st.sampled_from([0, 1, 7]),
       slot_us=st.sampled_from([1, 9]), sifs_us=st.sampled_from([0, 16]),
       cw_min=st.sampled_from([0, 1, 15]), payload_bytes=st.sampled_from([1, 1500]),
       ack_bytes=st.sampled_from([0, 14]), duration=st.floats(0.001, 0.3),
       trace=st.booleans(), events=st.booleans(), seed=st.integers(0, 2**32))
def test_a_run_reads_no_word_past_its_first_block(duty, lte_power, mcs, profile,
                                                  mean_period_ms, soft_slope_k, ed_threshold,
                                                  retry_limit, slot_us, sifs_us, cw_min,
                                                  payload_bytes, ack_bytes, duration, trace,
                                                  events, seed):
    # The bound a run sizes its block by holds on the step, the walk and the
    # events alike: a block smaller than a refill is the only one drawn.
    try:
        cfg = make_cfg(duty=duty, lte_power=lte_power, mcs=mcs, profile=profile,
                       mean_period_ms=mean_period_ms, duration=duration,
                       soft_slope_k=soft_slope_k, cca_ed_threshold_dbm=ed_threshold,
                       retry_limit=retry_limit, slot_us=slot_us, sifs_us=sifs_us,
                       cw_min=cw_min, payload_bytes=payload_bytes, ack_bytes=ack_bytes,
                       preamble_us=0, mac_overhead_bytes=0)
    except ConfigError:
        reject()
    blocks = []
    top_up = BackoffStream._top_up

    def counted(stream, *outputs):
        blocks.append(outputs)
        top_up(stream, *outputs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BackoffStream, "_top_up", counted)
        (EventSimulation if events else Simulation)(cfg, seed=seed, trace=trace).run()
    if blocks[0] != (FAST_FORWARD_CHUNK,):
        assert len(blocks) == 1


CYCLE_NS = ((1_000, 7), (300, 1))  # (base_ns, slot_ns) of a prefix's cycles
# Window patterns: one window, and retry ladders of 2 and 7 failures, of 40 (past
# the ladder's top), and of the largest retry limit, which no run wraps.
PERIODS = (1, 2, 7, 40, 2**63 - 1)


def window(ladder, period, phase, j):
    """The bits of cycle j of a stretch over a window pattern, as the station's
    ladder gives them: ``ladder[min((phase + j) % period, top)]``."""
    return ladder[min((phase + j) % period, len(ladder) - 1)]


def ladders():
    """Retry ladders as a plan builds them: windows of ``bottom`` bits, one bit
    wider after each failure up to ``top`` (0 to 32)."""
    return st.integers(0, 32).flatmap(
        lambda top: st.integers(0, top).map(lambda bottom: tuple(range(bottom, top + 1))))


def stretch_ops():
    """Reads of a stretch of cycles, as (span in cycles of mean length at their
    windows, most per prefix, cycle lengths, pattern period, phase), between single draws of
    any window (bits 0 to 32), which may leave a high half pending."""
    stretch = st.tuples(st.integers(0, 5000),
                        st.sampled_from([1, 7, 300, FAST_FORWARD_CHUNK]),
                        st.sampled_from(CYCLE_NS), st.sampled_from(PERIODS),
                        st.integers(0, 10**6))
    return st.lists(stretch | st.integers(0, 32), min_size=1, max_size=12)


def counting_words(stream):
    """Count the words a stream takes from here on, in a one-item list."""
    taken, skip = [0], stream.skip

    def counted(words):
        taken[0] += words
        skip(words)

    stream.skip = counted
    return taken


C0, C1 = CYCLE_NS
EXAMPLE_OPS = [(20, 300, C0, 1, 0), 3, 7, (20, 7, C0, 1, 0), (20, 7, C1, 1, 0),
               (5000, FAST_FORWARD_CHUNK, C0, 1, 0), 1, (20, 7, C0, 1, 0)]
# Ladder patterns from several phases, before and across a refill; the last one's
# phase is past the ladder's top.
LADDER_OPS = [(20, 300, C0, 7, 0), 3, (20, 7, C0, 7, 5), (40, 7, C1, 2, 1),
              (5000, FAST_FORWARD_CHUNK, C1, 7, 6), (5000, FAST_FORWARD_CHUNK, C1, 40, 39), 1,
              (20, 7, C0, 2**63 - 1, 30)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), ladder=ladders(), ops=stretch_ops(),
       traced=st.booleans())
# The draws of 3 and 7 bits leave a high half pending before the second stretch.
# Untraced too: the 7-cycle prefixes and the first 4,096-cycle one all fit, and a
# zero window's cycles take no word.
@example(seed=5, ladder=(4,), ops=EXAMPLE_OPS, traced=True)
@example(seed=5, ladder=(4,), ops=EXAMPLE_OPS, traced=False)
@example(seed=5, ladder=(0,), ops=EXAMPLE_OPS, traced=False)
# A ladder from 15 to 1,023, and one from a zero window, which takes no word.
@example(seed=5, ladder=tuple(range(4, 11)), ops=LADDER_OPS, traced=True)
@example(seed=5, ladder=tuple(range(4, 11)), ops=LADDER_OPS, traced=False)
@example(seed=5, ladder=tuple(range(0, 11)), ops=LADDER_OPS, traced=True)
@example(seed=5, ladder=tuple(range(0, 11)), ops=LADDER_OPS, traced=False)
def test_prefix_equals_cycles_of_single_draws(seed, ladder, ops, traced):
    read = BackoffStream(Engine(seed).rng_stream(LABEL))
    single = BackoffStream(Engine(seed).rng_stream(LABEL))
    read_words, single_words = counting_words(read), counting_words(single)
    bits = np.array(ladder)
    for op in ops:
        if isinstance(op, int):
            assert read.draw(2**op - 1) == single.draw(2**op - 1)
            continue
        cycles, most, (base_ns, slot_ns), period, phase = op
        phase %= period
        span_ns = int(sum(base_ns + (2**window(ladder, period, phase, j) - 1) / 2 * slot_ns
                          for j in range(cycles))) + 1
        more = True
        while more:  # as the station reads it, one prefix after another
            n, length, more, prefix = read.stretch(bits, period, phase, base_ns, slot_ns,
                                                   span_ns, most, traced)
            lengths = [base_ns + single.draw(2**window(ladder, period, phase, j) - 1) * slot_ns
                       for j in range(n)]
            assert np.diff(prefix).tolist() == lengths if traced else prefix is None
            assert type(n) is type(length) is int and length == sum(lengths)
            assert read_words == single_words
            span_ns -= length
            phase = (phase + n) % period
            assert span_ns > 0
        # The stretch stopped at the first cycle that does not end before the span.
        cw = 2**window(ladder, period, phase, 0) - 1
        k = single.draw(cw)
        assert read.draw(cw) == k and base_ns + k * slot_ns >= span_ns
    assert read.rng.bit_generator.state == single.rng.bit_generator.state


@pytest.mark.parametrize("ladder,period,phase", [((0,), 1, 0), ((5,), 1, 0), ((32,), 1, 0),
                                                 ((0, 1, 2, 3), 7, 5)],
                         ids=["0", "5", "32", "ladder 0-3, period 7, phase 5"])
def test_a_cycle_that_ends_at_the_span_is_left(ladder, period, phase):
    base_ns, slot_ns = CYCLE_NS[0]
    single = BackoffStream(Engine(3).rng_stream(LABEL))
    ends = np.cumsum([base_ns + single.draw(2**window(ladder, period, phase, j) - 1) * slot_ns
                      for j in range(10)])
    read = BackoffStream(Engine(3).rng_stream(LABEL))
    bits = np.array(ladder)
    n, length, more, prefix = read.stretch(bits, period, phase, base_ns, slot_ns,
                                           int(ends[-1]), 100, True)
    assert (prefix - prefix[0]).tolist() == [0, *ends[:-1].tolist()] and not more
    assert (n, length) == (9, ends[-2])
    # Untraced, it reads the same cycles and builds no slice of the prefix.  Ten
    # cycles at most: the tenth ends at the span, so they do not all fit.  Nine
    # at most all fit: the prefix runs out before the span does.
    for most, goes_on in ((100, False), (10, False), (9, True)):
        untraced = BackoffStream(Engine(3).rng_stream(LABEL))
        assert untraced.stretch(bits, period, phase, base_ns, slot_ns, int(ends[-1]), most) == (
            n, length, goes_on, None)
