"""802.11 DCF saturated station pair: MAC timing, CCA profiles, backoff state machine.

One transmitter, one receiver, fixed MCS, always a 1500-byte payload queued.
The only contender is the duty-cycled LTE node, seen through energy-detect
carrier sensing (profile-dependent) and through SINR at decode time.
"""

from __future__ import annotations

import bisect
import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .engine import Engine, trace_line
from .radio import SpectrumBand, overlap_fraction, packet_outcome

if TYPE_CHECKING:
    from .config import WifiSettings

# Legacy OFDM rates: label (Mbps) -> data bits per 4 us symbol.
BITS_PER_SYMBOL = {6: 24, 9: 36, 12: 48, 18: 72, 24: 96, 36: 144, 48: 192, 54: 216}
MCS_RATES = tuple(sorted(BITS_PER_SYMBOL))
BASIC_RATES = (6, 12, 24)
MEASURE_BANDS = ("full20", "primary10")  # CCA spans: the 20 MHz channel, its center 10 MHz
SERVICE_TAIL_BITS = 16 + 6
BACKOFF_LABEL, DECODE_LABEL = "wifi-backoff", "wifi-decode"  # the station's RNG streams
# Most DCF cycles one vectorised chunk of the step covers, and one backoff
# prefix sums: bounds the arrays they build and so the step's int64 ns sums.
FAST_FORWARD_CHUNK = 4096
# The trace lines of a stepped cycle, one "%" template per shape, indexed by
# 3 * (k > 0) + outcome: 0 the ACK decoded, 1 only the data decoded (contention
# resumes a slot later), 2 the data did not decode (the ACK times out).
CYCLE_TEMPLATES = tuple(
    "%d difs-end wifi-tx\n" + backoff + "%d tx-end wifi-tx\n%d " + end + " wifi-tx\n"
    for backoff in ("", "%d backoff-slot wifi-tx k=%d\n")
    for end in ("ack-result", "ack-result wifi-tx\n%d cca-sample", "ack-timeout"))


class CcaProfile(NamedTuple):
    """Vendor carrier-sensing behavior.

    measure_band (one of MEASURE_BANDS) selects the span over which non-WiFi
    energy is integrated: the full 20 MHz channel or a 10 MHz sub-band
    centered on the carrier.  mid_packet_abort=True freezes the backoff
    countdown the instant energy appears (the in-progress slot is voided);
    False lets the in-progress slot complete and decrement at its boundary,
    so the station reacts (and may even transmit) only at slot boundaries.
    """

    ed_threshold_dbm: float
    measure_band: str
    mid_packet_abort: bool


# The sensed LTE level at the testbed geometry spans -47.4 dBm (-16 dBm LTE)
# to -19.4 dBm (+12 dBm).  vendor-A's threshold splits that range: low-power
# LTE is invisible to carrier sensing (collisions decide), -6 dBm and above
# defers.  vendor-B integrates over the centered 10 MHz sub-band, where the
# sensed level varies with occupied bandwidth (-47.4 dBm at <= 50 PRB down to
# -49.9 dBm at 100 PRB), so its busy decision flips across the PRB grid.
CCA_PRESETS = {
    "vendor-A": CcaProfile(ed_threshold_dbm=-40.0, measure_band="full20",
                           mid_packet_abort=True),
    "vendor-B": CcaProfile(ed_threshold_dbm=-48.0, measure_band="primary10",
                           mid_packet_abort=False),
}


def frame_airtime_us(mcs_mbps: int, payload_bytes: int, params: WifiSettings) -> int:
    """PPDU airtime: preamble + 4 us OFDM symbols covering service/tail/MAC/payload."""
    if payload_bytes <= 0:
        raise ValueError("payload_bytes must be positive")
    bits = SERVICE_TAIL_BITS + 8 * (payload_bytes + params.mac_overhead_bytes)
    return params.preamble_us + 4 * -(-bits // BITS_PER_SYMBOL[mcs_mbps])


def ack_rate_mbps(data_rate_mbps: int, params: WifiSettings) -> int:
    """Highest basic rate not exceeding min(data rate, control rate), each at least 6 Mbps."""
    cap = min(data_rate_mbps, params.control_rate_mbps)
    return max(r for r in BASIC_RATES if r <= cap)


def ack_airtime_us(data_rate_mbps: int, params: WifiSettings) -> int:
    rate = ack_rate_mbps(data_rate_mbps, params)
    bits = SERVICE_TAIL_BITS + 8 * params.ack_bytes
    return params.preamble_us + 4 * -(-bits // BITS_PER_SYMBOL[rate])


def analytic_goodput_mbps(mcs_mbps: int, payload_bytes: int,
                          params: WifiSettings) -> float:
    """Exact-expectation single-station DCF goodput on an always-idle channel.

    Per-packet cycle: DIFS + E[backoff] x slot + data + SIFS + ACK, with
    E[backoff] = cw_min / 2 over the uniform {0..cw_min} draw.  This is the
    independent oracle the event-driven path is validated against.
    """
    cycle_us = (params.difs_us
                + params.cw_min / 2.0 * params.slot_us
                + frame_airtime_us(mcs_mbps, payload_bytes, params)
                + params.sifs_us
                + ack_airtime_us(mcs_mbps, params))
    return payload_bytes * 8.0 / cycle_us


def cca_busy(profile: CcaProfile, lte_power_at_sensor_dbm: float, lte_band: SpectrumBand,
             wifi_band: SpectrumBand, oob_floor_dbc: float = -30.0) -> bool:
    """Energy-detect decision on a radiating LTE node: its integrated energy in
    the measured band against the profile's threshold.

    ``lte_power_at_sensor_dbm`` is the total LTE power arriving at the
    sensing antenna.
    """
    if profile.measure_band == "full20":
        measured = wifi_band
    else:
        measured = SpectrumBand(wifi_band.center_mhz, 10.0)
    in_band_dbm = lte_power_at_sensor_dbm + 10.0 * math.log10(
        overlap_fraction(lte_band, measured, oob_floor_dbc))
    return in_band_dbm >= profile.ed_threshold_dbm


def _cycle_sums(ks: np.ndarray, base_ns: int, slot_ns: int) -> memoryview:
    """The int64 prefix sum from 0 of cycles of ``base_ns`` plus ``ks`` slots, summed
    in place, as a memoryview: bisect searches its Python ints without numpy calls."""
    ks *= slot_ns
    ks += base_ns
    return memoryview(np.concatenate(([0], ks.cumsum())))


class BackoffStream:
    """Backoff draws equal to ``rng.integers(0, cw + 1)`` drawn one at a time,
    for windows cw = 2^b - 1 with b <= 32, read from the generator's raw
    64-bit outputs.

    numpy splits an output into two 32-bit words, low half first, and keeps
    the high half pending for the next 32-bit draw.  Over 2^b values its
    bounded (Lemire) draw never rejects, so a window of 1 <= b <= 32 bits
    takes the next word's top b bits and b = 0 takes nothing.  The outputs
    are drawn in blocks, refilled as a function of the stream position
    alone, so per-window draws and chunked reads leave the generator alike.
    The first block holds only the ``most_words`` its reader can read, up to
    FAST_FORWARD_CHUNK outputs; a read past it refills, and is never short.

    ``stretch`` reads a run of cycles from an int64 prefix sum of their
    lengths, at one window or at a retry ladder's windows from a phase.
    """

    # Unsplit outputs kept after every draw (the words of a whole step chunk);
    # a refill adds FAST_FORWARD_CHUNK outputs.
    RESERVE = FAST_FORWARD_CHUNK // 2

    def __init__(self, rng: np.random.Generator, most_words: int = 2 * FAST_FORWARD_CHUNK) -> None:
        self.rng = rng
        self._raw = ()  # the outputs drawn and not wholly spent, none yet
        self._w = 0  # next word; odd while a high half is pending
        self._top_up(min(-(-most_words // 2), FAST_FORWARD_CHUNK))

    def draw(self, cw: int) -> int:
        bits = cw.bit_length()
        k = self.peek_one(bits)
        self.skip(bits > 0)
        return k

    def peek(self, bits: np.ndarray) -> np.ndarray:
        """The next draws for up to FAST_FORWARD_CHUNK windows of these bit
        counts, each at most 32, without taking them."""
        if self._w + len(bits) > len(self._words):
            self._top_up()
        w = self._w
        if np.count_nonzero(bits) == len(bits):
            words = self._words[w:w + len(bits)]
        else:  # a zero window reads the next word and shifts all of it away
            takes = bits > 0
            words = self._words[w + np.cumsum(takes) - takes]
        return words >> (32 - bits)

    def peek_one(self, bits: int) -> int:
        """The next draw for a window of ``bits``, 0 to 32, without taking it."""
        if self._w >= len(self._words):  # before the words: a refill replaces them
            self._top_up()
        return self._words.item(self._w) >> (32 - bits)

    def take(self, bits: np.ndarray) -> None:
        """Take the draws of windows of these bit counts (each at most 32)."""
        self.skip(int(np.count_nonzero(bits)))

    def skip(self, words: int) -> None:
        """Take this many words."""
        self._w += words
        if self._w > self._limit:
            self._top_up()

    def stretch(self, ladder: np.ndarray, period: int, phase: int, base_ns: int, slot_ns: int,
                span_ns: int, most: int, traced: bool = False):
        """Take the draws of the next cycles that end before ``span_ns``, as far as the
        prefix reaches: one built here sums at most ``most`` cycles.  Cycle j is
        ``base_ns`` plus k slots for a window of ``ladder[min((phase + j) % period,
        top)]`` bits (0 to 32).  Returns how many cycles that is and their length,
        as Python ints, whether the prefix ran out before the span did, and for
        traced lines the prefix from the sum before them."""
        if self._w + most > len(self._words):
            self._top_up()
        w, prefix, bits = self._w, self._prefix, ladder.item(0)
        if period > 1:  # a ladder's windows: a prefix for this read alone
            bits = ladder[np.minimum(np.arange(phase, phase + most) % period, len(ladder) - 1)]
            prefix, i = _cycle_sums(self.peek(bits), base_ns, slot_ns), 0
        else:  # one window: its prefix is kept until a refill rewrites the words
            key = (bits, base_ns, slot_ns)
            if prefix is None or key != self._key or w - self._at >= len(prefix) - 1:
                # int64 before the shift: a zero window shifts all 32 bits away.
                ks = self._words[w:w + most].astype(np.int64) >> (32 - bits)
                self._prefix, self._key, self._at = _cycle_sums(ks, base_ns, slot_ns), key, w
            prefix, i = self._prefix, w - self._at
        start = prefix[i]
        end = bisect.bisect_left(prefix, start + span_ns, i)
        n = end - 1 - i
        self.skip(n * (bits > 0) if period == 1 else int(np.count_nonzero(bits[:n])))
        return n, prefix[end - 1] - start, end == len(prefix), prefix.obj[i:end] if traced else None

    def _top_up(self, outputs: int = FAST_FORWARD_CHUNK) -> None:
        start = self._w // 2  # the first output not wholly spent
        # Little-endian on any host, so the words split each output low half first.
        raw = self.rng.bit_generator.random_raw(outputs).astype("<u8", copy=False)
        self._raw = np.concatenate((self._raw[start:], raw)) if len(self._raw) else raw
        self._words = self._raw.view("<u4")
        self._w -= 2 * start
        self._prefix = None
        # RESERVE outputs lie past the next unsplit one while _w <= _limit.  A
        # smaller first block holds all its reader reads: no position refills it.
        self._limit = 2 * (len(self._raw) - self.RESERVE * (outputs == FAST_FORWARD_CHUNK))


class DcfStation:
    """Saturated DCF transmitter driving the engine; its peer only sends ACKs.

    States: blocked (medium busy, optional residual counter), difs, backoff,
    tx, ack.  Standard DCF: idle DIFS, uniform backoff in [0, cw], freeze
    while the medium is busy, binary exponential backoff on failure, drop and
    reset after retry_limit consecutive failures.

    Every run fast-forwards: each contention that starts on an idle medium
    first advances, in one step, every whole cycle that ends before the
    medium next changes (``_skip_whole_cycles``): a stretch whose cycles all
    end alike by a prefix search, one whose decodes are drawn in NumPy
    chunks.  An untraced run's LTE that the station neither defers to nor
    decodes differently under is no change, and every run settles the cycle
    that crosses an LTE transition in closed form and steps on, period after
    period, to the cycle the run end cuts, which it settles too
    (``_walk_edge``).  Counters, airtime, RNG streams and trace lines end
    exactly where the event path leaves them; a cycle that crosses a change
    the closed form leaves alone runs on events from its DIFS.
    """

    name = "wifi-tx"

    def __init__(self, engine: Engine, channel, constants: dict, acc) -> None:
        vars(self).update(constants)  # payload, timings, thresholds, cw ladder, outcomes
        self.engine, self.channel, self.acc = engine, channel, acc
        self.rng = engine.rng_stream(BACKOFF_LABEL)
        # A word at most per cycle, none shorter than DIFS, data, SIFS and ACK; 2 for peeks.
        self.backoff = BackoffStream(self.rng, channel.end_ns // self.shortest_cycle_ns + 2)
        # The hard PER rule decodes without drawing, so it gets no decode stream.
        self.decode_rng = engine.rng_stream(DECODE_LABEL) if self.slope_k != 0.0 else None
        # Traced lines must interleave with the LTE node's in order.
        self._feels_lte = engine.trace is not None or self._feels_lte_untraced

        self.state = "blocked"
        self.cw = self._cw_ladder[0]
        self.consecutive_failures = 0
        self.pending_k: int | None = None  # residual backoff surviving a freeze
        self._event = None
        self._backoff_k = self._backoff_t0 = self._tx_start = 0
        self._ack_window: tuple[int, int] | None = None
        self._at_end = ""  # trace lines the walk settled at the run end

        self.difs_completed = self.backoff_slots_elapsed = 0
        self.data_decode_failures = self.ack_decode_failures = 0

    def start(self) -> None:
        """Contend from the first idle instant, 0 or the first LTE-off for a station that
        defers (none at duty 1), with the transitions up to it counted and, traced, their
        lines and the start line.  A start after 0 is an event with no kind."""
        lte, times, end = self.channel.lte, self.channel.lte.times, self.channel.end_ns
        t = (times[1:2] or [end + 1])[0] if self.channel.defer_to_lte and times else 0
        lte.passed = bisect.bisect_right(times, min(t, end))
        if (trace := self.engine.trace) is not None:
            off = trace_line(t, "lte-off", lte.name, "") * (lte.passed == 2)
            trace.append(trace_line(0, "lte-on", lte.name, "") * bool(times)
                         + trace_line(0, "cca-sample", self.name, "start") + off * (t < end))
            self._at_end = off * (t == end)  # after the run-end line
        if t == 0 and self._skip_whole_cycles(0) == 0:
            lte.arm(self)  # as the LTE-on at 0 would, before the station's events
            self._start_difs()
        elif 0 < t < end:
            self.engine.schedule(t, "", self.name, self._begin_contention)

    # -- contention ---------------------------------------------------------

    def _begin_contention(self) -> None:
        if self.channel.busy:
            self.state = "blocked"
            return
        now = self.engine.now
        if self._skip_whole_cycles(now) == now:
            self._start_difs()
            self.channel.lte.arm(self)

    def _start_difs(self) -> None:
        self.state = "difs"
        self._event = self.engine.schedule(self.engine.now + self.difs_ns, "difs-end",
                                           self.name, self._difs_end)

    def _difs_end(self) -> None:
        """Count the DIFS and take its backoff: a frozen residual, or a fresh draw
        (``rng.integers(0, cw + 1)``'s value, from the words the step reads)."""
        self.difs_completed += 1
        k, self.pending_k = self.pending_k, None
        if k is None:
            k = self.backoff.draw(self.cw)
        if k == 0:
            self._start_tx()
            return
        self.state = "backoff"
        self._backoff_k, self._backoff_t0 = k, self.engine.now
        self._event = self.engine.schedule(self._backoff_t0 + k * self.slot_ns, "backoff-slot",
                                           self.name, self._backoff_done, f"k={k}")

    def _backoff_done(self) -> None:
        self.backoff_slots_elapsed += self._backoff_k
        self._start_tx()

    # -- transmission and acknowledgment ------------------------------------

    def _start_tx(self) -> None:
        self.state = "tx"
        self.acc.attempts += 1
        self._tx_start = self.engine.now
        self._event = self.engine.schedule(self._tx_start + self.data_air_ns, "tx-end",
                                           self.name, self._tx_end)

    def _tx_end(self) -> None:
        now = self.engine.now
        data_ok = self._data_decodes(self._tx_start, now)
        ack_start = now + self.sifs_ns
        ack_end = ack_start + self.ack_air_ns
        self.state = "ack"
        if data_ok:
            # The receiver answers SIFS after the data, carrier sense exempt.
            self._ack_window = (ack_start, ack_end)
            self._event = self.engine.schedule(ack_end, "ack-result", self.name,
                                               self._ack_result)
        else:  # _ack_window is None from the last _ack_result
            self._event = self.engine.schedule(ack_end + self.slot_ns, "ack-timeout",
                                               self.name, self._ack_timeout)

    def _data_decodes(self, t0: int, t1: int) -> bool:
        """Decode a data frame over [t0, t1): under the hard rule, from the verdicts
        of the LTE states it spans."""
        channel = self.channel
        ok = (channel.clears(t0, t1, self._data_clears) if self.decode_rng is None else
              packet_outcome(self.data_threshold_db, self.slope_k,
                             channel._window(t0, t1, channel.sinr_rx), self.decode_rng))
        self.data_decode_failures += not ok
        return ok

    def _ack_decodes(self, t0: int, t1: int) -> bool:
        """Decode an ACK over [t0, t1)."""
        channel = self.channel
        ok = (channel.clears(t0, t1, self._ack_clears) if self.decode_rng is None else
              packet_outcome(self.ack_threshold_db, self.slope_k,
                             channel._window(t0, t1, channel.sinr_tx), self.decode_rng))
        self.ack_decode_failures += not ok
        return ok

    def _ack_result(self) -> None:
        window, self._ack_window = self._ack_window, None
        ok = self._ack_decodes(*window)
        self._count(ok)
        if ok:
            self._begin_contention()
        else:
            self._event = self.engine.schedule(self.engine.now + self.slot_ns, "cca-sample",
                                               self.name, self._begin_contention)

    def _ack_timeout(self) -> None:
        self._count(False)
        self._begin_contention()

    def _count(self, delivered: bool) -> None:
        """Count a cycle's end: a delivery resets cw, a failure climbs or drops."""
        if delivered:
            self.acc.delivered_payload_bytes += self.payload_bytes
            self.consecutive_failures = 0
        else:
            self.acc.failures += 1
            self.consecutive_failures += 1
            if self.consecutive_failures >= self._retry_period:  # max(retry_limit, 1)
                self.acc.drops += 1
                self.consecutive_failures = 0
        self.cw = self._cw_ladder[min(self.consecutive_failures, len(self._cw_ladder) - 1)]

    # -- fast-forward ---------------------------------------------------------

    def _skip_whole_cycles(self, now: int) -> int:
        """Advance every whole cycle that ends before the medium next changes,
        and leave the rest to the events.

        A cycle is DIFS, backoff, data, SIFS, then the ACK, plus one slot (ACK
        timeout, or the resume after an undecoded ACK) if it failed.  Until the
        next LTE transition or the run end the SINR at both ends is constant,
        and an LTE that ``_feels_lte`` rules out changes nothing.  Under the
        hard PER rule, when the data cannot decode, or under soft odds that
        are each 0 or 1, every cycle then has the same outcome, and the cycles
        differ only in their backoff draws: ``_skip_alike_cycles`` takes such
        a stretch, ``_skip_chunks`` drawn odds.  A soft run's decode stream
        then jumps past the draws those cycles take.

        The step walks on: ``_walk_edge`` settles the cycle that crosses a
        transition, and the step goes on from where contention resumes, up to
        the cycle the run end cuts, which ``_walk_edge`` settles too, or to
        the first edge it leaves to the events.  The LTE node counts the
        transitions passed (all up to the run end once the station is done).
        Each stretch and each walked edge writes its own trace lines.  At an
        edge left to the events the node arms, and the step schedules the next
        contention where its last whole cycle ends, as an event with no kind
        that writes no line, if it advanced (else its caller arms the node).
        Returns the time the station advanced to: ``now`` if it did not, the
        run end if it reached it, after which it schedules nothing.
        """
        start = t = now
        lte, end = self.channel.lte, self.channel.end_ns
        times = lte.times if self._feels_lte else ()
        while now is not None and now < end:  # None: an edge left to the events
            i = lte.passed  # the next LTE transition bounds the step if the station feels it
            horizon = min(times[i], end) if i < len(times) else end
            data_ok, ack_ok, odds, draws = self._outcomes[i % 2]
            cycles = self.difs_completed
            t = (self._skip_chunks(now, horizon, odds) if odds else
                 self._skip_alike_cycles(now, horizon, data_ok, ack_ok))
            if draws:  # certain soft odds: skip the decode draws the cycles took
                self.decode_rng.bit_generator.advance(draws * (self.difs_completed - cycles))
            now = self._walk_edge(t, horizon)
        if now is None and t > start:
            lte.arm(self)
            self._event = self.engine.schedule(t, "", self.name, self._start_difs)
        return t if now is None else end

    def _skip_chunks(self, now: int, horizon: int, odds) -> int:
        """Advance the whole cycles of a stretch under drawn soft odds, in NumPy chunks.

        Each cycle draws its data outcome and, if that decoded, its ACK outcome
        against the odds.  A chunk's backoff draws are one slice and shift of
        the words ``_difs_end`` would read (none for a frozen residual), and its
        decode draws one ``uniform`` call of 2m, one PCG64 output each, which a
        negative ``advance`` rewinds to those the cycles that fit used, all 2m
        if none fits: both streams end where per-cycle draws leave them.  A
        traced run gets the events' lines.  Returns the end of the last whole cycle.
        """
        top, period, trace = len(self._cw_ladder) - 1, self._retry_period, self.engine.trace
        base_ns, tail_ns = self.shortest_cycle_ns, self.shortest_cycle_ns - self.difs_ns
        while True:
            m = min((horizon - 1 - now) // base_ns, FAST_FORWARD_CHUNK)
            if m <= 0:  # below 0 for a transition at the run end
                break
            data, ok, used = self._drawn_outcomes(m, *odds)
            # Failures before each cycle: since the last success, or the start and those before.
            i, failed, start = np.arange(m), ~ok, -1 - self.consecutive_failures
            last_ok = np.concatenate(([start], np.maximum.accumulate(np.where(ok, i, start))[:-1]))
            failures_before = (i - last_ok - 1) % period
            bits = self._ladder_bits[np.minimum(failures_before, top)]
            frozen = self.pending_k
            if frozen is not None:  # the first cycle resumes it and takes no word
                bits[0] = 0
            ks = self.backoff.peek(bits)
            if frozen is not None:
                ks[0] = frozen
            ends = now + np.cumsum(ks * self.slot_ns + (base_ns + failed * self.slot_ns))
            n = int(np.searchsorted(ends, horizon))  # cycles ending before it
            self.decode_rng.bit_generator.advance((int(used[n - 1]) if n else 0) - 2 * m)
            if n == 0:
                break
            ks, bits, data, ok, failed = ks[:n], bits[:n], data[:n], ok[:n], failed[:n]
            failures_before, ends = failures_before[:n], ends[:n]
            self.backoff.take(bits)
            self.pending_k = None
            delivered = int(np.count_nonzero(ok))
            undecoded = n - int(np.count_nonzero(data))

            if trace is not None:
                self._trace_cycles(trace, ends, ends - (tail_ns + failed * self.slot_ns), ks,
                                   data, ok)
            self.acc.drops += int(np.count_nonzero(failed & (failures_before + 1 == period)))
            self.acc.attempts += n
            self.acc.delivered_payload_bytes += delivered * self.payload_bytes
            self.acc.failures += n - delivered
            self.difs_completed += n
            self.backoff_slots_elapsed += int(ks.sum())
            self.data_decode_failures += undecoded
            self.ack_decode_failures += n - delivered - undecoded
            self.consecutive_failures = 0 if ok[-1] else (int(failures_before[-1]) + 1) % period
            self.cw = self._cw_ladder[min(self.consecutive_failures, top)]
            now = int(ends[-1])
            if n < m:
                break
        return now

    def _skip_alike_cycles(self, now: int, horizon: int, data_ok: bool, ack_ok: bool) -> int:
        """``_skip_whole_cycles`` for a stretch whose cycles all end alike: each
        delivered (clean), or each failed, a slot longer.

        The first cycle resumes a frozen residual or draws at the current
        window, read here.  Cycle j after it draws at the ladder's window for
        (f0 + j) mod R failures, f0 the failures before the stretch and R 1 if
        clean, else ``max(retry_limit, 1)``, as a drop restarts the count.  So
        one prefix search of the backoff stream gives how many cycles fit and
        their slots, and the counts follow in closed form.  Traces and returns
        what ``_skip_chunks`` does, a prefix at a time."""
        stream, slot_ns, frozen = self.backoff, self.slot_ns, self.pending_k
        cycle_ns = self.shortest_cycle_ns + (not ack_ok) * slot_ns  # DIFS, data, SIFS, ACK, a slot
        k = stream.peek_one(self.cw.bit_length()) if frozen is None else frozen
        if (t := now + cycle_ns + k * slot_ns) >= horizon:
            return now
        stream.skip(frozen is None and self.cw > 0)
        self.pending_k = None
        # A prefix sums the cycles that can end before its reach, plus one: one window's is kept,
        # so it reaches the run end; a ladder's the horizon.
        period, reach = (1, self.channel.end_ns) if ack_ok else (self._retry_period, horizon)
        f0, trace, first, cycles, more = self.consecutive_failures, self.engine.trace, True, 1, True
        while more:
            n, span_ns, more, prefix = stream.stretch(
                self._ladder_bits, period, (f0 + cycles) % period, cycle_ns, slot_ns, horizon - t,
                min(FAST_FORWARD_CHUNK, (reach - t) // cycle_ns + 1), trace is not None)
            if trace is not None and (first or n):
                bounds = t + (prefix - prefix[0])  # where these cycles start and end
                if first:  # the first cycle is traced with the first prefix
                    bounds, first = np.concatenate(([now], bounds)), False
                ends, ok = bounds[1:], np.full(len(bounds) - 1, ack_ok)
                self._trace_cycles(trace, ends, ends - (cycle_ns - self.difs_ns),
                                   (np.diff(bounds) - cycle_ns) // slot_ns, ok | data_ok, ok)
            cycles += n
            t += span_ns
        self.acc.attempts += cycles
        self.difs_completed += cycles
        self.backoff_slots_elapsed += (t - now - cycles * cycle_ns) // slot_ns
        if ack_ok:
            self.acc.delivered_payload_bytes += cycles * self.payload_bytes
        else:
            self.acc.failures += cycles
            self.acc.drops += (f0 + cycles) // period - f0 // period  # each wrap of the count
            self.data_decode_failures += cycles * (not data_ok)
            self.ack_decode_failures += cycles * data_ok
        self.consecutive_failures = (f0 + cycles) % period  # 0 if clean: period 1
        self.cw = self._cw_ladder[min(self.consecutive_failures, len(self._cw_ladder) - 1)]
        return t

    def _walk_edge(self, t: int, horizon: int) -> int | None:
        """Settle the cycle from ``t`` that crosses the LTE transition at
        ``horizon``, or that the run end at ``horizon`` cuts, as its events
        would; return when contention next starts, at or past the run end
        once the station is done.

        A deferring station is blocked from that LTE-on to the next LTE-off.
        The onset cuts its DIFS short, freezes its backoff (at once under
        mid-packet abort or on a slot boundary, else at the next one), or
        finds a frame in flight or in vendor-B's last slot.  A station that
        does not defer contends again where the cycle ends.  The word peeked
        is taken, a frame decodes over the LTE states it spans, and its ACK or
        timeout, retry ladder and drop are counted as the events count them,
        each only if it falls at or before the run end; a frame or an ACK
        still in the air there is left for ``flush``.  A traced run gets the
        lines of the cycle's events and of the transitions passed, a last one on
        the run end too, in time order; ``flush`` writes those at the run end.
        Returns None, changing nothing, for an edge left to the events: a
        station event on the transition, or on the run end with a transition
        there, a last event at or past the next transition before the run
        end, or a resume whose DIFS would end on the next transition.
        """
        channel, slot, defer = self.channel, self.slot_ns, self.channel.defer_to_lte
        times, i, end = channel.lte.times, channel.lte.passed, channel.end_ns
        edge = horizon < end or self._feels_lte and i < len(times) and times[i] == end
        after = min(times[i + 1], end) if horizon < end else end
        if defer and after < end and after + self.difs_ns == times[i + 2] <= end:
            return None
        k = self.pending_k
        k = self.backoff.peek_one(self.cw.bit_length()) if k is None else k
        difs_end = t + self.difs_ns
        tx_start = difs_end + k * slot
        tx_end = tx_start + self.data_air_ns
        ack_end = tx_end + self.sifs_ns + self.ack_air_ns
        last, frozen = ack_end + slot, None  # frozen: (slots counted, residual)
        if edge and defer and horizon < tx_start:
            whole, within = divmod(horizon - difs_end, slot)
            if horizon < difs_end:
                last, frozen = horizon, (0, self.pending_k)
            elif self.cca.mid_packet_abort or not within:
                last, frozen = horizon, (whole, k - whole)
            elif whole + 1 < k:  # the slot in progress completes
                last, frozen = difs_end + (whole + 1) * slot, (whole + 1, k - whole - 1)
        events = (difs_end, tx_start, tx_end, ack_end, ack_end + slot)
        if last >= after < end or edge and (  # a station event on a transition
                horizon in events or times[i + 1] == end and end in (*events, last)):
            return None
        channel.lte.advance_to(after if defer else horizon)
        # Events at or before the run end happen: it may cut the cycle anywhere.
        if difs_ended := (frozen is None or horizon > difs_end) and difs_end <= end:
            self.difs_completed += 1  # it takes the k peeked
            self.backoff.skip(self.pending_k is None and self.cw > 0)
            self.pending_k = None
        data = ok = False
        if frozen is not None:
            if last <= end:
                self.backoff_slots_elapsed += frozen[0]
                self.pending_k = frozen[1]
        elif tx_start <= end:
            self.backoff_slots_elapsed += k
            self.acc.attempts += 1
            if tx_end <= end:
                data = self._data_decodes(tx_start, tx_end)
                if (ack_end if data else last) <= end:
                    ok = data and self._ack_decodes(ack_end - self.ack_air_ns, ack_end)
                    self._count(ok)
        if (resume := after if defer else ack_end if ok else last) >= end:
            channel.lte.advance_to(end)  # a transition on the run end happens too, after its line
        if after == end:  # what ``flush`` reads: a frame or an ACK in the air at the run end
            self.state = "tx" if frozen is None and tx_start <= end < tx_end else "blocked"
            self._tx_start = tx_start
            self._ack_window = (ack_end - self.ack_air_ns, ack_end) if data and ack_end > end else None
        if (trace := self.engine.trace) is not None:
            lines = [(difs_end, "difs-end", "")] * difs_ended
            if frozen is not None:  # vendor-B's slot boundary, if the slot went on
                lines += [(last, "backoff-slot", "")] * (last > horizon)
            else:
                lines += [(tx_start, "backoff-slot", f"k={k}")] * (k > 0) + [(tx_end, "tx-end", "")]
                lines += [(ack_end, "ack-result", "")] * data
                lines += [(last, "cca-sample" if data else "ack-timeout", "")] * (not ok)
            lines = [(at, kind, self.name, detail) for at, kind, detail in lines if at <= end]
            lines = sorted(lines + [(at, "lte-off" if n % 2 else "lte-on", channel.lte.name, "")
                                    for n, at in enumerate(times[i:channel.lte.passed], i)])
            cut = bisect.bisect_left(lines, (end,))  # lines at the run end follow its line
            trace.append("".join(trace_line(*line) for line in lines[:cut]))
            self._at_end += "".join(trace_line(*line) for line in lines[cut:])
        return resume

    def _drawn_outcomes(self, m: int, p_data: float, p_ack: float | None):
        """Outcomes of the next ``m`` cycles from one chunk of decode draws.

        Each cycle takes a data draw, then an ACK draw if the data decoded
        and the ACK can (``p_ack`` is None when it surely fails).  Returns
        per-cycle arrays: data decoded, ACK decoded, and decode draws used
        through the cycle.
        """
        draws = self.decode_rng.uniform(size=2 * m)
        # A draw starts a cycle unless the cycle before took it for its ACK,
        # so across a run of draws that would each take an ACK draw after
        # them, cycle starts alternate: a draw starts a cycle iff an even
        # number of such draws directly precede it.
        takes_two = (draws < p_data) if p_ack is not None else np.zeros(2 * m, bool)
        at = np.arange(2 * m)
        last_single = np.maximum.accumulate(np.where(takes_two, -1, at))
        preceding = at - 1 - np.concatenate(([-1], last_single[:-1]))
        starts = np.flatnonzero(preceding % 2 == 0)[:m]
        data = draws[starts] < p_data
        ok = np.zeros(m, dtype=bool)
        if p_ack is not None:
            ok[data] = draws[starts[data] + 1] < p_ack
        return data, ok, starts + 1 + (data & (p_ack is not None))

    def _trace_cycles(self, trace, ends, tx_start, ks, data, ok) -> None:
        """Append the event path's lines for these cycles as one text chunk."""
        data_end = self.data_air_ns
        ack_end = data_end + self.sifs_ns + self.ack_air_ns
        backoff, always = ks > 0, np.ones(len(ends), dtype=bool)
        written = np.column_stack([always, backoff, backoff, always, data, ~ok]).ravel()
        values = np.column_stack([tx_start - ks * self.slot_ns, tx_start, ks, tx_start + data_end,
                                  tx_start + ack_end, ends]).ravel()[written]
        shapes = 3 * backoff + 2 * ~data + (data & ~ok)
        trace.append("".join([CYCLE_TEMPLATES[s] for s in shapes.tolist()])
                     % tuple(values.tolist()))

    # -- carrier sense: a deferring station at the LTE node's transitions -----

    def lte_switched(self, now: int) -> None:
        """A deferring station freezes at an LTE-on and, if blocked, contends at an LTE-off."""
        if self.channel.busy:
            self.busy_onset(now)
        elif self.channel.defer_to_lte and self.state == "blocked":
            self._begin_contention()

    def busy_onset(self, now: int) -> None:
        """Deferral-grade energy appeared on the medium."""
        if self.state == "difs":
            # Any interruption restarts the DIFS wait once the medium clears.
            self.engine.cancel(self._event)
            self.state = "blocked"
        elif self.state == "backoff":
            elapsed = now - self._backoff_t0
            whole, within = divmod(elapsed, self.slot_ns)
            if self.cca.mid_packet_abort or within == 0:
                self.engine.cancel(self._event)
                self.pending_k = self._backoff_k - whole
                self.backoff_slots_elapsed += whole
                self.state = "blocked"
            elif whole + 1 < self._backoff_k:
                # Slot in progress still completes; react at its boundary.
                self.engine.cancel(self._event)
                remaining = self._backoff_k - (whole + 1)
                completed = whole + 1
                self._event = self.engine.schedule(
                    self._backoff_t0 + completed * self.slot_ns, "backoff-slot",
                    self.name, lambda: self._slot_boundary(remaining, completed))
            # else: the final slot completes and the pending event transmits.

    def _slot_boundary(self, remaining: int, completed: int) -> None:
        self.backoff_slots_elapsed += completed
        if self.channel.busy:
            self.pending_k = remaining
            self.state = "blocked"
        else:
            self._backoff_k, self._backoff_t0 = remaining, self.engine.now
            self._event = self.engine.schedule(self._backoff_t0 + remaining * self.slot_ns,
                                               "backoff-slot", self.name, self._backoff_done,
                                               f"k={remaining}")

    # -- end of run -----------------------------------------------------------

    def flush(self, t_end_ns: int) -> None:
        """Write the lines of walked events at t_end, which follow the run-end line, and
        set the WiFi airtime: a data frame per attempt, an ACK per delivery or ACK decode
        failure, and a frame or an ACK still in the air cut off at t_end."""
        if self._at_end:
            self.engine.trace.append(self._at_end)
        acc, cut = self.acc, 0
        if self.state == "tx":  # the attempts count it whole: take off what is past t_end
            cut = t_end_ns - self._tx_start - self.data_air_ns
        elif self._ack_window is not None and self._ack_window[0] < t_end_ns:
            cut = min(self._ack_window[1], t_end_ns) - self._ack_window[0]
        acks = acc.delivered_payload_bytes // self.payload_bytes + self.ack_decode_failures
        acc.wifi_airtime_ns = acc.attempts * self.data_air_ns + acks * self.ack_air_ns + cut
