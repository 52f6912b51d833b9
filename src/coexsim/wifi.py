"""802.11 DCF saturated station pair: MAC timing, CCA profiles and the walk of a run.

One transmitter, one receiver, fixed MCS, always a 1500-byte payload queued.
The only contender is the duty-cycled LTE node, seen through energy-detect
carrier sensing (profile-dependent) and through SINR at decode time.
"""

from __future__ import annotations

import bisect
import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .engine import FAST_FORWARD_CHUNK, Engine
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
    independent oracle a run is validated against.
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
    """Saturated DCF transmitter walking a run; its peer only sends ACKs.

    Standard DCF: idle DIFS, uniform backoff in [0, cw], freeze while the
    medium is busy, binary exponential backoff on failure, drop and reset
    after retry_limit consecutive failures.

    The station walks the run from its first idle instant to the run end.
    Each contention that starts on an idle medium first advances, in one
    step, every whole cycle that ends before the medium next changes: a
    stretch whose cycles all end alike by a prefix search, one whose decodes
    are drawn in NumPy chunks.  An untraced run's LTE that the station
    neither defers to nor decodes differently under is no change.
    ``_walk_edge`` settles the cycle that meets an LTE transition, or that the
    run end cuts, in closed form, and the walk goes on where contention next
    starts.  Counters, airtime, RNG streams and trace lines end exactly where
    the event-driven model leaves them (``tests/event_path.py``).
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
        engine.cycle_ns = self.difs_ns, self.slot_ns, self.data_air_ns, self.shortest_cycle_ns

        self.cw = self._cw_ladder[0]
        self.consecutive_failures = 0
        self.pending_k: int | None = None  # residual backoff surviving a freeze
        # Whether the station's next event goes ahead of an LTE transition on the same
        # instant: it does iff the LTE node's transition was the last thing to happen.
        self._ahead = False
        self._cut_ns = 0  # the airtime in the air at the run end, past what the counts give

        self.difs_completed = self.backoff_slots_elapsed = 0
        self.data_decode_failures = self.ack_decode_failures = 0

    def first_idle(self) -> int:
        """The first idle instant, 0 or the first LTE-off for a station that defers
        (past the run end at duty 1), with the transitions up to it counted and, traced,
        their lines and the start line.  ``start`` walks from there, as the event-driven
        reference in the tests contends from there."""
        lte, times, end = self.channel.lte, self.channel.lte.times, self.channel.end_ns
        t = (times[1:2] or [end + 1])[0] if self.channel.defer_to_lte and times else 0
        lte.passed = bisect.bisect_right(times, min(t, end))
        if self.engine.trace is not None:
            self.engine.write(lte.lines(0, 1) + [(0, "cca-sample", self.name, "start")]
                              + lte.lines(1, lte.passed), end)
        return t

    def start(self) -> None:
        """Walk the run from its first idle instant to its end.

        A cycle is DIFS, backoff, data, SIFS, then the ACK, plus one slot (ACK
        timeout, or the resume after an undecoded ACK) if it failed.  Until the
        next LTE transition or the run end the SINR at both ends is constant,
        and an LTE that ``_feels_lte`` rules out changes nothing.  Under the
        hard PER rule, when the data cannot decode, or under soft odds that
        are each 0 or 1, every cycle then has the same outcome, and the cycles
        differ only in their backoff draws: ``_skip_alike_cycles`` takes such
        a stretch, ``_skip_chunks`` drawn odds.  A soft run's decode stream
        then jumps past the draws those cycles take.  ``_walk_edge`` settles
        the cycle after the stretch and says where contention next starts.
        A traced walk records each stretch and each walked edge in turn.
        """
        now, lte, end = self.first_idle(), self.channel.lte, self.channel.end_ns
        # The LTE node's transitions at 0 come before a start there; a start after 0
        # is the station's reaction to an LTE-off.
        self._ahead = now > 0
        times = lte.times if self._feels_lte else ()
        while now < end:
            i = lte.passed  # the next LTE transition bounds the step if the station feels it
            horizon = min(times[i], end) if i < len(times) else end
            data_ok, ack_ok, odds, draws = self._outcomes[i % 2]
            cycles = self.difs_completed
            t = (self._skip_chunks(now, horizon, odds) if odds else
                 self._skip_alike_cycles(now, horizon, data_ok, ack_ok))
            if cycles < self.difs_completed:  # the station's event was the last
                self._ahead = False
                if draws:  # certain soft odds: skip the decode draws the cycles took
                    self.decode_rng.bit_generator.advance(draws * (self.difs_completed - cycles))
            now = self._walk_edge(t)

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

    # -- the walk --------------------------------------------------------------

    def _skip_chunks(self, now: int, horizon: int, odds) -> int:
        """Advance the whole cycles of a stretch under drawn soft odds, in NumPy chunks.

        Each cycle draws its data outcome and, if that decoded, its ACK outcome
        against the odds.  A chunk's backoff draws are one slice and shift of
        the words the cycles' DIFS ends draw (none for a frozen residual), and its
        decode draws one ``uniform`` call of 2m, one PCG64 output each, which a
        negative ``advance`` rewinds to those the cycles that fit used, all 2m
        if none fits: both streams end where per-cycle draws leave them.  A
        traced run records the cycles.  Returns the end of the last whole cycle.
        """
        top, period, base_ns = len(self._cw_ladder) - 1, self._retry_period, self.shortest_cycle_ns
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

            if self.engine.trace is not None:
                self.engine.hold(now, np.concatenate(([now], ends)), 2 - data - ok)
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
        """``start``'s step over a stretch whose cycles all end alike: each
        delivered (clean), or each failed, a slot longer.

        The first cycle resumes a frozen residual or draws at the current
        window, read here.  Cycle j after it draws at the ladder's window for
        (f0 + j) mod R failures, f0 the failures before the stretch and R 1 if
        clean, else ``max(retry_limit, 1)``, as a drop restarts the count.  So
        one prefix search of the backoff stream gives how many cycles fit and
        their slots, and the counts follow in closed form.  Records and returns
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
        f0, traced, cycles, more = self.consecutive_failures, self.engine.trace is not None, 1, True
        if traced:  # the first cycle, then each prefix's
            self.engine.hold(now, (now, t), 2 - data_ok - ack_ok)
        while more:
            n, span_ns, more, prefix = stream.stretch(
                self._ladder_bits, period, (f0 + cycles) % period, cycle_ns, slot_ns, horizon - t,
                min(FAST_FORWARD_CHUNK, (reach - t) // cycle_ns + 1), traced)
            if traced:
                self.engine.hold(t, prefix, 2 - data_ok - ack_ok)
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

    def _walk_edge(self, t: int) -> int:
        """Settle the cycle from ``t``, which meets the next LTE transition or the
        run end, as the events would; return when contention next starts, at or
        past the run end once the station is done.

        A deferring station meets the LTE-ons in turn.  One cuts its DIFS short
        or freezes its backoff: at once under mid-packet abort or on a slot
        boundary, else at the next boundary if the LTE is still on there, and
        if it is off, vendor-B's countdown goes on.  It finds a frame in flight
        or in vendor-B's last slot.  The station is then blocked until the next
        LTE-off, as it is when its cycle ends under the LTE.  A station that does
        not defer contends again where the cycle ends.  On a tie with a
        transition the station's event goes first iff ``_ahead``.  The word
        peeked is taken, a frame decodes over the LTE states it spans, and its
        ACK or timeout, retry ladder and drop are counted as the events count
        them, each only if it falls at or before the run end; what is still in
        the air there is left for ``flush``.  A traced run gets the lines of the
        cycle's events and of the transitions passed, in the order they happen.
        """
        channel, slot, end = self.channel, self.slot_ns, self.channel.end_ns
        lte, defer = channel.lte, channel.defer_to_lte
        times, j0 = lte.times, lte.passed
        m = lte.by_end if self._feels_lte else j0  # the transitions the walk meets
        j, k = j0, self.pending_k
        k = self.backoff.peek_one(self.cw.bit_length()) if k is None else k
        difs_end = t + self.difs_ns
        tx_start = difs_end + k * slot
        tx_end = tx_start + self.data_air_ns
        ack_end = tx_end + self.sifs_ns + self.ack_air_ns
        # The station's events, where it is blocked, and where the cycle ends.
        lines, blocked, e = [], None, end + 1
        if defer and j < m and times[j] <= difs_end and (times[j] < difs_end or not self._ahead):
            blocked, j = times[j], j + 1  # the LTE-on cuts the DIFS short
        elif difs_end <= end:
            lines.append((difs_end, "difs-end", ""))
            self.difs_completed += 1  # it takes the k peeked
            self.backoff.skip(self.pending_k is None and self.cw > 0)
            self.pending_k, b0 = None, difs_end  # k slots counted down from b0
            # Each LTE-on in the backoff.  One at its end goes first: the station's
            # last event came after the LTE's.
            while defer and k and j < m and times[j] <= tx_start:
                whole, within = divmod(times[j] - b0, slot)
                if self.cca.mid_packet_abort or not within:
                    blocked, self.pending_k, j = times[j], k - whole, j + 1
                    self.backoff_slots_elapsed += whole
                    break
                b0 += (whole + 1) * slot  # vendor-B: the slot in progress ends first
                if b0 >= tx_start or b0 > end:  # the last slot, which transmits, or the run end
                    break
                lines.append((b0, "backoff-slot", ""))
                self.backoff_slots_elapsed += whole + 1
                k -= whole + 1
                # The transitions before the boundary; one on it goes after the station's
                # event, as the LTE's came last.
                j = bisect.bisect_left(times, b0, j + 1, m)
                if j % 2:  # the LTE is on: frozen until its LTE-off
                    blocked, self.pending_k = b0, k
                    break
            if blocked is None and tx_start <= end:
                if k:
                    lines.append((tx_start, "backoff-slot", f"k={k}"))
                self.backoff_slots_elapsed += k
                self.acc.attempts += 1
                lte.passed = m  # a frame decodes over the transitions by its end
                if tx_end > end:  # the attempts count the frame whole
                    self._cut_ns = end - tx_end
                else:
                    lines.append((tx_end, "tx-end", ""))
                    if not self._data_decodes(tx_start, tx_end):
                        e = ack_end + slot
                        if e <= end:
                            lines.append((e, "ack-timeout", ""))
                            self._count(False)
                    elif ack_end > end:  # the ACK is cut off
                        self._cut_ns = max(end - ack_end + self.ack_air_ns, 0)
                    else:
                        lines.append((ack_end, "ack-result", ""))
                        ok = self._ack_decodes(ack_end - self.ack_air_ns, ack_end)
                        self._count(ok)
                        e = ack_end + (not ok) * slot
                        if not ok and e <= end:
                            lines.append((e, "cca-sample", ""))
        if blocked is None and e <= end:
            j = bisect.bisect_right(times, e, j, m)  # the transitions by the cycle's end
            if defer and j % 2:  # the LTE is on: blocked until its LTE-off
                blocked = e
        resume = e if blocked is None else times[j] if j < m else end
        lte.passed = j + (blocked is not None) if resume < end else lte.by_end
        # Contention after an LTE-off is its reaction; at a tie on the cycle's end the
        # two keep their order.
        tie = blocked is None and j > j0 and times[j - 1] == e
        if self.engine.trace is not None or tie:
            lines, ahead = self._in_order(lines, lte.lines(j0, lte.passed))
            if self.engine.trace is not None:
                self.engine.write(lines, end)
        self._ahead = blocked is not None or tie and ahead
        return resume

    def _in_order(self, lines: list, transitions: list) -> tuple[list, bool]:
        """The station's (time, kind, detail) lines and the transitions' lines in the
        order they happen, and whether a transition's came last.  At a tie the
        station's goes first iff ``_ahead``, and the two keep their order after it."""
        out, ahead, i = [], self._ahead, 0
        for at, kind, detail in lines:
            while i < len(transitions) and (transitions[i][0], ahead) < (at, True):
                out.append(transitions[i])
                i, ahead = i + 1, True
            out.append((at, kind, self.name, detail))
            ahead = False
        return out + transitions[i:], ahead or i < len(transitions)

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

    # -- end of run -----------------------------------------------------------

    def flush(self) -> None:
        """Set the WiFi airtime: a data frame per attempt, an ACK per delivery or ACK
        decode failure, and what is in the air at the run end, cut off there."""
        acc = self.acc
        acks = acc.delivered_payload_bytes // self.payload_bytes + self.ack_decode_failures
        acc.wifi_airtime_ns = acc.attempts * self.data_air_ns + acks * self.ack_air_ns + self._cut_ns
