"""The event-driven run, the reference the walk in ``coexsim`` is checked against.

A heap of events in strict ``(fire_time, seq)`` order drives the LTE node and the
DCF station one event at a time.  The station schedules each event when the one
before it fires; the LTE node schedules each transition once the one before it
has fired and the station has reacted to it.  Everything else a run does, from
its set-up to its metrics and run-end line, is the program's.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

from coexsim.engine import Engine
from coexsim.lte import LteNode
from coexsim.simulation import Simulation
from coexsim.wifi import DcfStation


class SchedulingError(Exception):
    """An event was scheduled before the current clock (contract violation)."""


@dataclass(slots=True)
class Event:
    """A schedulable occurrence; (fire_time, seq) is a strict total order per run."""

    fire_time: int  # ns since run start
    seq: int        # insertion counter, unique per run
    kind: str       # e.g. lte-on, lte-off, difs-end, backoff-slot, tx-end, ack-timeout
    target: str     # node identifier
    fn: Callable[[], None] | None = field(repr=False)  # None once it cannot fire
    detail: str = ""


class EventEngine(Engine):
    """An engine with a clock and a queue of pending events."""

    def __init__(self, seed: int, trace: bool = False) -> None:
        super().__init__(seed, trace)
        self.now = 0
        self._queue: list[tuple[int, int, Event]] = []
        self._seq = 0

    def schedule(self, fire_time: int, kind: str, target: str,
                 fn: Callable[[], None], detail: str = "") -> Event:
        """Schedule ``fn`` at absolute ``fire_time`` (ns); returns a cancellable handle."""
        if fire_time < self.now:
            raise SchedulingError(
                f"event {kind!r} for {target!r} scheduled at {fire_time} ns, "
                f"before current clock {self.now} ns")
        event = Event(int(fire_time), self._seq, kind, target, fn, detail)
        self._seq += 1
        heapq.heappush(self._queue, (event.fire_time, event.seq, event))
        return event

    def cancel(self, event: Event) -> bool:
        """True iff the event could still fire and now never will."""
        if event.fn is None:
            return False
        event.fn = None
        return True

    def run_until(self, t_end: int) -> None:
        """Dispatch the events with fire_time <= t_end in order, drop the rest; clock ends
        at t_end.  A traced run writes each event's line but one with no kind's, and
        the trace then holds them."""
        if t_end <= self.now:
            raise SchedulingError(f"run_until({t_end}) at clock {self.now}")
        queue = self._queue
        while queue and queue[0][0] <= t_end:
            _, _, event = heapq.heappop(queue)
            fn, event.fn = event.fn, None
            if fn is None:
                continue
            self.now = event.fire_time
            if self.trace is not None and event.kind:
                self.write([(event.fire_time, event.kind, event.target, event.detail)], t_end)
            fn()
        self.now = t_end
        for _, _, event in queue:
            event.fn = None
        queue.clear()
        if self.trace is not None:
            self.flush()


class EventLteNode(LteNode):
    """The LTE node with one pending event, once armed: the next transition by the
    run end, which the node counts and then tells the station of."""

    def __init__(self, engine: EventEngine, end_ns: int, period: tuple) -> None:
        super().__init__(engine, end_ns, period)
        self.engine = engine
        self._event = None  # the pending transition event

    def arm(self, station=None) -> None:
        """Schedule the event of the next transition, if it falls by the run end and
        none is pending; the station given, if any, learns of the transition."""
        n = self.passed
        if self._event is None and n < len(self.times) and self.times[n] <= self.end_ns:
            self._event = self.engine.schedule(self.times[n], "lte-off" if n % 2 else "lte-on",
                                               self.name, lambda: self._switch(station))

    def _switch(self, station) -> None:
        self._event = None
        self.passed += 1
        if station is not None:
            station.lte_switched(self.engine.now)
        self.arm(station)


class EventStation(DcfStation):
    """The DCF station on events, one per MAC step.  States: blocked (medium busy,
    optional residual counter), difs, backoff, tx, ack."""

    def __init__(self, engine: EventEngine, channel, constants: dict, acc) -> None:
        super().__init__(engine, channel, constants, acc)
        self.state = "blocked"
        self._event = None
        self._backoff_k = self._backoff_t0 = self._tx_start = 0
        self._ack_window: tuple[int, int] | None = None

    @property
    def busy(self) -> bool:  # carrier sense; the station's own TX is not sensed
        return self.channel.lte_on and self.channel.defer_to_lte

    def start(self) -> None:
        """Contend from the first idle instant: at 0 once the LTE node is armed, later
        on an event with no kind, which arms it after the station's first event."""
        t = self.first_idle()
        if t == 0:
            self.channel.lte.arm(self)
            self._start_difs()
        elif t < self.channel.end_ns:
            self.engine.schedule(t, "", self.name, self._begin_contention)

    def _begin_contention(self) -> None:
        if self.busy:
            self.state = "blocked"
            return
        self._start_difs()
        self.channel.lte.arm(self)  # pending already, but at the start after 0

    def _start_difs(self) -> None:
        self.state = "difs"
        self._event = self.engine.schedule(self.engine.now + self.difs_ns, "difs-end",
                                           self.name, self._difs_end)

    def _difs_end(self) -> None:
        """Count the DIFS and take its backoff: a frozen residual, or a fresh draw."""
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

    def lte_switched(self, now: int) -> None:
        """A deferring station freezes at an LTE-on and, if blocked, contends at an LTE-off."""
        if self.busy:
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
        if self.busy:
            self.pending_k = remaining
            self.state = "blocked"
        else:
            self._backoff_k, self._backoff_t0 = remaining, self.engine.now
            self._event = self.engine.schedule(self._backoff_t0 + remaining * self.slot_ns,
                                               "backoff-slot", self.name, self._backoff_done,
                                               f"k={remaining}")

    def flush(self) -> None:
        """What is in the air at the run end, from the state, then the program's sum."""
        end = self.channel.end_ns
        if self.state == "tx":  # the attempts count it whole: take off what is past the end
            self._cut_ns = end - self._tx_start - self.data_air_ns
        elif self._ack_window is not None and self._ack_window[0] < end:
            self._cut_ns = min(self._ack_window[1], end) - self._ack_window[0]
        super().flush()


class EventSimulation(Simulation):
    """A run on events: ``Simulation``'s set-up with the reference's parts."""

    engine_type, lte_type, station_type = EventEngine, EventLteNode, EventStation

    def run(self):
        if self.station is not None:
            self.station.start()
        else:
            self.lte_node.arm()
        self.engine.run_until(self.duration_ns)
        return self.finish()
