import dataclasses

import numpy as np
import pytest

from coexsim import experiments
from coexsim.config import (LteSettings, RunConfig, canonical_for_seed, seed_from_text,
                            serialize_config)
from coexsim.lte import _silent_ns, silent_range_ms
from coexsim.simulation import Simulation


def make_cfg(duty=0.5, lte_power=12.0, mcs=54, wifi_power=17.0, prb=100,
             offset=0.0, profile="vendor-A", duration=10.0,
             mean_period_ms=150.0, silent_spread=0.5, soft_slope_k=0.0,
             **wifi_extra) -> RunConfig:
    base = RunConfig()
    return dataclasses.replace(
        base,
        duration_s=duration,
        radio=dataclasses.replace(base.radio, soft_slope_k=soft_slope_k),
        lte=dataclasses.replace(base.lte, duty=duty, tx_power_dbm=lte_power,
                                n_prb=prb, center_offset_mhz=offset,
                                mean_period_ms=mean_period_ms,
                                silent_spread=silent_spread),
        wifi=dataclasses.replace(base.wifi, mcs_mbps=mcs, tx_power_dbm=wifi_power,
                                 cca_profile=profile, **wifi_extra),
    )


def draw_silent_duration_ns(cfg: LteSettings, rng: np.random.Generator) -> int:
    """One randomized silent interval, whole subframes, at least 1 ms.

    Uniform on [(1-spread), (1+spread)] x mean silent time, so the long-run
    on fraction converges to the configured duty.  Requires duty < 1.  The
    LTE node draws its silent periods in blocks; this is the one-draw reference.
    """
    return _silent_ns(float(rng.uniform(*silent_range_ms(cfg))))


def derive_seed(master_seed: int, cfg: RunConfig, rep: int) -> int:
    """Stable per-run seed from (master seed, canonical config, repetition): the
    seed a sweep gives the run."""
    return seed_from_text(master_seed, serialize_config(canonical_for_seed(cfg)), rep)


def config_for(scenario, point: tuple) -> RunConfig:
    """A grid point's config, one replace per section its axes touch: the reference
    for the configs ``Scenario.grid`` builds from shared sections."""
    sections: dict[str, dict] = {}
    for (path, _), value in zip(scenario.axes, point):
        section_name, _, field_name = path.partition(".")
        sections.setdefault(section_name, {})[field_name] = value
    return dataclasses.replace(scenario.base, duration_s=scenario.duration_s, **{
        name: dataclasses.replace(getattr(scenario.base, name), **values)
        for name, values in sections.items()})


def lte_transitions(sim) -> list[tuple[int, bool]]:
    """The run's LTE transitions so far as (time_ns, now_on) pairs."""
    return [(t, i % 2 == 0) for i, t in enumerate(sim.lte_node.times[:sim.lte_node.passed])]


def lte_intervals(medium) -> list[tuple[int, int]]:
    """The LTE on-periods so far as (t0, t1) pairs; one still open ends at the run end."""
    n = medium.lte.passed
    times = medium.lte.times[:n] + [medium.end_ns] * (n % 2)
    return list(zip(times[0::2], times[1::2]))


def observe(cfg: RunConfig, seed: int, trace: bool):
    """What a run shows: its metrics, trace text and LTE on-periods, and the end
    states of its backoff and decode streams."""
    sim = Simulation(cfg, seed=seed, trace=trace)
    metrics = sim.run()
    station = sim.station
    return (repr(metrics), "".join(sim.engine.trace or ()), lte_intervals(sim.medium),
            station.rng.bit_generator.state,
            None if station.decode_rng is None else station.decode_rng.bit_generator.state)


def trace_lines(engine) -> list[str]:
    """An engine's trace as ``time_ns kind node [detail]`` lines, without newlines."""
    return "".join(engine.trace or ()).splitlines()


def backoffs(trace: str) -> list[int]:
    """The K of each ``backoff-slot`` line with a ``k=K`` detail in a trace's
    text: every countdown that reached 0, in order."""
    return [int(detail[0][2:]) for _, kind, _, *detail in
            (line.split(" ") for line in trace.splitlines())
            if kind == "backoff-slot" and detail]


def traced_emissions(sim) -> list[tuple[int, int]]:
    """A traced run's WiFi emissions, data frames and ACKs, as time-ordered
    (t0, t1) pairs rebuilt from its trace and its station's end state.

    A ``tx-end`` line at t ends a data frame [t - data airtime, t) and an
    ``ack-result`` line an ACK [t - ACK airtime, t).  A data frame still in
    the air at the run end, or an ACK begun before it, is cut off there.
    """
    station, end = sim.station, sim.duration_ns
    airtime = {"tx-end": station.data_air_ns, "ack-result": station.ack_air_ns}
    emissions = []
    for line in "".join(sim.engine.trace).splitlines():
        t, kind = line.split(" ", 2)[:2]
        if kind in airtime:
            emissions.append((int(t) - airtime[kind], int(t)))
    if station.state == "tx":
        emissions.append((station._tx_start, end))
    elif station._ack_window is not None and station._ack_window[0] < end:
        emissions.append((station._ack_window[0], min(station._ack_window[1], end)))
    return emissions


def airtime_partition(wifi_intervals: list[tuple[int, int]],
                      lte_intervals: list[tuple[int, int]],
                      duration_ns: int) -> dict[str, int]:
    """Exact integer-ns split of a run into wifi-only / lte-only / overlap / idle.

    Interval lists must each be sorted and internally non-overlapping (they
    are, by construction of the run loop).  Intervals are clipped to the run.
    """
    deltas: list[tuple[int, int, int]] = []
    for intervals, which in ((wifi_intervals, 0), (lte_intervals, 1)):
        for t0, t1 in intervals:
            t0, t1 = max(t0, 0), min(t1, duration_ns)
            if t1 > t0:
                deltas.append((t0, which, 1))
                deltas.append((t1, which, -1))
    deltas.sort()

    out = {"wifi_only": 0, "lte_only": 0, "overlap": 0, "idle": 0}
    keys = (("idle", "lte_only"), ("wifi_only", "overlap"))
    active = [0, 0]
    cursor = 0
    for t, which, delta in deltas:
        if t > cursor:
            out[keys[active[0] > 0][active[1] > 0]] += t - cursor
            cursor = t
        active[which] += delta
    out[keys[active[0] > 0][active[1] > 0]] += duration_ns - cursor
    return out


def run_sim(cfg: RunConfig, seed: int = 1, **kwargs):
    sim = Simulation(cfg, seed=seed, **kwargs)
    metrics = sim.run()
    return metrics, sim


@pytest.fixture(scope="session")
def idle_54_run():
    """Shared duty-0 54 Mbps run used by several oracle checks."""
    cfg = make_cfg(duty=0.0, mcs=54)
    return run_sim(cfg, seed=11)


@pytest.fixture
def pool_always(monkeypatch):
    """Let any sweep start a worker pool, as sweeps with much planned work do."""
    monkeypatch.setattr(experiments, "POOL_MIN_WORK_S", 0.0)
