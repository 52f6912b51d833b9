"""The plan: what a run derives from its config alone, built once per config.

``simulation.plan`` is cached per (lte, wifi, radio) settings and shared by
every run of a config.  A run built on a plan that other runs used must be
the run built on a fresh one, and a sweep must build each plan once.
"""

import dataclasses

import numpy as np
import pytest

from coexsim import experiments
from coexsim.experiments import SCENARIOS, run_sweep, set_path
from coexsim.simulation import Simulation, plan

from conftest import make_cfg
from test_certain_soft import TRACED_SOFT, ack_fails
from test_fast_path import FORCED, MATRIX, SEEDS, SOFT, config_id


def observe(cfg, seed, trace):
    sim = Simulation(cfg, seed=seed, trace=trace)
    metrics = sim.run()
    station = sim.station
    return (metrics, "".join(sim.engine.trace or ()), station.rng.bit_generator.state,
            None if station.decode_rng is None else station.decode_rng.bit_generator.state)


@pytest.mark.parametrize("cfg", MATRIX + FORCED + SOFT[::3], ids=config_id)
def test_a_shared_plan_gives_the_run_of_a_fresh_one(cfg):
    for trace in (False, True):
        for seed in SEEDS:
            plan.cache_clear()
            fresh = observe(cfg, seed, trace)
            built = plan(cfg.lte, cfg.wifi, cfg.radio)
            for other in SEEDS:  # other runs of the config use the plan first
                observe(cfg, other + 100, not trace)
            assert plan(cfg.lte, cfg.wifi, cfg.radio) is built
            assert observe(cfg, seed, trace) == fresh, f"seed {seed}, trace {trace}"


def test_a_sweep_builds_each_plan_once(monkeypatch):
    scenario = SCENARIOS["duty"]()
    scenario.reps, scenario.duration_s = 2, 0.05
    configs = []
    execute = experiments._execute

    def recorded(payload):
        configs.append(payload[0])
        return execute(payload)

    monkeypatch.setattr(experiments, "_execute", recorded)
    plan.cache_clear()
    run_sweep(scenario, 1, jobs=1)
    distinct = {(cfg.lte, cfg.wifi, cfg.radio) for cfg in configs}
    info = plan.cache_info()
    assert len(configs) == 164 > len(distinct) > 1  # 82 runs a rep
    # Planning looks each config up once, for its shortest cycle, then each run does.
    assert (info.misses, info.hits) == (len(distinct), len(configs))


def test_plan_arrays_are_read_only():
    cfg = make_cfg()
    arrays = [v for v in plan(cfg.lte, cfg.wifi, cfg.radio).station.values()
              if isinstance(v, np.ndarray)]
    assert arrays
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_config_for_equals_one_set_path_per_axis(name):
    # The axis values are typed when the grid is set, so one replace per
    # section gives what converting each value again, axis by axis, gives.
    scenario = SCENARIOS[name]()
    for point in scenario.points():
        chained = dataclasses.replace(scenario.base, duration_s=scenario.duration_s)
        for (path, _), value in zip(scenario.axes, point):
            chained = set_path(chained, path, value)
        assert repr(scenario.config_for(point)) == repr(chained)


UNSENSED = dict(cca_ed_threshold_dbm=30.0)  # no LTE defers the station
# Per LTE state (off, on): whether its soft odds are certain, then data decoded,
# ACK decoded and the decode draws a cycle takes; and whether an untraced run
# feels the LTE, which a certain state leaves as the odds set it.
CERTAINTY = [
    ("hard", make_cfg(), ((True, True, True, 0), (True, False, False, 0)), True),
    ("hard-unfelt", make_cfg(lte_power=-16.0, mcs=6),
     ((True, True, True, 0), (True, True, True, 0)), False),
    ("traced-soft", TRACED_SOFT, ((True, True, True, 2), (False, False, False, None)), True),
    # 3e-11 short of 1.0: drawn, as every cycle draws under the event path.
    ("k0.5", make_cfg(prb=50, lte_power=-16.0, mcs=54, soft_slope_k=0.5),
     ((False, False, False, None), (False, False, False, None)), True),
    # Both states certain and alike, but each cycle draws: the LTE still bounds a step.
    ("both-certain", make_cfg(lte_power=-16.0, mcs=6, soft_slope_k=2.0),
     ((True, True, True, 2), (True, True, True, 2)), True),
    ("data-fails", make_cfg(lte_power=12.0, soft_slope_k=40.0, **UNSENSED),
     ((True, True, True, 2), (True, False, False, 0)), True),
    ("ack-fails", ack_fails(make_cfg(lte_power=12.0, soft_slope_k=40.0, **UNSENSED)),
     ((True, True, True, 2), (True, True, False, 1)), True),
    ("ack-drawn", ack_fails(make_cfg(lte_power=12.0, soft_slope_k=2.0, **UNSENSED)),
     ((True, True, True, 2), (False, False, False, None)), True),
]


@pytest.mark.parametrize("cfg,states,feels", [row[1:] for row in CERTAINTY],
                         ids=[row[0] for row in CERTAINTY])
def test_plan_marks_each_certain_state_and_its_draws(cfg, states, feels):
    outcomes = plan(cfg.lte, cfg.wifi, cfg.radio).station["_outcomes"]
    assert tuple((odds is None, data, ack, draws) for data, ack, odds, draws in outcomes) == states
    for data, ack, odds, draws in outcomes:
        if odds is not None:  # drawn: odds short of 1.0, or an ACK that may fail
            assert odds[0] < 1.0 or odds[1] is not None and odds[1] < 1.0
    assert Simulation(cfg, seed=1).station._feels_lte is feels
