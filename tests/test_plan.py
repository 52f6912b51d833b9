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
    assert (info.misses, info.hits) == (len(distinct), len(configs) - len(distinct))


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
