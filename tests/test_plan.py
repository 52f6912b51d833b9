"""The plan: what a run derives from its config alone, built once per config.

``simulation.plan`` is cached per (lte, wifi, radio) settings and shared by
every run of a config.  A run built on a plan that other runs used must be
the run built on a fresh one, and a sweep must build each plan once.
"""

import dataclasses

import numpy as np
import pytest

from coexsim import experiments
from coexsim.config import WIFI_ONLY, parse_value, resolve_path
from coexsim.experiments import SCENARIOS, run_sweep
from coexsim.simulation import Simulation, plan

from conftest import make_cfg, observe
from test_certain_soft import TRACED_SOFT, ack_fails
from test_fast_path import FORCED, MATRIX, SEEDS, SOFT, config_id


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


# At 2 reps, the runs a grid makes and the configs it serializes: each grid point
# and, per WiFi setting, one WiFi-only baseline.  The duty grid's 82 runs a rep
# include its 12 dBm duty-0 points, which are their own baselines, so it serializes
# its 88 points only; the power grid's 24 points add 4 baselines.
PLANNED = {"duty": (164, 88), "power": (56, 28)}


def test_a_sweep_builds_each_plan_once(monkeypatch):
    payloads, planned, serialized = [], [], []
    for name, log in (("_execute", payloads), ("canonical_for_seed", planned),
                      ("serialize_config", serialized)):
        def recorded(arg, log=log, original=getattr(experiments, name)):
            log.append(arg)
            return original(arg)

        monkeypatch.setattr(experiments, name, recorded)
    for name, (runs, texts) in PLANNED.items():
        scenario = SCENARIOS[name]()
        scenario.reps, scenario.duration_s = 2, 0.05
        for log in (payloads, planned, serialized):
            log.clear()
        plan.cache_clear()
        run_sweep(scenario, 1, jobs=1)
        configs = [cfg for cfg, _, _ in payloads]
        distinct = {(cfg.lte, cfg.wifi, cfg.radio) for cfg in configs}
        info = plan.cache_info()
        assert len(configs) == runs > len(distinct) > 1
        # Planning looks each config up once, for its shortest cycle, then each run does.
        assert (info.misses, info.hits) == (len(distinct), len(configs))
        # Each distinct config is serialized once, and a baseline is its point's
        # config with the WiFi-only LTE.
        points = {scenario.config_for(point) for point in scenario.points()}
        assert len(serialized) == len(planned) == len(set(planned)) == texts
        assert set(planned) == points | {dataclasses.replace(cfg, lte=WIFI_ONLY) for cfg in points}
        assert all(cfg.lte == WIFI_ONLY for cfg, _, label in payloads
                   if label.startswith("baseline for"))


def test_plan_arrays_are_read_only():
    cfg = make_cfg()
    arrays = [v for v in plan(cfg.lte, cfg.wifi, cfg.radio).station.values()
              if isinstance(v, np.ndarray)]
    assert arrays
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def set_path(cfg, path, value):
    """``cfg`` with one grid path set, ``str(value)`` converted as an INI value is."""
    section_name, field_name = resolve_path(path)
    section = dataclasses.replace(
        getattr(cfg, section_name),
        **{field_name: parse_value(section_name, field_name, str(value))})
    return dataclasses.replace(cfg, **{section_name: section})


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
