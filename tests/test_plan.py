"""The plan: what a run derives from its config alone, built once per config.

``simulation.plan`` is cached per (lte, wifi, radio) settings and shared by
every run of a config.  A run built on a plan that other runs used must be
the run built on a fresh one, and a sweep must build each plan once.  A
sweep plans its grid from section texts, and each point's text must be the
canonical text of its config.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coexsim import experiments
from coexsim.config import (WIFI_ONLY, canonical_for_seed, parse_value, resolve_path,
                            serialize_config)
from coexsim.experiments import SCENARIOS, run_sweep
from coexsim.lte import PRB_CHOICES
from coexsim.simulation import Simulation, plan
from coexsim.wifi import CCA_PRESETS, MCS_RATES

from conftest import config_for, make_cfg, observe
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


# At 2 reps, the runs a grid makes, the configs it plans and the sections it writes.
# Its configs are each grid point and, per WiFi setting, one WiFi-only baseline.  The
# duty grid's 82 runs a rep include its 12 dBm duty-0 points, which are their own
# baselines, so it plans its 88 points only; the power grid's 24 points add 4
# baselines.  The duty grid writes 40 LTE sections (a duty-0 one is written as the
# WiFi-only LTE), 2 WiFi, 1 radio and the WiFi-only LTE; the power grid 6, 4, 1 and 1.
PLANNED = {"duty": (164, 88, 44), "power": (56, 28, 12)}


def test_a_sweep_builds_each_plan_once(monkeypatch):
    payloads, written = [], []
    for name, log in (("_execute", payloads), ("section_text", written)):
        def recorded(*args, log=log, original=getattr(experiments, name)):
            log.append(args)
            return original(*args)

        monkeypatch.setattr(experiments, name, recorded)
    for name, (runs, texts, sections) in PLANNED.items():
        scenario = SCENARIOS[name]()
        scenario.reps, scenario.duration_s = 2, 0.05
        for log in (payloads, written):
            log.clear()
        plan.cache_clear()
        run_sweep(scenario, 1, jobs=1)
        configs = [cfg for (cfg, _, _), in payloads]
        distinct = {(cfg.lte, cfg.wifi, cfg.radio) for cfg in configs}
        info = plan.cache_info()
        assert len(configs) == runs > len(distinct) > 1
        # Planning looks each config up once, and each run is handed its plan.
        assert (info.misses, info.hits) == (len(distinct), 0)
        # No config is serialized whole: each distinct section is written once, and a
        # point's texts join its sections' texts.
        assert len(written) == len(set(written)) == sections
        # Each distinct config is planned once, and a baseline is its point's config
        # with the WiFi-only LTE.
        points = {config_for(scenario, point) for point in scenario.points()}
        planned = [(cfg, baseline) for _, cfg, _, baseline, _ in scenario.grid()]
        assert {cfg for cfg, _ in planned} == points
        assert {baseline for _, baseline in planned} == {
            dataclasses.replace(cfg, lte=WIFI_ONLY) for cfg in points}
        assert len(points | {baseline for _, baseline in planned}) == texts
        baselines = [cfg for (cfg, _, where), in payloads
                     if experiments._run_label(*where).startswith("baseline for")]
        assert all(cfg.lte == WIFI_ONLY for cfg in baselines)


def assert_grid_texts(scenario):
    """Each point's config is its reference config, its baseline that with the
    WiFi-only LTE, and each text is the config's canonical text for its seed."""
    grid = scenario.grid()
    assert [point for point, *_ in grid] == scenario.points()
    for point, cfg, text, baseline, baseline_text in grid:
        assert cfg == config_for(scenario, point)
        assert baseline == dataclasses.replace(cfg, lte=WIFI_ONLY)
        assert text == serialize_config(canonical_for_seed(cfg))
        assert baseline_text == serialize_config(canonical_for_seed(baseline))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_grid_texts_are_the_canonical_texts(name):
    scenario = SCENARIOS[name]()
    scenario.reps, scenario.duration_s = 5, 0.2
    assert_grid_texts(scenario)


# --grid values per path, as tokens: distances and their gains, a preset's
# override that may be unset (""), and each kind of key.
GRID_TOKENS = {
    "lte.duty": st.sampled_from(["0", "0.1", "0.5", "50%", "1"]),
    "lte.tx_power_dbm": st.floats(-40, 30).map(repr),
    "lte.n_prb": st.sampled_from([str(n) for n in PRB_CHOICES]),
    "lte.mean_period_ms": st.sampled_from(["150", "80.5"]),
    "wifi.mcs_mbps": st.sampled_from([str(r) for r in MCS_RATES]),
    "wifi.cca_profile": st.sampled_from(sorted(CCA_PRESETS)),
    "wifi.cca_measure_band": st.sampled_from(["", "full20", "primary10"]),
    "wifi.cca_mid_packet_abort": st.sampled_from(["true", "off"]),
    "wifi.cca_ed_threshold_dbm": st.floats(-90, 0).map(repr),
    "radio.soft_slope_k": st.sampled_from(["0", "0.5", "2"]),
    "radio.dist_lte_to_wifi_rx_m": st.floats(0.1, 10).map(repr),
    "radio.gain_lte_to_wifi_rx_db": st.floats(-90, 0).map(repr),
    "radio.dist_wifi_tx_to_rx_m": st.floats(0.1, 10).map(repr),
    "radio.gain_wifi_link_db": st.floats(-90, 0).map(repr),
    "radio.per_thresholds": st.sampled_from(["", "6:4, 54:26"]),
}


@st.composite
def overridden_scenarios(draw):
    scenario = SCENARIOS[draw(st.sampled_from(sorted(SCENARIOS)))]()
    if draw(st.booleans()):  # a base whose explicit gain supersedes its distance key
        scenario.base = dataclasses.replace(scenario.base, radio=dataclasses.replace(
            scenario.base.radio, gain_lte_to_wifi_rx_db=-20.0))
    scenario.duration_s = draw(st.sampled_from([0.2, 10.0, 1e-3]))
    for path in draw(st.lists(st.sampled_from(sorted(GRID_TOKENS)), max_size=3, unique=True)):
        tokens = draw(st.lists(GRID_TOKENS[path], min_size=1, max_size=3,
                               unique_by=lambda t, p=path: parse_value(*p.split("."), t)))
        scenario.override_grid(path, tokens)
    return scenario


def test_a_gain_axis_supersedes_its_distance_key():
    scenario = SCENARIOS["power"]()
    scenario.override_grid("radio.gain_wifi_link_db", ["-40", "-50.5"])
    assert_grid_texts(scenario)
    for _, _, text, _, baseline_text in scenario.grid():
        assert "gain_wifi_link_db" in text and "dist_wifi_tx_to_rx_m" not in text
        assert "dist_wifi_tx_to_rx_m" not in baseline_text


@settings(max_examples=40, deadline=None)
@given(scenario=overridden_scenarios())
def test_grid_texts_under_grid_overrides_are_the_canonical_texts(scenario):
    assert_grid_texts(scenario)


def test_plan_arrays_are_read_only():
    cfg = make_cfg()
    arrays = [v for v in plan(cfg.lte, cfg.wifi, cfg.radio).station.values()
              if isinstance(v, np.ndarray)]
    assert arrays
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


@pytest.mark.parametrize("cw_min,cw_max", [(0, 0), (0, 1), (0, 1023), (15, 1023), (15, 15),
                                           (1, 2**32 - 1), (2**32 - 1, 2**32 - 1)])
def test_the_retry_ladder_doubles_each_window_up_to_cw_max(cw_min, cw_max):
    # Binary exponential backoff: after a failure cw becomes 2 (cw + 1) - 1, at
    # most cw_max, and the backoff stream reads each window's bit count.
    cfg = make_cfg(cw_min=cw_min, cw_max=cw_max, duration=0.01)
    station = plan(cfg.lte, cfg.wifi, cfg.radio).station
    ladder = [cw_min]
    while ladder[-1] < cw_max:
        ladder.append(min(2 * (ladder[-1] + 1) - 1, cw_max))
    assert station["_cw_ladder"] == tuple(ladder)
    assert station["_ladder_bits"].tolist() == [cw.bit_length() for cw in ladder]


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
        assert repr(config_for(scenario, point)) == repr(chained)


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
