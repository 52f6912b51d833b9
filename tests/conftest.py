import dataclasses

import pytest

from coexsim.config import RunConfig
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


def lte_transitions(sim) -> list[tuple[int, bool]]:
    """The run's LTE transitions so far as (time_ns, now_on) pairs."""
    return [(t, i % 2 == 0) for i, t in enumerate(sim.medium.lte_times)]


def run_sim(cfg: RunConfig, seed: int = 1, **kwargs):
    sim = Simulation(cfg, seed=seed, **kwargs)
    metrics = sim.run()
    return metrics, sim


@pytest.fixture(scope="session")
def idle_54_run():
    """Shared duty-0 54 Mbps run used by several oracle checks."""
    cfg = make_cfg(duty=0.0, mcs=54)
    return run_sim(cfg, seed=11)
