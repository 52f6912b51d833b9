"""A run's references point one way, simulation to station to medium to LTE
node to engine, and an event drops its callback once it cannot fire: so a
finished run is freed by reference counting, with the cyclic collector off."""

import gc
import weakref

import pytest

from coexsim.cli import main
from coexsim.engine import Engine
from coexsim.simulation import Simulation
from coexsim.wifi import DcfStation

from conftest import make_cfg

SHORT = 0.2
RUNS = {
    # vendor-A defers to the 12 dBm LTE at duty 0.5: its transitions reach the station
    "deferring": (make_cfg(duration=SHORT), {}),
    "traced": (make_cfg(duration=SHORT), {"trace": True}),
    "no station": (make_cfg(duration=SHORT), {"include_wifi": False}),
    "duty 0": (make_cfg(duty=0.0, duration=SHORT), {}),
    "duty 1": (make_cfg(duty=1.0, duration=SHORT), {}),
    "soft k=2, traced": (make_cfg(soft_slope_k=2.0, duration=SHORT), {"trace": True}),
    "10 s": (make_cfg(duration=10.0), {}),
    "10 s, no station": (make_cfg(duration=10.0), {"include_wifi": False}),
}


@pytest.mark.parametrize("path", ["walked", "events"])
@pytest.mark.parametrize("case", list(RUNS))
def test_a_finished_run_is_freed_by_reference_counting(case, path, monkeypatch):
    cfg, options = RUNS[case]
    switched = 0
    lte_switched = DcfStation.lte_switched

    def counted(station, now):
        nonlocal switched
        switched += 1
        lte_switched(station, now)

    monkeypatch.setattr(DcfStation, "lte_switched", counted)
    if path == "events":  # every packet an event: the most cancelled and pending handles
        monkeypatch.setattr(DcfStation, "_skip_whole_cycles", lambda self, now: now)
    gc.collect()
    gc.disable()
    try:
        sim = Simulation(cfg, seed=5, **options)
        sim.run()
        engine = weakref.ref(sim.engine)
        del sim
        assert engine() is None
    finally:
        gc.enable()
    if case == "deferring" and path == "events":
        assert switched > 0


def test_a_sweep_leaves_no_engine_to_the_collector(tmp_path):
    gc.collect()
    before = [o for o in gc.get_objects() if isinstance(o, Engine)]
    gc.disable()
    try:
        assert main(["sweep", "duty", "--duration", str(SHORT), "--jobs", "1",
                     "--out", str(tmp_path / "duty.csv")]) == 0
        left = [o for o in gc.get_objects()
                if isinstance(o, Engine) and not any(o is b for b in before)]
    finally:
        gc.enable()
    assert left == []
