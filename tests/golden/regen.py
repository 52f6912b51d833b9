"""Golden outputs that pin the simulator's bytes.

The files next to this script are the CSV and summary of each of the four
sweeps on a reduced grid (2 reps, 0.5 s runs, 2-3 values per axis, both MCS
values and both CCA profiles kept), plus ``coexsim run`` at 0.5 s with its
event trace: the default config, two soft-PER configs read from an INI
file (vendor-B, which defers to the low-power LTE, and vendor-A, which does
not and sends packets that decode under LTE only by chance), and one
backoff-window edge case (see ``WINDOW_RUNS``).
``tests/test_golden.py`` regenerates them into a temporary directory and
compares them byte for byte.

Rewrite them only on purpose, when a change is meant to alter the outputs,
and record that in CHANGES.md.  From the repository root:

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from coexsim.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent

SWEEP_ARGS = ["--seed", "1", "--reps", "2", "--duration", "0.5", "--jobs", "1"]
SWEEP_GRIDS = {
    "duty": ["lte.duty=0.0,0.5,1.0", "lte.tx_power_dbm=-16.0,12.0"],
    "power": ["lte.tx_power_dbm=-16.0,12.0", "wifi.tx_power_dbm=8.0,17.0"],
    "prb": ["lte.n_prb=6,50,100", "lte.tx_power_dbm=-16.0,12.0"],
    "freq": ["lte.center_offset_mhz=-10.0,0.0,10.0", "lte.tx_power_dbm=-16.0,12.0"],
}
RUN_ARGS = ["--duration", "0.5"]
RUN_CSV = "run.csv"
RUN_TRACE = "run.trace"
SOFT_INI = """\
[lte]
n_prb = 50
tx_power_dbm = -16

[wifi]
mcs_mbps = 54
cca_profile = {profile}

[radio]
soft_slope_k = 2
"""
SOFT_RUNS = {"soft-vendor-b": "vendor-B", "soft-vendor-a": "vendor-A"}
# Carrier sensing blind to LTE that is always on at full power: every packet
# collides and climbs the retry ladder.
FORCED_INI = """\
[lte]
duty = 1
tx_power_dbm = 12

[wifi]
cca_ed_threshold_dbm = 30
"""
# A backoff window at the edge of how a draw takes its random bits, run long
# enough for about 150 attempts at seed 3: a zero window (no bits) between
# one-bit windows.  The 32-bit edge is checked against the event path in
# tests/test_fast_path.py; wider windows are a config error.
WINDOW_RUNS = {
    "window-zero": (FORCED_INI + "cw_min = 0\ncw_max = 1\n", "0.05"),
}


def golden_names() -> list[str]:
    names = []
    for scenario in SWEEP_GRIDS:
        names += [f"{scenario}.csv", f"{scenario}.summary.csv"]
    names += [RUN_CSV, RUN_TRACE]
    for name in [*SOFT_RUNS, *WINDOW_RUNS]:
        names += [f"{name}.csv", f"{name}.trace"]
    return names


def run_cli(argv: list[str]) -> None:
    code = main(argv)
    if code != 0:
        raise RuntimeError(f"coexsim {' '.join(argv)} exited {code}")


def generate(out_dir: Path) -> None:
    """Write every golden file into ``out_dir``."""
    for scenario, grids in SWEEP_GRIDS.items():
        grid_args = [arg for grid in grids for arg in ("--grid", grid)]
        run_cli(["sweep", scenario, *SWEEP_ARGS, *grid_args,
                 "--out", str(out_dir / f"{scenario}.csv"),
                 "--summary", str(out_dir / f"{scenario}.summary.csv")])
    run_cli(["run", *RUN_ARGS, "--out", str(out_dir / RUN_CSV),
             "--trace", str(out_dir / RUN_TRACE)])
    ini_runs = {name: (SOFT_INI.format(profile=profile), RUN_ARGS)
                for name, profile in SOFT_RUNS.items()}
    ini_runs.update((name, (text, ["--seed", "3", "--duration", duration]))
                    for name, (text, duration) in WINDOW_RUNS.items())
    with tempfile.TemporaryDirectory() as tmp:
        for name, (text, args) in ini_runs.items():
            ini = Path(tmp) / f"{name}.ini"
            ini.write_text(text)
            run_cli(["run", "--config", str(ini), *args,
                     "--out", str(out_dir / f"{name}.csv"),
                     "--trace", str(out_dir / f"{name}.trace")])


if __name__ == "__main__":
    generate(GOLDEN_DIR)
    print(f"rewrote {len(golden_names())} golden files in {GOLDEN_DIR}", file=sys.stderr)
