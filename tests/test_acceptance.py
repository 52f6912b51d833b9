"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The session fixture runs the four full default sweeps once through the CLI
with --jobs = cores (their combined wall time is criterion 10) and re-runs the
duty sweep for byte determinism (criterion 7).  Trend criteria 3-6 read the
shared CSVs; criteria 1, 2, 8, 9 run their own targeted simulations.
"""

import csv
import math
import os
import statistics
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coexsim.cli import main
from coexsim.engine import NS_PER_MS, NS_PER_S
from coexsim.experiments import exp_duty_cycle, run_sweep
from coexsim.metrics import throughput_mbps
from coexsim.radio import SpectrumBand, overlap_fraction
from coexsim.simulation import Simulation
from coexsim.wifi import MCS_RATES, analytic_goodput_mbps

from conftest import lte_transitions, make_cfg, run_sim

MASTER_SEED = 1
JOBS = os.cpu_count() or 1


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def load_rows(path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def median_normalized(rows, **filters) -> float:
    selected = [float(r["normalized"]) for r in rows
                if all(float(r[k]) == v for k, v in filters.items())]
    assert selected, f"no rows match {filters}"
    return statistics.median(selected)


@pytest.fixture(scope="session")
def default_sweeps(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweeps")
    paths, elapsed = {}, {}
    for name in ("duty", "power", "prb", "freq"):
        out = root / f"{name}.csv"
        t0 = time.perf_counter()
        code = main(["sweep", name, "--out", str(out),
                     "--seed", str(MASTER_SEED), "--jobs", str(JOBS)])
        elapsed[name] = time.perf_counter() - t0
        assert code == 0, f"sweep {name} failed"
        paths[name] = out
    rerun = root / "duty_rerun.csv"
    code = main(["sweep", "duty", "--out", str(rerun),
                 "--seed", str(MASTER_SEED), "--jobs", str(JOBS)])
    assert code == 0
    paths["duty_rerun"] = rerun
    return paths, elapsed


class TestCriterion1DcfOracle:
    def test_simulated_duty0_goodput_matches_analytic_within_2_percent(self):
        worst_err, worst_wall = 0.0, 0.0
        for rate in MCS_RATES:
            cfg = make_cfg(duty=0.0, mcs=rate)
            t0 = time.perf_counter()
            metrics, _ = run_sim(cfg, seed=MASTER_SEED)
            wall = time.perf_counter() - t0
            analytic = analytic_goodput_mbps(rate, 1500, cfg.wifi)
            err = abs(throughput_mbps(metrics) - analytic) / analytic
            worst_err = max(worst_err, err)
            worst_wall = max(worst_wall, wall)
        ok = worst_err <= 0.02 and worst_wall < 5.0
        report(1, ok, f"worst rel err {worst_err:.4%} (tol 2%), "
                      f"worst wall {worst_wall:.2f}s (limit 5s) over all 8 MCS")
        assert worst_err <= 0.02
        assert worst_wall < 5.0


@pytest.fixture(scope="module")
def duty_law_rows():
    scenario = exp_duty_cycle()
    scenario.override_grid("lte.duty", [0.0, 0.25, 0.5, 0.75, 1.0])
    scenario.override_grid("lte.tx_power_dbm", [12.0])
    return run_sweep(scenario, MASTER_SEED, jobs=JOBS).rows


class TestCriterion2DutyCycleLaw:
    def test_normalized_tracks_one_minus_duty_at_high_power(self, duty_law_rows):
        worst = 0.0
        for mcs in (6, 54):
            for duty in (0.0, 0.25, 0.5, 0.75, 1.0):
                med = statistics.median(
                    float(r["normalized"]) for r in duty_law_rows
                    if float(r["lte.duty"]) == duty
                    and float(r["wifi.mcs_mbps"]) == mcs)
                worst = max(worst, abs(med - (1.0 - duty)))
        ok = worst <= 0.1
        report(2, ok, f"max |median - (1 - duty)| = {worst:.3f} (tol 0.1) "
                      f"over duty {{0, .25, .5, .75, 1}} x MCS {{6, 54}} at 12 dBm")
        assert ok


class TestCriterion3CaptureAsymmetry:
    def test_mcs_gap_large_at_low_power_small_at_high_power(self, default_sweeps):
        rows = load_rows(default_sweeps[0]["power"])
        gap_low = (median_normalized(rows, **{"lte.tx_power_dbm": -16.0,
                                              "wifi.tx_power_dbm": 17.0,
                                              "wifi.mcs_mbps": 6})
                   - median_normalized(rows, **{"lte.tx_power_dbm": -16.0,
                                                "wifi.tx_power_dbm": 17.0,
                                                "wifi.mcs_mbps": 54}))
        gap_high = abs(median_normalized(rows, **{"lte.tx_power_dbm": 12.0,
                                                  "wifi.tx_power_dbm": 17.0,
                                                  "wifi.mcs_mbps": 6})
                       - median_normalized(rows, **{"lte.tx_power_dbm": 12.0,
                                                    "wifi.tx_power_dbm": 17.0,
                                                    "wifi.mcs_mbps": 54}))
        ok = gap_low >= 0.2 and gap_high <= 0.05
        report(3, ok, f"MCS6-MCS54 gap {gap_low:.3f} at -16 dBm (need >= 0.2), "
                      f"{gap_high:.3f} at 12 dBm (need <= 0.05)")
        assert ok


class TestCriterion4WifiPowerInsensitivity:
    def test_wifi_power_changes_little(self, default_sweeps):
        rows = load_rows(default_sweeps[0]["power"])
        worst = 0.0
        for lte_p in (-16.0, -11.0, -6.0, -1.0, 4.0, 12.0):
            for mcs in (6, 54):
                diff = abs(
                    median_normalized(rows, **{"lte.tx_power_dbm": lte_p,
                                               "wifi.tx_power_dbm": 8.0,
                                               "wifi.mcs_mbps": mcs})
                    - median_normalized(rows, **{"lte.tx_power_dbm": lte_p,
                                                 "wifi.tx_power_dbm": 17.0,
                                                 "wifi.mcs_mbps": mcs}))
                worst = max(worst, diff)
        ok = worst <= 0.05
        report(4, ok, f"max |median(8 dBm) - median(17 dBm)| = {worst:.3f} "
                      f"(tol 0.05) across the LTE power x MCS grid")
        assert ok


class TestCriterion5PrbNeutrality:
    def test_prb_flat_at_high_power_varies_at_low_power(self, default_sweeps):
        rows = load_rows(default_sweeps[0]["prb"])
        prbs = (6, 15, 25, 50, 75, 100)

        def spread(lte_p, profile, mcs):
            meds = []
            for prb in prbs:
                sel = [float(r["normalized"]) for r in rows
                       if float(r["lte.n_prb"]) == prb
                       and float(r["lte.tx_power_dbm"]) == lte_p
                       and r["wifi.cca_profile"] == profile
                       and float(r["wifi.mcs_mbps"]) == mcs]
                meds.append(statistics.median(sel))
            return max(meds) - min(meds)

        spread_high = max(spread(12.0, prof, mcs)
                          for prof in ("vendor-A", "vendor-B")
                          for mcs in (6, 54))
        spread_low = max(spread(-16.0, prof, mcs)
                         for prof in ("vendor-A", "vendor-B")
                         for mcs in (6, 54))
        ok = spread_high <= 0.05 and spread_low >= 0.1
        report(5, ok, f"PRB spread {spread_high:.3f} at 12 dBm (need <= 0.05 per "
                      f"curve), max spread {spread_low:.3f} at -16 dBm (need >= 0.1)")
        assert ok


class TestCriterion6FrequencySymmetry:
    def test_symmetric_at_high_power_and_recovers_at_edges(self, default_sweeps):
        rows = load_rows(default_sweeps[0]["freq"])
        worst_asym = 0.0
        strictly_above = True
        for mcs in (6, 54):
            center = median_normalized(rows, **{"lte.center_offset_mhz": 0.0,
                                                "lte.tx_power_dbm": 12.0,
                                                "wifi.mcs_mbps": mcs})
            for delta in (5.0, 10.0, 15.0, 20.0):
                plus = median_normalized(rows, **{"lte.center_offset_mhz": delta,
                                                  "lte.tx_power_dbm": 12.0,
                                                  "wifi.mcs_mbps": mcs})
                minus = median_normalized(rows, **{"lte.center_offset_mhz": -delta,
                                                   "lte.tx_power_dbm": 12.0,
                                                   "wifi.mcs_mbps": mcs})
                worst_asym = max(worst_asym, abs(plus - minus))
                if delta == 20.0:
                    strictly_above = strictly_above and plus > center and minus > center
        ok = worst_asym <= 0.05 and strictly_above
        report(6, ok, f"max |median(+d) - median(-d)| = {worst_asym:.3f} at 12 dBm "
                      f"(tol 0.05); +-20 MHz strictly above 0 offset: {strictly_above}")
        assert ok


class TestCriterion7Determinism:
    def test_duty_sweep_is_byte_identical_across_executions(self, default_sweeps):
        paths, _ = default_sweeps
        same = paths["duty"].read_bytes() == paths["duty_rerun"].read_bytes()
        report(7, same, "two `sweep duty` executions with equal master seed "
                        "produced byte-identical CSV files")
        assert same


class TestCriterion8LteScheduleInvariants:
    def test_hundred_second_schedule_invariants(self):
        cfg = make_cfg(duty=0.5, duration=100.0)
        metrics, sim = run_sim(cfg, seed=MASTER_SEED)
        on_fraction = metrics.lte_airtime_ns / metrics.duration_ns
        ons = [t for t, on in lte_transitions(sim) if on]
        aligned = all(t % (10 * NS_PER_MS) == 0 for t in ons)
        _, lte_only = run_sim(cfg, seed=MASTER_SEED, include_wifi=False)
        invariant_trace = lte_transitions(sim) == lte_transitions(lte_only)
        ok = 0.48 <= on_fraction <= 0.52 and aligned and invariant_trace
        report(8, ok, f"on-time fraction {on_fraction:.4f} (need [0.48, 0.52]); "
                      f"{len(ons)} on-transitions all on 10 ms boundaries: {aligned}; "
                      f"schedule identical without WiFi: {invariant_trace}")
        assert ok


@settings(max_examples=300, deadline=None)
@given(offset=st.floats(min_value=0.0, max_value=60.0),
       w_int=st.floats(min_value=0.5, max_value=40.0),
       w_vic=st.floats(min_value=0.5, max_value=40.0))
def _overlap_symmetry(offset, w_int, w_vic):
    victim = SpectrumBand(0.0, w_vic)
    plus = overlap_fraction(SpectrumBand(offset, w_int), victim)
    minus = overlap_fraction(SpectrumBand(-offset, w_int), victim)
    assert plus == pytest.approx(minus, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(offsets=st.lists(st.floats(min_value=0.0, max_value=60.0),
                        min_size=2, max_size=8),
       w_int=st.floats(min_value=0.5, max_value=40.0),
       w_vic=st.floats(min_value=0.5, max_value=40.0))
def _overlap_monotone(offsets, w_int, w_vic):
    victim = SpectrumBand(0.0, w_vic)
    fractions = [overlap_fraction(SpectrumBand(off, w_int), victim)
                 for off in sorted(offsets)]
    for earlier, later in zip(fractions, fractions[1:]):
        assert later <= earlier + 1e-12


class TestCriterion9OverlapArithmetic:
    def test_symmetry_monotonicity_and_worked_examples(self):
        _overlap_symmetry()
        _overlap_monotone()
        wifi = SpectrumBand(0.0, 20.0)
        exact = (overlap_fraction(SpectrumBand(0.0, 18.0), wifi) == 1.0
                 and overlap_fraction(SpectrumBand(10.0, 18.0), wifi) == 0.5
                 and overlap_fraction(SpectrumBand(20.0, 18.0), wifi, -30.0)
                 == pytest.approx(0.001, rel=1e-12))
        report(9, exact, "overlap symmetry and |offset| monotonicity hold over "
                         "random bands; worked examples 1.0 / 0.5 / 0.001 exact")
        assert exact


class TestTrendExamples:
    """Qualitative trend checks on the default sweeps, beyond the criteria."""

    def test_high_power_duty_column_monotone_non_increasing(self, default_sweeps):
        rows = load_rows(default_sweeps[0]["duty"])
        for mcs in (6, 54):
            meds = [median_normalized(rows, **{"lte.duty": round(0.1 * i, 1),
                                               "lte.tx_power_dbm": 12.0,
                                               "wifi.mcs_mbps": mcs})
                    for i in range(11)]
            for earlier, later in zip(meds, meds[1:]):
                assert later <= earlier + 0.05

    def test_low_power_robust_mcs_dominates_at_half_duty(self, default_sweeps):
        rows = load_rows(default_sweeps[0]["duty"])
        robust = median_normalized(rows, **{"lte.duty": 0.5,
                                            "lte.tx_power_dbm": -16.0,
                                            "wifi.mcs_mbps": 6})
        fragile = median_normalized(rows, **{"lte.duty": 0.5,
                                             "lte.tx_power_dbm": -16.0,
                                             "wifi.mcs_mbps": 54})
        assert robust >= fragile

    def test_normalized_non_increasing_in_lte_power(self, default_sweeps):
        # The collide-to-defer transition may tick upward slightly (deferring
        # wastes less airtime than colliding); the trend must hold otherwise.
        rows = load_rows(default_sweeps[0]["power"])
        for wifi_p in (8.0, 17.0):
            for mcs in (6, 54):
                meds = [median_normalized(rows, **{"lte.tx_power_dbm": p,
                                                   "wifi.tx_power_dbm": wifi_p,
                                                   "wifi.mcs_mbps": mcs})
                        for p in (-16.0, -11.0, -6.0, -1.0, 4.0, 12.0)]
                for earlier, later in zip(meds, meds[1:]):
                    assert later <= earlier + 0.05

    def test_vendor_profiles_diverge_across_prb_at_low_power(self, default_sweeps):
        rows = load_rows(default_sweeps[0]["prb"])
        biggest = 0.0
        for prb in (6, 15, 25, 50, 75, 100):
            sel = {}
            for profile in ("vendor-A", "vendor-B"):
                values = [float(r["normalized"]) for r in rows
                          if float(r["lte.n_prb"]) == prb
                          and float(r["lte.tx_power_dbm"]) == -16.0
                          and r["wifi.cca_profile"] == profile
                          and float(r["wifi.mcs_mbps"]) == 6]
                sel[profile] = statistics.median(values)
            biggest = max(biggest, abs(sel["vendor-A"] - sel["vendor-B"]))
        assert biggest >= 0.1

    def test_zero_offset_low_power_robust_mcs_near_baseline(self, default_sweeps):
        rows = load_rows(default_sweeps[0]["freq"])
        med = median_normalized(rows, **{"lte.center_offset_mhz": 0.0,
                                         "lte.tx_power_dbm": -16.0,
                                         "wifi.mcs_mbps": 6})
        assert med == pytest.approx(1.0, abs=0.05)


class TestCriterion10FullSuiteRuntime:
    def test_four_default_sweeps_complete_within_budget(self, default_sweeps):
        paths, elapsed = default_sweeps
        total = sum(elapsed.values())
        counts = {name: len(load_rows(paths[name]))
                  for name in ("duty", "power", "prb", "freq")}
        ok = total < 1800.0 and counts == {"duty": 440, "power": 120,
                                           "prb": 360, "freq": 270}
        report(10, ok, f"all four default sweeps ({sum(counts.values())} rows) "
                       f"in {total:.1f}s with --jobs {JOBS} (limit 1800s); "
                       f"row counts {counts}")
        assert ok
