import multiprocessing
import re
from pathlib import Path

import pytest

from coexsim import cli, experiments
from coexsim.cli import main
from coexsim.config import parse_config


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_serves_a_process_as_fresh_ones_do(capsys):
    # main builds its parser once per process.  An argument error, then a run
    # and a sweep give the exit codes and output bytes that each gives from a
    # parser built for it alone.
    calls = [["run", "--seed", "x"], ["run", "--duration", "0.05", "--seed", "4"],
             ["sweep", "duty", "--out", "-", "--reps", "1", "--duration", "0.05", "--jobs", "1",
              "--grid", "duty=0,0.5", "--grid", "lte.tx_power_dbm=12", "--grid", "mcs_mbps=54"]]

    def outcomes(fresh):
        seen = []
        for argv in calls:
            if fresh:
                cli.build_parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse exits on a bad argument
                code = exc.code
            seen.append((code, *capsys.readouterr()))
        return seen

    cli.build_parser.cache_clear()
    shared = outcomes(fresh=False)
    assert cli.build_parser.cache_info().misses == 1
    assert [code for code, _, _ in shared] == [2, 0, 0]
    assert "invalid int value: 'x'" in shared[0][2] and shared[2][1].count("\n") > 3
    assert shared == outcomes(fresh=True)


class TestRun:
    def test_default_run_emits_header_and_row(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--duration", "0.2")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("scenario,rep,seed,throughput_mbps,normalized")
        cells = row.split(",")
        assert cells[0] == "run"
        assert cells[4] == ""  # no baseline requested -> normalized empty
        assert float(cells[3]) > 0

    def test_same_invocation_twice_is_identical(self, capsys):
        _, first, _ = run_cli(capsys, "run", "--duration", "0.2", "--seed", "9")
        _, second, _ = run_cli(capsys, "run", "--duration", "0.2", "--seed", "9")
        assert first == second

    def test_trace_flag_writes_event_trace(self, tmp_path, capsys):
        trace = tmp_path / "events.log"
        code, _, _ = run_cli(capsys, "run", "--duration", "0.05",
                             "--trace", str(trace))
        assert code == 0
        lines = trace.read_text().strip().splitlines()
        assert lines
        # Format: time_ns kind node [detail]
        t, kind, node = lines[0].split(" ")[:3]
        assert t == "0" and kind in ("lte-on", "cca-sample")
        times = [int(line.split(" ")[0]) for line in lines]
        assert times == sorted(times)

    def test_config_file_and_overrides(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text("[lte]\nduty = 0\n[wifi]\nmcs_mbps = 6\n")
        code, out, _ = run_cli(capsys, "run", "--config", str(path),
                               "--duration", "0.5")
        assert code == 0
        throughput = float(out.strip().splitlines()[1].split(",")[3])
        assert throughput == pytest.approx(5.37, abs=0.3)

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[lte]\nduty = 1.3\n")
        code, _, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 2
        assert "duty" in err

    def test_the_readme_example_config_runs(self, tmp_path, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"^```ini\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
        assert len(blocks) == 1
        assert parse_config(blocks[0]).lte.duty == 0.5  # "50%  ; or 0.5"
        path = tmp_path / "readme.ini"
        path.write_text(blocks[0], encoding="utf-8")
        code, out, err = run_cli(capsys, "run", "--config", str(path), "--duration", "0.05")
        assert code == 0, err
        assert len(out.splitlines()) == 2  # the header and one row

    def test_a_config_saved_with_a_byte_order_mark_is_read(self, tmp_path, capsys):
        text = "[run]\nseed = 3\n[lte]\nduty = 0.2\n"
        rows = []
        for name, data in (("plain.ini", text.encode()), ("bom.ini", text.encode("utf-8-sig"))):
            (tmp_path / name).write_bytes(data)
            code, out, err = run_cli(capsys, "run", "--config", str(tmp_path / name),
                                     "--duration", "0.05")
            assert code == 0, err
            rows.append(out)
        assert rows[0] == rows[1]

    def test_missing_config_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "run", "--config", "/nonexistent.ini")
        assert code == 2


class TestSweep:
    def test_unknown_scenario_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "bogus", "--out", "-")
        assert code == 2
        assert "bogus" in err

    def test_restricted_duty_sweep_writes_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "duty.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "duty", "--out", str(out), "--seed", "3",
            "--reps", "2", "--duration", "0.3", "--jobs", "1",
            "--grid", "duty=0,1", "--grid", "lte.tx_power_dbm=12",
            "--grid", "mcs_mbps=54")
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2  # header + 2 duties x 2 reps
        summary = tmp_path / "duty.summary.csv"
        assert summary.exists()
        assert len(summary.read_text().strip().splitlines()) == 1 + 2

    @pytest.mark.parametrize("out,summary", [
        ("duty.csv", "duty.summary.csv"),
        ("out.v1/sweep", "out.v1/sweep.summary"),  # a dot in a directory name
        (".hidden", ".hidden.summary"),
        ("sweep", "sweep.summary"),
    ])
    def test_default_summary_path_puts_summary_before_the_extension(
            self, tmp_path, monkeypatch, capsys, out, summary):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out.v1").mkdir()
        code, _, _ = run_cli(capsys, "sweep", "power", "--reps", "1", "--duration", "0.05",
                             "--jobs", "1", "--grid", "lte.tx_power_dbm=12",
                             "--grid", "wifi.tx_power_dbm=17", "--grid", "mcs_mbps=54",
                             "--out", out)
        assert code == 0
        assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")
                      if p.is_file()) == sorted([out, summary])

    def test_sweep_is_byte_deterministic(self, tmp_path, capsys, pool_always):
        texts = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            run_cli(capsys, "sweep", "freq", "--out", str(out), "--seed", "3",
                    "--reps", "1", "--duration", "0.2", "--jobs", "2",
                    "--grid", "center_offset_mhz=-5,5",
                    "--grid", "lte.tx_power_dbm=12", "--grid", "mcs_mbps=54")
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]

    def test_axis_cells_print_the_converted_value(self, tmp_path, capsys):
        texts = []
        for power in ("12", "12.0"):
            out = tmp_path / f"{power}.csv"
            code, _, _ = run_cli(capsys, "sweep", "duty", "--out", str(out), "--reps", "1",
                                 "--duration", "0.05", "--jobs", "1", "--grid", "duty=0.5",
                                 "--grid", f"lte.tx_power_dbm={power}",
                                 "--grid", "mcs_mbps=54")
            assert code == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]
        assert texts[0].splitlines()[1].startswith("duty,0.5,12.0,54,0,")

    def test_baseline_without_payload_exits_3_naming_it(self, capsys):
        # Under soft PER each frame decodes with odds of about 1e-11: by chance, none does.
        code, _, err = run_cli(capsys, "sweep", "power", "--out", "-", "--reps", "1",
                               "--duration", "0.05", "--jobs", "1",
                               "--grid", "lte.tx_power_dbm=12",
                               "--grid", "wifi.tx_power_dbm=-80", "--grid", "wifi.mcs_mbps=54",
                               "--grid", "radio.soft_slope_k=2")
        assert code == 3
        assert err.startswith("runtime error: cannot normalize against the baseline for "
                              "{'lte.tx_power_dbm': 12.0, 'wifi.tx_power_dbm': -80.0, "
                              "'wifi.mcs_mbps': 54, 'radio.soft_slope_k': 2.0} rep 0")
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("grid", [["wifi.tx_power_dbm=-100"],
                                      # the sigmoid underflows: no odds to draw against
                                      ["wifi.tx_power_dbm=-100", "radio.soft_slope_k=40"]])
    def test_baseline_that_surely_delivers_nothing_exits_2_before_any_run(self, capsys,
                                                                        monkeypatch, grid):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(experiments, "_execute", no_run)
        code, out, err = run_cli(capsys, "sweep", "duty", "--reps", "1", "--duration", "0.2",
                                 "--out", "-", *(f"--grid={axis}" for axis in grid))
        assert code == 2 and out == ""
        assert err == ("config error: a duty-0 baseline acknowledges no frame: its data never "
                       "decodes at -46.2 dB SINR against a 5.0 dB threshold\n")

    def test_a_run_of_one_baseline_cycle_is_no_config_error(self, capsys):
        # Whether a frame is acknowledged in exactly one cycle depends on the draws.
        code, _, err = run_cli(capsys, "sweep", "duty", "--out", "-", "--reps", "3",
                               "--duration", "0.002166", "--jobs", "1",
                               "--grid", "lte.tx_power_dbm=12")
        assert code in (0, 3)
        assert not err.startswith("config error")

    def test_config_duration_sets_the_run_length_unless_overridden(self, tmp_path, capsys):
        ini = tmp_path / "base.ini"
        ini.write_text("[run]\nduration_s = 0.3\n")
        grid = ["--reps", "1", "--jobs", "1", "--grid", "lte.tx_power_dbm=12",
                "--grid", "wifi.tx_power_dbm=17", "--grid", "mcs_mbps=54"]
        attempts = {}
        for label, extra in (("ini", []), ("flag", ["--duration", "1.5"])):
            out = tmp_path / f"{label}.csv"
            code, _, _ = run_cli(capsys, "sweep", "power", "--config", str(ini),
                                 "--out", str(out), *grid, *extra)
            assert code == 0
            row = dict(zip(*(line.split(",") for line in out.read_text().splitlines())))
            attempts[label] = int(row["attempts"])
        # A 54 Mbps run at 50% duty makes about 1,300 attempts a second.
        assert 100 < attempts["ini"] < 1000 < attempts["flag"] < 3000

    def test_ambiguous_grid_key_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "duty", "--out", "-",
                               "--grid", "tx_power_dbm=12,17")
        assert code in (0, 2)  # tx_power_dbm exists in both lte and wifi
        assert code == 2 and "ambiguous" in err


class TestBaseline:
    def test_single_mcs_report(self, capsys):
        code, out, _ = run_cli(capsys, "baseline", "--mcs", "54",
                               "--duration", "2.0")
        assert code == 0
        assert "worst relative error" in out
        worst = float(out.strip().splitlines()[-1].split(":")[1].strip().rstrip("%"))
        assert worst < 2.0

    def test_goodput_monotone_in_rate_label(self, capsys):
        code, out, _ = run_cli(capsys, "baseline", "--duration", "1.0")
        assert code == 0
        rows = [line.split() for line in out.strip().splitlines()[1:-1]]
        simulated = [float(r[2]) for r in rows]
        assert simulated == sorted(simulated)
        assert len(simulated) == 8

    def test_bad_mcs_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "baseline", "--mcs", "11")
        assert code == 2


class TestInputErrors:
    def test_steep_soft_slope_runs(self, tmp_path, capsys):
        path = tmp_path / "soft.ini"
        path.write_text("[radio]\nsoft_slope_k = 40\n[lte]\ntx_power_dbm = 12\n")
        code, out, err = run_cli(capsys, "run", "--config", str(path),
                                 "--duration", "0.3")
        assert code == 0, err
        assert out.startswith("scenario,")

    def test_bad_bool_grid_token_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "prb", "--out", "-", "--reps", "1",
                               "--duration", "0.05",
                               "--grid", "wifi.cca_mid_packet_abort=false,maybe")
        assert code == 2
        assert "cca_mid_packet_abort" in err and "maybe" in err


@pytest.mark.usefixtures("pool_always")
class TestSweepPlanErrors:
    @pytest.mark.parametrize("argv,needle", [
        (["--grid", "lte.duty=0.0,1.5"], "duty"),
        (["--duration", "-1"], "duration_s"),
        (["--grid", "lte.duty=0.0,abc"], "lte.duty"),
        (["--reps", "0"], "reps"),
        (["--grid", "wifi.mcs_mbps=54.7"], "wifi.mcs_mbps"),
        (["--grid", "lte.nonsense=1"], "lte.nonsense"),
        (["--grid", "lte.tx_power_dbm=nan"], "lte.tx_power_dbm"),
        # Not 0, but too small for a float: it would run as duty 0.
        (["--grid", "lte.duty=1e-400"], "lte.duty: '1e-400' is not 0"),
        # Each row would be written twice and summarised as one group.
        (["--grid", "lte.duty=0.5,0.5"], "'lte.duty' repeats a value in [0.5, 0.5]"),
        (["--grid", "lte.duty=50%,0.5"], "'lte.duty' repeats a value in [0.5, 0.5]"),
        # An axis given twice, also by its key alone: only the last would run.
        (["--grid", "lte.duty=0.5", "--grid", "duty=0.6"], "--grid gives axis 'lte.duty' twice"),
        (["--grid", "lte.tx_power_dbm=-16"], "--grid gives axis 'lte.tx_power_dbm' twice"),
        # 1 ns short of the 6 Mbps baseline's DIFS, data, SIFS and ACK: no frame
        # could be acknowledged, so no row could be normalized.
        (["--duration", "0.002165999"], "run.duration_s must be at least one baseline "
                                        "DIFS, data, SIFS and ACK (2166000 ns)"),
    ])
    def test_bad_sweep_input_exits_2_before_a_pool_starts(self, monkeypatch, tmp_path,
                                                          capsys, argv, needle):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool started")

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", no_pool)
        out = tmp_path / "duty.csv"
        base = ["--reps", "1", "--duration", "0.05", "--grid", "lte.tx_power_dbm=12"]
        code, _, err = run_cli(capsys, "sweep", "duty", "--jobs", "2",
                               "--out", str(out), *base, *argv)
        assert code == 2
        assert err.startswith("config error:") and needle in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="pool workers do not inherit the test process's patches")
    def test_failing_run_exits_3_naming_its_grid_point(self, monkeypatch, capsys):
        class Failing:
            def __init__(self, cfg, seed):
                pass

            def run(self):
                raise RuntimeError("injected failure")

        monkeypatch.setattr(experiments, "Simulation", Failing)
        code, _, err = run_cli(capsys, "sweep", "duty", "--out", "-", "--jobs", "2",
                               "--reps", "1", "--duration", "0.05",
                               "--grid", "lte.duty=0.5", "--grid", "lte.tx_power_dbm=12",
                               "--grid", "wifi.mcs_mbps=54")
        assert code == 3
        assert ("run failed at {'lte.duty': 0.5, 'lte.tx_power_dbm': 12.0, "
                "'wifi.mcs_mbps': 54} rep 0: injected failure") in err


# A sweep of one short run and its baseline, CSV to stdout.
ONE_RUN_SWEEP = ["sweep", "duty", "--duration", "0.05", "--reps", "1", "--grid", "lte.duty=0.5",
                 "--out", "-"]


class TestRunInputErrors:
    @pytest.mark.parametrize("argv,ini,needle", [
        (["run", "--duration", "nan"], None, "duration_s"),
        (["run"], "[run]\nduration_s = inf\n", "duration_s"),
        (["run", "--duration", "1e-12"], None, "duration_s"),
        (["baseline", "--duration", "-1"], None, "duration_s"),
        (["baseline", "--duration", "inf"], None, "duration_s"),
        (["baseline", "--mcs", "abc"], None, "mcs_mbps"),
        # A baseline too short for one DIFS, data, SIFS and ACK, and a rate run twice.
        (["baseline", "--duration", "0.002"], None, "run.duration_s must be at least one"),
        (["baseline", "--duration", "0.0001", "--mcs", "6"], None, "(2166000 ns)"),
        (["baseline", "--mcs", "6,6"], None, "wifi.mcs_mbps repeats a rate in [6, 6]"),
        (["run"], "[lte]\ntx_power_dbm = 12%\n", "tx_power_dbm"),
        # [DEFAULT] neither vanishes nor fills in the other sections.
        (["run"], "[DEFAULT]\nduty = 0.3\n", "unknown section [DEFAULT]"),
        (["run"], "[DEFAULT]\nseed = 3\n[run]\n", "unknown section [DEFAULT]"),
        (["run"], "[lte]\ntx_power_dbm = nan\n", "tx_power_dbm"),
        (["run"], "[lte]\nduty = 1e-400%\n", "lte.duty: '1e-400%' is not 0"),
        # Finite values whose link budget overflowed or took log10 of 0.
        (["run"], "[lte]\ntx_power_dbm = 1e308\n", "tx_power_dbm"),
        (["run"], "[radio]\noob_floor_dbc = -4000\n[lte]\ncenter_offset_mhz = 40\n",
         "oob_floor_dbc"),
        (["run"], "[radio]\ndist_lte_to_wifi_tx_m = 1e-300\n", "dist_lte_to_wifi_tx_m"),
        (["run"], "[wifi]\ncca_measure_band = primary20\n", "wifi.cca_measure_band"),
        # A threshold for no 802.11a rate is not silently ignored.
        (["run"], "[radio]\nper_thresholds = 100:40\n", "radio.per_thresholds"),
        # Nor one that is not 0 but converts to 0 dB.
        (["run"], "[radio]\nper_thresholds = 6:1e-400\n",
         "radio.per_thresholds: '1e-400' is not 0 but converts to 0.0"),
        # A control rate that is no 802.11a rate would send the ACK at 6 Mbps.
        (["run"], "[wifi]\ncontrol_rate_mbps = 7\n", "wifi.control_rate_mbps must be one of"),
        # Values whose DCF cycles overflow the step's int64 ns.
        (["run", "--duration", "0.2"], "[lte]\nduty = 1\n[wifi]\ncw_max = 4611686018427387903"
         "\nretry_limit = 100\ncca_ed_threshold_dbm = 30\n", "cw_max"),
        (["run", "--duration", "0.2"], "[lte]\nduty = 1\n[wifi]\ncw_max = 9223372036854775807"
         "\nretry_limit = 100\ncca_ed_threshold_dbm = 30\n", "cw_max"),
        (["run"], "[wifi]\npayload_bytes = 1e15\n", "payload_bytes"),
        (["run"], "[wifi]\npayload_bytes = 1000000000000000\n", "payload_bytes"),
        (["run"], "[wifi]\nretry_limit = 10000000000000000000000\n", "retry_limit"),
        # Seeds outside the engine's 64 bits.
        (["run", "--seed", "-1"], None, "run.seed"),
        (["run", "--seed", "18446744073709551616"], None, "run.seed"),
        (["run"], "[run]\nseed = 18446744073709551621\n", "run.seed"),
        (["baseline", "--mcs", "54", "--seed", "-1"], None, "run.seed"),
        # A sweep's master seed: the range of the run seeds it derives.
        ([*ONE_RUN_SWEEP, "--seed", "-1"], None, "--seed must be in [0, 2^64 - 1], got -1"),
        ([*ONE_RUN_SWEEP, "--seed", str(2**64)], None, "--seed must be in [0, 2^64 - 1]"),
        ([*ONE_RUN_SWEEP, "--seed", str(10**29)], None, "--seed must be in [0, 2^64 - 1]"),
        # Backoff windows wider than the 32 bits a draw takes: 33-bit windows
        # only, a 32-bit cw_min under a 33-bit cw_max, and cw_max alone.
        (["run", "--seed", "3", "--duration", "300000"], "[lte]\nduty = 0\n\n[wifi]\n"
         "slot_us = 1\ncw_min = 8589934591\ncw_max = 8589934591\n", "wifi.cw_min"),
        (["run", "--seed", "3", "--duration", "300000"], "[lte]\nduty = 1\ntx_power_dbm = 12"
         "\n\n[wifi]\ncca_ed_threshold_dbm = 30\nslot_us = 1\ncw_min = 4294967295\n"
         "cw_max = 8589934591\nretry_limit = 2\n", "wifi.cw_max"),
        (["run"], "[wifi]\ncw_max = 8589934591\n", "wifi.cw_max"),
        # An LTE whose active interval rounds to 0 ms would never radiate.
        (["run"], "[lte]\nduty = 0.002\n", "lte.duty"),
        (["run"], "[lte]\nduty = 1\nmean_period_ms = 0.4\n", "lte.duty"),
        # A 32-bit window whose DCF cycles overflow the step's int64 ns.
        (["run"], "[wifi]\nslot_us = 1000\ncw_max = 4294967295\n", "wifi.cw_max must keep"),
    ])
    def test_bad_input_exits_2_with_one_line(self, tmp_path, capsys, argv, ini, needle):
        if ini is not None:
            path = tmp_path / "bad.ini"
            path.write_text(ini)
            argv = [*argv, "--config", str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("config error:") and needle in err
        assert len(err.strip().splitlines()) == 1 and out == ""


class TestFileErrors:
    @pytest.fixture
    def no_runs(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli, "Simulation", refuse)
        monkeypatch.setattr(cli, "run_sweep", refuse)

    def test_negative_jobs_exits_2_before_any_run(self, tmp_path, capsys, no_runs):
        out = tmp_path / "out.csv"
        code, stdout, err = run_cli(capsys, "sweep", "duty", "--jobs", "-3", "--out", str(out))
        assert code == 2 and stdout == ""
        assert err == "config error: --jobs must be >= 0 (0 uses all cores), got -3\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv,needle", [
        (["run", "--config", "{tmp}"], "Is a directory"),
        (["run", "--config", "{tmp}/latin1.ini"], "not UTF-8"),
        (["run", "--config", "{tmp}/missing.ini"], "No such file"),
        (["run", "--out", "{tmp}/missing/run.csv"], "No such directory"),
        (["run", "--out", "{tmp}"], "Is a directory"),
        (["run", "--out", "{tmp}/out.csv", "--trace", "{tmp}/missing/trace.log"],
         "No such directory"),
        (["run", "--out", "{tmp}/out.csv", "--trace", "{tmp}"], "Is a directory"),
        (["sweep", "duty", "--out", "{tmp}/missing/duty.csv"], "No such directory"),
        (["sweep", "duty", "--out", "{tmp}/out.csv", "--summary", "{tmp}/missing/s.csv"],
         "No such directory"),
        # One file for two outputs: the second would overwrite the first.
        (["run", "--out", "{tmp}/out.csv", "--trace", "{tmp}/../{tmp.name}/out.csv"],
         "same file"),
        (["sweep", "duty", "--out", "{tmp}/out.csv", "--summary", "{tmp}/out.csv"],
         "same file"),
    ])
    def test_file_error_exits_2_before_any_run(self, tmp_path, capsys, no_runs, argv,
                                               needle):
        (tmp_path / "latin1.ini").write_bytes("[wifi]\n# café\nmcs_mbps = 6\n".encode("latin-1"))
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("config error:") and needle in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "out.csv").exists()
