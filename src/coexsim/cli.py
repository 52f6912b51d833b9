"""Command-line entry point: single runs, the four sweeps, and the DCF oracle check.

Exit codes: 0 success, 2 configuration error, 3 runtime abort.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

from .config import WIFI_ONLY, ConfigError, RunConfig, parse_config, parse_value, resolve_path
from .engine import SchedulingError
from .experiments import (POOL_MIN_WORK_S, SCENARIOS, SweepError, SweepResult,
                          check_one_cycle, run_sweep)
from .metrics import throughput_mbps
from .simulation import Simulation, plan
from .wifi import MCS_RATES, analytic_goodput_mbps


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:  # a leading BOM is no text
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8: {exc.reason} at byte {exc.start}"
                          ) from exc
    except ValueError as exc:  # a NUL byte in the path
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)


def _check_outputs(*paths: str | None) -> None:
    """Raise ConfigError unless each path is stdout or a distinct file we may write."""
    files = [path for path in paths if path is not None and path != "-"]
    for path in files:
        parent = os.path.dirname(path) or "."
        if "\0" in path:  # os.path raises ValueError on it
            raise ConfigError(f"cannot write {path!r}: embedded null byte")
        if os.path.isdir(path):
            reason = "Is a directory"
        elif not os.path.isdir(parent):
            reason = "No such directory"
        elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
            reason = "Permission denied"
        else:
            continue
        raise ConfigError(f"cannot write {path}: {reason}")
    if len({os.path.realpath(path) for path in files}) < len(files):
        raise ConfigError(f"output paths {', '.join(files)} name the same file twice")


def _write(path: str | None, chunks) -> None:
    """Write text chunks to ``path``, or to stdout for None or '-'."""
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(chunks)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.duration is not None:
        cfg = dataclasses.replace(cfg, duration_s=args.duration)
    _check_outputs(args.out, args.trace)
    sim = Simulation(cfg, trace=args.trace is not None)
    result = SweepResult("run", [])
    result.add({}, 0, cfg.seed, sim.run(), normalized="")
    _write(args.out, [result.to_csv_text()])
    if args.trace is not None:
        _write(args.trace, sim.engine.trace)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    builder = SCENARIOS.get(args.scenario)
    if builder is None:
        raise ConfigError(f"unknown scenario {args.scenario!r}; "
                          f"built-ins: {', '.join(sorted(SCENARIOS))}")
    scenario = builder()
    if args.config is not None:
        scenario.base = _load_config(args.config)
        scenario.duration_s = scenario.base.duration_s
    if args.reps is not None:
        scenario.reps = args.reps
    if args.duration is not None:
        scenario.duration_s = args.duration
    given = set()  # one --grid an axis: a later one would replace the earlier
    for item in args.grid or []:
        if "=" not in item:
            raise ConfigError(f"--grid expects key=v1,v2,... got {item!r}")
        path, _, values = item.partition("=")
        if (path := ".".join(resolve_path(path))) in given:
            raise ConfigError(f"--grid gives axis {path!r} twice")
        given.add(path)
        scenario.override_grid(path, values.split(","))
    if (args.jobs or 0) < 0:
        raise ConfigError(f"--jobs must be >= 0 (0 uses all cores), got {args.jobs}")
    if not 0 <= args.seed < 2**64:  # the range of the run seeds it derives
        raise ConfigError(f"--seed must be in [0, 2^64 - 1], got {args.seed}")
    jobs = args.jobs or os.cpu_count() or 1
    out = args.out or f"{scenario.name}_sweep.csv"
    summary = args.summary or (out if out == "-" else _summary_path(out))
    _check_outputs(out, summary)
    result = run_sweep(scenario, args.seed, jobs=jobs)
    _write(out, [result.to_csv_text()])
    _write(summary, [result.summary_csv_text()])
    if out != "-":
        print(f"wrote {len(result.rows)} rows to {out} (summary: {summary})")
    return 0


def _summary_path(out: str) -> str:
    """``.summary`` before the output's extension, if its file name has one."""
    stem, ext = os.path.splitext(out)
    return f"{stem}.summary{ext}"


def cmd_baseline(args: argparse.Namespace) -> int:
    base = RunConfig(seed=args.seed, duration_s=args.duration, lte=WIFI_ONLY)
    rates = MCS_RATES if args.mcs == "all" else args.mcs.split(",")
    configs = [dataclasses.replace(base, wifi=dataclasses.replace(
        base.wifi, mcs_mbps=parse_value("wifi", "mcs_mbps", str(rate)))) for rate in rates]
    mcs = [cfg.wifi.mcs_mbps for cfg in configs]
    if len(set(mcs)) < len(mcs):
        raise ConfigError(f"wifi.mcs_mbps repeats a rate in {mcs}")
    check_one_cycle(args.duration, [plan(cfg.lte, cfg.wifi, cfg.radio) for cfg in configs])
    print(f"{'mcs_mbps':>8} {'analytic_mbps':>14} {'simulated_mbps':>15} {'rel_err':>9}")
    worst = 0.0
    for cfg in configs:
        rate = cfg.wifi.mcs_mbps
        analytic = analytic_goodput_mbps(rate, cfg.wifi.payload_bytes, cfg.wifi)
        simulated = throughput_mbps(Simulation(cfg).run())
        rel_err = abs(simulated - analytic) / analytic
        worst = max(worst, rel_err)
        print(f"{rate:>8} {analytic:>14.4f} {simulated:>15.4f} {rel_err:>9.4%}")
    print(f"worst relative error: {worst:.4%}")
    return 0


@functools.cache  # one parser serves every call in a process: parsing leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coexsim",
        description="Duty-cycled unlicensed-LTE / 802.11 DCF coexistence simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="single simulation, one CSV row")
    run_p.add_argument("--config", help="configuration file (defaults: testbed)")
    run_p.add_argument("--seed", type=int, help="override the config seed")
    run_p.add_argument("--duration", type=float, help="override run duration (s)")
    run_p.add_argument("--out", help="output path (default: stdout)")
    run_p.add_argument("--trace", help="write the event trace to this file")
    run_p.set_defaults(fn=cmd_run)

    sweep_p = sub.add_parser("sweep", help="run a named experiment sweep")
    sweep_p.add_argument("scenario", help="duty | power | prb | freq")
    sweep_p.add_argument("--config", help="base configuration file")
    sweep_p.add_argument("--seed", type=int, default=1, help="master seed (default 1)")
    sweep_p.add_argument("--reps", type=int, help="repetitions per grid point")
    sweep_p.add_argument("--duration", type=float, help="seconds per run")
    sweep_p.add_argument("--out", help="CSV output path (default <scenario>_sweep.csv)")
    sweep_p.add_argument("--summary", help="box-stats CSV path")
    sweep_p.add_argument("--jobs", type=int,
                         help="worker processes, at most one per core and per planned run "
                              "(default and 0: all cores); a sweep whose runs x "
                              f"(duration + 1 s) is under {POOL_MIN_WORK_S:g} s runs "
                              "in one process")
    sweep_p.add_argument("--grid", action="append", metavar="KEY=V1,V2,...",
                         help="override an axis grid, e.g. --grid duty=0,0.5,1")
    sweep_p.set_defaults(fn=cmd_sweep)

    base_p = sub.add_parser("baseline",
                            help="analytic vs simulated duty-0 DCF goodput")
    base_p.add_argument("--mcs", default="all", help="'all' or comma list, e.g. 6,54")
    base_p.add_argument("--duration", type=float, default=10.0)
    base_p.add_argument("--seed", type=int, default=1)
    base_p.set_defaults(fn=cmd_baseline)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SweepError, SchedulingError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
