"""The command line fuzzed: arbitrary INI text, and argv built from the real
flags with hostile values, go to ``coexsim.cli.main``.

Whatever it is given, ``main`` exits 0, 2 (a config error) or 3 (a runtime
abort) without a traceback, and an exit 2 leaves no output file.  Every run
lasts at most 0.05 s.  ``COEXSIM_FUZZ_EXAMPLES`` sets the examples per test.
"""

import configparser
import contextlib
import dataclasses
import io
import os
import tempfile
from unittest import mock

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from coexsim import cli
from coexsim.config import (ConfigError, LteSettings, RadioSettings, RunConfig, WifiSettings,
                            parse_config)

EXAMPLES = int(os.environ.get("COEXSIM_FUZZ_EXAMPLES", "40"))
FUZZ = settings(max_examples=EXAMPLES, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

SECTIONS = {"run": RunConfig(), "lte": LteSettings(), "wifi": WifiSettings(),
            "radio": RadioSettings()}
KEYS = {name: [f.name for f in dataclasses.fields(settings) if f.name not in SECTIONS]
        for name, settings in SECTIONS.items()}
HOSTILE = ["", " ", "-", "--", "0", "-0", "1", "-1", "2", "7", "1.5", "1e-9", "1e-400",
           "1e400", "nan", "inf", "-inf", "0x10", "1_0", "٣", "x", "\x00", "é",
           str(2**64), str(2**63), str(-2**63), "9" * 5000, "=", "a=b", ".", ".."]
# Values a key can take, and shapes near them.
VALUES = HOSTILE + ["true", "off", "vendor-A", "vendor-B", "vendor-C", "full20", "primary10",
                    "6:5, 9:6", "6:5,6:6", "50%", "1e-400%", "100", "54", "6", "15", "1023",
                    "-16", "12", "0.3", "1.0", "0.05",
                    # An inline comment after whitespace, or a semicolon inside a value.
                    "50%  ; or 0.5", "0.5;x", "vendor-B ;", "6:5 ; 9:6", "1\t;"]
# Runs stay at 0.05 s at most: every number here that parses as a duration is
# one, or is rejected.
DURATIONS = ["0.05", "0.01", "5e-2", "1e-9", "0", "-1", "-0.05", "nan", "inf", "-inf",
             "1e400", "1e-400", "", "x", "0x1"]
# Each flag's hostile values; a flag not named takes HOSTILE.
FLAG_VALUES = {
    "--duration": DURATIONS,
    "--reps": ["-1", "0", "1", "2", "", "x", "1.5", "nan", "0x2"],
    "--jobs": ["-1", "0", "1", "2", "3", str(2**63), "", "x"],
    "--grid": ["duty=0,1", "lte.duty=0.5", "duty=", "=1", "duty", "lte.duty=1e-400",
               "duty=nan", "wifi.mcs_mbps=7", "lte.bogus=1", "mcs_mbps=54,54",
               "wifi.cca_mid_packet_abort=maybe", "radio.per_thresholds=6:5", "n_prb=6"],
    "--mcs": ["all", "6", "6,54", "6,,54", "7", "", "54,all"],
    "--out": ["out.csv", "-", ".", "..", "/nonexistent/dir/out.csv", "out.csv/x", ""],
    "--summary": ["summary.csv", "out.csv", "-", ".", "/nonexistent/s.csv", ""],
    "--trace": ["trace.log", "out.csv", "-", ".", "/nonexistent/t.log", ""],
    "--config": ["config.ini", "missing.ini", ".", "/nonexistent.ini", ""],
}
COMMANDS = {name: [option for action in sub._actions for option in action.option_strings]
            for name, sub in cli.build_parser()._subparsers._group_actions[0].choices.items()}


def ini_line():
    key = st.sampled_from(sorted({k for keys in KEYS.values() for k in keys})) | st.text(max_size=8)
    value = st.sampled_from(VALUES) | st.text(max_size=12)
    section = st.sampled_from([*KEYS, "DEFAULT", "", "Run"]) | st.text(max_size=8)
    return (section.map(lambda name: f"[{name}]")
            | st.tuples(key, st.sampled_from([" = ", "=", ": ", " ", ""]), value).map("".join)
            | st.text(max_size=20))


def ini_section():
    """A real section with some of its own keys, each with its default value
    (often, so that some configs run) or a value near a real one."""
    def pair(name, key):
        default = getattr(SECTIONS[name], key)
        value = st.sampled_from(VALUES)
        if default is not None:
            value = st.one_of(*[st.just(str(default))] * 3, value)
        return st.tuples(st.just(key), value)

    def lines(name):
        pairs = st.lists(st.sampled_from(KEYS[name]).flatmap(lambda key: pair(name, key)),
                         max_size=4)
        return pairs.map(lambda kvs: "".join([f"[{name}]\n", *(f"{k} = {v}\n" for k, v in kvs)]))
    return st.sampled_from(list(KEYS)).flatmap(lines)


INI_TEXT = (st.lists(ini_section(), max_size=4).map("\n".join).map(str.encode)
            | st.lists(ini_section() | ini_line(), max_size=10).map("\n".join).map(str.encode)
            | st.text().map(str.encode) | st.binary(max_size=64))


def call_main(argv, ini: bytes | None = None):
    """``main(argv)`` in a fresh working directory, with ``ini`` as its
    config.ini: the exit code, stderr, and the files it left there."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            if ini is not None:
                with open("config.ini", "wb") as handle:
                    handle.write(ini)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse's usage errors, and --help
                    code = exc.code
            left = sorted(set(os.listdir(".")) - {"config.ini"})
        finally:
            os.chdir(cwd)
    return code, err.getvalue(), left


def assert_exits_cleanly(code, err, left):
    event(f"exit {code}")  # --hypothesis-show-statistics counts them
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code == 2:
        assert left == []


@FUZZ
@given(ini=INI_TEXT, sweep=st.booleans(), trace=st.booleans())
def test_arbitrary_ini_text_exits_cleanly(ini, sweep, trace):
    if sweep:  # two small grid points, so a sweep stays a few runs
        argv = ["sweep", "duty", "--config", "config.ini", "--duration", "0.05", "--reps", "1",
                "--jobs", "1", "--grid", "duty=0,0.5", "--grid", "lte.tx_power_dbm=12",
                "--grid", "mcs_mbps=54", "--out", "out.csv"]
    else:
        argv = ["run", "--config", "config.ini", "--duration", "0.05", "--out", "out.csv"]
        argv += ["--trace", "trace.log"] * trace
    code, err, left = call_main(argv, ini)
    assert_exits_cleanly(code, err, left)
    if code == 0:
        assert "out.csv" in left


@st.composite
def hostile_argv(draw):
    """A command, or a stray token, then real flags in any order with hostile
    values, after a short duration and one rep that they may override."""
    command = draw(st.sampled_from([*COMMANDS, "", "bogus", "-h"]))
    flags = COMMANDS.get(command) or sorted({f for fs in COMMANDS.values() for f in fs})
    argv = [command]
    if command in COMMANDS:
        argv += ["--duration", "0.05"]
    if command == "sweep":
        argv += [draw(st.sampled_from(["duty", "power", "prb", "freq", "bogus", ""])),
                 "--reps", "1"]
    for _ in range(draw(st.integers(0, 6))):
        flag = draw(st.sampled_from(flags))
        argv.append(flag)
        if draw(st.booleans()):  # else the next token, or nothing, is its value
            values = st.sampled_from(FLAG_VALUES.get(flag, HOSTILE))
            # Free text could ask for a long run or many reps.
            argv.append(draw(values if flag in ("--duration", "--reps")
                             else values | st.text(max_size=6)))
    return argv


@FUZZ
@given(argv=hostile_argv())
# A NUL byte in a path made open() and os.path raise ValueError.
@example(argv=["run", "--duration", "0.05", "--config", "\x00"])
@example(argv=["run", "--duration", "0.05", "--out", "a\x00b"])
@example(argv=["sweep", "duty", "--duration", "0.05", "--reps", "1", "--summary", "\x00"])
# A sweep's master seed outside 64 bits ran; it is an error naming --seed.
@example(argv=["sweep", "duty", "--duration", "0.05", "--reps", "1", "--seed", "-1"])
@example(argv=["sweep", "duty", "--duration", "0.05", "--reps", "1", "--seed", str(2**64)])
@example(argv=["sweep", "duty", "--duration", "0.05", "--reps", "1", "--seed", str(10**29)])
def test_hostile_argv_exits_cleanly(argv):
    assert_exits_cleanly(*call_main(argv, b"[lte]\nduty = 0.2\n"))


_CONFIG_PARSER = configparser.ConfigParser


def parse_without_inline_comments(text: str) -> RunConfig:
    """``parse_config`` with configparser's default of no inline comments."""
    def plain(**kwargs):
        return _CONFIG_PARSER(**{**kwargs, "inline_comment_prefixes": None})

    with mock.patch.object(configparser, "ConfigParser", plain):
        return parse_config(text)


@FUZZ
@given(ini=INI_TEXT)
@example(ini=b"[lte]\nduty = 0.5\n  ;x\n[wifi] ;y\n")
def test_a_config_read_without_inline_comments_reads_the_same_with_them(ini):
    try:
        before = parse_without_inline_comments(ini.decode("utf-8"))
    except (UnicodeDecodeError, ConfigError):
        return
    event("accepted without inline comments")
    assert parse_config(ini.decode("utf-8")) == before
