"""Byte-for-byte gate: sweep and run outputs must equal the pinned golden files."""

import pytest

from golden.regen import GOLDEN_DIR, RUN_ARGS, RUN_CSV, generate, golden_names, run_cli


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    generate(out)
    return out


@pytest.mark.parametrize("name", golden_names())
def test_output_matches_golden_bytes(regenerated, name):
    assert (regenerated / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), (
        f"{name} differs from tests/golden/{name}")


def test_golden_dir_holds_no_stale_output():
    # A case dropped from regen.py must take its pinned files with it.
    pinned = {path.name for path in GOLDEN_DIR.iterdir()} - {"regen.py", "__pycache__"}
    assert sorted(pinned - set(golden_names())) == []


def test_untraced_run_csv_equals_traced(regenerated, tmp_path):
    # Tracing records lines and draws nothing, so the CSV must not tell a
    # traced run from an untraced one.
    untraced = tmp_path / RUN_CSV
    run_cli(["run", *RUN_ARGS, "--out", str(untraced)])
    assert untraced.read_bytes() == (regenerated / RUN_CSV).read_bytes()
