"""Regenerate pins.json: the output digests of every pool entry of every workload.

    python3 perfbench/pin.py

Run it from the root of the checkout whose outputs are the reference.  The
benchmark then counts every output of a later commit that differs as failed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from run import BENCH_DIR, OUT_DIR, SRC, TARGET_JOBS, import_program
from workloads import WORKLOADS


def pin_workload(cls, jobs: int, tmp: Path) -> list[dict]:
    w = cls()
    w.setup(import_program(), tmp)
    entries = []
    for k in range(w.pool_size):
        artifacts = w.run_unit(k, jobs, None)
        for key, artifact in artifacts.items():
            if isinstance(artifact, BaseException):
                raise RuntimeError(f"{w.name} pool entry {k} {key} failed") from artifact
        problems = w.extra_problems(artifacts)
        if problems:
            raise RuntimeError(f"{w.name} pool entry {k}: {problems}")
        entries.append({key: w.digests(a) for key, a in artifacts.items()})
        print(f"{w.name}: pinned {k + 1}/{w.pool_size}", file=sys.stderr)
    return entries


def main() -> int:
    sys.path.insert(0, str(SRC))
    jobs = min(TARGET_JOBS, len(os.sched_getaffinity(0)))
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="pin-", dir=OUT_DIR))
    try:
        pins = {name: pin_workload(cls, jobs, tmp) for name, cls in WORKLOADS.items()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    text = json.dumps(pins, indent=1, sort_keys=True) + "\n"
    (BENCH_DIR / "pins.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
