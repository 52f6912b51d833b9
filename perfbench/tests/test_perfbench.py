"""Tests of the benchmark itself: the digest gate, the span arithmetic, and a
one-iteration run of every workload in both modes.

    python3 -m pytest perfbench/tests
"""

import json
import time

import numpy as np
import pytest

import run
import spans
import workloads
import yardstick

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def last_result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def bench(workload, trace, seed=3, pins=None) -> int:
    return run.main(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace)], pins=pins)


class TestDigestGate:
    def test_tampered_digest_counts_as_failed_and_exits_nonzero(self, capsys):
        pins = run.load_pins()
        k = workloads.Runs().pool_start(3)
        pins["runs"][k]["defaults"] = ["0" * 64]
        code = bench("runs", 0, seed=3, pins=pins)
        result = last_result(capsys)
        assert code != 0
        assert result["correct"] is False
        assert result["failed"] == 1 and result["attempted"] >= 3

    def test_missing_sources_exit_nonzero_without_result(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(run, "SRC", tmp_path / "src")
        assert bench("runs", 0) != 0
        assert capsys.readouterr().out == ""


class TestSpanArithmetic:
    def test_self_time_is_duration_minus_children(self):
        start = np.array([0, 2, 5, 6], dtype=np.int64)
        end = np.array([10, 4, 9, 7], dtype=np.int64)
        parent = np.array([-1, 0, 0, 2], dtype=np.int32)
        assert spans.self_times_ns(start, end, parent).tolist() == [4, 2, 3, 1]

    def test_self_times_of_a_run_add_up_to_its_root(self):
        rec = spans.SpanRecorder()
        outer, inner = rec.name("outer"), rec.name("inner")
        for _ in range(3):
            root = rec.open(outer, run_root=True)
            for _ in range(4):
                child = rec.open(inner)
                grandchild = rec.open(inner)
                time.sleep(0.0005)
                rec.close(grandchild)
                rec.close(child)
            rec.close(root)
        a = rec.arrays()
        self_ns = spans.self_times_ns(a["start"], a["end"], a["parent"])
        for r in range(3):
            in_run = a["run"] == r
            root_ns = (a["end"] - a["start"])[in_run & (a["parent"] < 0)]
            assert self_ns[in_run].sum() == root_ns.sum() > 0
        assert spans.check_spans(rec) == []

    def test_overlapping_children_are_reported(self):
        rec = spans.SpanRecorder()
        nid = rec.name("span")
        root = rec.open(nid, run_root=True)
        for _ in range(2):
            rec.close(rec.open(nid))
        rec.close(root)
        rec.start[1] = rec.start[0]
        rec.end[1] = rec.end[0]  # the first child now covers the whole root
        assert any("negative self time" in p for p in spans.check_spans(rec))


class TestHostSpeed:
    def test_yardstick_does_fixed_work(self):
        assert yardstick.yardstick() == yardstick.yardstick() > 0

    def test_steps_share_samples_and_scale_by_their_bracket(self):
        with yardstick.HostSpeed() as speed:
            assert speed.measure(sum, [1, 2]) == 3
            first = speed.host_s
            speed.measure(time.sleep, 0.01)
            second = speed.host_s - first
        s, ref = speed.samples, yardstick.REFERENCE_S
        assert len(s) == 3  # before, between and after the two steps
        assert speed.reference_s == pytest.approx(
            first * 2 * ref / (s[0] + s[1]) + second * 2 * ref / (s[1] + s[2]))

    def test_helper_processes_are_stopped(self):
        speed = yardstick.HostSpeed(2)
        helpers = [proc for proc, _ in speed._helpers]
        assert len(helpers) == 1 and helpers[0].is_alive()
        speed.sample()
        speed.close()
        assert not helpers[0].is_alive() and helpers[0].exitcode == 0


def test_instrumentation_restores_every_patched_name():
    inst = spans.Instrumentation(run.import_program(), spans.SpanRecorder())
    inst.install()
    saved = list(inst._saved)
    assert saved and all(vars(owner)[attr] is not orig for owner, attr, orig in saved)
    inst.restore()
    assert all(vars(owner)[attr] is orig for owner, attr, orig in saved)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_untraced_smoke_run(workload, capsys):
    assert bench(workload, 0) == 0
    result = last_result(capsys)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_smoke_run(workload, capsys):
    assert bench(workload, 1) == 0
    result = last_result(capsys)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    assert metrics["engine.events"]["value"] > 0
    assert metrics["wifi.attempts"]["value"] > 0
    if workload == "sweeps":
        assert metrics["experiments.runs_planned"]["value"] == sum(
            workloads.SWEEP_RUNS.values())
