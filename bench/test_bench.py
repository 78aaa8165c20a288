"""Tiny-N smoke tests of the benchmark harness itself."""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def one_setup_sample(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


@pytest.fixture(autouse=True)
def fsync_is_restored_after_each_run():
    from qtriage import backend

    yield
    assert backend.os is run.os


def tiny(name: str) -> run.Workload:
    return replace(run.WORKLOADS[name], n_questions=12)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_named_metric_is_printed_with_its_unit(name, trace, tmp_path, capsys):
    result = run.run_workload(name, tiny(name), seed=3, seconds=0, trace=trace,
                              work_dir=tmp_path / "work")
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert len(result["metrics"]) == len(declared)
    printed = capsys.readouterr().out
    for metric, unit in declared.items():
        assert any(line.startswith(metric + " ") and f" {unit} " in line
                   for line in printed.splitlines()), metric


def test_flipping_one_report_byte_fails_the_output_check(tmp_path, monkeypatch):
    original = run.output_hashes
    seen = []

    def flip_on_second_pass(run_dir: Path) -> dict:
        seen.append(run_dir)
        if len(seen) == 2:
            report = run_dir / "reports" / "report.json"
            data = bytearray(report.read_bytes())
            data[len(data) // 2] ^= 0x01
            report.write_bytes(bytes(data))
        return original(run_dir)

    monkeypatch.setattr(run, "output_hashes", flip_on_second_pass)
    result = run.run_workload("rationale-reuse", tiny("rationale-reuse"), seed=3, seconds=0,
                              trace=False, work_dir=tmp_path / "work")
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)
    assert result["metrics"]["pass_ok_rate"]["value"] == 0.5


def test_replay_check_passes_and_counts_as_an_attempt(tmp_path):
    result = run.run_workload("fresh-uniform", tiny("fresh-uniform"), seed=3, seconds=0,
                              trace=False, work_dir=tmp_path / "work")
    assert (result["attempted"], result["failed"], result["correct"]) == (3, 0, True)


def test_a_replay_that_calls_the_backend_fails_the_check(tmp_path, monkeypatch):
    original = run.run_pass

    def truncate_replayed_transcript(ctx, run_dir, tracer=None):
        if ctx.replay_transcript is not None:
            ctx.replay_transcript.write_text("", encoding="utf-8")
        return original(ctx, run_dir, tracer)

    monkeypatch.setattr(run, "run_pass", truncate_replayed_transcript)
    result = run.run_workload("fresh-uniform", tiny("fresh-uniform"), seed=3, seconds=0,
                              trace=False, work_dir=tmp_path / "work")
    assert (result["attempted"], result["failed"], result["correct"]) == (3, 1, False)


def test_a_pass_that_raises_is_counted_not_fatal(tmp_path, monkeypatch):
    from qtriage import pipeline

    original = pipeline.run_report_phase
    calls = []

    def fail_first(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("injected report failure")
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, "run_report_phase", fail_first)
    result = run.run_workload("rationale-reuse", tiny("rationale-reuse"), seed=3, seconds=0,
                              trace=False, work_dir=tmp_path / "work")
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)
