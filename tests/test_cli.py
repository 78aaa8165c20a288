import hashlib
import itertools
import json
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import click
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from qtriage.cli import main
from qtriage.manifest import RunManifest
from qtriage.model import LABELS, QtriageError
from qtriage.synth import MockBackend, bundled_data_path, load_profiles

TOY_DATA = bundled_data_path("toy20.jsonl")
TOY_PROFILES = bundled_data_path("toy20_profiles.jsonl")


@pytest.fixture
def runner():
    return CliRunner()


def write_config(tmp_path, run_dir, **overrides):
    config = {
        "dataset": {
            "path": str(TOY_DATA),
            "schema": "mcq-jsonl",
            "name": "toy20",
            "divide_base": 5,
            "mu": "0.8",
            "nu": "0.6",
        },
        "backend": {"kind": "mock", "profiles": str(TOY_PROFILES)},
        "run_dir": str(run_dir),
    }
    for dotted, value in overrides.items():
        node = config
        *parents, leaf = dotted.split(".")
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def run_pipeline(runner, tmp_path, run_dir, seed=42, parallelism=1, strategies=("fcr",)):
    Path(tmp_path).mkdir(parents=True, exist_ok=True)
    config = write_config(tmp_path, run_dir)
    base = ["--config", str(config), "--seed", str(seed), "--parallelism", str(parallelism)]
    result = runner.invoke(main, base + ["divide"])
    assert result.exit_code == 0, result.output
    for strat in strategies:
        args = base + ["conquer", "--strategy", strat]
        if strat == "fcr":
            args += ["--sc"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
    result = runner.invoke(main, base + ["report"])
    assert result.exit_code == 0, result.output
    return Path(run_dir)


class TestDivideCommand:
    def test_toy_dataset_partition(self, runner, tmp_path):
        run_dir = tmp_path / "run"
        config = write_config(tmp_path, run_dir)
        result = runner.invoke(main, ["--config", str(config), "--seed", "42", "divide"])
        assert result.exit_code == 0, result.output
        partition = run_dir / "partition.jsonl"
        assert len(partition.read_text().splitlines()) == 20

    def test_prints_each_question_in_dataset_order_then_the_partition(self, runner, tmp_path):
        run_dir = tmp_path / "run"
        config = write_config(tmp_path, run_dir)
        result = runner.invoke(main, ["--config", str(config), "--seed", "42", "divide"])
        assert result.exit_code == 0, result.output
        cs = [0.6, 0.8, 1, 0.6, 1, 0.4, 0.4, 0.4, 1, 0.4, 0.4, 0.6, 0.4, 1, 0.6, 0.8, 0.6, 1, 0.6, 0.6]
        subset = {0.4: "low", 0.6: "low", 0.8: "med", 1: "high"}  # at mu 0.8, nu 0.6
        assert result.output.splitlines() == [
            *(f"q{i:04d}: cs={c:.2f} subset={subset[c]}" for i, c in enumerate(cs)),
            f"partition written to {run_dir / 'partition.jsonl'}: "
            "{'high': 5, 'med': 2, 'low': 13}",
        ]

    def test_rerun_is_deterministic(self, runner, tmp_path):
        d1 = run_pipeline(runner, tmp_path / "a", tmp_path / "a" / "run")
        d2 = run_pipeline(runner, tmp_path / "b", tmp_path / "b" / "run")
        assert (d1 / "partition.jsonl").read_bytes() == (d2 / "partition.jsonl").read_bytes()

    def test_mu_nu_violation_rejected_before_any_call(self, runner, tmp_path):
        run_dir = tmp_path / "run"
        config = write_config(tmp_path, run_dir, **{"dataset.mu": "0.5", "dataset.nu": "0.7"})
        result = runner.invoke(main, ["--config", str(config), "divide"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "nu" in result.output
        assert not (run_dir / "transcript.jsonl").exists()

    def test_fraction_flags_divide_like_the_decimal_config(self, runner, tmp_path):
        # `--mu 4/5` reaches the config as the integer strings ["4", "5"].
        partitions = []
        for name, settings, flags in (
            ("decimal", {}, []),
            ("flags", {"dataset.mu": "0.5", "dataset.nu": "0.1"}, ["--mu", "4/5", "--nu", "3/5"]),
        ):
            (tmp_path / name).mkdir()
            config = write_config(tmp_path / name, tmp_path / name / "run", **settings)
            result = runner.invoke(main, ["--config", str(config), "divide", *flags])
            assert result.exit_code == 0, result.output
            partitions.append((tmp_path / name / "run" / "partition.jsonl").read_bytes())
        assert partitions[0] == partitions[1]

    def test_missing_dataset_file_listed(self, runner, tmp_path):
        config = write_config(tmp_path, tmp_path / "run", **{"dataset.path": "/nope.jsonl"})
        result = runner.invoke(main, ["--config", str(config), "divide"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "not found" in result.output

    def test_resume_issues_only_remaining_calls(self, tmp_path):
        # interrupt by dividing only half the questions, then rerun the full set
        from qtriage.backend import CachingBackend, TranscriptCache
        from qtriage.divide import run_divide
        from qtriage.model import DatasetSpec, load_dataset

        questions = load_dataset(TOY_DATA)
        profiles = load_profiles(TOY_PROFILES)
        spec = DatasetSpec(name="toy", divide_base=5)
        path = tmp_path / "t.jsonl"

        first = MockBackend(profiles, seed=42)
        with TranscriptCache(path) as cache:
            run_divide(questions[:10], spec, CachingBackend(first, cache))
        assert first.calls == 50

        second = MockBackend(profiles, seed=42)
        with TranscriptCache(path) as cache:
            run_divide(questions, spec, CachingBackend(second, cache))
        assert second.calls == 50  # only the remaining 10 x 5


    def test_profile_file_may_start_with_assertions(self, runner, tmp_path):
        profiles = tmp_path / "profiles.jsonl"
        assertions = json.dumps({"assertions": {"spearman_min": 0.1}})
        profiles.write_text(assertions + "\n" + TOY_PROFILES.read_text())
        run_dir = tmp_path / "run"
        config = write_config(tmp_path, run_dir, **{"backend.profiles": str(profiles)})
        result = runner.invoke(main, ["--config", str(config), "--seed", "42", "divide"])
        assert result.exit_code == 0, result.output
        assert len((run_dir / "partition.jsonl").read_text().splitlines()) == 20

    def test_questions_from_profiles_read_the_file_once(self, runner, tmp_path, monkeypatch):
        from qtriage import synth

        reads = []
        read = synth.read_jsonl  # the profile file's one reader, whoever asks for it

        def counted(path, error):
            reads.append(path)
            return read(path, error)

        monkeypatch.setattr(synth, "read_jsonl", counted)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"backend": {"profiles": str(TOY_PROFILES)},
                                      "run_dir": str(tmp_path / "run")}))
        for command in (["divide"], ["conquer", "--strategy", "pkr"], ["simulate"]):
            before = len(reads)
            result = runner.invoke(main, ["--config", str(config), *command])
            assert result.exit_code == 0, result.output
            assert len(reads) - before == 1, command
        assert len((tmp_path / "run" / "partition.jsonl").read_text().splitlines()) == 20

    def test_profile_without_distribution_names_line(self, runner, tmp_path):
        # Each case replaces (None: deletes) one field of the second profile record.
        for field, value in (
            ("answer_distribution", None),
            ("answer_distribution", ["A"]),
            ("answer_distribution", {"A": "x"}),
            ("question_id", ""),
            ("question_id", 7),
            ("rationale_length_mean", "x"),
        ):
            lines = TOY_PROFILES.read_text().splitlines()
            broken = json.loads(lines[1])
            if value is None:
                del broken[field]
            else:
                broken[field] = value
            lines[1] = json.dumps(broken)
            profiles = tmp_path / "profiles.jsonl"
            profiles.write_text("\n".join(lines) + "\n")
            config = write_config(tmp_path, tmp_path / "run",
                                  **{"backend.profiles": str(profiles)})
            result = runner.invoke(main, ["--config", str(config), "divide"])
            assert result.exit_code == 1, (field, value)
            assert isinstance(result.exception, SystemExit)  # an error line, not a traceback
            assert "line 2" in result.output and field in result.output, result.output

    def test_nested_credentials_never_reach_manifest(self, runner, tmp_path):
        # A credential in the config is refused before any run file is written.
        from qtriage.manifest import derive_run_id

        for name, overrides in (("plain", {}), ("secret", {"backend.api_key": "SECRET-7f3a"})):
            (tmp_path / name).mkdir()
            config = write_config(tmp_path / name, tmp_path / name / "run", **overrides)
            result = runner.invoke(main, ["--config", str(config), "--seed", "42", "divide"])
            assert result.exit_code == (1 if overrides else 0), result.output
            assert "SECRET-7f3a" not in result.output
            files = [p for p in (tmp_path / name).rglob("*") if p.is_file()]
            assert not any(b"SECRET-7f3a" in p.read_bytes() for p in files if p != config)
        assert isinstance(result.exception, SystemExit)
        errors = [line for line in result.output.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and "backend.api_key" in errors[0], result.output
        assert "QTRIAGE_API_KEY" in errors[0]
        assert not (tmp_path / "secret" / "run").exists()
        # The plain run stores its settings in canonical form and hashes them.
        stored = {
            "dataset": {"path": str(Path(TOY_DATA).resolve()), "schema": "mcq-jsonl",
                        "name": "toy20", "divide_base": 5, "mu": [4, 5], "nu": [3, 5]},
            "backend": {"kind": "mock", "profiles": str(Path(TOY_PROFILES).resolve()),
                        "noise_rate": 0.0, "gold_uplift": 1.0, "endpoint": "", "model": "",
                        "max_attempts": 5, "base_delay": 1.0},
        }
        manifest = RunManifest.load(tmp_path / "plain" / "run")
        assert manifest.config == stored
        # The run id leaves out how requests travel, and hashes each input file by content.
        transport = ("kind", "endpoint", "max_attempts", "base_delay")
        digest = lambda path: hashlib.sha256(Path(path).read_bytes()).hexdigest()
        computed = {"dataset": {**stored["dataset"], "path": digest(TOY_DATA)}, "backend": {
            **{k: v for k, v in stored["backend"].items() if k not in transport},
            "profiles": digest(TOY_PROFILES)}}
        assert manifest.run_id == derive_run_id(computed, 42)

    def test_each_spelling_of_mu_gives_one_run_id(self, runner, tmp_path):
        runs = {}
        for name, mu, options in (("pair", [4, 5], []), ("decimal", "0.8", []),
                                  ("default", None, []), ("option", None, ["--mu", "4/5"])):
            (tmp_path / name).mkdir()
            config = write_config(tmp_path / name, tmp_path / name / "run", **{"dataset.mu": mu})
            result = runner.invoke(main, ["--config", str(config), "divide", *options])
            assert result.exit_code == 0, result.output
            runs[name] = tmp_path / name / "run"
        assert len({RunManifest.load(d).run_id for d in runs.values()}) == 1
        assert len({json.dumps(RunManifest.load(d).config) for d in runs.values()}) == 1
        assert len({(d / "partition.jsonl").read_bytes() for d in runs.values()}) == 1

    def test_torn_last_entry_is_refetched_once(self, tmp_path):
        from qtriage.backend import TranscriptCache
        from qtriage.manifest import new_manifest
        from qtriage.model import DatasetSpec, load_dataset
        from qtriage.pipeline import run_divide_phase

        questions = load_dataset(TOY_DATA)
        profiles = load_profiles(TOY_PROFILES)
        spec = DatasetSpec(name="toy", divide_base=5)
        run_dir = tmp_path / "run"
        path = run_dir / "transcript.jsonl"
        run_divide_phase(questions, spec, MockBackend(profiles, seed=42),
                         new_manifest({}, 42, run_dir))
        whole = path.read_bytes()
        partition = (run_dir / "partition.jsonl").read_bytes()
        last_entry = whole.rstrip(b"\n").rfind(b"\n") + 1
        for cut in range(last_entry + 1, len(whole)):
            path.write_bytes(whole[:cut])
            backend = MockBackend(profiles, seed=42)
            run_divide_phase(questions, spec, backend, new_manifest({}, 42, run_dir))
            assert backend.calls == 1, cut
            assert (run_dir / "partition.jsonl").read_bytes() == partition, cut
            assert len(TranscriptCache(path)) == 100, cut  # the fragment was cut, not glued

    def test_crash_at_any_byte_refetches_only_lost_entries(self, tmp_path):
        # A crash can leave the transcript cut at any byte; a rerun refetches
        # exactly the entries not whole on disk and writes the same partition.
        from bisect import bisect_right

        from qtriage.manifest import new_manifest
        from qtriage.model import DatasetSpec, load_dataset
        from qtriage.pipeline import run_divide_phase

        questions = load_dataset(TOY_DATA)[:1]
        profiles = load_profiles(TOY_PROFILES)
        spec = DatasetSpec(name="toy", divide_base=3)
        run_dir = tmp_path / "run"
        path = run_dir / "transcript.jsonl"
        run_divide_phase(questions, spec, MockBackend(profiles, seed=42),
                         new_manifest({}, 42, run_dir))
        whole = path.read_bytes()
        partition = (run_dir / "partition.jsonl").read_bytes()
        ends = [i + 1 for i, byte in enumerate(whole) if byte == ord("\n")]
        assert len(ends) == 3
        for cut in range(len(whole) + 1):
            path.write_bytes(whole[:cut])
            backend = MockBackend(profiles, seed=42)
            run_divide_phase(questions, spec, backend, new_manifest({}, 42, run_dir))
            whole_entries = bisect_right(ends, cut)
            assert backend.calls == len(ends) - whole_entries, cut
            assert (run_dir / "partition.jsonl").read_bytes() == partition, cut
            rerun, kept = path.read_bytes(), ([0] + ends)[whole_entries]
            assert rerun[:kept] == whole[:kept], cut  # whole entries stay as written
            assert rerun.count(b"\n") == len(ends) and rerun.endswith(b"\n"), cut
            assert rerun == whole, cut  # a lost first entry's prompt lands on its refetch

    def test_second_writer_exits_1_naming_the_transcript(self, runner, tmp_path):
        import fcntl

        run_dir = tmp_path / "run"
        config = write_config(tmp_path, run_dir)
        transcript = run_dir / "transcript.jsonl"
        run_dir.mkdir()
        with transcript.open("ab") as other_writer:
            fcntl.flock(other_writer.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            result = runner.invoke(main, ["--config", str(config), "divide"])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        errors = [line for line in result.output.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and str(transcript) in errors[0], result.output
        assert transcript.read_bytes() == b""
        assert not (run_dir / "manifest.json").exists()  # the run dir is the other writer's


class TestConquerCommand:
    def test_fcr_on_low_subset_only(self, runner, tmp_path):
        run_dir = tmp_path / "run"
        config = write_config(tmp_path, run_dir)
        base = ["--config", str(config), "--seed", "42"]
        assert runner.invoke(main, base + ["divide"]).exit_code == 0
        result = runner.invoke(main, base + ["conquer", "--strategy", "fcr", "--subsets", "low"])
        assert result.exit_code == 0, result.output
        outcomes = [
            json.loads(l) for l in (run_dir / "outcomes_fcr.jsonl").read_text().splitlines()
        ]
        low_ids = {
            json.loads(l)["question_id"]
            for l in (run_dir / "partition.jsonl").read_text().splitlines()
            if json.loads(l)["subset"] == "low"
        }
        assert {o["question_id"] for o in outcomes} == low_ids

    def test_a_run_stored_as_given_conquers_and_reports_under_its_run_id(self, runner, tmp_path):
        # manifest.json once stored the config as given and hashed it into run_id.
        run_dir = tmp_path / "run"
        config = write_config(tmp_path, run_dir, parallelism=2)
        assert runner.invoke(main, ["--config", str(config), "--seed", "42", "divide"]).exit_code == 0
        path = run_dir / "manifest.json"
        as_given = json.loads(config.read_text())
        del as_given["run_dir"]
        manifest = {**json.loads(path.read_text()), "config": as_given, "run_id": "0123456789ab",
                    "phases": {"divide": "0123456789ab"}}  # its partition is that run's
        path.write_text(json.dumps(manifest))
        for args in (["conquer", "--strategy", "pkr"], ["report"]):
            result = runner.invoke(main, ["--cache-dir", str(run_dir), *args])
            assert result.exit_code == 0, result.output
        stored = json.loads(path.read_text())
        assert (stored["config"], stored["run_id"]) == (as_given, "0123456789ab")
        phases = stored["phases"]
        assert sorted(phases) == ["conquer:pkr", "divide", "report"]
        assert phases["report"] == {"conquer:pkr": phases["conquer:pkr"], "divide": "0123456789ab"}
        report = json.loads((run_dir / "reports" / "report.json").read_text())
        assert report["run_id"] == "0123456789ab" and report["strategies"]["pkr"]

    def test_conquer_without_divide_errors(self, runner, tmp_path):
        config = write_config(tmp_path, tmp_path / "run")
        result = runner.invoke(main, ["--config", str(config), "conquer", "--strategy", "pkr"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)

    def test_failed_strategy_leaves_conquer_partial(self, runner, tmp_path):
        from qtriage.backend import TransportError
        from qtriage.manifest import RunManifest, new_manifest
        from qtriage.model import DatasetSpec, load_dataset
        from qtriage.pipeline import run_conquer_phase, run_divide_phase

        class FailsWhenArmed(MockBackend):
            armed = False

            def complete(self, req):
                if self.armed:
                    raise TransportError("injected outage")
                return super().complete(req)

        run_dir = tmp_path / "run"
        config = write_config(tmp_path, run_dir)
        questions = load_dataset(TOY_DATA)
        backend = FailsWhenArmed(load_profiles(TOY_PROFILES), seed=42)
        manifest = new_manifest(json.loads(config.read_text()), 42, run_dir)
        reports, _ = run_divide_phase(questions, DatasetSpec(name="toy", divide_base=5),
                                      backend, manifest)
        run_conquer_phase(questions, reports, "FCR", backend, manifest, self_consistency=True)
        assert runner.invoke(main, ["--config", str(config), "report"]).exit_code == 0
        backend.armed = True
        with pytest.raises(TransportError):
            run_conquer_phase(questions, reports, "PKR", backend, manifest)
        assert RunManifest.load(run_dir).phases["conquer:pkr"] is None
        result = runner.invoke(main, ["--config", str(config), "report"])
        assert result.exit_code == 1
        assert "conquer:pkr" in result.output and "--partial" in result.output
        # A later success of another strategy leaves the failed one without a record.
        backend.armed = False
        run_conquer_phase(questions, reports, "FCR", backend, manifest, self_consistency=True)
        assert RunManifest.load(run_dir).phases["conquer:pkr"] is None
        result = runner.invoke(main, ["--config", str(config), "report"])
        assert result.exit_code == 1
        assert "not current: conquer:pkr (outcomes_pkr.jsonl missing);" in result.output
        # Rerunning the failed strategy records it again.
        run_conquer_phase(questions, reports, "PKR", backend, manifest)
        assert RunManifest.load(run_dir).stale() == {}
        assert runner.invoke(main, ["--config", str(config), "report"]).exit_code == 0

    def test_sc_after_greedy_fetches_every_sample(self, runner, tmp_path):
        # Greedy FCR and FCR+SC share a prompt; SC sample 0 must not reuse the greedy entry.
        base, run_dir = divided(runner, tmp_path)
        transcript = run_dir / "transcript.jsonl"
        assert runner.invoke(main, base + ["conquer", "--strategy", "fcr"]).exit_code == 0
        before = len(transcript.read_text().splitlines())
        result = runner.invoke(main, base + ["conquer", "--strategy", "fcr", "--sc"])
        assert result.exit_code == 0, result.output
        lines = (run_dir / "outcomes_fcr+sc.jsonl").read_text().splitlines()
        sc = [json.loads(line) for line in lines]
        # Every issued sample is a new entry; decided votes stop 14 of the 75 short.
        issued = sum(len(o["records"]) for o in sc)
        assert len(sc) == 15 and all(o["records"][0]["sample_index"] == 0 for o in sc)
        assert len(transcript.read_text().splitlines()) - before == issued == 61

    def test_sc_outage_in_round_2_resumes_with_exactly_the_missing_calls(
        self, runner, tmp_path, monkeypatch
    ):
        # FCR+SC round 1 issues samples 0-2 of every question; the outage hits
        # round 2 (sample 3) once one of its requests has gone through.
        from qtriage.backend import TransportError

        complete, issued = MockBackend.complete, []
        outage = {"armed": False, "round_2_calls": 0}

        def flaky(self, req):
            if outage["armed"] and req.phase == "conquer" and req.sample_index == 3:
                outage["round_2_calls"] += 1
                if outage["round_2_calls"] == 2:
                    raise TransportError("injected outage")
            issued.append(req.key())
            return complete(self, req)

        def keys(run_dir):
            lines = (run_dir / "transcript.jsonl").read_text().splitlines()
            return {json.loads(line)["key"] for line in lines}

        def divided_run(name):
            (tmp_path / name).mkdir()
            run_dir = tmp_path / name / "run"
            base = ["--config", str(write_config(tmp_path / name, run_dir)), "--seed", "42"]
            assert runner.invoke(main, base + ["divide"]).exit_code == 0
            return run_dir, base

        def conquer_and_report(base):
            for args in (["conquer", "--strategy", "fcr", "--sc"], ["report"]):
                result = runner.invoke(main, base + args)
                assert result.exit_code == 0, result.output

        monkeypatch.setattr(MockBackend, "complete", flaky)
        whole, base = divided_run("whole")
        conquer_and_report(base)
        resumed, base = divided_run("resumed")
        outage["armed"] = True
        result = runner.invoke(main, base + ["conquer", "--strategy", "fcr", "--sc"])
        assert result.exit_code == 2 and "injected outage" in result.output
        outage["armed"] = False
        missing = keys(whole) - keys(resumed)
        assert sum(key.split("|")[1:3] == ["conquer", "3"] for key in keys(resumed)) == 1
        issued.clear()
        conquer_and_report(base)
        assert sorted(issued) == sorted(missing)
        for rel in ("outcomes_fcr+sc.jsonl", "reports/report.json",
                    "reports/summary.csv", "reports/curves.csv"):
            assert (whole / rel).read_bytes() == (resumed / rel).read_bytes(), rel

    def test_conquer_without_seed_uses_the_run_seed(self, runner, tmp_path):
        outcomes = []
        for name, seed_args in (("flag", ["--seed", "42"]), ("run", [])):
            (tmp_path / name).mkdir()
            config = write_config(tmp_path / name, tmp_path / name / "run")
            base = ["--config", str(config)]
            assert runner.invoke(main, base + ["--seed", "42", "divide"]).exit_code == 0
            result = runner.invoke(main, base + seed_args + ["conquer", "--strategy", "ztcot"])
            assert result.exit_code == 0, result.output
            outcomes.append((tmp_path / name / "run" / "outcomes_ztcot.jsonl").read_bytes())
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("subsets, named", [
        ("high,med", "'high'"), ("mid", "'mid'"), ("", "no subset"), (",", "no subset"),
    ], ids=["high-med", "mid", "empty", "comma"])
    def test_high_subset_rejected(self, runner, tmp_path, subsets, named):
        # After a complete report, so a rejected list must not undo its `done` states.
        run_dir = run_pipeline(runner, tmp_path, tmp_path / "run")
        config = tmp_path / "config.json"
        manifest = (run_dir / "manifest.json").read_bytes()
        args = ["--config", str(config), "--seed", "42", "conquer", "--subsets", subsets]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        errors = [line for line in result.output.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and named in errors[0], result.output
        assert (run_dir / "manifest.json").read_bytes() == manifest
        assert not (run_dir / "outcomes_fcr.jsonl").exists()  # the run conquered fcr+sc only


def write_cloze(tmp_path):
    """Twelve cloze questions and mock profiles keyed by normalized numbers."""
    answers = ("18", "20", "16", "1000", "12.5", "-3")
    questions, profiles = [], []
    for i in range(12):
        gold, second, third = (answers[(i + k) % len(answers)] for k in range(3))
        share = (0.4, 0.5, 0.6, 0.7)[i % 4]
        rest = round(1 - share, 2)
        questions.append({"id": f"c{i:02d}", "question": f"How many in case {i}?", "gold": gold})
        profiles.append({
            "question_id": f"c{i:02d}", "gold": gold, "rationale_length_mean": 60,
            "answer_distribution": {gold: share, second: rest / 2, third: rest / 2},
        })
    data = tmp_path / "cloze.jsonl"
    data.write_text("".join(json.dumps(q) + "\n" for q in questions))
    prof = tmp_path / "cloze_profiles.jsonl"
    prof.write_text("".join(json.dumps(p) + "\n" for p in profiles))
    return data, prof


class TestClozeConquer:
    STRATEGIES = (("ztcot",), ("pkr",), ("fcr",), ("fcr", "--sc"), ("com1",), ("com2", "--sc"))

    def run(self, runner, tmp_path, parallelism):
        data, prof = write_cloze(tmp_path)
        run_dir = tmp_path / f"run{parallelism}"
        config = write_config(tmp_path, run_dir, **{
            "dataset.path": str(data), "dataset.schema": "cloze-jsonl",
            "dataset.name": "cloze", "backend.profiles": str(prof),
        })
        base = ["--config", str(config), "--seed", "3", "--parallelism", str(parallelism)]
        for args in (["divide"], *(["conquer", "--strategy", *s] for s in self.STRATEGIES),
                     ["report"]):
            result = runner.invoke(main, base + args)
            assert result.exit_code == 0, (args, result.output)
        return run_dir

    def test_every_strategy_parses_and_fcr_maps_back(self, runner, tmp_path):
        run_dir = self.run(runner, tmp_path, parallelism=1)
        divide = {}
        for line in (run_dir / "partition.jsonl").read_text().splitlines():
            r = json.loads(line)
            if r["subset"] != "high":
                divide[r["question_id"]] = sorted(r["counts"], key=r["first_seen"].get)
        assert divide
        outcome_files = sorted(run_dir.glob("outcomes_*.jsonl"))
        assert len(outcome_files) == len(self.STRATEGIES)
        for path in outcome_files:
            outcomes = [json.loads(line) for line in path.read_text().splitlines()]
            assert {o["question_id"] for o in outcomes} == set(divide), path.name
            for o in outcomes:
                assert o["final_answer"] is not None, (path.name, o["question_id"])
                assert all(r["answer"] is not None for r in o["records"]), path.name
                if path.name.startswith(("outcomes_fcr", "outcomes_com")):
                    expected = divide[o["question_id"]]
                    assert o["mapping"] == [[LABELS[i], a] for i, a in enumerate(expected)]
                    assert o["final_answer"] in expected

        run_dir4 = self.run(runner, tmp_path, parallelism=4)
        rels = ["partition.jsonl", "reports/report.json", "reports/summary.csv",
                "reports/curves.csv"] + [p.name for p in outcome_files]
        for rel in rels:
            assert (run_dir / rel).read_bytes() == (run_dir4 / rel).read_bytes(), rel


class TestEndToEnd:
    def test_parallelism_independent_byte_identical(self, runner, tmp_path):
        d1 = run_pipeline(runner, tmp_path / "p1", tmp_path / "p1" / "run", parallelism=1)
        d8 = run_pipeline(runner, tmp_path / "p8", tmp_path / "p8" / "run", parallelism=8)
        for rel in (
            "partition.jsonl",
            "outcomes_fcr+sc.jsonl",
            "reports/report.json",
            "reports/summary.csv",
            "reports/curves.csv",
        ):
            assert (d1 / rel).read_bytes() == (d8 / rel).read_bytes(), rel

    def test_run_files_are_equal_across_hash_seeds(self, tmp_path):
        # Each test runs in one process, so only a second process can show a run
        # file that hangs on str hashing (set or dict order over strings).
        import qtriage

        code = ("import json, sys\nfrom qtriage.cli import main\n"
                "for args in json.loads(sys.argv[1]):\n    main(args, standalone_mode=False)")
        runs = []
        for hash_seed in ("0", "12345"):
            (tmp_path / hash_seed).mkdir()
            run_dir = tmp_path / hash_seed / "run"
            config = write_config(tmp_path / hash_seed, run_dir, **{"backend.noise_rate": 0.2})
            base = ["--config", str(config), "--seed", "1", "--parallelism", "4"]
            commands = [base + args for args in (
                ["divide"], ["conquer", "--strategy", "pkr"], ["conquer", "--strategy", "fcr", "--sc"],
                ["conquer", "--strategy", "com2", "--sc"], ["conquer", "--strategy", "com1"],
                ["report"])]
            env = {**os.environ, "PYTHONPATH": str(Path(qtriage.__file__).parents[1]),
                   "PYTHONHASHSEED": hash_seed}
            subprocess.run([sys.executable, "-c", code, json.dumps(commands)], env=env,
                           capture_output=True, timeout=120, check=True)
            runs.append(run_files(run_dir))
        assert runs[0] == runs[1]
        assert {"transcript.jsonl", "manifest.json", "outcomes_com2+sc.jsonl",
                "reports/report.json"} <= set(runs[0])

    def test_http_runs_are_equal_across_parallelism(self, runner, tmp_path, monkeypatch):
        # A faulty run fails each payload's first k tries, k < max_attempts drawn from
        # the payload, each with a transient fault; the backend retries each one.
        import requests

        threads, tries, lock, faulty, met = set(), {}, threading.Lock(), [False], []
        faults = [_Response(429, headers={"Retry-After": "0"}), _Response(429), _Response(503),
                  _Response(200, {"choices": []})]

        def post(self, url, json, headers, timeout):
            """Answers as a pure function of the payload, after a random few ms."""
            threads.add(threading.get_ident())
            digest = hashlib.sha256(repr(sorted(json.items())).encode()).digest()
            with lock:
                tried = tries[digest] = tries.get(digest, 0) + 1
            if faulty[0] and tried <= digest[4] % 4:
                fault = (digest[5] + tried) % len(faults)
                met.append(fault)
                return faults[fault]
            time.sleep(random.uniform(0.001, 0.005))
            text = ("i cannot settle on one." if digest[0] % 4 == 0
                    else f"So the answer is ({'AB'[digest[1] % 2]}).")
            usage = {"prompt_tokens": digest[2], "completion_tokens": digest[3]}
            return _Response(200, {"choices": [{"message": {"content": text}}], "usage": usage})

        monkeypatch.setattr(requests.Session, "post", post)
        monkeypatch.setenv("QTRIAGE_API_KEY", "test-key")
        backend = {"kind": "http", "endpoint": "http://127.0.0.1:9/v1", "model": "m",
                   "max_attempts": 4, "base_delay": 0}
        runs = {}
        for faulty[0], parallelism in ((False, 1), (False, 4), (True, 1), (True, 4)):
            tries.clear()
            run_dir = tmp_path / f"p{parallelism}{'-faulty' if faulty[0] else ''}"
            config = write_config(tmp_path, run_dir, backend=backend)
            base = ["--config", str(config), "--seed", "42", "--parallelism", str(parallelism)]
            for args in (["divide"], ["conquer", "--strategy", "fcr", "--sc"],
                         ["conquer", "--strategy", "pkr"], ["report"]):
                result = runner.invoke(main, base + args)
                assert result.exit_code == 0, result.output
            runs[run_dir.name] = run_files(run_dir)
        # The transcript is appended as completions arrive: the same entries,
        # in an order that depends on scheduling.
        entries = [{entry["key"]: entry["completion"]
                    for entry in map(json.loads, files.pop("transcript.jsonl").splitlines())}
                   for files in runs.values()]
        assert all(each == entries[0] for each in entries)
        assert all(files == runs["p1"] for files in runs.values())
        assert runs["p1"]["outcomes_fcr+sc.jsonl"] and runs["p1"]["outcomes_pkr.jsonl"]
        assert len(threads) > 1
        assert sorted(set(met)) == [0, 1, 2, 3] and len(met) > 50

    @pytest.mark.parametrize("commands", [
        [["simulate", "--n-questions", "60"]],
        [["divide"], ["conquer", "--strategy", "pkr"], ["conquer", "--strategy", "fcr", "--sc"],
         ["report"]],
    ], ids=["simulate", "profile-only"])
    def test_kind_replay_rewrites_the_report_with_zero_calls(self, runner, tmp_path, commands):
        run_dir = tmp_path / "run"
        # A simulation generates its profiles; the other run derives its questions from them.
        profiles = {} if commands[0][0] == "simulate" else {"profiles": str(TOY_PROFILES)}

        def run(kind):
            config = tmp_path / f"{kind}.json"
            config.write_text(json.dumps({"backend": {"kind": kind, **profiles},
                                          "run_dir": str(run_dir)}))
            for command in commands:
                result = runner.invoke(main, ["--config", str(config), "--seed", "7", *command])
                assert result.exit_code == 0, (kind, command, result.output)
            return (run_dir / "reports" / "report.json").read_bytes()

        report = run("mock")
        transcript = (run_dir / "transcript.jsonl").read_bytes()
        # A replay call would miss the transcript and exit 1, naming the key.
        assert run("replay") == report
        assert (run_dir / "transcript.jsonl").read_bytes() == transcript
        assert RunManifest.load(run_dir).config["backend"]["kind"] == "replay"

    def test_replay_issues_zero_fetches(self, runner, tmp_path):
        from qtriage.backend import CachingBackend, TranscriptCache
        from qtriage.conquer import run_conquer
        from qtriage.divide import load_reports, run_divide
        from qtriage.manifest import RunManifest
        from qtriage.model import DatasetSpec, load_dataset

        run_dir = run_pipeline(runner, tmp_path, tmp_path / "run")
        manifest = RunManifest.load(run_dir)
        cache = TranscriptCache(manifest.transcript_path)
        total_records = len(cache)

        questions = load_dataset(TOY_DATA)
        spec = DatasetSpec(name="toy", divide_base=5)
        replay = CachingBackend(None, cache)
        reports, _ = run_divide(questions, spec, replay)
        assert reports == load_reports(manifest.partition_path)
        from qtriage.divide import records_from_transcript
        divide_records = records_from_transcript(cache, questions, reports)
        run_conquer(
            questions, reports, "FCR", replay,
            divide_records=divide_records, self_consistency=True, sc_samples=5, seed=42,
        )
        assert replay.hits == total_records

    def test_reused_run_dir_matches_fresh_one(self, runner, tmp_path):
        # Divide at base 10, then base 5 in the same dir: the transcript keeps
        # samples 5-9, and nothing downstream may read them.
        outputs = []
        for name, bases in (("reused", ("10", "5")), ("fresh", ("5",))):
            (tmp_path / name).mkdir()
            run_dir = tmp_path / name / "run"
            config = write_config(tmp_path / name, run_dir)
            base = ["--config", str(config), "--seed", "42"]
            for divide_base in bases:
                result = runner.invoke(main, base + ["divide", "--divide-base", divide_base])
                assert result.exit_code == 0, result.output
            for args in (["conquer", "--strategy", "pkr"], ["report"]):
                result = runner.invoke(main, base + args)
                assert result.exit_code == 0, result.output
            outputs.append(run_dir)
        reused, fresh = outputs
        for rel in ("partition.jsonl", "outcomes_pkr.jsonl", "reports/report.json",
                    "reports/summary.csv", "reports/curves.csv"):
            assert (reused / rel).read_bytes() == (fresh / rel).read_bytes(), rel


class TestSimulateCommand:
    def test_bundled_profiles_assertions_pass(self, runner, tmp_path):
        result = runner.invoke(main, [
            "--seed", "7", "--cache-dir", str(tmp_path / "sim"),
            "simulate", "--n-questions", "60",
        ])
        assert result.exit_code == 0, result.output

    def test_loads_the_transcript_once(self, runner, tmp_path, monkeypatch):
        from qtriage.backend import TranscriptCache

        loads = []
        load = TranscriptCache.__init__

        def counted(self, path):
            loads.append(path)
            load(self, path)

        monkeypatch.setattr(TranscriptCache, "__init__", counted)
        result = runner.invoke(main, [
            "--seed", "7", "--cache-dir", str(tmp_path / "sim"),
            "simulate", "--n-questions", "60",
        ])
        assert result.exit_code == 0, result.output
        assert loads == [tmp_path / "sim" / "transcript.jsonl"]

    def test_conquer_and_report_work_on_a_simulate_run_dir(self, runner, tmp_path):
        base = ["--seed", "7", "--cache-dir", str(tmp_path / "sim")]
        for command in (["simulate", "--n-questions", "60"], ["conquer", "--strategy", "pkr"],
                        ["report"]):
            result = runner.invoke(main, base + command)
            assert result.exit_code == 0, (command, result.output)
        report = json.loads((tmp_path / "sim" / "reports" / "report.json").read_text())
        assert report["dataset"] == "sim-uniform_correct"
        assert sorted(report["strategies"]) == ["fcr+sc", "pkr", "ztcot"]

    def test_a_moved_run_dir_conquers_and_reports_as_it_would_unmoved(self, runner, tmp_path):
        for name in ("moved", "kept"):
            result = runner.invoke(main, ["--seed", "7", "--cache-dir", str(tmp_path / name),
                                          "simulate", "--n-questions", "30"])
            assert result.exit_code == 0, result.output
        (tmp_path / "moved").rename(tmp_path / "elsewhere")
        for name in ("elsewhere", "kept"):
            for command in (["conquer", "--strategy", "pkr"], ["report"]):
                result = runner.invoke(main, ["--cache-dir", str(tmp_path / name), *command])
                assert result.exit_code == 0, (name, command, result.output)
        reports = [(tmp_path / name / "reports" / "report.json").read_bytes()
                   for name in ("elsewhere", "kept")]
        assert reports[0] == reports[1]

    def test_degenerate_profiles_all_high(self, runner, tmp_path):
        result = runner.invoke(main, [
            "--seed", "3", "--cache-dir", str(tmp_path / "sim"),
            "simulate", "--family", "certain", "--n-questions", "30",
        ])
        assert result.exit_code == 0, result.output
        partition = tmp_path / "sim" / "partition.jsonl"
        subsets = {json.loads(l)["subset"] for l in partition.read_text().splitlines()}
        assert subsets == {"high"}
        outcomes = (tmp_path / "sim" / "outcomes_ztcot.jsonl").read_text().strip()
        assert outcomes == ""  # conquer phase empty

    def test_fcr_uplift_without_conquered_questions_fails_and_exits_3(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"assertions": {"fcr_uplift_min_pp": 1}}))
        result = runner.invoke(main, [
            "--config", str(config), "--seed", "3", "--cache-dir", str(tmp_path / "sim"),
            "simulate", "--family", "certain", "--n-questions", "30",
        ])
        assert result.exit_code == 3, result.output
        assert "FAIL fcr_uplift: no conquered question has a gold to score" in result.output

    def test_failed_assertion_exits_3(self, runner, tmp_path):
        profile_file = tmp_path / "p.jsonl"
        lines = [
            json.dumps({"assertions": {"spearman_min": 0.99}}),
            json.dumps({
                "question_id": "q0001",
                "answer_distribution": {"A": 0.5, "B": 0.5},
                "gold": "A",
            }),
            json.dumps({
                "question_id": "q0002",
                "answer_distribution": {"A": 0.6, "B": 0.4},
                "gold": "A",
            }),
        ]
        profile_file.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, [
            "--seed", "1", "--cache-dir", str(tmp_path / "sim"),
            "simulate", "--profiles", str(profile_file),
        ])
        assert result.exit_code == 3
        assert "FAIL" in result.output


    def test_a_configured_profile_file_brings_its_assertions(self, runner, tmp_path):
        profiles = tmp_path / "p.jsonl"
        assertions = json.dumps({"assertions": {"spearman_min": 0.99}})
        profiles.write_text(assertions + "\n" + TOY_PROFILES.read_text())
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"backend": {"profiles": str(profiles)}}))
        result = runner.invoke(main, ["--config", str(config), "--seed", "7", "--cache-dir",
                                      str(tmp_path / "sim"), "simulate"])
        assert result.exit_code == 3, result.output
        assert "FAIL spearman: rho=" in result.output

    def test_simulate_takes_the_config_under_its_options(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "dataset": {"divide_base": 9, "mu": "1/2", "nu": 0.4},
            "backend": {"noise_rate": 0.9},
        }))
        runs = {}
        with_config = ["--config", str(config)]
        for name, args, options in (
            ("plain", [], []),
            ("config", with_config, []),
            ("options", with_config, ["--divide-base", "5", "--noise-rate", "0"]),
        ):
            run_dir = tmp_path / name
            result = runner.invoke(main, [*args, "--seed", "7", "--cache-dir", str(run_dir),
                                          "simulate", "--n-questions", "30", *options])
            assert result.exit_code == 0, result.output
            runs[name] = run_dir
        stored = {name: json.loads((run_dir / "manifest.json").read_text())["config"]
                  for name, run_dir in runs.items()}
        assert [stored[name]["dataset"]["divide_base"] for name in runs] == [5, 9, 5]
        assert [stored[name]["backend"]["noise_rate"] for name in runs] == [0, 0.9, 0]
        assert [stored[name]["dataset"]["mu"] for name in runs] == [[4, 5], [1, 2], [1, 2]]
        assert [stored[name]["dataset"]["nu"] for name in runs] == [[3, 5], [2, 5], [2, 5]]
        partition = {name: (run_dir / "partition.jsonl").read_bytes()
                     for name, run_dir in runs.items()}
        assert partition["config"] != partition["plain"]

        # With the thresholds back at their defaults, the options restore the
        # bytes of a run without a config.
        config.write_text(json.dumps({"backend": {"noise_rate": 0.9}}))
        for name, args in (("noisy", []), ("restored", ["--noise-rate", "0"])):
            result = runner.invoke(main, ["--config", str(config), "--seed", "7", "--cache-dir",
                                          str(tmp_path / name), "simulate", "--n-questions",
                                          "30", *args])
            assert result.exit_code == 0, result.output
        noisy, restored = ((tmp_path / name / "partition.jsonl").read_bytes()
                           for name in ("noisy", "restored"))
        assert noisy != partition["plain"] and restored == partition["plain"]


class TestReportCommand:
    def test_missing_partition_names_phase(self, runner, tmp_path):
        run_dir = tmp_path / "run"
        config = write_config(tmp_path, run_dir)
        run_dir.mkdir()
        from qtriage.manifest import new_manifest
        new_manifest(json.loads(config.read_text()), 0, run_dir).save()
        result = runner.invoke(main, ["--config", str(config), "report"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "divide" in result.output

    def test_compare_outputs_delta_table(self, runner, tmp_path):
        d1 = run_pipeline(runner, tmp_path / "a", tmp_path / "a" / "run", seed=42)
        d2 = run_pipeline(runner, tmp_path / "b", tmp_path / "b" / "run", seed=43)
        result = runner.invoke(main, ["report", "--compare", str(d1), str(d2)])
        assert result.exit_code == 0, result.output
        assert "delta" in result.output
        assert "fcr+sc" in result.output

    def test_compare_says_when_no_subset_has_a_row(self, runner, tmp_path):
        header = f"{'strategy':<14}{'subset':<12}{'a':>8}{'b':>8}{'delta':>8}\n"
        row = f"{'fcr':<14}{'med':<12}{'  50.00':>8}{'     -':>8}{'     -':>8}\n"
        for a, b, expected in (({}, {"fcr": {}}, header + "no strategies to compare\n"),
                               ({"fcr": {"med": {"accuracy": 0.5}}}, {}, header + row)):
            for name, strategies in (("a", a), ("b", b)):
                (tmp_path / name / "reports").mkdir(parents=True, exist_ok=True)
                (tmp_path / name / "reports" / "report.json").write_text(
                    json.dumps({"strategies": strategies}))
            result = runner.invoke(main, ["report", "--compare", str(tmp_path / "a"),
                                          str(tmp_path / "b")])
            assert result.exit_code == 0, result.output
            assert result.output == expected

    def test_incomplete_divide_transcript_names_key(self, runner, tmp_path):
        run_dir = run_pipeline(runner, tmp_path, tmp_path / "run")
        transcript = run_dir / "transcript.jsonl"
        lines = transcript.read_text().splitlines(keepends=True)
        phases = [json.loads(line)["key"].split("|")[1] for line in lines]
        key = json.loads(lines.pop(phases.index("divide")))["key"]
        transcript.write_text("".join(lines))
        base = ["--config", str(tmp_path / "config.json"), "--seed", "42"]

        for args in (["conquer", "--strategy", "pkr"], ["report", "--partial"]):
            result = runner.invoke(main, base + args)
            assert result.exit_code == 1, result.output
            assert isinstance(result.exception, SystemExit)
            assert "divide transcript incomplete" in result.output
            assert key in result.output
        # FCR reads only the partition, never the divide samples.
        result = runner.invoke(main, base + ["conquer", "--strategy", "fcr", "--sc"])
        assert result.exit_code == 0, result.output

    def test_report_scores_questions_derived_from_profiles(self, runner, tmp_path):
        run_dir = tmp_path / "run"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "backend": {"kind": "mock", "profiles": str(TOY_PROFILES)}, "run_dir": str(run_dir),
        }))
        for args in (["divide"], ["conquer", "--strategy", "pkr"], ["report"]):
            result = runner.invoke(main, ["--config", str(config), *args])
            assert result.exit_code == 0, result.output
        reports = run_dir / "reports"
        first = {p.name: p.read_bytes() for p in reports.iterdir()}
        prior = json.loads(first["report.json"])["prior"]
        assert sum(prior[s]["n"] for s in ("high", "med", "low")) == 20
        assert all(isinstance(prior[s]["accuracy"], float) for s in ("high", "med", "low"))
        # The stored config names the same profiles, so a report from it is the same.
        result = runner.invoke(main, ["--cache-dir", str(run_dir), "report"])
        assert result.exit_code == 0, result.output
        assert {p.name: p.read_bytes() for p in reports.iterdir()} == first

    def test_conquer_and_report_read_the_partition_once(self, runner, tmp_path, monkeypatch):
        # One read both decodes the partition and hashes it for the phase records.
        config = write_config(tmp_path, tmp_path / "run")
        base = ["--config", str(config), "--seed", "42"]
        assert runner.invoke(main, base + ["divide"]).exit_code == 0
        opens = []
        open_ = Path.open

        def counted(self, *args, **kwargs):
            opens.append(self.name)
            return open_(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counted)
        for command in (["conquer", "--strategy", "fcr"], ["report"]):
            before = len(opens)
            result = runner.invoke(main, base + command)
            assert result.exit_code == 0, result.output
            assert opens[before:].count("partition.jsonl") == 1, command

    def test_each_command_opens_each_run_file_at_most_once(self, runner, tmp_path, monkeypatch):
        # divide hashes the partition as it wrote it, without reading it back;
        # conquer and report read manifest.json and the partition once each.
        config = write_config(tmp_path, tmp_path / "run")
        base = ["--config", str(config), "--seed", "42"]
        opens = []
        open_ = Path.open

        def counted(self, *args, **kwargs):
            opens.append(self.name)
            return open_(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counted)
        once = {"partition.jsonl": 1, "manifest.json": 1}
        for command, expected in ((["divide"], {"partition.jsonl": 0}),
                                  (["conquer", "--strategy", "pkr"], once), (["report"], once)):
            opens.clear()
            result = runner.invoke(main, base + command)
            assert result.exit_code == 0, result.output
            assert {name: opens.count(name) for name in expected} == expected, command


def phases(run_dir):
    return json.loads((run_dir / "manifest.json").read_text())["phases"]


def report_reads_every_phase(run_dir):
    """Whether the report's record holds the record of every other phase."""
    records = phases(run_dir)
    return records.get("report") == {p: r for p, r in records.items() if p != "report"}


class TestReportStatus:
    def test_a_later_conquer_leaves_the_report_pending(self, runner, tmp_path):
        base, run_dir = divided(runner, tmp_path)
        for args in (["conquer", "--strategy", "fcr"], ["report"]):
            assert runner.invoke(main, base + args).exit_code == 0
        assert report_reads_every_phase(run_dir)
        assert runner.invoke(main, base + ["conquer", "--strategy", "pkr"]).exit_code == 0
        assert not report_reads_every_phase(run_dir)
        assert runner.invoke(main, base + ["report"]).exit_code == 0
        assert report_reads_every_phase(run_dir)
        report = json.loads((run_dir / "reports" / "report.json").read_text())
        assert sorted(report["strategies"]) == ["fcr", "pkr"]

    def test_a_failed_report_write_is_one_error_line_and_leaves_it_pending(
        self, runner, tmp_path, monkeypatch
    ):
        import errno

        run_dir = run_pipeline(runner, tmp_path, tmp_path / "run")
        assert report_reads_every_phase(run_dir)
        replace = os.replace

        def no_space_for_summary(src, dst):
            if Path(dst).name == "summary.csv":
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            replace(src, dst)

        monkeypatch.setattr("os.replace", no_space_for_summary)
        result = runner.invoke(main, ["--config", str(tmp_path / "config.json"), "report"])
        assert result.exit_code == 1, (result.output, result.exception)
        assert isinstance(result.exception, SystemExit), repr(result.exception)
        errors = [line for line in result.output.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and "summary.csv" in errors[0], result.output
        assert phases(run_dir)["report"] is None

    def test_an_old_manifest_reads_as_nothing_current_and_reruns_with_zero_calls(
        self, runner, tmp_path, monkeypatch
    ):
        run_dir = run_pipeline(runner, tmp_path, tmp_path / "run")
        reports = run_dir / "reports"
        before = {p.name: p.read_bytes() for p in reports.iterdir()}
        path = run_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        del manifest["phases"]  # as written before phases were recorded
        manifest.update(outcomes=["fcr+sc"], status=dict.fromkeys(["divide", "report"], "done"))
        path.write_text(json.dumps(manifest))
        base = ["--config", str(tmp_path / "config.json"), "--seed", "42"]
        result = runner.invoke(main, base + ["report"])
        assert result.exit_code == 1 and "not current: divide, conquer;" in result.output

        complete, calls = MockBackend.complete, []
        monkeypatch.setattr(MockBackend, "complete",
                            lambda self, req: calls.append(req) or complete(self, req))
        for args in (["divide"], ["conquer", "--strategy", "fcr", "--sc"], ["report"]):
            result = runner.invoke(main, base + args)
            assert result.exit_code == 0, result.output
        assert calls == []
        assert {p.name: p.read_bytes() for p in reports.iterdir()} == before


class TestRunDirLayout:
    def test_moved_run_reports_the_same_bytes(self, runner, tmp_path, monkeypatch):
        config = write_config(tmp_path, "runs/a")
        base = ["--config", str(config), "--seed", "42"]
        (tmp_path / "w").mkdir()
        monkeypatch.chdir(tmp_path / "w")
        for args in (["divide"], ["conquer", "--strategy", "pkr"],
                     ["conquer", "--strategy", "fcr", "--sc"], ["report"]):
            result = runner.invoke(main, base + args)
            assert result.exit_code == 0, result.output
        reports = tmp_path / "w" / "runs" / "a" / "reports"
        before = {p.name: p.read_bytes() for p in reports.iterdir()}
        assert sorted(before) == ["curves.csv", "report.json", "summary.csv"]

        (tmp_path / "moved").mkdir()
        (tmp_path / "w" / "runs" / "a").rename(tmp_path / "moved" / "b")
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        result = runner.invoke(main, base + ["--cache-dir", "../moved/b", "report"])
        assert result.exit_code == 0, result.output
        run_dir = tmp_path / "moved" / "b"
        assert {p.name: p.read_bytes() for p in (run_dir / "reports").iterdir()} == before
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert sorted(manifest) == ["config", "phases", "run_id", "seed"]
        assert sorted(manifest["phases"]) == ["conquer:fcr+sc", "conquer:pkr", "divide", "report"]
        assert "run_dir" not in manifest["config"]
        assert "runs/a" not in (run_dir / "manifest.json").read_text()

    def test_conquer_of_another_run_leaves_this_one_untouched(
        self, runner, tmp_path, monkeypatch
    ):
        from qtriage.manifest import RunManifest

        config = write_config(tmp_path, "runs/a")
        for name, seed in (("w", "1"), ("other", "2")):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            result = runner.invoke(main, ["--config", str(config), "--seed", seed, "divide"])
            assert result.exit_code == 0, result.output
        other = tmp_path / "other"
        before = {p: p.read_bytes() for p in other.rglob("*") if p.is_file()}

        result = runner.invoke(main, ["--cache-dir", "../w/runs/a", "conquer", "--strategy", "pkr"])
        assert result.exit_code == 0, result.output
        assert {p: p.read_bytes() for p in other.rglob("*") if p.is_file()} == before
        run_dir = tmp_path / "w" / "runs" / "a"
        assert (run_dir / "outcomes_pkr.jsonl").is_file()
        assert sorted(RunManifest.load(run_dir).phases) == ["conquer:pkr", "divide"]

    def test_later_commands_find_relative_inputs_from_another_dir(
        self, runner, tmp_path, monkeypatch
    ):
        work = tmp_path / "w"
        work.mkdir()
        (tmp_path / "other").mkdir()
        for src in (TOY_DATA, TOY_PROFILES):
            (work / src.name).write_bytes(src.read_bytes())
        config = {
            "dataset": {"path": TOY_DATA.name, "name": "toy20", "divide_base": 5},
            "backend": {"kind": "mock", "profiles": TOY_PROFILES.name},
        }
        (work / "config.json").write_text(json.dumps(config))
        base = ["--config", "config.json", "--seed", "42"]
        monkeypatch.chdir(work)
        for run, args in (("a", ["divide"]), ("b", ["divide"]),
                          ("b", ["conquer", "--strategy", "pkr"]), ("b", ["report"])):
            result = runner.invoke(main, base + ["--cache-dir", f"runs/{run}"] + args)
            assert result.exit_code == 0, result.output

        monkeypatch.chdir(tmp_path / "other")
        for args in (["conquer", "--strategy", "pkr"], ["report"]):
            result = runner.invoke(main, ["--cache-dir", "../w/runs/a"] + args)
            assert result.exit_code == 0, result.output
        for name in ("report.json", "summary.csv", "curves.csv"):
            a, b = (work / "runs" / run / "reports" / name for run in "ab")
            assert a.read_bytes() == b.read_bytes(), name
        stored = json.loads((work / "runs" / "a" / "manifest.json").read_text())["config"]
        assert stored["dataset"]["path"] == str(work.resolve() / TOY_DATA.name)
        assert stored["backend"]["profiles"] == str(work.resolve() / TOY_PROFILES.name)

    def test_failed_replace_keeps_the_previous_partition(self, runner, tmp_path, monkeypatch):
        from qtriage.divide import load_reports
        from qtriage.model import encode_jsonl

        _, run_dir = divided(runner, tmp_path)
        partition = run_dir / "partition.jsonl"
        before = partition.read_bytes()
        names = sorted(p.name for p in run_dir.iterdir())

        def refuse(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr("os.replace", refuse)
        with pytest.raises(QtriageError, match="partition.jsonl: no space left"):
            encode_jsonl(partition, load_reports(partition)[:3])
        assert partition.read_bytes() == before
        assert sorted(p.name for p in run_dir.iterdir()) == names

    def test_no_credential_reaches_any_run_file(self, runner, tmp_path, monkeypatch):
        import requests

        answers = itertools.cycle("AABACBA")
        posts = []

        def post(self, url, json, headers, timeout):
            posts.append(headers["Authorization"])
            text = f"So the answer is ({next(answers)})."
            return _Response(200, {"choices": [{"message": {"content": text}}]})

        monkeypatch.setattr(requests.Session, "post", post)
        monkeypatch.setenv("QTRIAGE_API_KEY", "SECRET-env-51c2")
        backend = {"kind": "http", "endpoint": "http://127.0.0.1:9/v1", "model": "m"}
        run_dir = tmp_path / "run"
        base = ["--config", str(write_config(tmp_path, run_dir, backend=backend)), "--seed", "42"]
        for args in (["divide"], ["conquer", "--strategy", "fcr"], ["report"]):
            result = runner.invoke(main, base + args)
            assert result.exit_code == 0, result.output
        assert len(posts) > 100 and set(posts) == {"Bearer SECRET-env-51c2"}
        files = [p for p in run_dir.rglob("*") if p.is_file()]
        assert {"manifest.json", "transcript.jsonl", "outcomes_fcr.jsonl", "report.json"} <= {
            p.name for p in files
        }
        for path in files:
            assert b"SECRET-env-51c2" not in path.read_bytes(), path

        # A key in the config is refused by every command, and no run file changes.
        before, calls = {p: p.read_bytes() for p in files}, len(posts)
        config = write_config(tmp_path, run_dir, backend={**backend, "api_key": "SECRET-9d0e"})
        for args in (["divide"], ["conquer", "--strategy", "fcr"], ["report"]):
            result = runner.invoke(main, ["--config", str(config), *args])
            assert result.exit_code == 1, result.output
            errors = [line for line in result.output.splitlines() if line.startswith("error: ")]
            assert len(errors) == 1 and "backend.api_key" in errors[0], result.output
            assert "QTRIAGE_API_KEY" in errors[0] and "SECRET-9d0e" not in result.output
        assert {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()} == before
        assert len(posts) == calls


def run_files(run_dir):
    return {p.relative_to(run_dir).as_posix(): p.read_bytes()
            for p in run_dir.rglob("*") if p.is_file()}


class TestTheRunHoldsItsSettings:
    """`conquer` and `report` take every setting the run id hashes from manifest.json;
    from the options and `--config`, only where the run is, its seed and parallelism,
    and how requests travel."""

    OTHER_BACKEND = {"backend.noise_rate": 0.9, "dataset.divide_base": 7}

    def copy_under(self, tmp_path, run_dir, **overrides):
        """A copy of `run_dir` and the CLI args of a config for it with `overrides`."""
        copy = tmp_path / "copy"
        shutil.copytree(run_dir, copy / "run")
        return ["--config", str(write_config(copy, copy / "run", **overrides))], copy / "run"

    def test_conquer_under_another_backend_config_is_the_runs_own(self, runner, tmp_path):
        own, run_dir = divided(runner, tmp_path, seed=1)
        other, copy = self.copy_under(tmp_path, run_dir, **self.OTHER_BACKEND)
        for base in (own, other + ["--seed", "1"]):
            result = runner.invoke(main, base + ["conquer", "--strategy", "pkr", "--sc"])
            assert result.exit_code == 0, result.output
        assert run_files(copy) == run_files(run_dir)
        assert phases(run_dir)["conquer:pkr+sc"]["sc_samples"] == 5

    def test_report_under_another_backend_config_is_the_runs_own(self, runner, tmp_path):
        own, run_dir = divided(runner, tmp_path, seed=1)
        assert runner.invoke(main, own + ["conquer", "--strategy", "pkr", "--sc"]).exit_code == 0
        other, copy = self.copy_under(tmp_path, run_dir, **self.OTHER_BACKEND)
        for base in (own, other):
            result = runner.invoke(main, base + ["report"])
            assert result.exit_code == 0, result.output
        assert run_files(copy / "reports") == run_files(run_dir / "reports")
        report = json.loads((run_dir / "reports" / "report.json").read_text())
        assert report["cost"]["queries_saved_by_fixing_high"] == 5 * report["prior"]["high"]["n"]

    def test_conquer_seed_leaves_the_mock_at_the_runs_seed(self, runner, tmp_path):
        own, run_dir = divided(runner, tmp_path, seed=1)
        other, copy = self.copy_under(tmp_path, run_dir)
        for base, seed in ((own, "1"), (other, "5")):
            result = runner.invoke(main, base + ["--seed", seed, "conquer", "--strategy", "fcr",
                                                 "--sc"])
            assert result.exit_code == 0, result.output
        for name in ("outcomes_fcr+sc.jsonl", "transcript.jsonl"):
            assert (copy / name).read_bytes() == (run_dir / name).read_bytes(), name
        assert phases(copy)["conquer:fcr+sc"]["seed"] == 5

    def test_a_replay_config_conquers_with_zero_calls(self, runner, tmp_path, monkeypatch):
        own, run_dir = divided(runner, tmp_path)
        assert runner.invoke(main, own + ["conquer", "--strategy", "pkr"]).exit_code == 0
        copy = tmp_path / "copy" / "run"
        shutil.copytree(run_dir, copy)
        (copy / "outcomes_pkr.jsonl").unlink()
        config = tmp_path / "replay.json"  # naming no inputs
        config.write_text(json.dumps({"backend": {"kind": "replay"}, "run_dir": str(copy)}))
        replay = ["--config", str(config)]
        monkeypatch.setattr(MockBackend, "complete", lambda self, req: pytest.fail("a call"))
        result = runner.invoke(main, replay + ["conquer", "--strategy", "pkr"])
        assert result.exit_code == 0, result.output
        assert run_files(copy) == run_files(run_dir)

    def test_a_profile_only_run_keeps_its_questions(self, runner, tmp_path):
        run_dir = tmp_path / "run"
        own = tmp_path / "own.json"
        own.write_text(json.dumps({"backend": {"kind": "mock", "profiles": str(TOY_PROFILES)},
                                   "run_dir": str(run_dir)}))
        assert runner.invoke(main, ["--config", str(own), "divide"]).exit_code == 0
        data = tmp_path / "other.jsonl"  # toy20 questions, asked otherwise
        data.write_text(TOY_DATA.read_text().replace("Synthetic reasoning item", "Item"))
        other, copy = self.copy_under(tmp_path, run_dir, **{"dataset.path": str(data)})
        for base in (["--config", str(own)], other):
            result = runner.invoke(main, base + ["conquer", "--strategy", "pkr"])
            assert result.exit_code == 0, result.output
        assert run_files(copy) == run_files(run_dir)


def divided(runner, tmp_path, seed=42, **overrides):
    """Divide the toy run under `tmp_path` at `seed`, its config changed by `overrides`
    (see `write_config`); returns its CLI args and run dir."""
    run_dir = tmp_path / "run"
    base = ["--config", str(write_config(tmp_path, run_dir, **overrides)), "--seed", str(seed)]
    result = runner.invoke(main, base + ["divide"])
    assert result.exit_code == 0, result.output
    return base, run_dir


def corrupt_line(path, index=0):
    lines = path.read_text().splitlines(keepends=True)
    lines[index] = '{"question_id": \n'
    path.write_text("".join(lines))


def _missing_dataset(command):
    def case(runner, tmp_path, monkeypatch):
        data = tmp_path / "gone.jsonl"
        data.write_bytes(TOY_DATA.read_bytes())
        base, _ = divided(runner, tmp_path, **{"dataset.path": str(data)})
        data.unlink()
        return base + command, "gone.jsonl"
    return case


def _replay_lacking_entry(runner, tmp_path, monkeypatch):
    backend = {"kind": "replay"}
    config = write_config(tmp_path, tmp_path / "run", backend=backend)
    return ["--config", str(config), "divide"], "no entry for key"


def _unprofiled_question(runner, tmp_path, monkeypatch):
    profiles = tmp_path / "profiles.jsonl"
    profiles.write_text("".join(TOY_PROFILES.read_text().splitlines(keepends=True)[1:]))
    config = write_config(tmp_path, tmp_path / "run", **{"backend.profiles": str(profiles)})
    return ["--config", str(config), "divide"], "q0000"


def _configured(command, expect, **settings):
    """`command` under the toy config with each dotted key of `settings` set.

    A callable value is called with `tmp_path`.
    """
    def case(runner, tmp_path, monkeypatch):
        values = {k: v(tmp_path) if callable(v) else v for k, v in settings.items()}
        config = write_config(tmp_path, tmp_path / "run", **values)
        return ["--config", str(config), *command], expect
    return case


def _divide_config(key, value, expect):
    return _configured(["divide"], expect, **{key: value})


def _run_dir_not_string(runner, tmp_path, monkeypatch):
    config = write_config(tmp_path, tmp_path / "run")
    config.write_text(json.dumps({**json.loads(config.read_text()), "run_dir": 5}))
    return ["--config", str(config), "report"], "run_dir"


def _numeric_profiles(tmp_path):
    """Profiles whose answers are numbers, not choice labels."""
    path = tmp_path / "numbers.jsonl"
    dist = {"12": 0.6, "13": 0.4}
    path.write_text(json.dumps({"question_id": "n1", "answer_distribution": dist}) + "\n")
    return str(path)


def _gold_profiles(gold):
    """Profiles for a config without a dataset, one of whose golds is `gold`."""
    def write(tmp_path):
        path = tmp_path / "golds.jsonl"
        path.write_text(json.dumps({"question_id": "q0001", "gold": gold,
                                    "answer_distribution": {"A": 0.6, "B": 0.4}}) + "\n")
        return str(path)
    return write


def _not_utf8_file(tmp_path):
    path = tmp_path / "latin1.jsonl"
    path.write_bytes(b'{"id": "q\xe9"}\n')
    return str(path)


def _simulate(*args, expect):
    def case(runner, tmp_path, monkeypatch):
        argv = [a(tmp_path) if callable(a) else a for a in args]
        return ["--cache-dir", str(tmp_path / "sim"), "simulate", *argv], expect
    return case


def _dataset_lacks_conquered_question(runner, tmp_path, monkeypatch):
    data = tmp_path / "toy20.jsonl"
    data.write_bytes(TOY_DATA.read_bytes())
    base, run_dir = divided(runner, tmp_path, **{"dataset.path": str(data)})
    partition = map(json.loads, (run_dir / "partition.jsonl").read_text().splitlines())
    dropped = next(r["question_id"] for r in partition if r["subset"] != "high")
    data.write_text("".join(line for line in TOY_DATA.read_text().splitlines(keepends=True)
                            if json.loads(line)["id"] != dropped))
    return base + ["conquer", "--strategy", "fcr"], dropped


def _corrupt(name, command, expect, index=0, conquer_first=False):
    def case(runner, tmp_path, monkeypatch):
        base, run_dir = divided(runner, tmp_path)
        if conquer_first:
            assert runner.invoke(main, base + ["conquer", "--strategy", "fcr"]).exit_code == 0
        corrupt_line(run_dir / name, index)
        return base + command, expect
    return case


def _edited_partition(edit):
    """A conquered toy run whose first partition record `edit` changes."""
    def case(runner, tmp_path, monkeypatch):
        base, run_dir = divided(runner, tmp_path)
        assert runner.invoke(main, base + ["conquer", "--strategy", "fcr"]).exit_code == 0
        path = run_dir / "partition.jsonl"
        first, *rest = path.read_text().splitlines(keepends=True)
        record = json.loads(first)
        assert record["counts"], record  # an answer for `first_seen` to lack
        edit(record)
        path.write_text(json.dumps(record, sort_keys=True) + "\n" + "".join(rest))
        return base + ["report"], "partition.jsonl line 1: bad partition record"
    return case


def _assertions_not_object(tmp_path):
    path = tmp_path / "profiles.jsonl"
    path.write_text(json.dumps({"assertions": 5}) + "\n" + TOY_PROFILES.read_text())
    return str(path)


def _profiles(*changes):
    """A profile file with one record per change, each applied to one toy profile."""
    def write(tmp_path):
        base = {"question_id": "q0000", "answer_distribution": {"A": 0.2, "D": 0.8}, "gold": "D"}
        path = tmp_path / "profiles.jsonl"
        path.write_text("".join(json.dumps({**base, **change}) + "\n" for change in changes))
        return str(path)
    return write


_NOT_NUMBERS = "answer_distribution values must be numbers and rationale_length_mean an integer"


def _compare_without_strategies(runner, tmp_path, monkeypatch):
    for name in ("a", "b"):
        (tmp_path / name / "reports").mkdir(parents=True)
        (tmp_path / name / "reports" / "report.json").write_text("{}")
    return ["report", "--compare", str(tmp_path / "a"), str(tmp_path / "b")], "'strategies'"


def _compare_report(report, expect):
    def case(runner, tmp_path, monkeypatch):
        for name in ("a", "b"):
            (tmp_path / name / "reports").mkdir(parents=True)
            (tmp_path / name / "reports" / "report.json").write_text(json.dumps(report))
        return ["report", "--compare", str(tmp_path / "a"), str(tmp_path / "b")], expect
    return case


def _transport_failure(runner, tmp_path, monkeypatch):
    import requests

    def refuse(self, *args, **kwargs):
        raise requests.ConnectionError("connection refused")

    monkeypatch.setattr(requests.Session, "post", refuse)
    monkeypatch.setenv("QTRIAGE_API_KEY", "test-key")
    backend = {"kind": "http", "endpoint": "http://127.0.0.1:9/v1", "model": "m",
               "max_attempts": 1}
    config = write_config(tmp_path, tmp_path / "run", backend=backend)
    return ["--config", str(config), "divide"], "failed after 1 attempts"


def _listed_outcome_missing(runner, tmp_path, monkeypatch):
    base, run_dir = divided(runner, tmp_path)
    assert runner.invoke(main, base + ["conquer", "--strategy", "fcr"]).exit_code == 0
    (run_dir / "outcomes_fcr.jsonl").unlink()
    return base + ["report"], "outcomes_fcr.jsonl"


def _bad_outcome_record(runner, tmp_path, monkeypatch):
    base, run_dir = divided(runner, tmp_path)
    assert runner.invoke(main, base + ["conquer", "--strategy", "fcr"]).exit_code == 0
    path = run_dir / "outcomes_fcr.jsonl"
    first, *rest = path.read_text().splitlines()
    outcome = json.loads(first)
    outcome["records"] = [{"question_id": outcome["question_id"]}]
    path.write_text("\n".join([json.dumps(outcome), *rest]) + "\n")
    return base + ["report"], "outcomes_fcr.jsonl line 1: bad outcome record"


def _manifest_without_outcomes(runner, tmp_path, monkeypatch):
    base, run_dir = divided(runner, tmp_path)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    manifest.pop("phases")  # the layout before run dirs named their own files
    manifest.update(run_dir=str(run_dir), paths={"outcomes": {}}, status={"divide": "done"})
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    return base + ["report"], "phases not current: divide, conquer;"


def _stored_config_bad(runner, tmp_path, monkeypatch):
    _, run_dir = divided(runner, tmp_path)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    manifest["config"]["dataset"]["divide_base"] = 1
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    return ["--cache-dir", str(run_dir), "report", "--partial"], (
        "manifest.json: config dataset.divide_base")


class _Response:
    def __init__(self, status_code, body=None, headers=None):
        self.status_code = status_code
        self.headers = headers or {}
        self._body = body

    def json(self):
        return self._body

    def raise_for_status(self):
        assert self.status_code < 400, "the backend handles error statuses first"


def _http(post, expect, **settings):
    """A divide over `kind: http` whose `requests.Session.post` is `post`; no socket opens."""
    def case(runner, tmp_path, monkeypatch):
        import requests

        monkeypatch.setattr(requests.Session, "post", post)
        monkeypatch.setattr("qtriage.backend.time.sleep", lambda seconds: None)
        monkeypatch.setenv("QTRIAGE_API_KEY", "test-key")
        backend = {"kind": "http", "endpoint": "http://127.0.0.1:9/v1", "model": "m", **settings}
        config = write_config(tmp_path, tmp_path / "run", backend=backend)
        return ["--config", str(config), "divide"], expect() if callable(expect) else expect
    return case


def _unauthorized_once(self, *args, **kwargs):
    """401 on the first post; a retry would hit a refused connection and exit 2."""
    import requests

    if getattr(self, "_posted", False):
        raise requests.ConnectionError("posted again after a 401")
    self._posted = True
    return _Response(401)


def _timeout(self, *args, **kwargs):
    import requests

    raise requests.Timeout("read timed out")


def _first_divide_key():
    from qtriage.divide import divide_requests
    from qtriage.model import load_dataset

    return f"request {divide_requests(load_dataset(TOY_DATA)[0], 5)[0].key()} failed after 2"


def _transcript_edit(edit, expect):
    """Conquer a divided run after `edit` changed its first transcript entry, which
    carries a request."""
    def case(runner, tmp_path, monkeypatch):
        base, run_dir = divided(runner, tmp_path)
        path = run_dir / "transcript.jsonl"
        first, *rest = path.read_text().splitlines(keepends=True)
        entry = json.loads(first)
        edit(entry)
        path.write_text(json.dumps(entry) + "\n" + "".join(rest))
        return base + ["conquer", "--strategy", "fcr"], expect
    return case


def _conquer_without_partition(runner, tmp_path, monkeypatch):
    from qtriage.manifest import new_manifest

    config = write_config(tmp_path, tmp_path / "run")
    new_manifest({}, 0, tmp_path / "run").save()
    return ["--config", str(config), "conquer"], "partition file missing; run divide first"


def _simulate_replay_without_transcript(runner, tmp_path, monkeypatch):
    config = tmp_path / "replay.json"
    config.write_text(json.dumps({"backend": {"kind": "replay"}}))
    return ["--config", str(config), "--cache-dir", str(tmp_path / "sim"), "simulate",
            "--n-questions", "10"], "no entry for key"


def _dataset_line(record, expect):
    """A divide of a one-line dataset holding `record`; the error starts with its path."""
    def case(runner, tmp_path, monkeypatch):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n")
        config = write_config(tmp_path, tmp_path / "run", **{"dataset.path": str(path)})
        return ["--config", str(config), "divide"], f"error: {path} line 1: {expect}"
    return case


def _without_credential(runner, tmp_path, monkeypatch):
    monkeypatch.delenv("QTRIAGE_API_KEY", raising=False)
    backend = {"kind": "http", "endpoint": "http://127.0.0.1:9/v1", "model": "m"}
    config = write_config(tmp_path, tmp_path / "run", backend=backend)
    return ["--config", str(config), "divide"], "missing API credential; set QTRIAGE_API_KEY"


def _manifest_without_run_id(runner, tmp_path, monkeypatch):
    base, run_dir = divided(runner, tmp_path)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    del manifest["run_id"]
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    return base + ["report"], "manifest.json: bad manifest: KeyError('run_id')"


FAILURES = {  # name -> (build the case, expected exit code)
    "conquer-missing-dataset": (_missing_dataset(["conquer", "--strategy", "fcr"]), 1),
    "report-missing-dataset": (_missing_dataset(["report", "--partial"]), 1),
    "divide-replay-lacks-entry": (_replay_lacking_entry, 1),
    "divide-unprofiled-question": (_unprofiled_question, 1),
    "divide-missing-profiles": (
        _divide_config("backend.profiles", lambda t: str(t / "gone.jsonl"), "gone.jsonl"), 1),
    "divide-parallelism-not-int": (
        _divide_config("parallelism", lambda t: "x", "parallelism"), 1),
    "divide-dataset-not-utf8": (_divide_config("dataset.path", _not_utf8_file, "not UTF-8"), 1),
    "divide-dataset-section-not-object": (_divide_config("dataset", lambda t: "x", "dataset"), 1),
    "divide-dataset-path-not-string": (_divide_config("dataset.path", 5, "dataset.path"), 1),
    "divide-profiles-not-string": (_divide_config("backend.profiles", 5, "backend.profiles"), 1),
    "divide-divide-base-fractional": (_divide_config("dataset.divide_base", 5.9, "divide_base"), 1),
    "divide-mu-pair-fractional": (_divide_config("dataset.mu", [1.5, 2], "dataset.mu"), 1),
    "divide-mu-pair-float-string": (_divide_config("dataset.mu", ["4.5", "5"], "dataset.mu"), 1),
    "divide-nu-pair-boolean": (_divide_config("dataset.nu", [True, 4], "dataset.nu"), 1),
    "divide-dataset-name-not-string": (_divide_config("dataset.name", 5, "dataset.name"), 1),
    "divide-parallelism-boolean": (_divide_config("parallelism", True, "parallelism"), 1),
    "divide-profile-answer-not-label": (
        _configured(["divide"], "answer '12'", **{"backend.profiles": _numeric_profiles,
                                                  "dataset.path": ""}), 1),
    "divide-profile-gold-not-label": (
        _configured(["divide"], "profile q0001: question q0001: gold 'Z' not among labels",
                    **{"backend.profiles": _gold_profiles("Z"), "dataset.path": ""}), 1),
    "divide-profile-gold-not-string": (
        _configured(["divide"], "golds.jsonl line 1: gold must be a string or null",
                    **{"backend.profiles": _gold_profiles(5), "dataset.path": ""}), 1),
    "report-run-dir-not-string": (_run_dir_not_string, 1),
    "simulate-config-assertions-not-object": (
        _configured(["simulate", "--n-questions", "10"], "config assertions", assertions="x"), 1),
    "simulate-config-threshold-not-number": (
        _configured(["simulate", "--n-questions", "10"], "spearman_min",
                    assertions={"spearman_min": "abc"}), 1),
    "simulate-profile-answer-not-label": (
        _simulate("--profiles", _numeric_profiles, expect="profile n1: answer '12'"), 1),
    "simulate-unknown-family": (_simulate("--family", "nope", expect="nope"), 1),
    "simulate-divide-base-1": (
        _simulate("--divide-base", "1", "--n-questions", "10", expect="divide_base"), 1),
    "simulate-missing-profiles": (
        _simulate("--profiles", lambda t: str(t / "gone.jsonl"), expect="gone.jsonl"), 1),
    "simulate-assertions-not-object": (
        _simulate("--profiles", _assertions_not_object, expect="profiles.jsonl line 1"), 1),
    "simulate-profile-duplicate-id": (
        _simulate("--profiles", _profiles({}, {"gold": "A"}),
                  expect="profiles.jsonl line 2: duplicate question_id 'q0000'"), 1),
    "simulate-profile-length-fractional": (
        _simulate("--profiles", _profiles({"rationale_length_mean": 2.9}),
                  expect=f"profiles.jsonl line 1: {_NOT_NUMBERS}: 2.9"), 1),
    "simulate-profile-length-boolean": (
        _simulate("--profiles", _profiles({"rationale_length_mean": True}),
                  expect=f"profiles.jsonl line 1: {_NOT_NUMBERS}: True"), 1),
    "simulate-profile-probability-boolean": (
        _simulate("--profiles", _profiles({"answer_distribution": {"A": True}, "gold": "A"}),
                  expect=f"profiles.jsonl line 1: {_NOT_NUMBERS}: True"), 1),
    "simulate-profile-probability-nan": (
        _simulate("--profiles", _profiles({"answer_distribution": {"A": "nan", "D": 1.0}}),
                  expect="profiles.jsonl line 1: profile q0000: probability outside [0, 1]"),
        1),
    "simulate-profile-probabilities-sum": (
        _simulate("--profiles", _profiles({"answer_distribution": {"A": 0.6, "B": 0.5}}),
                  expect="profiles.jsonl line 1: profile q0000: probabilities sum to 1.1"), 1),
    "simulate-n-questions-negative": (
        _simulate("--n-questions", "-3", expect="n_questions is not an integer >= 1: -3"), 1),
    "simulate-n-questions-0": (
        _simulate("--n-questions", "0", expect="n_questions is not an integer >= 1: 0"), 1),
    "simulate-profiles-beside-family": (
        _simulate("--profiles", str(TOY_PROFILES), "--family", "nope",
                  expect="family and n_questions are for generated profiles"), 1),
    "simulate-profiles-beside-n-questions": (
        _simulate("--profiles", str(TOY_PROFILES), "--n-questions", "10",
                  expect=f"not beside backend.profiles {TOY_PROFILES}"), 1),
    "simulate-replay-without-transcript": (_simulate_replay_without_transcript, 1),
    "conquer-without-partition": (_conquer_without_partition, 1),
    "conquer-transcript-entry-without-key": (
        _transcript_edit(lambda entry: entry.pop("key"),
                         "transcript.jsonl: entry at line 1 has no key"), 1),
    "conquer-transcript-request-without-temperature": (
        _transcript_edit(lambda entry: entry["request"].pop("temperature"),
                         "transcript.jsonl: corrupted request at line 1"), 1),
    "conquer-transcript-temperature-not-number": (
        _transcript_edit(lambda entry: entry["request"].update(temperature="hot"),
                         "transcript.jsonl: corrupted request at line 1"), 1),
    "report-compare-without-strategies": (_compare_without_strategies, 1),
    "report-compare-strategy-not-object": (
        _compare_report({"strategies": {"fcr": 5}}, "report.json: strategies.fcr is"), 1),
    "report-compare-accuracy-not-number": (
        _compare_report({"strategies": {"fcr": {"med": {"accuracy": "0.5"}}}},
                        "report.json: strategies.fcr.med.accuracy"), 1),
    "report-compare-accuracy-boolean": (
        _compare_report({"strategies": {"fcr": {"med": {"accuracy": True}}}},
                        "strategies.fcr.med.accuracy is not a number or null"), 1),
    "report-compare-accuracy-nan": (
        _compare_report({"strategies": {"fcr": {"med": {"accuracy": float("nan")}}}},
                        "strategies.fcr.med.accuracy is not a number or null"), 1),
    "report-compare-accuracy-too-large": (
        _compare_report({"strategies": {"fcr": {"med": {"accuracy": 10 ** 400}}}},
                        "strategies.fcr.med.accuracy is not a number or null"), 1),
    "report-compare-accuracy-above-one": (
        _compare_report({"strategies": {"fcr": {"med": {"accuracy": 1.5}}}},
                        "strategies.fcr.med.accuracy is not a number or null"), 1),
    "report-compare-accuracy-negative": (
        _compare_report({"strategies": {"fcr": {"med": {"accuracy": -0.25}}}},
                        "strategies.fcr.med.accuracy is not a number or null"), 1),
    "fcr-dataset-lacks-question": (_dataset_lacks_conquered_question, 1),
    "report-corrupt-manifest": (
        _corrupt("manifest.json", ["report", "--partial"], "manifest.json"), 1),
    "conquer-corrupt-transcript": (
        _corrupt("transcript.jsonl", ["conquer", "--strategy", "fcr"], "line 3", index=2), 1),
    "conquer-corrupt-partition": (
        _corrupt("partition.jsonl", ["conquer", "--strategy", "fcr"], "partition.jsonl line 1"),
        1),
    "report-corrupt-partition": (
        _corrupt("partition.jsonl", ["report", "--partial"], "partition.jsonl line 1"), 1),
    "report-partition-without-first-seen": (
        _edited_partition(lambda record: record.pop("first_seen")), 1),
    "report-partition-first-seen-lacks-an-answer": (
        _edited_partition(lambda record: record["first_seen"].popitem()), 1),
    "report-corrupt-outcomes": (
        _corrupt("outcomes_fcr.jsonl", ["report"], "outcomes_fcr.jsonl line 1",
                 conquer_first=True), 1),
    "divide-transport-failure": (_transport_failure, 2),
    "divide-http-401": (_http(_unauthorized_once, "authentication failed (401)"), 1),
    "divide-http-timeout": (_http(_timeout, _first_divide_key, max_attempts=2), 2),
    "divide-http-empty-body": (
        _http(lambda self, *a, **k: _Response(200, {}), "failed after 2 attempts",
              max_attempts=2), 2),
    "report-listed-outcome-missing": (_listed_outcome_missing, 1),
    "report-bad-outcome-record": (_bad_outcome_record, 1),
    "report-manifest-without-outcomes": (_manifest_without_outcomes, 1),
    "divide-parallelism-0": (_divide_config("parallelism", 0, "parallelism"), 1),
    "divide-parallelism-option-0": (
        _configured(["--parallelism", "0", "divide"], "option parallelism"), 1),
    "divide-noise-rate-7": (_divide_config("backend.noise_rate", 7, "backend.noise_rate"), 1),
    "divide-gold-uplift-negative": (
        _divide_config("backend.gold_uplift", -1, "backend.gold_uplift"), 1),
    "divide-max-attempts-0": (_http(_timeout, "backend.max_attempts", max_attempts=0), 1),
    "divide-base-delay-negative": (_http(_timeout, "backend.base_delay", base_delay=-1), 1),
    "divide-endpoint-not-string": (_http(_timeout, "backend.endpoint", endpoint=5), 1),
    "report-stored-config-bad": (_stored_config_bad, 1),
    "divide-misspelt-divide-base": (
        _divide_config("dataset.divide_bsae", 9, "dataset.divide_bsae"), 1),
    "divide-http-without-credential": (_without_credential, 1),
    "divide-http-without-endpoint": (
        _http(_timeout, "live backend requires an endpoint URL", endpoint=""), 1),
    "divide-without-dataset-or-profiles": (
        _configured(["divide"], "no dataset.path configured and no backend.profiles to derive "
                    "one from", **{"dataset.path": "", "backend.profiles": ""}), 1),
    "divide-mock-without-profiles": (
        _configured(["divide"], "mock backend requires backend.profiles path",
                    **{"backend.profiles": ""}), 1),
    "report-manifest-without-run-id": (_manifest_without_run_id, 1),
    "divide-dataset-id-not-string": (
        _dataset_line({"id": 5, "question": "q?", "choices": ["a", "b"]},
                      "field 'id' must be a non-empty string"), 1),
    "divide-dataset-empty-choice": (
        _dataset_line({"id": "q1", "question": "q?", "choices": ["a", " "]},
                      "question q1: empty choice content"), 1),
    "divide-dataset-duplicate-choices": (
        _dataset_line({"id": "q1", "question": "q?", "choices": ["a b", " a  b"]},
                      "question q1: duplicate choice content ' a  b'"), 1),
}


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_every_failure_is_one_error_line(runner, tmp_path, monkeypatch, case):
    build, code = FAILURES[case]
    args, expect = build(runner, tmp_path, monkeypatch)
    result = runner.invoke(main, args)
    assert result.exit_code == code, (result.output, result.exception)
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    assert "Traceback" not in result.output
    errors = [line for line in result.output.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and expect in errors[0], result.output


def test_a_missing_credential_writes_no_run_file(runner, tmp_path, monkeypatch):
    args, _ = _without_credential(runner, tmp_path, monkeypatch)
    assert runner.invoke(main, args).exit_code == 1
    assert not (tmp_path / "run").exists()


# The command that reads each input file a run has.
INPUT_READERS = {"dataset": ["report"], "profiles": ["conquer", "--strategy", "pkr"],
                 "partition.jsonl": ["report"], "outcomes_fcr.jsonl": ["report"],
                 "transcript.jsonl": ["report"]}


@pytest.mark.parametrize("name", sorted(INPUT_READERS))
def test_a_bad_input_record_is_named_by_its_file_and_line(runner, tmp_path, name):
    inputs = {"dataset": tmp_path / "toy20.jsonl", "profiles": tmp_path / "profiles.jsonl"}
    inputs["dataset"].write_bytes(TOY_DATA.read_bytes())
    inputs["profiles"].write_bytes(TOY_PROFILES.read_bytes())
    run_dir = tmp_path / "run"
    config = write_config(tmp_path, run_dir, **{"dataset.path": str(inputs["dataset"]),
                                                 "backend.profiles": str(inputs["profiles"])})
    base = ["--config", str(config), "--seed", "42"]
    for command in (["divide"], ["conquer", "--strategy", "fcr"]):
        assert runner.invoke(main, base + command).exit_code == 0
    path = inputs.get(name, run_dir / name)
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = "{}\n"  # a JSON object without one field its reader needs
    path.write_text("".join(lines))
    result = runner.invoke(main, base + INPUT_READERS[name])
    assert result.exit_code == 1, result.output
    errors = [line for line in result.output.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and str(path) in errors[0] and "line 2" in errors[0], result.output


FULL_CONFIG = {  # a good value for every key of the config table
    "run_dir": "run", "seed": 42, "parallelism": 2,
    "dataset": {"path": str(TOY_DATA), "schema": "mcq-jsonl", "name": "toy20",
                "divide_base": 5, "mu": "0.8", "nu": [3, 5]},
    "backend": {"kind": "mock", "profiles": str(TOY_PROFILES), "noise_rate": 0.05,
                "gold_uplift": 1.5, "endpoint": "", "model": "m", "max_attempts": 3,
                "base_delay": 0.5},
    "assertions": {"spearman_min": 0.1, "subset_ordering": True, "fcr_uplift_min_pp": 1},
}
OUT_OF_RANGE = {
    "parallelism": [0, -4], "dataset.schema": ["tsv"], "dataset.divide_base": [1, -5],
    "dataset.mu": [0, "3/2", -1], "dataset.nu": [-0.1, 0.9, "4/5"], "backend.kind": ["grpc"],
    "backend.noise_rate": [7, -0.5, "nan"], "backend.gold_uplift": [-1, 0, "inf"],
    "backend.max_attempts": [0], "backend.base_delay": [-1, "inf"],
}
LEAVES = [(section, leaf) for section, value in FULL_CONFIG.items()
          for leaf in (value if isinstance(value, dict) else [None])]


@st.composite
def broken_configs(draw):
    """FULL_CONFIG with one leaf given a wrong type or an out-of-range value, or
    misspelt; returns the config and the dotted key an error must name."""
    config = json.loads(json.dumps(FULL_CONFIG))
    section, leaf = draw(st.sampled_from(LEAVES))
    node, name = (config, section) if leaf is None else (config[section], leaf)
    dotted = name if leaf is None else f"{section}.{leaf}"
    good = node[name]
    wrong_type = [{}, [1, 2, 3], 5 if isinstance(good, str) else "x"]
    change = draw(st.sampled_from(["type", "range", "spelling"]))
    if change == "spelling":
        i = draw(st.integers(0, len(name) - 2))
        misspelt = name[:i] + name[i + 1] + name[i] + name[i + 2:]
        if misspelt == name:
            misspelt += "s"
        node[misspelt] = node.pop(name)
        return config, f"{section}.{misspelt}" if leaf else misspelt
    node[name] = draw(st.sampled_from(
        OUT_OF_RANGE.get(dotted, wrong_type) if change == "range" else wrong_type))
    return config, dotted


@settings(max_examples=300, deadline=None)
@given(case=broken_configs())
def test_one_broken_leaf_is_one_error_line_naming_it(case):
    config, dotted = case
    runner = CliRunner()
    with runner.isolated_filesystem():
        Path("config.json").write_text(json.dumps(config))
        result = runner.invoke(main, ["--config", "config.json", "divide"])
        assert result.exit_code == 1, (result.output, result.exception)
        assert isinstance(result.exception, SystemExit), repr(result.exception)
        errors = [line for line in result.output.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and f" {dotted} " in errors[0], (dotted, result.output)
        assert sorted(p.name for p in Path().iterdir()) == ["config.json"]


def test_the_readme_lists_every_config_key():
    from qtriage.manifest import CONFIG

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    keys = re.findall(r"^\| `([a-z_.]+)` \|", readme, re.MULTILINE)
    assert sorted(keys) == sorted(CONFIG)


def test_the_readme_names_every_cli_option():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    flags = {param.opts[0] for command in (main, *main.commands.values())
             for param in command.params if isinstance(param, click.Option)}
    named = {flag for flag in flags if re.search(rf"(?<![\w-]){flag}(?![\w-])", readme)}
    assert sorted(flags - named) == []


def test_the_readme_simulation_passes_its_three_assertions():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    config, command = re.search(
        r"^echo '([^']*)' > sim\.json\n(qtriage --config sim\.json .*)$", readme,
        re.MULTILINE).groups()
    runner = CliRunner()
    with runner.isolated_filesystem():
        Path("sim.json").write_text(config)
        result = runner.invoke(main, shlex.split(command)[1:])
    assert result.exit_code == 0, result.output
    passed = [line for line in result.output.splitlines() if line.startswith("PASS ")]
    assert len(passed) == 3 and "delta=4.4pp" in passed[-1], result.output


def test_import_loads_neither_requests_nor_scipy():
    # The benchmark's setup_s pays for every module a bare `import qtriage` loads.
    import qtriage

    env = {**os.environ, "PYTHONPATH": str(Path(qtriage.__file__).parents[1])}
    for imports, absent in (
        ("qtriage, qtriage.cli, qtriage.simulate", ("requests", "scipy")),
        ("qtriage", ("click", "qtriage.pipeline", "qtriage.manifest", "qtriage.cli")),
    ):
        code = f"import sys, {imports}; print(sorted(m for m in {absent!r} if m in sys.modules))"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=env, timeout=60, check=True)
        assert result.stdout.strip() == "[]", imports


# What the benchmark's setup probe imports, then a batch on a backend that waits.
_FIRST_USE = """
import json, sys, time
import qtriage
bare = sorted(m for m in sys.modules if m.startswith("qtriage."))
from qtriage.backend import MockBackend, load_profiles
from qtriage.model import load_dataset
probe = sorted(m for m in ABSENT if m in sys.modules)
from qtriage.backend import Backend, Completion, CompletionRequest, execute

class Waiting(Backend):
    def complete(self, req):
        time.sleep(0.01 * (3 - req.sample_index))  # later requests finish first
        return Completion(req.question_id, 1, 1)

requests = [CompletionRequest("p", 0.0, 1, i, f"q{i}", "divide") for i in range(4)]
texts = [c.text for c in execute(requests, Waiting(), parallelism=2)]
print(json.dumps([bare, probe, texts, "concurrent.futures" in sys.modules]))
"""


def test_each_module_loads_at_first_use():
    import qtriage

    absent = [f"qtriage.{m}" for m in ("conquer", "divide", "extraction", "prompts", "report",
                                       "pipeline", "manifest", "cli")]
    absent += ["concurrent.futures", "logging"]
    env = {**os.environ, "PYTHONPATH": str(Path(qtriage.__file__).parents[1])}
    code = f"ABSENT = {absent!r}\n{_FIRST_USE}"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, timeout=60, check=True)
    bare, probe, texts, pool = json.loads(result.stdout)
    assert bare == []
    assert probe == []
    assert texts == ["q0", "q1", "q2", "q3"]
    assert pool


def test_each_export_is_its_home_modules_object():
    import importlib

    import qtriage

    assert qtriage.__all__ == sorted(qtriage._EXPORTS)
    for name, module in qtriage._EXPORTS.items():
        assert getattr(qtriage, name) is getattr(importlib.import_module(f"qtriage.{module}"), name)
    star = {}
    exec("from qtriage import *", star)
    assert sorted(set(star) - {"__builtins__"}) == qtriage.__all__
    assert set(qtriage.__all__) <= set(dir(qtriage))
    with pytest.raises(AttributeError, match="module 'qtriage' has no attribute 'nope'"):
        qtriage.nope
    from qtriage import backend, conquer, divide, pipeline  # as bench/tracing.py imports them

    assert backend.execute and conquer.run_conquer and divide.run_divide and pipeline.Run
    original = conquer.conquer_item
    with pytest.MonkeyPatch.context() as patch:  # as bench/tracing.py wraps it
        patch.setattr(conquer, "conquer_item", wrapped := lambda *a, **k: original(*a, **k))
        assert qtriage.conquer_item is wrapped
    assert qtriage.conquer_item is original  # each access reads the home module
