import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

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
        read = synth.load_profile_file

        def counted(path):
            reads.append(path)
            return read(path)

        monkeypatch.setattr(synth, "load_profile_file", counted)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"backend": {"profiles": str(TOY_PROFILES)},
                                      "run_dir": str(tmp_path / "run")}))
        for command in (["divide"], ["conquer", "--strategy", "pkr"]):
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
        transport = ("kind", "endpoint", "max_attempts", "base_delay")  # how requests travel
        computed = {"dataset": stored["dataset"], "backend": {
            k: v for k, v in stored["backend"].items() if k not in transport}}
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
        manifest = {**json.loads(path.read_text()), "config": as_given, "run_id": "0123456789ab"}
        path.write_text(json.dumps(manifest))
        for args in (["conquer", "--strategy", "pkr"], ["report"]):
            result = runner.invoke(main, ["--cache-dir", str(run_dir), *args])
            assert result.exit_code == 0, result.output
        stored = json.loads(path.read_text())
        assert (stored["config"], stored["run_id"]) == (as_given, "0123456789ab")
        assert stored["outcomes"] == ["pkr"] and set(stored["status"].values()) == {"done"}
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
        assert RunManifest.load(run_dir).status["conquer"] == "done"
        backend.armed = True
        with pytest.raises(TransportError):
            run_conquer_phase(questions, reports, "PKR", backend, manifest)
        assert RunManifest.load(run_dir).status["conquer"] == "partial"
        result = runner.invoke(main, ["--config", str(config), "report"])
        assert result.exit_code == 1
        assert "conquer" in result.output and "--partial" in result.output
        # A later success of another strategy leaves the failed one marked.
        backend.armed = False
        run_conquer_phase(questions, reports, "FCR", backend, manifest, self_consistency=True)
        assert RunManifest.load(run_dir).status["conquer"] == "partial"
        result = runner.invoke(main, ["--config", str(config), "report"])
        assert result.exit_code == 1
        assert "conquer:pkr" in result.output
        # Rerunning the failed strategy clears its mark.
        run_conquer_phase(questions, reports, "PKR", backend, manifest)
        assert RunManifest.load(run_dir).status["conquer"] == "done"
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

    def test_http_runs_are_equal_across_parallelism(self, runner, tmp_path, monkeypatch):
        import requests

        threads = set()

        def post(self, url, json, headers, timeout):
            """Answers as a pure function of the payload, after a random few ms."""
            threads.add(threading.get_ident())
            digest = hashlib.sha256(repr(sorted(json.items())).encode()).digest()
            time.sleep(random.uniform(0.001, 0.005))
            text = ("i cannot settle on one." if digest[0] % 4 == 0
                    else f"So the answer is ({'AB'[digest[1] % 2]}).")
            usage = {"prompt_tokens": digest[2], "completion_tokens": digest[3]}
            return _Response(200, {"choices": [{"message": {"content": text}}], "usage": usage})

        monkeypatch.setattr(requests.Session, "post", post)
        monkeypatch.setenv("QTRIAGE_API_KEY", "test-key")
        backend = {"kind": "http", "endpoint": "http://127.0.0.1:9/v1", "model": "m"}
        runs = {}
        for parallelism in (1, 4):
            run_dir = tmp_path / f"p{parallelism}"
            config = write_config(tmp_path, run_dir, backend=backend)
            base = ["--config", str(config), "--seed", "42", "--parallelism", str(parallelism)]
            for args in (["divide"], ["conquer", "--strategy", "fcr", "--sc"],
                         ["conquer", "--strategy", "pkr"], ["report"]):
                result = runner.invoke(main, base + args)
                assert result.exit_code == 0, result.output
            runs[parallelism] = {p.relative_to(run_dir).as_posix(): p.read_bytes()
                                 for p in run_dir.rglob("*") if p.is_file()}
        # The transcript is appended as completions arrive: the same entries,
        # in an order that depends on scheduling.
        entries = [{entry["key"]: entry["completion"]
                    for entry in map(json.loads, files.pop("transcript.jsonl").splitlines())}
                   for files in runs.values()]
        assert entries[0] == entries[1]
        assert runs[1] == runs[4]
        assert runs[1]["outcomes_fcr+sc.jsonl"] and runs[1]["outcomes_pkr.jsonl"]
        assert len(threads) > 1

    def test_replay_issues_zero_fetches(self, runner, tmp_path):
        from qtriage.backend import CachingBackend, NoFetchBackend, TranscriptCache
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
        replay = CachingBackend(NoFetchBackend(), cache)
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
        new_manifest({}, 0, run_dir).save()
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


def status(run_dir):
    return json.loads((run_dir / "manifest.json").read_text())["status"]


class TestReportStatus:
    def test_a_later_conquer_leaves_the_report_pending(self, runner, tmp_path):
        base, run_dir = divided(runner, tmp_path)
        for args in (["conquer", "--strategy", "fcr"], ["report"]):
            assert runner.invoke(main, base + args).exit_code == 0
        assert status(run_dir)["report"] == "done"
        assert runner.invoke(main, base + ["conquer", "--strategy", "pkr"]).exit_code == 0
        assert status(run_dir)["report"] == "pending"
        assert runner.invoke(main, base + ["report"]).exit_code == 0
        assert status(run_dir)["report"] == "done"
        report = json.loads((run_dir / "reports" / "report.json").read_text())
        assert sorted(report["strategies"]) == ["fcr", "pkr"]

    def test_a_failed_report_write_is_one_error_line_and_leaves_it_pending(
        self, runner, tmp_path, monkeypatch
    ):
        import errno

        run_dir = run_pipeline(runner, tmp_path, tmp_path / "run")
        assert status(run_dir)["report"] == "done"
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
        assert status(run_dir)["report"] != "done"


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
        assert sorted(manifest) == ["config", "outcomes", "run_id", "seed", "status"]
        assert manifest["outcomes"] == ["fcr+sc", "pkr"]
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
        assert RunManifest.load(run_dir).outcomes == ["pkr"]

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


def divided(runner, tmp_path):
    """Divide the toy run under `tmp_path` at seed 42; returns its CLI args and run dir."""
    run_dir = tmp_path / "run"
    base = ["--config", str(write_config(tmp_path, run_dir)), "--seed", "42"]
    result = runner.invoke(main, base + ["divide"])
    assert result.exit_code == 0, result.output
    return base, run_dir


def corrupt_line(path, index=0):
    lines = path.read_text().splitlines(keepends=True)
    lines[index] = '{"question_id": \n'
    path.write_text("".join(lines))


def _missing_dataset(command):
    def case(runner, tmp_path, monkeypatch):
        base, run_dir = divided(runner, tmp_path)
        write_config(tmp_path, run_dir, **{"dataset.path": str(tmp_path / "gone.jsonl")})
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
    base, run_dir = divided(runner, tmp_path)
    partition = map(json.loads, (run_dir / "partition.jsonl").read_text().splitlines())
    dropped = next(r["question_id"] for r in partition if r["subset"] != "high")
    data = tmp_path / "fewer.jsonl"
    data.write_text("".join(line for line in TOY_DATA.read_text().splitlines(keepends=True)
                            if json.loads(line)["id"] != dropped))
    write_config(tmp_path, run_dir, **{"dataset.path": str(data)})
    return base + ["conquer", "--strategy", "fcr"], dropped


def _corrupt(name, command, expect, index=0, conquer_first=False):
    def case(runner, tmp_path, monkeypatch):
        base, run_dir = divided(runner, tmp_path)
        if conquer_first:
            assert runner.invoke(main, base + ["conquer", "--strategy", "fcr"]).exit_code == 0
        corrupt_line(run_dir / name, index)
        return base + command, expect
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
    manifest.pop("outcomes", None)  # the layout before run dirs named their own files
    manifest.update(run_dir=str(run_dir), paths={"outcomes": {}})
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    return base + ["report", "--partial"], "manifest.json: no 'outcomes'"


def _stored_config_bad(runner, tmp_path, monkeypatch):
    _, run_dir = divided(runner, tmp_path)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    manifest["config"]["dataset"]["divide_base"] = 1
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    return ["--cache-dir", str(run_dir), "report", "--partial"], (
        "manifest.json: config dataset.divide_base")


class _Response:
    def __init__(self, status_code, body=None):
        self.status_code = status_code
        self.headers = {}
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
                  expect="profile q0000: probability outside [0, 1]"), 1),
    "simulate-n-questions-negative": (
        _simulate("--n-questions", "-3", expect="n_questions is not an integer >= 1: -3"), 1),
    "simulate-n-questions-0": (
        _simulate("--n-questions", "0", expect="n_questions is not an integer >= 1: 0"), 1),
    "report-compare-without-strategies": (_compare_without_strategies, 1),
    "report-compare-strategy-not-object": (
        _compare_report({"strategies": {"fcr": 5}}, "report.json: strategies.fcr is"), 1),
    "report-compare-accuracy-not-number": (
        _compare_report({"strategies": {"fcr": {"med": {"accuracy": "0.5"}}}},
                        "report.json: strategies.fcr.med.accuracy"), 1),
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


def test_import_loads_neither_requests_nor_scipy():
    import qtriage

    code = ("import sys, qtriage, qtriage.cli, qtriage.simulate; "
            "print(sorted(m for m in ('requests', 'scipy') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(Path(qtriage.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, timeout=60, check=True)
    assert result.stdout.strip() == "[]"
