import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from qtriage.cli import main
from qtriage.synth import bundled_data_path

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
        assert "nu" in result.output
        assert not (run_dir / "transcript.jsonl").exists()

    def test_missing_dataset_file_listed(self, runner, tmp_path):
        config = write_config(tmp_path, tmp_path / "run", **{"dataset.path": "/nope.jsonl"})
        result = runner.invoke(main, ["--config", str(config), "divide"])
        assert result.exit_code == 1
        assert "not found" in result.output

    def test_resume_issues_only_remaining_calls(self, tmp_path):
        # interrupt by dividing only half the questions, then rerun the full set
        from qtriage.backend import CachingBackend, MockBackend, TranscriptCache, load_profiles
        from qtriage.divide import run_divide
        from qtriage.model import DatasetSpec, load_dataset

        questions = load_dataset(TOY_DATA)
        profiles = load_profiles(TOY_PROFILES)
        spec = DatasetSpec(name="toy", divide_base=5)
        path = tmp_path / "t.jsonl"

        first = MockBackend(profiles, seed=42)
        run_divide(questions[:10], spec, CachingBackend(first, TranscriptCache(path)))
        assert first.calls == 50

        second = MockBackend(profiles, seed=42)
        run_divide(questions, spec, CachingBackend(second, TranscriptCache(path)))
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

    def test_profile_without_distribution_names_line(self, runner, tmp_path):
        lines = TOY_PROFILES.read_text().splitlines()
        broken = json.loads(lines[1])
        del broken["answer_distribution"]
        lines[1] = json.dumps(broken)
        profiles = tmp_path / "profiles.jsonl"
        profiles.write_text("\n".join(lines) + "\n")
        config = write_config(tmp_path, tmp_path / "run", **{"backend.profiles": str(profiles)})
        result = runner.invoke(main, ["--config", str(config), "divide"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # an error line, not a traceback
        assert "line 2" in result.output and "answer_distribution" in result.output

    def test_nested_credentials_never_reach_manifest(self, runner, tmp_path):
        from qtriage.manifest import RunManifest, derive_run_id

        manifests = {}
        for name, overrides in (("plain", {}), ("secret", {"backend.api_key": "SECRET-7f3a"})):
            (tmp_path / name).mkdir()
            config = write_config(tmp_path / name, tmp_path / name / "run", **overrides)
            result = runner.invoke(main, ["--config", str(config), "--seed", "42", "divide"])
            assert result.exit_code == 0, result.output
            assert "SECRET-7f3a" not in (tmp_path / name / "run" / "manifest.json").read_text()
            manifests[name] = RunManifest.load(tmp_path / name / "run")
        assert manifests["secret"].run_id == manifests["plain"].run_id
        plain = json.loads((tmp_path / "plain" / "config.json").read_text())
        del plain["run_dir"]
        assert manifests["plain"].run_id == derive_run_id(plain, 42)

    def test_torn_last_entry_is_refetched_once(self, tmp_path):
        from qtriage.backend import MockBackend, TranscriptCache, load_profiles
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

    def test_conquer_without_divide_errors(self, runner, tmp_path):
        config = write_config(tmp_path, tmp_path / "run")
        result = runner.invoke(main, ["--config", str(config), "conquer", "--strategy", "pkr"])
        assert result.exit_code == 1

    def test_failed_strategy_leaves_conquer_partial(self, runner, tmp_path):
        from qtriage.backend import MockBackend, TransportError, load_profiles
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

    def test_high_subset_rejected(self, runner, tmp_path):
        run_dir = tmp_path / "run"
        config = write_config(tmp_path, run_dir)
        base = ["--config", str(config), "--seed", "42"]
        assert runner.invoke(main, base + ["divide"]).exit_code == 0
        result = runner.invoke(main, base + ["conquer", "--subsets", "high,med"])
        assert result.exit_code == 1


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

    def test_replay_issues_zero_fetches(self, runner, tmp_path):
        from qtriage.backend import CachingBackend, NoFetchBackend, TranscriptCache
        from qtriage.conquer import run_conquer
        from qtriage.divide import load_reports, run_divide
        from qtriage.manifest import RunManifest
        from qtriage.model import DatasetSpec, load_dataset

        run_dir = run_pipeline(runner, tmp_path, tmp_path / "run")
        manifest = RunManifest.load(run_dir)
        cache = TranscriptCache(manifest.transcript_path)
        record_keys = {k for k, req, _ in cache.entries()}

        questions = load_dataset(TOY_DATA)
        spec = DatasetSpec(name="toy", divide_base=5)
        replay = CachingBackend(NoFetchBackend(), cache)
        reports, _ = run_divide(questions, spec, replay)
        assert reports == load_reports(manifest.partition_path)
        from qtriage.divide import records_from_transcript
        divide_records = records_from_transcript(cache.entries(), questions)
        run_conquer(
            questions, reports, "FCR", replay,
            divide_records=divide_records, self_consistency=True, sc_samples=5, seed=42,
        )
        assert replay.hits == len(record_keys)


class TestSimulateCommand:
    def test_bundled_profiles_assertions_pass(self, runner, tmp_path):
        result = runner.invoke(main, [
            "--seed", "7", "--cache-dir", str(tmp_path / "sim"),
            "simulate", "--n-questions", "60",
        ])
        assert result.exit_code == 0, result.output

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


class TestReportCommand:
    def test_missing_partition_names_phase(self, runner, tmp_path):
        run_dir = tmp_path / "run"
        config = write_config(tmp_path, run_dir)
        run_dir.mkdir()
        from qtriage.manifest import new_manifest
        new_manifest({}, 0, run_dir).save()
        result = runner.invoke(main, ["--config", str(config), "report"])
        assert result.exit_code == 1
        assert "divide" in result.output

    def test_compare_outputs_delta_table(self, runner, tmp_path):
        d1 = run_pipeline(runner, tmp_path / "a", tmp_path / "a" / "run", seed=42)
        d2 = run_pipeline(runner, tmp_path / "b", tmp_path / "b" / "run", seed=43)
        result = runner.invoke(main, ["report", "--compare", str(d1), str(d2)])
        assert result.exit_code == 0, result.output
        assert "delta" in result.output
        assert "fcr+sc" in result.output
