import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from qtriage.cli import main
from qtriage.model import LABELS
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
        assert isinstance(result.exception, SystemExit)
        assert "nu" in result.output
        assert not (run_dir / "transcript.jsonl").exists()

    def test_missing_dataset_file_listed(self, runner, tmp_path):
        config = write_config(tmp_path, tmp_path / "run", **{"dataset.path": "/nope.jsonl"})
        result = runner.invoke(main, ["--config", str(config), "divide"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
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
        assert isinstance(result.exception, SystemExit)

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
        sc = (run_dir / "outcomes_fcr+sc.jsonl").read_text().splitlines()
        assert len(transcript.read_text().splitlines()) - before == 5 * len(sc) == 75

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

    def test_high_subset_rejected(self, runner, tmp_path):
        run_dir = tmp_path / "run"
        config = write_config(tmp_path, run_dir)
        base = ["--config", str(config), "--seed", "42"]
        assert runner.invoke(main, base + ["divide"]).exit_code == 0
        result = runner.invoke(main, base + ["conquer", "--subsets", "high,med"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)


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
        phases = [json.loads(line)["request"]["phase"] for line in lines]
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
    (tmp_path / "empty.jsonl").write_text("")
    backend = {"kind": "replay", "transcript": str(tmp_path / "empty.jsonl")}
    config = write_config(tmp_path, tmp_path / "run", backend=backend)
    return ["--config", str(config), "divide"], "no entry for key"


def _unprofiled_question(runner, tmp_path, monkeypatch):
    profiles = tmp_path / "profiles.jsonl"
    profiles.write_text("".join(TOY_PROFILES.read_text().splitlines(keepends=True)[1:]))
    config = write_config(tmp_path, tmp_path / "run", **{"backend.profiles": str(profiles)})
    return ["--config", str(config), "divide"], "q0000"


def _divide_config(key, value, expect):
    def case(runner, tmp_path, monkeypatch):
        config = write_config(tmp_path, tmp_path / "run", **{key: value(tmp_path)})
        return ["--config", str(config), "divide"], expect
    return case


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
    "simulate-unknown-family": (_simulate("--family", "nope", expect="nope"), 1),
    "simulate-divide-base-1": (
        _simulate("--divide-base", "1", "--n-questions", "10", expect="divide_base"), 1),
    "simulate-missing-profiles": (
        _simulate("--profiles", lambda t: str(t / "gone.jsonl"), expect="gone.jsonl"), 1),
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
