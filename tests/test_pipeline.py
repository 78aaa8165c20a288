"""Held divide records, the conquer fallback for unparsed questions, and report status."""

import json

import pytest
from click.testing import CliRunner

from qtriage import pipeline
from qtriage.backend import MockBackend, load_profiles
from qtriage.cli import main
from qtriage.manifest import RunManifest, new_manifest
from qtriage.model import DatasetError, DatasetSpec, load_dataset
from qtriage.pipeline import run_conquer_phase, run_divide_phase, run_report_phase
from qtriage.prompts import build_prompt
from qtriage.simulate import run_simulation
from qtriage.synth import bundled_data_path

TOY_DATA = bundled_data_path("toy20.jsonl")
TOY_PROFILES = bundled_data_path("toy20_profiles.jsonl")


@pytest.fixture
def rebuilds(monkeypatch):
    """Every call of `pipeline.records_from_transcript`, the one rebuild path."""
    calls = []
    rebuild = pipeline.records_from_transcript

    def counted(*args):
        calls.append(args)
        return rebuild(*args)

    monkeypatch.setattr(pipeline, "records_from_transcript", counted)
    return calls


def toy_run(run_dir, noise_rate=0.0):
    questions = load_dataset(TOY_DATA)
    backend = MockBackend(load_profiles(TOY_PROFILES), seed=42, noise_rate=noise_rate)
    return questions, backend, new_manifest({"dataset": {"name": "toy20"}}, 42, run_dir)


def cli_config(tmp_path, run_dir):
    config = {
        "dataset": {"path": str(TOY_DATA), "name": "toy20", "divide_base": 5},
        "backend": {"kind": "mock", "profiles": str(TOY_PROFILES)},
        "run_dir": str(run_dir),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return ["--config", str(path), "--seed", "42"]


class TestHeldDivideRecords:
    def test_simulation_never_rebuilds(self, rebuilds, tmp_path):
        strategies = (("PKR", False), ("COM1", False), ("COM2", True), ("FCR", True))
        result = run_simulation(tmp_path / "sim", 7, n_questions=60, noise_rate=0.05,
                                strategies=strategies)
        assert result.ok
        assert rebuilds == []

    def test_each_cli_command_rebuilds_once(self, rebuilds, tmp_path):
        runner = CliRunner()
        base = cli_config(tmp_path, tmp_path / "run")
        expected = {"divide": 0, "conquer": 1, "report": 1}
        for args in (["divide"], ["conquer", "--strategy", "pkr"], ["report"]):
            before = len(rebuilds)
            result = runner.invoke(main, base + args)
            assert result.exit_code == 0, result.output
            assert len(rebuilds) - before == expected[args[0]], args

    @pytest.mark.parametrize("second_divide", ["same_manifest", "other_manifest"])
    def test_no_stale_records_after_a_second_divide(self, second_divide, tmp_path):
        # Samples 3 and 4 of the first divide stay in the transcript; PKR must
        # reuse only the three samples the second divide counted, whether that
        # divide replaced the hold or ran on another manifest of the run dir.
        questions, backend, manifest = toy_run(tmp_path / "held")
        run_divide_phase(questions, DatasetSpec(name="toy20", divide_base=5), backend, manifest)
        if second_divide == "other_manifest":
            _, _, other = toy_run(tmp_path / "held")
        else:
            other = manifest
        reports, _ = run_divide_phase(
            questions, DatasetSpec(name="toy20", divide_base=3), backend, other
        )
        run_conquer_phase(questions, reports, "PKR", backend, manifest, seed=42)

        runner = CliRunner()
        fresh = tmp_path / "fresh"
        base = cli_config(tmp_path, fresh)
        for args in (["divide", "--divide-base", "5"], ["divide", "--divide-base", "3"],
                     ["conquer", "--strategy", "pkr"]):
            result = runner.invoke(main, base + args)
            assert result.exit_code == 0, result.output
        held = tmp_path / "held" / "outcomes_pkr.jsonl"
        assert held.read_bytes() == (fresh / "outcomes_pkr.jsonl").read_bytes()

    def test_missing_partition_question_raises_on_a_held_hit(self, rebuilds, tmp_path):
        questions, backend, manifest = toy_run(tmp_path / "run")
        spec = DatasetSpec(name="toy20", divide_base=5)
        reports, _ = run_divide_phase(questions, spec, backend, manifest)
        run_conquer_phase(questions, reports, "PKR", backend, manifest, seed=42)
        with pytest.raises(DatasetError, match=questions[0].id):
            run_conquer_phase(questions[1:], reports, "PKR", backend, manifest, seed=42)
        with pytest.raises(DatasetError, match=questions[0].id):
            run_report_phase(questions[1:], spec, manifest, partial=True)
        assert rebuilds == []

    def test_held_records_are_the_transcript_records(self, tmp_path):
        questions, backend, manifest = toy_run(tmp_path / "run", noise_rate=0.3)
        reports, records = run_divide_phase(
            questions, DatasetSpec(name="toy20", divide_base=5), backend, manifest
        )
        held = pipeline._divide_records(manifest, questions, reports)
        assert isinstance(held, tuple)
        assert list(held) == records
        reloaded = RunManifest.load(tmp_path / "run")
        assert pipeline._divide_records(reloaded, questions, reports) == held


class TestUnparsedDivideFallsBackToZtcot:
    @pytest.mark.parametrize("strategy", ["PKR", "FCR", "COM1", "COM2"])
    def test_every_med_low_question_gets_an_outcome(self, strategy, tmp_path):
        questions, backend, manifest = toy_run(tmp_path / "run", noise_rate=1.0)
        reports, _ = run_divide_phase(
            questions, DatasetSpec(name="toy20", divide_base=5), backend, manifest
        )
        assert all(not r.histogram.counts for r in reports)
        outcomes = run_conquer_phase(questions, reports, strategy, backend, manifest, seed=42)
        conquered = sorted(r.question_id for r in reports if r.subset in ("med", "low"))
        assert [o.question_id for o in outcomes] == conquered
        by_id = {q.id: q for q in questions}
        for o in outcomes:
            assert o.strategy == strategy and o.mapping is None
            assert [r.prompt for r in o.records] == [build_prompt(by_id[o.question_id], "ZTCOT")]
        assert RunManifest.load(tmp_path / "run").status["conquer"] == "done"


class TestReportStatus:
    def test_a_second_divide_leaves_the_report_pending(self, tmp_path):
        questions, backend, manifest = toy_run(tmp_path / "run")
        spec = DatasetSpec(name="toy20", divide_base=5)
        reports, _ = run_divide_phase(questions, spec, backend, manifest)
        run_conquer_phase(questions, reports, "FCR", backend, manifest)
        run_report_phase(questions, spec, manifest)
        assert RunManifest.load(tmp_path / "run").status["report"] == "done"
        run_divide_phase(questions, DatasetSpec(name="toy20", divide_base=3), backend, manifest)
        assert RunManifest.load(tmp_path / "run").status["report"] == "pending"
