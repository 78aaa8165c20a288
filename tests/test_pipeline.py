"""Held run results, the conquer fallback for unparsed questions, report status,
and the golden bytes of two small simulations."""

import gc
import hashlib
import json
import shutil
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from qtriage import pipeline
from qtriage.backend import ConfigError, TransportError
from qtriage.cli import main
from qtriage.conquer import load_outcomes
from qtriage.divide import load_reports
from qtriage.manifest import ManifestError, RunManifest, new_manifest, parse_config
from qtriage.model import DatasetError, DatasetSpec, load_dataset
from qtriage.pipeline import (
    Run,
    run_conquer_phase,
    run_divide_phase,
    run_report_phase,
)
from qtriage.prompts import STRATEGIES, build_prompt
from qtriage.report import em_accuracy
from qtriage.simulate import run_simulation
from qtriage.synth import (
    MockBackend,
    QuestionProfile,
    bundled_data_path,
    generate_synthetic,
    load_profiles,
    questions_from_profiles,
    save_profiles,
)

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


def test_each_setting_comes_from_the_first_source_holding_it():
    settings = parse_config(
        ("option", {"seed": None, "parallelism": 3}),
        ("config", {"seed": 9, "parallelism": 2, "dataset": {"mu": None, "nu": "1/2"}}),
    )
    assert (settings["seed"], settings["parallelism"]) == (9, 3)
    assert (settings["dataset.mu"], settings["dataset.nu"]) == (Fraction(4, 5), Fraction(1, 2))
    assert settings["dataset.divide_base"] == 5 and settings["dataset.name"] is None
    with pytest.raises(ConfigError, match="^option parallelism is not an integer >= 1: 0$"):
        parse_config(("option", {"parallelism": 0}), ("config", {"parallelism": 2}))
    with pytest.raises(ConfigError, match="^config dataset.nu 4/5 is not below dataset.mu"):
        parse_config(("config", {"dataset": {"nu": "4/5"}}))


OMIT = object()  # a spelling that leaves the key out


def spelled_fraction(f, default):
    """Every way a config may spell the threshold `f`."""
    ways = [f"{f.numerator}/{f.denominator}", str(float(f)), float(f),
            [2 * f.numerator, 2 * f.denominator]]
    return ways + [OMIT] if f == default else ways


def spelled_number(x, default):
    """Every way a config may spell the number `x`."""
    ways = [x, float(x), str(x)] + ([int(x)] if x == int(x) else [])
    return ways + [OMIT] if x == default else ways


@st.composite
def two_spellings(draw):
    """One value for each number and threshold, spelt two ways, each with its
    own way for requests to travel; and the value of mu. The dataset is named,
    or is toy20's file, which names it when the name is left out; a spelling may
    be its tree's settings."""
    nu = draw(st.sampled_from([Fraction(n, 10) for n in range(9)] + [Fraction(3, 5)]))
    mu = draw(st.sampled_from([f for f in (Fraction(4, 5), Fraction(7, 8), Fraction(1)) if f > nu]))
    ways = {
        ("dataset", "mu"): spelled_fraction(mu, Fraction(4, 5)),
        ("dataset", "nu"): spelled_fraction(nu, Fraction(3, 5)),
        ("dataset", "divide_base"): spelled_number(draw(st.integers(2, 8)), 5),
        ("backend", "noise_rate"): spelled_number(draw(st.sampled_from([0.0, 0.05, 0.5])), 0.0),
        ("backend", "gold_uplift"): spelled_number(draw(st.sampled_from([1.0, 2.5, 3])), 1.0),
    }
    by_path = draw(st.booleans())
    configs = []
    for _ in range(2):
        dataset = {"path": str(TOY_DATA)} if by_path else {}
        if not by_path or draw(st.booleans()):
            dataset["name"] = "toy20"
        config = {"dataset": dataset, "backend": {
            "kind": draw(st.sampled_from(["mock", "replay", "http"])),
            "max_attempts": draw(st.integers(1, 3)),
        }}
        for (section, key), spellings in ways.items():
            spelling = draw(st.sampled_from(spellings))
            if spelling is not OMIT:
                config[section][key] = spelling
        configs.append(parse_config(("config", config)) if draw(st.booleans()) else config)
    return configs, mu


@settings(max_examples=200, deadline=None)
@given(spelt=two_spellings())
def test_every_spelling_gives_one_stored_config_and_run_id(spelt, tmp_path_factory):
    (first, second), mu = spelt
    run_dir = tmp_path_factory.getbasetemp() / "unwritten"
    one, other = new_manifest(first, 3, run_dir), new_manifest(second, 3, run_dir)
    assert one.run_id == other.run_id
    computed = [{**m.config, "backend": {k: v for k, v in m.config["backend"].items()
                                         if k not in ("kind", "max_attempts")}}
                for m in (one, other)]
    assert computed[0] == computed[1]
    assert one.config["dataset"]["mu"] == [mu.numerator, mu.denominator]
    assert isinstance(one.config["dataset"]["divide_base"], int)
    assert new_manifest(other.config, 3, run_dir).config == other.config  # canonical


def test_a_credential_in_a_library_tree_is_refused(tmp_path):
    with pytest.raises(ConfigError, match="^config backend.api_key is a credential"):
        new_manifest({"backend": {"kind": "http", "api_key": "SECRET"}}, 0, tmp_path)


class TestHeldDivideRecords:
    def test_simulation_never_rebuilds(self, rebuilds, tmp_path):
        strategies = (("PKR", False), ("COM1", False), ("COM2", True), ("FCR", True))
        noisy = parse_config(("test", {"backend": {"noise_rate": 0.05}}))
        result = run_simulation(tmp_path / "sim", 7, noisy, n_questions=60,
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

    def test_an_fcr_conquer_never_rebuilds(self, rebuilds, tmp_path):
        questions, backend, manifest = toy_run(tmp_path / "run", noise_rate=0.3)
        run_divide_phase(questions, DatasetSpec(name="toy20", divide_base=5), backend, manifest)
        loaded = RunManifest.load(tmp_path / "run")
        reports = load_reports(loaded.partition_path)
        for sc in (False, True):
            run_conquer_phase(questions, reports, "FCR", backend, loaded, self_consistency=sc)
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


def held(manifest, path):
    """What `manifest` holds for the run file `path`; fails if it would read the file."""
    def unread():
        raise AssertionError(f"nothing held for {path}")
    return manifest.hold(path, unread)


def report_bytes(questions, spec, manifest):
    files = run_report_phase(questions, spec, manifest, partial=True)
    return {name: path.read_bytes() for name, path in files.items()}


class TestHeldResults:
    @settings(max_examples=10, deadline=None)
    @given(
        family=st.sampled_from(["uniform_correct", "second_gold"]),
        noise_rate=st.floats(0.0, 0.3),
        n=st.integers(1, 30),
        seed=st.integers(0, 2**16),
    )
    def test_held_results_equal_a_fresh_read(self, family, noise_rate, n, seed):
        questions, profiles = generate_synthetic(n, family=family, seed=seed)
        backend = MockBackend(profiles, seed=seed, noise_rate=noise_rate)
        spec = DatasetSpec(name="held", divide_base=5)
        with tempfile.TemporaryDirectory() as tmp:
            run_dir = Path(tmp)
            manifest = new_manifest({"dataset": {"name": "held"}}, seed, run_dir)
            reports, _ = run_divide_phase(questions, spec, backend, manifest)
            for strategy in STRATEGIES:
                for sc in (False, True):
                    run_conquer_phase(questions, reports, strategy, backend, manifest,
                                      self_consistency=sc, seed=seed)
            fresh = RunManifest.load(run_dir)
            assert report_bytes(questions, spec, manifest) == report_bytes(
                questions, spec, fresh
            )
            # The written results, and those the fresh manifest read, equal the files.
            partition = manifest.partition_path
            for m in (manifest, fresh):
                assert list(held(m, partition)) == load_reports(partition)
            names = [p.removeprefix("conquer:") for p in manifest.phases if p.startswith("conquer:")]
            assert len(names) == 2 * len(STRATEGIES)
            for name in names:
                path = manifest.outcome_path(name)
                written = [json.loads(line) for line in path.read_text().splitlines()]
                assert load_outcomes(path) == written
                for m in (manifest, fresh):
                    assert [o.to_dict() for o in held(m, path)] == load_outcomes(path)
            assert pipeline._divide_records(manifest, questions, reports) == (
                pipeline._divide_records(fresh, questions, reports)
            )

    def test_a_rerun_leaves_nothing_stale(self, tmp_path):
        # Each rerun of PKR replaces its outcomes file, fails before writing
        # it (new prompts, so new calls), or writes it through another
        # manifest of the run dir; the report on the first manifest must read
        # what a new process would.
        class FailsWhenArmed(MockBackend):
            calls_left = None  # calls before an outage; None never fails

            def complete(self, req):
                if self.calls_left is not None:
                    if self.calls_left == 0:
                        raise TransportError("injected outage")
                    self.calls_left -= 1
                return super().complete(req)

        run_dir = tmp_path / "run"
        questions, _, manifest = toy_run(run_dir)
        backend = FailsWhenArmed(load_profiles(TOY_PROFILES), seed=42, noise_rate=0.3)
        spec = DatasetSpec(name="toy20", divide_base=5)
        reports, _ = run_divide_phase(questions, spec, backend, manifest)
        run_conquer_phase(questions, reports, "FCR", backend, manifest, self_consistency=True)
        run_conquer_phase(questions, reports, "PKR", backend, manifest, seed=42)
        first = report_bytes(questions, spec, manifest)

        run_conquer_phase(questions, reports, "PKR", backend, manifest, seed=42,
                          subsets=["low"])
        rerun = report_bytes(questions, spec, manifest)
        assert rerun != first
        assert rerun == report_bytes(questions, spec, RunManifest.load(run_dir))

        backend.calls_left = 2
        with pytest.raises(TransportError):
            run_conquer_phase(questions, reports, "PKR", backend, manifest, seed=42,
                              rationale_select="shortest")
        assert manifest.phases["conquer:pkr"] is None
        failed = report_bytes(questions, spec, manifest)
        assert failed == report_bytes(questions, spec, RunManifest.load(run_dir))

        # The first manifest reads the record the other one wrote, so its report
        # is the first one again, not flagged partial.
        backend.calls_left = None
        run_conquer_phase(questions, reports, "PKR", backend, RunManifest.load(run_dir),
                          seed=42)
        assert manifest.phases["conquer:pkr"] is not None
        assert report_bytes(questions, spec, manifest) == first
        loaded = RunManifest.load(run_dir)
        assert loaded.stale() == {}
        assert loaded.phases["report"] == {
            p: r for p, r in loaded.phases.items() if p != "report"}


# Conquer runs that share each question's prior: every rationale_select mode,
# the random one under two seeds (as offsets), and each strategy that reuses a
# prior part with and without SC.
PRIOR_RUNS = (
    ("PKR", False, "longest", 0),
    ("PKR", True, "random", 1),
    ("COM1", False, "shortest", 0),
    ("COM1", True, "random", 0),
    ("COM2", False, "random", 1),
    ("COM2", True, "longest", 0),
    ("FCR", False, "shortest", 0),
    ("FCR", True, "random", 0),
)


class TestHeldPrior:
    @settings(max_examples=8, deadline=None)
    @given(
        runs=st.permutations(PRIOR_RUNS),
        family=st.sampled_from(["uniform_correct", "second_gold"]),
        noise_rate=st.floats(0.0, 0.3),
        n=st.integers(1, 12),
        seed=st.integers(0, 2**16),
    )
    def test_strategies_on_one_manifest_write_what_fresh_ones_do(
        self, runs, family, noise_rate, n, seed
    ):
        questions, profiles = generate_synthetic(n, family=family, seed=seed)
        backend = MockBackend(profiles, seed=seed, noise_rate=noise_rate)
        with tempfile.TemporaryDirectory() as tmp:
            run_dir = Path(tmp)
            manifest = new_manifest({"dataset": {"name": "prior"}}, seed, run_dir)
            prior = None
            # The second divide, on the same manifest, counts fewer samples: the
            # prior held for the first must go with its reports.
            for divide_base in (5, 3):
                spec = DatasetSpec(name="prior", divide_base=divide_base)
                reports, _ = run_divide_phase(questions, spec, backend, manifest)
                written = []
                for strategy, sc, select, offset in runs:
                    options = dict(self_consistency=sc, sc_samples=divide_base,
                                   rationale_select=select, seed=seed + offset)
                    run_conquer_phase(questions, reports, strategy, backend, manifest, **options)
                    path = manifest.outcome_path(f"{strategy.lower()}{'+sc' if sc else ''}")
                    written.append((strategy, options, path, path.read_bytes()))
                assert pipeline._prior(manifest, questions, reports) is not prior
                prior = pipeline._prior(manifest, questions, reports)
                for strategy, options, path, expected in written:
                    fresh = RunManifest.load(run_dir)
                    calls = backend.calls
                    run_conquer_phase(questions, load_reports(fresh.partition_path), strategy,
                                      backend, fresh, **options)
                    assert backend.calls == calls, (strategy, options)
                    assert path.read_bytes() == expected, (strategy, options)


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
        # The prompt each conquer request was sent, from the transcript: the
        # first line for a params hash carries its request.
        prompts, sent = {}, {}
        for line in (tmp_path / "run" / "transcript.jsonl").read_text().splitlines():
            entry = json.loads(line)
            qid, phase, _, params = entry["key"].split("|")
            if "request" in entry:
                prompts[params] = entry["request"]["prompt"]
            if phase == "conquer":
                sent.setdefault(qid, []).append(params)
        by_id = {q.id: q for q in questions}
        for o in outcomes:
            assert o.strategy == strategy and o.mapping is None
            assert [prompts[h] for h in sent[o.question_id]] == [
                build_prompt(by_id[o.question_id], "ZTCOT")
            ]
        assert RunManifest.load(tmp_path / "run").stale() == {}


class TestReportStatus:
    def test_a_second_divide_leaves_the_report_pending(self, tmp_path):
        questions, backend, manifest = toy_run(tmp_path / "run")
        spec = DatasetSpec(name="toy20", divide_base=5)
        reports, _ = run_divide_phase(questions, spec, backend, manifest)
        run_conquer_phase(questions, reports, "FCR", backend, manifest)
        run_report_phase(questions, spec, manifest)
        run_divide_phase(questions, DatasetSpec(name="toy20", divide_base=3), backend, manifest)
        # The manifest's run id is unchanged, but the partition it recorded FCR from is not.
        assert RunManifest.load(tmp_path / "run").stale() == {"conquer:fcr": ""}
        with pytest.raises(ManifestError, match="^phases not current: conquer:fcr;"):
            run_report_phase(questions, spec, manifest)

    def test_a_divide_rerun_to_an_equal_partition_keeps_every_outcome_set(self, tmp_path):
        runner, base = CliRunner(), cli_config(tmp_path, tmp_path / "run")
        reports = tmp_path / "run" / "reports"
        for args in (["divide"], ["conquer", "--strategy", "fcr"], ["report"]):
            result = runner.invoke(main, base + args)
            assert result.exit_code == 0, result.output
        before = {p.name: p.read_bytes() for p in reports.iterdir()}
        partition = (tmp_path / "run" / "partition.jsonl").read_bytes()
        for args in (["divide"], ["report"]):
            result = runner.invoke(main, base + args)
            assert result.exit_code == 0, result.output
        assert (tmp_path / "run" / "partition.jsonl").read_bytes() == partition
        assert {p.name: p.read_bytes() for p in reports.iterdir()} == before

    def test_a_divide_rerun_to_another_partition_leaves_no_outcome_set_current(self, tmp_path):
        runner, base = CliRunner(), cli_config(tmp_path, tmp_path / "run")
        for args in (["divide"], ["conquer", "--strategy", "fcr"], ["report"],
                     ["divide", "--divide-base", "3"]):
            result = runner.invoke(main, base + args)
            assert result.exit_code == 0, result.output
        result = runner.invoke(main, base + ["report"])
        assert result.exit_code == 1
        errors = [line for line in result.output.splitlines() if line.startswith("error: ")]
        assert errors == ["error: phases not current: conquer:fcr; rerun or pass --partial"]
        result = runner.invoke(main, base + ["report", "--partial"])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "run" / "reports" / "report.json").read_text())
        assert report["partial"] is True and report["strategies"] == {}

    @pytest.mark.parametrize("enabled", [True, False])
    def test_the_report_phase_holds_off_the_collector_and_restores_it(
        self, enabled, monkeypatch, tmp_path
    ):
        questions, backend, manifest = toy_run(tmp_path / "run")
        spec = DatasetSpec(name="toy20", divide_base=5)
        run_divide_phase(questions, spec, backend, manifest)
        seen = []
        curves = pipeline.accuracy_curves

        def watched(*args):
            seen.append(gc.isenabled())
            return curves(*args)

        monkeypatch.setattr(pipeline, "accuracy_curves", watched)
        (gc.enable if enabled else gc.disable)()
        try:
            run_report_phase(questions, spec, manifest, partial=True)
            assert seen == [False] and gc.isenabled() is enabled
            with pytest.raises(DatasetError, match=questions[0].id):
                run_report_phase(questions[1:], spec, manifest, partial=True)
            assert gc.isenabled() is enabled
        finally:
            gc.enable()


def run_files(run_dir):
    return {p.relative_to(run_dir).as_posix(): p.read_bytes()
            for p in Path(run_dir).rglob("*") if p.is_file()}


class TestRun:
    def test_the_benchmark_path_writes_the_run_path_files(self, tmp_path):
        # bench/run.py calls the phase functions itself, with its own backend, spec and
        # SC budget; it measures what the CLI and `simulate` run only while these agree.
        config = parse_config(("test", {
            "dataset": {"path": str(TOY_DATA), "name": "toy20"},
            "backend": {"profiles": str(TOY_PROFILES), "noise_rate": 0.2}, "parallelism": 2}))
        run = Run(config, 42, tmp_path / "run")
        run.divide()
        run.conquer("FCR", True)
        run.conquer("PKR")
        run.report()

        questions = load_dataset(TOY_DATA)
        backend = MockBackend(load_profiles(TOY_PROFILES), seed=42, noise_rate=0.2)
        spec = DatasetSpec(name="toy20", divide_base=5)
        manifest = new_manifest(config, 42, tmp_path / "bench")
        reports, _ = run_divide_phase(questions, spec, backend, manifest, parallelism=2)
        for strategy, sc in (("FCR", True), ("PKR", False)):
            run_conquer_phase(questions, reports, strategy, backend, manifest,
                              self_consistency=sc, sc_samples=5, parallelism=2, seed=42)
        run_report_phase(questions, spec, manifest)
        assert run_files(tmp_path / "run") == run_files(tmp_path / "bench")
        assert {"outcomes_fcr+sc.jsonl", "outcomes_pkr.jsonl"} <= set(run_files(tmp_path / "run"))

    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(["uniform_correct", "second_gold", "certain"]),
        noise_rate=st.floats(0.0, 0.3),
        n=st.integers(1, 20),
        bases=st.integers(3, 10).flatmap(lambda t: st.tuples(st.integers(2, t - 1), st.just(t))),
        seed=st.integers(0, 2**16),
    )
    def test_a_smaller_divide_replays_a_prefix_of_a_larger_one(
        self, family, noise_rate, n, bases, seed
    ):
        # Divide samples are keyed by question, sample index and prompt, so a divide
        # at t' < t asks only for requests that a t-run's transcript already holds.
        _, profiles = generate_synthetic(n, family=family, seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            save_profiles(tmp / "profiles.jsonl", profiles)

            def run(name, divide_base):
                tree = {"dataset": {"name": family, "divide_base": divide_base},
                        "backend": {"profiles": str(tmp / "profiles.jsonl"),
                                    "noise_rate": noise_rate}}
                return Run(parse_config(("test", tree)), seed, tmp / name)

            small, large = bases
            run("large", large).divide()
            shutil.copytree(tmp / "large", tmp / "replay")
            transcript = (tmp / "replay" / "transcript.jsonl").read_bytes()
            replay = run("replay", small)
            replay.divide()
            assert replay.backend.calls == 0
            assert (tmp / "replay" / "transcript.jsonl").read_bytes() == transcript
            run("fresh", small).divide()
            partitions = [(tmp / name / "partition.jsonl").read_bytes()
                          for name in ("replay", "fresh")]
            assert partitions[0] == partitions[1]


# sha256 of each output file, computed at commit 4c420e8, before the mock's
# rationale and the transcript line writer were rewritten to write the same
# bytes faster. A change to the mock's draws or to any writer fails here.
# report.json is stable across run dirs because its run id hashes the
# generated profiles.jsonl by content, not by path.
GOLDEN = {
    "uniform_correct": (
        0.0, (("FCR", True),), {
            "outcomes_fcr+sc.jsonl": "5da9951f5a5d38d6725d9d9f63676146a82afb2abdf4a17b3a7df4be0bdff57c",
            "partition.jsonl": "f6cf51f75cdf445d0d09c41a43bdc9660df6850d973e6402bdce08fce1398522",
            "profiles.jsonl": "4e8ad02903370a0d68ce2a82946a3207e0ba0827381eadbaf43bc0fb72a25776",
            "reports/curves.csv": "bc5a092495ed4ec2f98e8f61f4be53b34de61d5d2db0363bdc140d627e672dd4",
            "reports/report.json": "fae86230bba665f8a8a9b6ac70f87811948315dd6846aff2ebafdf2ac216dc6c",
            "reports/summary.csv": "08182ad7bba27f220a7cb06d4e9e8c56e6014471ba91b6ad77c215b849b575ca",
            "transcript.jsonl": "de5dcfe4d696a24458e72c22946374422ffdd7dfd9c86369a7e7e39249c96ae3",
        },
    ),
    "second_gold": (
        0.05, (("COM2", True),), {
            "outcomes_com2+sc.jsonl": "d093ae80ff020497619c590bff46a2333df1e47bfd1045efad037d2aaf3c2b4e",
            "partition.jsonl": "b3c73e7c145bab46c20d5357551523609d284c143eefa77c1a8fd36bed546535",
            "profiles.jsonl": "7a0b8f415f4b0fbd1a389d7a6115264eb94b681e807b8c42faa8bceb603b4bb3",
            "reports/curves.csv": "5e25204cb3303c0c9d790b22cc875ad5b0ea4440e8d1fcd08b591ca5be18792e",
            "reports/report.json": "2d7a89dce63d1f47077ca64140a8bbb5f330eba39d5602641e956036be01578b",
            "reports/summary.csv": "20c9485bcb65d24ac9809c6aa33104e895fdaae40a29eba1d05b8c8be4c817ec",
            "transcript.jsonl": "a02682537c882928cc34e3249deb5881fdeff1137403b913c027854b6c5eba23",
        },
    ),
}


def test_simulation_takes_gold_uplift_from_its_config(tmp_path):
    outcomes = {}
    for uplift in (None, 1, 3):
        settings = parse_config(("test", {"backend": {"gold_uplift": uplift, "kind": "mock"}}))
        run_dir = tmp_path / str(uplift)
        run_simulation(run_dir, 7, settings, family="second_gold", n_questions=60,
                       strategies=(("PKR", False),))
        outcomes[uplift] = (run_dir / "outcomes_pkr.jsonl").read_bytes()
        stored = RunManifest.load(run_dir).config
        assert stored["backend"]["profiles"] == "profiles.jsonl"  # in the run dir, so relative
        assert stored["dataset"]["name"] == "sim-second_gold" and "path" not in stored["dataset"]
    assert outcomes[1] == outcomes[None] != outcomes[3]


@pytest.mark.parametrize("family", sorted(GOLDEN))
def test_simulation_writes_the_golden_bytes(family, tmp_path):
    noise_rate, strategies, digests = GOLDEN[family]
    settings = parse_config(("test", {"backend": {"noise_rate": noise_rate}}))
    run_simulation(tmp_path, 7, settings, family=family, n_questions=200,
                   strategies=strategies)
    written = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.rglob("*")
        if path.suffix in (".jsonl", ".csv") or path.name == "report.json"
    }
    assert written == digests


ALL_ASSERTIONS = {"spearman_min": 0.3, "subset_ordering": True, "fcr_uplift_min_pp": -10}


def test_a_simulation_runs_every_assertion_that_is_set(tmp_path):
    settings = parse_config(("test", {"assertions": ALL_ASSERTIONS}))
    result = run_simulation(tmp_path, 7, settings, n_questions=200)
    assert [name for name, _, _ in result.checks] == ["spearman", "subset_ordering", "fcr_uplift"]
    assert result.ok, result.checks


def test_an_assertion_the_settings_leave_unset_comes_from_the_profile_file(tmp_path):
    profiles = tmp_path / "p.jsonl"
    record = {"assertions": {"spearman_min": -1, "subset_ordering": True}}
    profiles.write_text(json.dumps(record) + "\n" + TOY_PROFILES.read_text())
    for given, checks in ((None, ["spearman", "subset_ordering"]), (False, ["spearman"])):
        settings = parse_config(("test", {"backend": {"profiles": str(profiles)},
                                          "assertions": {"subset_ordering": given}}))
        result = run_simulation(tmp_path / f"run-{given}", 7, settings)
        assert [name for name, _, _ in result.checks] == checks, given


def test_fcr_beats_a_greedy_requery_once_the_mock_uplifts_it(tmp_path):
    settings = parse_config(("test", {"backend": {"gold_uplift": 2.0}, "assertions": {
        **ALL_ASSERTIONS, "fcr_uplift_min_pp": 0}}))
    result = run_simulation(tmp_path, 7, settings, n_questions=200)
    assert result.ok, result.checks
    assert "delta=4.4pp" in result.checks[-1][2]


@pytest.mark.parametrize("strategies", [
    (("ZTCOT", False), ("FCR", True)),
    (("ZTCOT", False), ("FCR", True), ("FCR", False)),
])
def test_an_all_high_simulation_fails_fcr_uplift_for_want_of_questions(strategies, tmp_path):
    settings = parse_config(("test", {"assertions": ALL_ASSERTIONS}))
    result = run_simulation(tmp_path, 7, settings, family="certain", n_questions=30,
                            strategies=strategies)
    assert result.checks[-1] == (
        "fcr_uplift", False, "no conquered question has a gold to score")


def test_fcr_uplift_scores_only_the_questions_with_a_gold(tmp_path):
    profiles = tmp_path / "gold.jsonl"
    save_profiles(profiles, {
        "q0001": QuestionProfile("q0001", {"A": 0.5, "B": 0.5}),
        "q0002": QuestionProfile("q0002", {"A": 0.3, "B": 0.3, "C": 0.4}, gold="C"),
    })
    settings = parse_config(("test", {"assertions": ALL_ASSERTIONS,
                                      "backend": {"profiles": str(profiles)}}))
    result = run_simulation(tmp_path, 7, settings)
    name, _, detail = result.checks[-1]
    assert name == "fcr_uplift" and detail.startswith("fcr=")
    conquered = [o["question_id"] for o in load_outcomes(tmp_path / "outcomes_ztcot.jsonl")]
    assert conquered == ["q0001", "q0002"]  # q0001 has no gold to score


def test_fcr_uplift_falls_back_to_greedy_fcr(tmp_path):
    settings = parse_config(("test", {"assertions": ALL_ASSERTIONS}))
    result = run_simulation(tmp_path, 7, settings, n_questions=100,
                            strategies=(("ZTCOT", False), ("FCR", False)))
    golds = {qid: p.gold for qid, p in load_profiles(tmp_path / "profiles.jsonl").items()}
    scored = [(o["question_id"], o["final_answer"])
              for o in load_outcomes(tmp_path / "outcomes_fcr.jsonl")]
    accuracy = float(em_accuracy(scored, golds))
    name, _, detail = result.checks[-1]
    assert name == "fcr_uplift" and detail.startswith(f"fcr={accuracy:.3f} "), detail


@pytest.mark.parametrize("strategies", [(("FCR", True),), (("ZTCOT", False), ("PKR", False))])
def test_fcr_uplift_needs_a_ztcot_and_an_fcr_outcome_set(strategies, tmp_path):
    settings = parse_config(("test", {"assertions": ALL_ASSERTIONS}))
    result = run_simulation(tmp_path, 7, settings, n_questions=30, strategies=strategies)
    assert result.checks[-1] == ("fcr_uplift", False, "needs ztcot and fcr strategies")


def test_run_ids_hash_the_input_files_by_content(tmp_path):
    """Different inputs give different run ids; the same inputs in another run dir
    give the same report.json."""
    trimmed = tmp_path / "trimmed.jsonl"
    trimmed.write_text("".join(TOY_PROFILES.read_text().splitlines(keepends=True)[1:]))
    runs = {f"n{n}": ({}, {"n_questions": n}) for n in (50, 80)}
    runs.update({path.stem: ({"backend": {"profiles": str(path)}}, {})
                 for path in (TOY_PROFILES, trimmed)})
    runs["n50-again"] = runs["n50"]
    for name, (config, options) in runs.items():
        run_simulation(tmp_path / name, 7, parse_config(("test", config)),
                       strategies=(("ZTCOT", False),), **options)
    ids = {name: RunManifest.load(tmp_path / name).run_id for name in runs}
    assert len(set(ids.values())) == 4 and ids["n50"] == ids["n50-again"]
    report = [(tmp_path / name / "reports" / "report.json").read_bytes()
              for name in ("n50", "n50-again")]
    assert report[0] == report[1]


@pytest.mark.parametrize("dotted", ["dataset.path", "backend.profiles"])
def test_an_unreadable_input_file_is_named_by_its_key(dotted, tmp_path):
    section, key = dotted.split(".")
    for path in (tmp_path / "gone.jsonl", tmp_path):  # missing, and a directory
        with pytest.raises(ConfigError, match=f"config {dotted} is unreadable: .*{path.name}"):
            new_manifest({section: {key: str(path)}}, 0, tmp_path / "run")


def test_a_question_shell_numbers_itself_only_from_decimal_digits():
    profiles = {qid: QuestionProfile(qid, {"A": 0.5, "B": 0.5}) for qid in ("q0007", "q²", "x")}
    texts = {q.id: q.text for q in questions_from_profiles(profiles)}
    assert texts == {qid: f"Synthetic reasoning item number {n}: which candidate fits best?"
                     for qid, n in (("q0007", 7), ("q²", 0), ("x", 0))}
