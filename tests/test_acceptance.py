"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines.
"""

import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from qtriage.backend import CachingBackend, TranscriptCache
from qtriage.cli import main
from qtriage.conquer import filter_choices, run_conquer, select_rationales
from qtriage.divide import (
    InferenceRecord,
    assign_subset,
    confidence_score,
    histogram_from_answers,
    records_from_transcript,
    run_divide,
)
from qtriage.model import DatasetSpec, LABELS, Question, load_dataset
from qtriage.report import em_accuracy, weighted_average
from qtriage.simulate import spearman_cs_vs_correct, subset_accuracies
from qtriage.synth import MockBackend, bundled_data_path, generate_synthetic

TOY_DATA = bundled_data_path("toy20.jsonl")
TOY_PROFILES = bundled_data_path("toy20_profiles.jsonl")


def ok(name, detail=""):
    print(f"ACCEPTANCE PASS {name}: {detail}")


def test_criterion_1_weighted_average_reproduction():
    rows = {
        "high": (
            [81, 35, 73, 574, 324, 866, 393, 24, 223],
            [96.30, 57.14, 90.41, 93.21, 96.30, 96.30, 89.82, 79.17, 76.23],
            92.05,
        ),
        "med": (
            [43, 32, 87, 274, 102, 195, 222, 87, 155],
            [67.44, 43.75, 58.62, 74.82, 67.65, 76.92, 72.97, 57.47, 54.19],
            68.00,
        ),
        "low": (
            [130, 33, 110, 373, 74, 104, 406, 189, 122],
            [47.69, 30.30, 40.91, 47.45, 44.59, 48.08, 43.84, 33.86, 36.89],
            43.09,
        ),
    }
    for subset, (ns, vs, expected) in rows.items():
        got = weighted_average(list(zip(ns, vs)))
        assert got == pytest.approx(expected, abs=0.02), subset
    ok("1 weighted-average", "high=92.05 med=68.00 low=43.09 within +/-0.02")


def test_criterion_2_confidence_score_oracle():
    rng = random.Random(20240)
    for _ in range(1000):
        t = rng.randint(3, 10)
        alphabet = [chr(ord("A") + i) for i in range(rng.randint(1, 7))]
        answers = [
            None if rng.random() < 0.3 else rng.choice(alphabet) for _ in range(t)
        ]
        parsed = [a for a in answers if a is not None]
        oracle = Fraction(max(Counter(parsed).values()), t) if parsed else Fraction(0)
        assert confidence_score(histogram_from_answers(answers)) == oracle
    ok("2 confidence-score oracle", "1000 random answer lists, exact equality")


def test_criterion_3_partition_totality_and_boundaries():
    mu, nu = Fraction(4, 5), Fraction(3, 5)
    assert assign_subset(Fraction(4, 5), mu, nu) == "med"
    assert assign_subset(Fraction(3, 5), mu, nu) == "low"
    rng = random.Random(5)
    for _ in range(2000):
        t = rng.randint(2, 10)
        cs = Fraction(rng.randint(0, t), t)
        subsets = [
            s for s, member in (
                ("high", cs > mu),
                ("med", nu < cs <= mu),
                ("low", cs <= nu),
            ) if member
        ]
        assert subsets == [assign_subset(cs, mu, nu)]
    ok("3 partition totality", "cs=0.8->med, cs=0.6->low; exactly one subset each")


def test_criterion_4_fcr_round_trip():
    rng = random.Random(77)
    for _ in range(1000):
        n = rng.randint(2, 7)
        q = Question(
            id="q", text="?", choices=tuple((LABELS[i], f"c{i}") for i in range(n))
        )
        answers = [rng.choice(LABELS[:n]) for _ in range(rng.randint(1, 10))]
        h = histogram_from_answers(answers)
        filtered, mapping = filter_choices(q, h)
        assert 1 <= len(filtered.choices) <= min(n, len(set(answers)))
        assert filtered.labels() == tuple(LABELS[: len(filtered.choices)])
        for lab in filtered.labels():
            assert mapping.to_original(lab) in q.labels()
    ok("4 FCR round-trip", "1000 random (question, histogram) pairs")


def test_criterion_5_pkr_selection():
    rng = random.Random(31)
    for _ in range(1000):
        n_answers = rng.randint(1, 6)
        # divide sample idx gave samples[idx]: an answer and its rationale body
        samples = [(LABELS[i], f"text-{i}-{j}-" + "x" * rng.randint(1, 60))
                   for i in range(n_answers) for j in range(rng.randint(1, 5))]
        rng.shuffle(samples)
        records = [
            InferenceRecord("q", "divide", idx, f"{text}\nSo the answer is ({answer}).",
                            answer, 1, 1)
            for idx, (answer, text) in enumerate(samples)
        ]
        picked = select_rationales(records, "longest")
        assert len(picked) == n_answers
        for answer, text in picked:
            # brute-force enumeration oracle over (length, index) pairs
            own = [(len(t), idx, t) for idx, (a, t) in enumerate(samples) if a == answer]
            best = sorted(own, key=lambda r: (-r[0], r[1]))[0]
            assert text == best[2]
    ok("5 PKR selection", "longest with earliest-index tie-break vs brute force")


def test_criterion_6_simulator_statistical_properties():
    spec = DatasetSpec(name="sim", divide_base=5)
    rhos, orderings, deltas = [], [], []
    for seed in (7, 11, 13):
        questions, profiles = generate_synthetic(500, family="uniform_correct", seed=seed)
        golds = {q.id: q.gold for q in questions}
        backend = MockBackend(profiles, seed=seed)
        reports, _ = run_divide(questions, spec, backend, parallelism=8)

        rhos.append(spearman_cs_vs_correct(reports, golds))
        accs = subset_accuracies(reports, golds)
        present = [a for a in (accs["high"], accs["med"], accs["low"]) if a is not None]
        orderings.append(all(a > b for a, b in zip(present, present[1:])))

        # second-highest-gold family: choice filtering must beat greedy re-query
        q2, p2 = generate_synthetic(500, family="second_gold", seed=seed)
        golds2 = {q.id: q.gold for q in q2}
        b2 = MockBackend(p2, seed=seed)
        reports2, records2 = run_divide(q2, spec, b2, parallelism=8)
        base = run_conquer(
            q2, reports2, "ZTCOT", b2, divide_records=records2,
            self_consistency=False, parallelism=8,
        )
        fcr = run_conquer(
            q2, reports2, "FCR", b2, divide_records=records2,
            self_consistency=True, sc_samples=5, parallelism=8,
        )
        acc_base = float(em_accuracy([(o.question_id, o.final_answer) for o in base], golds2))
        acc_fcr = float(em_accuracy([(o.question_id, o.final_answer) for o in fcr], golds2))
        deltas.append((acc_fcr - acc_base) * 100)

    assert all(r > 0.3 for r in rhos), rhos
    assert all(orderings), orderings
    assert all(d >= 5.0 for d in deltas), deltas
    ok(
        "6 simulator statistics",
        f"rho={[round(r, 3) for r in rhos]} ordering={orderings} "
        f"fcr_uplift_pp={[round(d, 1) for d in deltas]}",
    )


def _full_cli_run(tmp_path: Path, parallelism: int, kind: str = "mock") -> Path:
    tmp_path.mkdir(parents=True, exist_ok=True)
    run_dir = tmp_path / f"run_p{parallelism}"
    config = {
        "dataset": {"path": str(TOY_DATA), "name": "toy20", "divide_base": 5,
                    "mu": "0.8", "nu": "0.6"},
        "backend": {"kind": kind, "profiles": str(TOY_PROFILES)},
        "run_dir": str(run_dir),
    }
    config_path = tmp_path / f"config_p{parallelism}.json"
    config_path.write_text(json.dumps(config))
    runner = CliRunner()
    base = ["--config", str(config_path), "--seed", "42", "--parallelism", str(parallelism)]
    for args in (
        ["divide"],
        ["conquer", "--strategy", "fcr", "--sc"],
        ["conquer", "--strategy", "pkr"],
        ["report"],
    ):
        result = runner.invoke(main, base + args)
        assert result.exit_code == 0, result.output
    return run_dir


def test_criterion_7_end_to_end_determinism(tmp_path):
    d1 = _full_cli_run(tmp_path / "a", parallelism=1)
    d8 = _full_cli_run(tmp_path / "b", parallelism=8)
    compared = [
        "partition.jsonl", "outcomes_fcr+sc.jsonl", "outcomes_pkr.jsonl",
        "reports/report.json", "reports/summary.csv", "reports/curves.csv",
    ]
    for rel in compared:
        assert (d1 / rel).read_bytes() == (d8 / rel).read_bytes(), rel
    ok("7 end-to-end determinism", f"{len(compared)} files byte-identical at parallelism 1 vs 8")


def test_criterion_8_replay_economy(tmp_path):
    run_dir = _full_cli_run(tmp_path, parallelism=4)
    from qtriage.manifest import RunManifest

    manifest = RunManifest.load(run_dir)
    cache = TranscriptCache(manifest.transcript_path)
    total_records = len(cache)

    questions = load_dataset(TOY_DATA)
    spec = DatasetSpec(name="toy20", divide_base=5)
    replay = CachingBackend(None, cache)
    reports, _ = run_divide(questions, spec, replay)
    divide_records = records_from_transcript(cache, questions, reports)
    run_conquer(
        questions, reports, "FCR", replay, divide_records=divide_records,
        self_consistency=True, sc_samples=5, seed=42,
    )
    run_conquer(
        questions, reports, "PKR", replay, divide_records=divide_records,
        self_consistency=False, seed=42,
    )
    assert replay.hits == total_records
    ok("8 replay economy", f"{replay.hits} hits == {total_records} recorded calls, zero fetches")


def test_criterion_9_extraction_closed_loop():
    spec = DatasetSpec(name="loop", divide_base=5)
    questions, profiles = generate_synthetic(50, family="uniform_correct", seed=202)
    golds = {q.id: q.gold for q in questions}

    clean = MockBackend(profiles, seed=9, noise_rate=0.0)
    reports, records = run_divide(questions, spec, clean)
    assert all(r.answer is not None for r in records)
    for rec in records:
        # the sentinel label and the extracted answer must agree exactly
        assert rec.text.endswith(f"the answer is ({rec.answer}).")

    noisy = MockBackend(profiles, seed=9, noise_rate=0.2)
    n_reports, n_records = run_divide(questions, spec, noisy)
    unparsed_records = sum(1 for r in n_records if r.answer is None)
    assert unparsed_records > 0
    total_unparsed = sum(r.histogram.unparsed_count for r in n_reports)
    assert total_unparsed == unparsed_records
    for r in n_reports:
        assert sum(r.histogram.counts.values()) + r.histogram.unparsed_count == 5
    # all-unparsed questions score incorrect, never dropped
    preds = [
        (r.question_id,
         max(r.histogram.counts, key=r.histogram.counts.get) if r.histogram.counts else None)
        for r in n_reports
    ]
    acc = em_accuracy(preds, golds)
    assert 0 <= acc <= 1 and len(preds) == 50
    ok(
        "9 extraction closed loop",
        f"250/250 clean parses; {unparsed_records} noisy unparsed all counted",
    )


def test_criterion_10_exact_replay(tmp_path, monkeypatch):
    # A rerun whose config differs only in backend.kind rebuilds every file from
    # the transcript alone, and report.json names the same run.
    run_dir = _full_cli_run(tmp_path, parallelism=1)
    written = {path: path.read_bytes() for path in run_dir.rglob("*") if path.is_file()}
    for path in written:
        if path.name != "transcript.jsonl":
            path.unlink()
    calls = []  # each request the transcript lacks, which replay would have to fetch
    complete = CachingBackend.complete
    monkeypatch.setattr(CachingBackend, "complete", lambda self, req: (
        self.cache.get(req.key()) is None and calls.append(req)) or complete(self, req))
    _full_cli_run(tmp_path, parallelism=1, kind="replay")
    assert calls == []
    differing = sorted(path.name for path, data in written.items() if path.read_bytes() != data)
    assert differing == ["manifest.json"]
    manifest = json.loads((run_dir / "manifest.json").read_text())
    manifest["config"]["backend"]["kind"] = "mock"
    assert manifest == json.loads(written[run_dir / "manifest.json"])
    ok("10 exact replay", f"{len(written) - 1} files byte-identical with zero calls")
