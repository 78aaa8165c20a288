import json
import random
import re
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from qtriage.backend import CacheMissError, CachingBackend, TranscriptCache
from qtriage.conquer import run_conquer
from qtriage.divide import (
    DivideError,
    assign_fine_bin,
    assign_subset,
    confidence_score,
    histogram_from_answers,
    load_reports,
    majority_answer,
    partition,
    prefix_majorities,
    records_from_transcript,
    report_for,
    run_divide,
)
from qtriage.manifest import dataset_spec, new_manifest, parse_config
from qtriage.model import DatasetError, DatasetSpec, Question, encode_jsonl, save_dataset
from qtriage.pipeline import run_conquer_phase, run_divide_phase
from qtriage.report import prior_predictions
from qtriage.synth import MockBackend, QuestionProfile, generate_synthetic
from reference import reference_partition

MU = Fraction(4, 5)
NU = Fraction(3, 5)


def question(qid="q1", n=5, gold="A"):
    from qtriage.model import LABELS
    choices = tuple((LABELS[i], f"opt{i}") for i in range(n))
    return Question(id=qid, text="which?", choices=choices, gold=gold)


def spec(t=5):
    return DatasetSpec(name="test", divide_base=t, mu=MU, nu=NU)


class TestConfidenceScore:
    def test_simple_majority(self):
        h = histogram_from_answers(["A", "A", "B", "A", "C"])
        assert confidence_score(h) == Fraction(3, 5)

    def test_uniform(self):
        h = histogram_from_answers(list("ABCDE"))
        assert confidence_score(h) == Fraction(1, 5)

    def test_all_unparsed_is_zero(self):
        h = histogram_from_answers([None] * 5)
        assert confidence_score(h) == 0

    def test_unparsed_stays_in_denominator(self):
        h = histogram_from_answers(["A", "A", None, None, None])
        assert confidence_score(h) == Fraction(2, 5)

    def test_brute_force_oracle_equivalence(self):
        # independent oracle: max frequency straight off the raw answer list
        rng = random.Random(1234)
        for _ in range(1000):
            t = rng.randint(3, 10)
            alphabet = [chr(ord("A") + i) for i in range(rng.randint(1, 7))]
            answers = [
                None if rng.random() < 0.3 else rng.choice(alphabet)
                for _ in range(t)
            ]
            h = histogram_from_answers(answers)
            parsed = [a for a in answers if a is not None]
            expected = (
                Fraction(max(Counter(parsed).values()), t) if parsed else Fraction(0)
            )
            assert confidence_score(h) == expected

    @given(st.lists(st.sampled_from(["A", "B", "C", None]), min_size=1, max_size=10))
    def test_reachable_values(self, answers):
        h = histogram_from_answers(answers)
        cs = confidence_score(h)
        t = len(answers)
        assert cs == 0 or cs in {Fraction(k, t) for k in range(1, t + 1)}


class TestPartition:
    @pytest.mark.parametrize(
        "cs,expected",
        [
            (Fraction(1), "high"),
            (Fraction(4, 5), "med"),
            (Fraction(3, 5), "low"),
            (Fraction(7, 10), "med"),
            (Fraction(0), "low"),
        ],
    )
    def test_boundaries(self, cs, expected):
        assert assign_subset(cs, MU, NU) == expected

    @pytest.mark.parametrize(
        "cs,expected",
        [
            (Fraction(1, 5), "low_bottom"),
            (Fraction(2, 5), "low_bottom"),
            (Fraction(1, 2), "low_top"),
            (Fraction(3, 5), "low_top"),
            (Fraction(4, 5), "med"),
            (Fraction(1), "high"),
        ],
    )
    def test_fine_bins(self, cs, expected):
        assert assign_fine_bin(cs, MU, NU) == expected

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=10), st.integers(min_value=1, max_value=10)),
            min_size=1,
            max_size=50,
        )
    )
    def test_totality_and_disjointness(self, pairs):
        reports = []
        for i, (k, t) in enumerate(pairs):
            k = min(k, t)
            answers = (["A"] * k + [None] * (t - k)) or [None]
            h = histogram_from_answers(answers)
            reports.append(report_for(f"q{i}", h, spec()))
        parts = partition(reports)
        ids = [qid for s in parts.values() for qid in s]
        assert len(ids) == len(reports)
        assert len(set(ids)) == len(ids)


class TestMajorityAnswer:
    def test_strict_majority(self):
        assert majority_answer(histogram_from_answers(["A", "A", "A", "B", "B"])) == "A"

    def test_tie_breaks_to_earliest_first_occurrence(self):
        assert majority_answer(histogram_from_answers(["A", "B", "A", "B"])) == "A"
        assert majority_answer(histogram_from_answers(["B", "A", "A", "B"])) == "B"

    def test_single_answer(self):
        assert majority_answer(histogram_from_answers(["B"] * 5)) == "B"

    def test_empty_support_errors(self):
        with pytest.raises(DivideError):
            majority_answer(histogram_from_answers([None, None]))

    def test_tie_break_matches_brute_force_scan(self):
        rng = random.Random(99)
        for _ in range(300):
            answers = [rng.choice("AB") for _ in range(rng.randint(1, 8))]
            got = majority_answer(histogram_from_answers(answers))
            # oracle: scan the transcript for the first max-count answer
            counts = Counter(answers)
            best = max(counts.values())
            expected = next(a for a in answers if counts[a] == best)
            assert got == expected


class TestPrefixMajorities:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(["A", "B", "C", None]), min_size=1, max_size=10), st.randoms())
    def test_each_vote_is_the_majority_of_its_prefix(self, answers, rnd):
        pairs = list(enumerate(answers))
        rnd.shuffle(pairs)  # the votes follow sample index, not list order
        votes = prefix_majorities(pairs, len(answers) + 2)
        for k in range(1, len(answers) + 1):
            h = histogram_from_answers(answers[:k])
            assert votes[k - 1] == (majority_answer(h) if h.counts else None), k
        assert votes[len(answers):] == [votes[len(answers) - 1]] * 2  # past the last sample


class TestRunDivide:
    def test_degenerate_profile_high_subset(self):
        q = question()
        backend = MockBackend(
            {"q1": QuestionProfile("q1", {"A": 1.0}, 100)}, seed=0
        )
        reports, records = run_divide([q], spec(), backend)
        assert len(records) == 5
        assert reports[0].histogram.counts == {"A": 5}
        assert reports[0].cs == 1
        assert reports[0].subset == "high"

    def test_sample_indices_complete(self):
        q = question()
        backend = MockBackend(
            {"q1": QuestionProfile("q1", {"A": 0.5, "B": 0.5}, 100)}, seed=0
        )
        _, records = run_divide([q], spec(), backend)
        assert sorted(r.sample_index for r in records) == [0, 1, 2, 3, 4]

    def test_order_independent_of_parallelism(self):
        qs = [question(qid=f"q{i}") for i in range(10)]
        profiles = {
            q.id: QuestionProfile(q.id, {"A": 0.4, "B": 0.6}, 100) for q in qs
        }
        r1, rec1 = run_divide(qs, spec(), MockBackend(profiles, seed=4), parallelism=1)
        r2, rec2 = run_divide(qs, spec(), MockBackend(profiles, seed=4), parallelism=8)
        assert r1 == r2
        assert rec1 == rec2

    def test_report_round_trip(self, tmp_path):
        q = question()
        backend = MockBackend(
            {"q1": QuestionProfile("q1", {"A": 0.5, "B": 0.5}, 100)}, seed=0
        )
        reports, _ = run_divide([q], spec(), backend)
        path = tmp_path / "partition.jsonl"
        encode_jsonl(path, reports)
        assert load_reports(path) == reports


class TestRecordsFromTranscript:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 4),
        t=st.integers(2, 5),
        extra=st.integers(1, 4),
        family=st.sampled_from(["uniform_correct", "second_gold"]),
        strategy=st.sampled_from(["ZTCOT", "PKR", "FCR"]),
        noise=st.sampled_from([0.0, 0.3]),
        seed=st.integers(0, 10_000),
    )
    def test_equals_the_records_divide_returned(
        self, n, t, extra, family, strategy, noise, seed
    ):
        # The transcript also holds an earlier, larger divide and conquer entries;
        # only the samples behind each report may come back.
        questions, profiles = generate_synthetic(n, family=family, seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "transcript.jsonl"
            with TranscriptCache(path) as cache:
                backend = CachingBackend(MockBackend(profiles, seed=seed, noise_rate=noise), cache)
                big_reports, big_records = run_divide(questions, spec(t + extra), backend)
                run_conquer(questions, big_reports, strategy, backend,
                            divide_records=big_records, self_consistency=True, sc_samples=3)
                reports, records = run_divide(questions, spec(t), backend)
            assert records_from_transcript(TranscriptCache(path), questions, reports) == records

    def test_missing_entry_is_named_and_nothing_is_written(self, tmp_path):
        questions, profiles = generate_synthetic(3, family="uniform_correct", seed=1)
        path = tmp_path / "transcript.jsonl"
        with TranscriptCache(path) as cache:
            reports, _ = run_divide(questions, spec(), CachingBackend(MockBackend(profiles, seed=1), cache))
        lines = path.read_text().splitlines(keepends=True)
        key = json.loads(lines.pop(7))["key"]
        path.write_text("".join(lines))
        with pytest.raises(CacheMissError, match=rf"^divide transcript incomplete: .*{re.escape(key)}"):
            records_from_transcript(TranscriptCache(path), questions, reports)
        assert path.read_text() == "".join(lines)

    def test_question_missing_from_dataset_is_named(self, tmp_path):
        questions, profiles = generate_synthetic(3, family="uniform_correct", seed=1)
        with TranscriptCache(tmp_path / "transcript.jsonl") as cache:
            backend = CachingBackend(MockBackend(profiles, seed=1), cache)
            reports, _ = run_divide(questions, spec(), backend)
        with pytest.raises(DatasetError, match=questions[0].id):
            records_from_transcript(cache, questions[1:], reports)


class TestDivideReference:
    @settings(max_examples=20, deadline=None)
    # Runs that put questions exactly on mu, nu and the fine split, and tie votes.
    @example(n=40, t=5, extra=1, family="second_gold", strategy="PKR", noise=0.05, seed=0)
    @example(n=40, t=10, extra=2, family="uniform_correct", strategy="FCR", noise=0.0, seed=1)
    @given(
        n=st.integers(1, 40),
        t=st.integers(2, 10),
        extra=st.integers(1, 3),
        family=st.sampled_from(["uniform_correct", "second_gold"]),
        strategy=st.sampled_from(["PKR", "FCR"]),
        noise=st.floats(0.0, 0.3),
        seed=st.integers(0, 10_000),
    )
    def test_partition_equals_the_reference(self, n, t, extra, family, strategy, noise, seed):
        # The transcript also holds an earlier, larger divide and its conquer lines.
        questions, profiles = generate_synthetic(n, family=family, seed=seed)
        backend = MockBackend(profiles, seed=seed, noise_rate=noise)
        with tempfile.TemporaryDirectory() as tmp:
            run_dir = Path(tmp)
            save_dataset(run_dir / "dataset.jsonl", questions)
            for samples in (t + extra, t):
                config = {"dataset": {"path": str(run_dir / "dataset.jsonl"),
                                      "divide_base": samples},
                          "backend": {"noise_rate": noise}}
                manifest = new_manifest(config, seed, run_dir)
                reports, _ = run_divide_phase(
                    questions, dataset_spec(parse_config(("config", config))), backend, manifest
                )
                if samples > t:
                    run_conquer_phase(questions, reports, strategy, backend, manifest,
                                      self_consistency=True, sc_samples=3)
            lines, majorities = reference_partition(run_dir)
            written = (run_dir / "partition.jsonl").read_text(encoding="utf-8").splitlines()
            assert [json.loads(line) for line in written] == lines
            assert dict(prior_predictions(load_reports(run_dir / "partition.jsonl"))) == majorities
