import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qtriage.divide import (
    SUBSETS,
    ConfidenceReport,
    InferenceRecord,
    histogram_from_answers,
    majority_answer,
    report_for,
    run_divide,
)
from qtriage.model import DatasetSpec, Question
from qtriage.report import (
    ReportError,
    accuracy_curves,
    cost_summary,
    em_accuracy,
    emit_report,
    prior_predictions,
    subset_prior_metrics,
    weighted_average,
)
from qtriage.synth import MockBackend, QuestionProfile

# Published per-subset counts and divide-stage accuracies for the nine
# benchmark datasets; the weighted averages below must reproduce.
HIGH_N = [81, 35, 73, 574, 324, 866, 393, 24, 223]
HIGH_V = [96.30, 57.14, 90.41, 93.21, 96.30, 96.30, 89.82, 79.17, 76.23]
MED_N = [43, 32, 87, 274, 102, 195, 222, 87, 155]
MED_V = [67.44, 43.75, 58.62, 74.82, 67.65, 76.92, 72.97, 57.47, 54.19]
LOW_N = [130, 33, 110, 373, 74, 104, 406, 189, 122]
LOW_V = [47.69, 30.30, 40.91, 47.45, 44.59, 48.08, 43.84, 33.86, 36.89]


class TestEmAccuracy:
    def test_basic(self):
        preds = [("a", "A"), ("b", "B"), ("c", "C")]
        golds = {"a": "A", "b": "B", "c": "D"}
        assert em_accuracy(preds, golds) == Fraction(2, 3)

    def test_unparsed_counts_incorrect(self):
        preds = [("a", None), ("b", None)]
        assert em_accuracy(preds, {"a": "A", "b": "B"}) == 0

    def test_empty_errors(self):
        with pytest.raises(ReportError):
            em_accuracy([], {})

    def test_missing_gold_lists_ids(self):
        with pytest.raises(ReportError, match="a2"):
            em_accuracy([("a1", "A"), ("a2", "B")], {"a1": "A"})


class TestWeightedAverage:
    def test_high_prior_row(self):
        assert weighted_average(list(zip(HIGH_N, HIGH_V))) == pytest.approx(92.05, abs=0.02)

    def test_med_prior_row(self):
        assert weighted_average(list(zip(MED_N, MED_V))) == pytest.approx(68.00, abs=0.02)

    def test_low_prior_row(self):
        assert weighted_average(list(zip(LOW_N, LOW_V))) == pytest.approx(43.09, abs=0.02)

    def test_single_row_identity(self):
        assert weighted_average([(10, 0.5)]) == 0.5

    def test_zero_total_errors(self):
        with pytest.raises(ReportError):
            weighted_average([(0, 1.0)])

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=50),
                      st.floats(min_value=0, max_value=1)),
            min_size=1, max_size=20,
        )
    )
    def test_permutation_invariant(self, rows):
        if sum(n for n, _ in rows) == 0:
            return
        rng = random.Random(0)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert weighted_average(rows) == pytest.approx(weighted_average(shuffled))

    def test_row_split_invariant(self):
        base = [(10, 0.7), (5, 0.2)]
        split = [(4, 0.7), (6, 0.7), (5, 0.2)]
        assert weighted_average(base) == pytest.approx(weighted_average(split))


class TestCostSummary:
    def _run(self, n_questions=10, t=5):
        questions = [
            Question(id=f"q{i}", text="?", choices=(("A", "x"), ("B", "y")), gold="A")
            for i in range(n_questions)
        ]
        profiles = {
            q.id: QuestionProfile(q.id, {"A": 1.0}, 60) for q in questions
        }
        spec = DatasetSpec(name="d", divide_base=t)
        return run_divide(questions, spec, MockBackend(profiles, seed=0))

    def test_divide_query_count_exact(self):
        reports, records = self._run(n_questions=10, t=5)
        summary = cost_summary(records, reports)
        assert summary["queries_by_phase"] == {"divide": 50}

    def test_queries_saved(self):
        reports, records = self._run(n_questions=8, t=5)
        summary = cost_summary(records, reports)
        # all questions are certain -> all high
        assert summary["queries_saved_by_fixing_high"] == 8 * 5

    def test_each_high_question_saves_its_own_divide_samples(self):
        reports, records = self._run(n_questions=4, t=3)
        summary = cost_summary(records, reports)
        assert summary["queries_saved_by_fixing_high"] == 4 * 3

    def test_conservation(self):
        reports, records = self._run()
        summary = cost_summary(records, reports)
        assert sum(summary["queries_by_phase"].values()) == len(records)


class TestSubsetMetrics:
    def test_prior_metrics_by_subset(self):
        qs = [
            Question(id="h", text="?", choices=(("A", "x"), ("B", "y")), gold="A"),
            Question(id="l", text="?", choices=(("A", "x"), ("B", "y")), gold="A"),
        ]
        spec = DatasetSpec(name="d", divide_base=5)
        reports = [
            report_for("h", histogram_from_answers(["A"] * 5), spec),
            report_for("l", histogram_from_answers(["A", "B", "A", "B", None]), spec),
        ]
        metrics = subset_prior_metrics(qs, reports)
        assert metrics["high"].n == 1
        assert metrics["high"].accuracy == 1
        assert metrics["low"].n == 1
        assert metrics["low"].unparsed_rate == Fraction(1, 5)

    def test_empty_subset_has_no_accuracy(self):
        qs = [Question(id="h", text="?", choices=(("A", "x"), ("B", "y")), gold="A")]
        spec = DatasetSpec(name="d", divide_base=5)
        reports = [report_for("h", histogram_from_answers(["A"] * 5), spec)]
        metrics = subset_prior_metrics(qs, reports)
        assert metrics["low"].n == 0
        assert metrics["low"].accuracy is None

    def test_prior_predictions_none_when_all_unparsed(self):
        spec = DatasetSpec(name="d", divide_base=3)
        reports = [report_for("x", histogram_from_answers([None] * 3), spec)]
        assert prior_predictions(reports) == [("x", None)]


class TestEmitReport:
    def _materials(self):
        questions = [
            Question(id=f"q{i}", text="?", choices=(("A", "x"), ("B", "y")), gold="A")
            for i in range(6)
        ]
        profiles = {
            q.id: QuestionProfile(q.id, {"A": 0.7, "B": 0.3}, 60) for q in questions
        }
        spec = DatasetSpec(name="toy", divide_base=5)
        reports, records = run_divide(questions, spec, MockBackend(profiles, seed=1))
        prior = subset_prior_metrics(questions, reports, records)
        cost = cost_summary(records, reports)
        curves = accuracy_curves(questions, reports, records)
        return prior, cost, curves

    def test_files_written(self, tmp_path):
        prior, cost, curves = self._materials()
        files = emit_report(tmp_path, "toy", prior, {}, cost, curves, run_id="r1")
        for p in files.values():
            assert p.exists()
        import json
        tree = json.loads(files["report"].read_text())
        assert tree["partial"] is False
        assert tree["dataset"] == "toy"

    def test_partial_flagged(self, tmp_path):
        prior, cost, curves = self._materials()
        files = emit_report(tmp_path, "toy", prior, {}, cost, curves, partial=True)
        import json
        assert json.loads(files["report"].read_text())["partial"] is True

    def test_re_emission_byte_identical(self, tmp_path):
        prior, cost, curves = self._materials()
        a = tmp_path / "a"
        b = tmp_path / "b"
        emit_report(a, "toy", prior, {}, cost, curves, run_id="r1")
        emit_report(b, "toy", prior, {}, cost, curves, run_id="r1")
        for name in ("report.json", "summary.csv", "curves.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


def _curves_materials(items):
    """Questions, reports and shuffled divide records for (answers, subset, gold) items."""
    questions, reports, records = [], [], []
    for i, (answers, subset, gold) in enumerate(items):
        qid = f"q{i}"
        questions.append(
            Question(id=qid, text="?", choices=(("A", "x"), ("B", "y"), ("C", "z")), gold=gold)
        )
        hist = histogram_from_answers(answers or [None])
        reports.append(ConfidenceReport(qid, hist, Fraction(0), subset, subset))
        records += [
            InferenceRecord(qid, "divide", j, "", ans, 0, 0) for j, ans in enumerate(answers)
        ]
    return questions, reports, records


def _first_k_oracle(items):
    """Brute force: vote on each question's first k answers, for every subset and k."""
    t = max((len(answers) for answers, _, _ in items), default=0)
    rows = []
    for subset in SUBSETS:
        for k in range(1, t + 1):
            hits = []
            for answers, own_subset, gold in items:
                if own_subset != subset or gold is None:
                    continue
                h = histogram_from_answers(answers[:k])
                hits.append((majority_answer(h) if h.counts else None) == gold)
            rows.append((subset, k, float(Fraction(sum(hits), len(hits))) if hits else None))
    return rows


class TestAccuracyCurves:
    answer = st.sampled_from(["A", "B", "C", None])
    item = st.tuples(
        st.lists(answer, max_size=7),
        st.sampled_from(SUBSETS),
        st.sampled_from(["A", "B", None]),
    )

    @given(items=st.lists(item, max_size=8), order=st.randoms(use_true_random=False))
    def test_matches_first_k_vote(self, items, order):
        questions, reports, records = _curves_materials(items)
        order.shuffle(records)
        assert accuracy_curves(questions, reports, records) == _first_k_oracle(items)

    def test_tie_goes_to_the_earliest_first_occurrence(self):
        # At k=4 A and B both have two votes; B was seen first, so B wins,
        # though A reached two votes first.
        items = [(["B", "A", "A", "B"], "low", "B")]
        rows = accuracy_curves(*_curves_materials(items))
        assert [acc for subset, _, acc in rows if subset == "low"] == [1.0, 1.0, 0.0, 1.0]
        assert rows == _first_k_oracle(items)
