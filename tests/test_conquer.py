import random
import threading
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from qtriage.backend import (
    Backend,
    CachingBackend,
    Completion,
    CompletionRequest,
    TranscriptCache,
)
from qtriage.conquer import (
    ConquerError,
    _final_answer,
    _plan_item,
    conquer_item,
    filter_choices,
    run_conquer,
    select_rationales,
)
from qtriage.divide import (
    InferenceRecord,
    histogram_from_answers,
    majority_answer,
    report_for,
    run_divide,
    sample,
    vote_decided,
)
from qtriage.model import LABELS, Question, DatasetSpec
from qtriage.prompts import STRATEGIES, PromptError, build_prompt
from qtriage.synth import PROFILE_FAMILIES, MockBackend, QuestionProfile, generate_synthetic


def question(qid="q1", n=5, gold=None):
    choices = tuple((LABELS[i], f"content {LABELS[i].lower()}") for i in range(n))
    return Question(id=qid, text="which one?", choices=choices, gold=gold)


def body(length, index):
    """A rationale body of `length` characters that names its sample index."""
    return f"{index:02d}" + "x" * (length - 2)


def record(answer, length, index, qid="q1"):
    """A divide record giving `answer`, whose rationale is `body(length, index)`."""
    return InferenceRecord(
        question_id=qid, phase="divide", sample_index=index,
        text=f"{body(length, index)}\nSo the answer is ({answer}).",
        answer=answer, prompt_tokens=1, output_tokens=1,
    )


def spec(t=5):
    return DatasetSpec(name="t", divide_base=t)


class TestSelectRationales:
    def test_longest_per_cluster_modal_first(self):
        records = [record("A", 40, 0), record("B", 60, 1), record("A", 95, 3)]
        assert select_rationales(records, "longest") == [("A", body(95, 3)), ("B", body(60, 1))]

    def test_shortest(self):
        records = [record("A", 40, 0), record("B", 60, 1), record("A", 95, 3)]
        assert select_rationales(records, "shortest")[0] == ("A", body(40, 0))

    def test_equal_length_tie_breaks_to_earliest_index(self):
        records = [record("A", 50, 2), record("A", 50, 0), record("A", 50, 4)]
        assert select_rationales(records, "longest") == [("A", body(50, 0))]

    def test_unparsed_records_give_no_rationale(self):
        records = [record("A", 40, 0), record(None, 90, 1), record("B", 20, 2)]
        assert select_rationales(records, "longest") == [("A", body(40, 0)), ("B", body(20, 2))]

    def test_random_is_seed_deterministic(self):
        records = [record("A", 10, 0), record("A", 20, 1), record("A", 30, 2)]
        a = select_rationales(records, "random", seed=5)
        b = select_rationales(records, "random", seed=5)
        assert a == b

    def test_empty_cluster_list_errors(self):
        for records in ([], [record(None, 40, 0)]):
            with pytest.raises(ConquerError):
                select_rationales(records, "longest")

    def test_unknown_mode_errors(self):
        with pytest.raises(ConquerError, match="unknown rationale selection"):
            select_rationales([record("A", 40, 0)], "median")

    def test_one_per_cluster_count_identity(self):
        rng = random.Random(7)
        for _ in range(200):
            samples = [(LABELS[i], rng.randint(2, 100))
                       for i in range(rng.randint(1, 5)) for _ in range(rng.randint(1, 6))]
            rng.shuffle(samples)  # sample index i gave answer samples[i][0]
            records = [record(a, length, i) for i, (a, length) in enumerate(samples)]
            rng.shuffle(records)
            picked = select_rationales(records, "longest")
            answers = [a for a, _ in samples]
            assert [a for a, _ in picked] == sorted(
                set(answers), key=lambda a: (-answers.count(a), answers.index(a))
            )
            # oracle: enumerate all (length, index) pairs per answer
            for answer, text in picked:
                own = [(length, i) for i, (a, length) in enumerate(samples) if a == answer]
                length, i = sorted(own, key=lambda li: (-li[0], li[1]))[0]
                assert text == body(length, i)


class TestFilterChoices:
    def test_uniq_and_original_order_relabel(self):
        q = Question(
            id="q1", text="?", choices=(
                ("A", "12"), ("B", "7"), ("C", "9"), ("D", "3"), ("E", "5"),
            ),
        )
        h = histogram_from_answers(["B", "D", "B", "D", "B"])
        filtered, mapping = filter_choices(q, h)
        assert filtered.choices == (("A", "7"), ("B", "3"))
        assert mapping.forward == (("A", "B"), ("B", "D"))

    def test_three_survivors(self):
        q = question()
        h = histogram_from_answers(["E", "C", "A", "E", "C"])
        filtered, mapping = filter_choices(q, h)
        content = dict(q.choices)
        assert [c for _, c in filtered.choices] == [content["A"], content["C"], content["E"]]
        assert mapping.forward == (("A", "A"), ("B", "C"), ("C", "E"))

    def test_degenerate_single_answer(self):
        q = question()
        h = histogram_from_answers(["D"] * 5)
        filtered, mapping = filter_choices(q, h)
        assert len(filtered.choices) == 1
        assert mapping.forward == (("A", "D"),)

    def test_cloze_becomes_mcq_over_prior_answers_in_first_seen_order(self):
        q = Question(id="g1", text="how many?", kind="cloze", gold="20")
        h = histogram_from_answers(["18", None, "20", "18", "16"])
        filtered, mapping = filter_choices(q, h)
        assert filtered.kind == "mcq"
        assert filtered.choices == (("A", "18"), ("B", "20"), ("C", "16"))
        assert filtered.gold == "B"
        assert mapping.forward == (("A", "18"), ("B", "20"), ("C", "16"))

    def test_empty_support_errors_with_fallback_hint(self):
        q = question()
        with pytest.raises(ConquerError, match="ZTCOT"):
            filter_choices(q, histogram_from_answers([None] * 5))

    def test_gold_remapped(self):
        q = question(gold="C")
        h = histogram_from_answers(["C", "E"])
        filtered, _ = filter_choices(q, h)
        assert filtered.gold == "A"

    @settings(max_examples=200)
    @given(
        n=st.integers(min_value=2, max_value=7),
        data=st.data(),
    )
    def test_round_trip_property(self, n, data):
        q = question(n=n)
        answers = data.draw(
            st.lists(st.sampled_from(list(LABELS[:n])), min_size=1, max_size=10)
        )
        h = histogram_from_answers(answers)
        filtered, mapping = filter_choices(q, h)
        assert 1 <= len(filtered.choices) <= min(n, len(set(answers)))
        assert filtered.labels() == tuple(LABELS[: len(filtered.choices)])
        for new in filtered.labels():
            assert mapping.to_original(new) in q.labels()
        origs = [mapping.to_original(lab) for lab in filtered.labels()]
        assert len(set(origs)) == len(origs)  # injective


class TestBuildPrompt:
    def test_ztcot_tail(self):
        p = build_prompt(question(), "ZTCOT")
        assert p.endswith("Let's think step by step.")
        assert "Answer Choices:" in p

    def test_fcr_tail_substitutes_count(self):
        q = question(n=2)
        p = build_prompt(q, "FCR")
        assert p.endswith("Let's delve deeper into these 2 choices and select the best one")

    def test_com1_tail_and_prior_block(self):
        p = build_prompt(
            question(), "COM1",
            rationales=[("A", "first path"), ("B", "second path")],
        )
        assert p.endswith("let's delve deeper into this question to arrive at the best answer")
        assert "Prior reasoning:" in p
        assert p.count("path") == 2

    def test_pkr_requires_rationales(self):
        with pytest.raises(PromptError):
            build_prompt(question(), "PKR")

    def test_tail_override(self):
        p = build_prompt(question(), "ZTCOT", tail_override="Custom tail")
        assert p.endswith("Custom tail")


# Whether the mock's `gold_uplift` applies to a request built for each strategy.
UPLIFTED_BY_STRATEGY = {"ZTCOT": False, "FCR": True, "PKR": True, "COM1": True, "COM2": True}


class Recording(MockBackend):
    """The mock, keeping every request it was sent."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.requests = []

    def complete(self, req):
        self.requests.append(req)
        return super().complete(req)


class TestConquerItem:
    def profiles(self, dist, qid="q1", gold=None):
        return {qid: QuestionProfile(qid, dist, 80, gold=gold)}

    def divide_records(self, answers, qid="q1"):
        return [
            InferenceRecord(
                question_id=qid, phase="divide", sample_index=i,
                text=f"some reasoning {'x' * (10 + 7 * i)}\nSo the answer is ({a}).",
                answer=a, prompt_tokens=1, output_tokens=1,
            )
            for i, a in enumerate(answers)
        ]

    def test_fcr_singleton_short_circuits(self):
        q = question()
        answers = ["D"] * 5
        report = report_for("q1", histogram_from_answers(answers), spec())
        backend = MockBackend(self.profiles({"D": 1.0}), seed=0)
        outcome = conquer_item(q, report, "FCR", backend)
        assert outcome.final_answer == "D"
        assert outcome.records == ()
        assert backend.calls == 0

    def test_fcr_sc_votes_then_maps(self):
        q = question()
        answers = ["C", "E", "C", "E", "C"]
        report = report_for("q1", histogram_from_answers(answers), spec())
        # surviving originals C and E renormalize to C-dominant
        backend = MockBackend(self.profiles({"C": 0.5, "E": 0.3, "A": 0.2}), seed=1)
        outcome = conquer_item(
            q, report, "FCR", backend, self_consistency=True, sc_samples=5
        )
        # A, A, B leaves the vote open (B could still reach 3); the 4th A decides it
        assert [r.answer for r in outcome.records] == ["A", "A", "B", "A"]
        assert outcome.final_answer == "C" and backend.calls == 4
        assert outcome.mapping.forward == (("A", "C"), ("B", "E"))

    def test_ztcot_greedy_modal_answer(self):
        q = question()
        answers = ["A", "B", "C", "A", "B"]
        report = report_for("q1", histogram_from_answers(answers), spec())
        backend = MockBackend(self.profiles({"B": 0.6, "A": 0.4}), seed=0)
        outcome = conquer_item(q, report, "ZTCOT", backend)
        assert outcome.final_answer == "B"
        assert outcome.self_consistency is False

    def test_pkr_rationale_count_equals_cluster_count(self):
        q = question()
        answers = ["A", "B", "A", "C", "A"]
        records = self.divide_records(answers)
        assert [a for a, _ in select_rationales(records)] == ["A", "B", "C"]
        report = report_for("q1", histogram_from_answers(answers), spec())
        backend = Recording(self.profiles({"A": 1.0}), seed=0)
        outcome = conquer_item(q, report, "PKR", backend, divide_records=records)
        prior_block = backend.requests[0].prompt.split("Prior reasoning:\n")[1]
        assert [line[:3] for line in prior_block.splitlines()[:-1]] == ["(A)", "(B)", "(C)"]
        assert outcome.final_answer == "A"

    def test_com2_filters_and_includes_rationales(self):
        q = question()
        answers = ["A", "B", "A", "B", "A"]
        records = self.divide_records(answers)
        report = report_for("q1", histogram_from_answers(answers), spec())
        backend = Recording(self.profiles({"A": 0.5, "B": 0.5}), seed=0)
        outcome = conquer_item(q, report, "COM2", backend, divide_records=records)
        assert outcome.mapping is not None
        prompt = backend.requests[0].prompt
        assert "Prior reasoning:" in prompt
        assert "2 choices" in prompt

    def test_replay_reproduces_outcome(self, tmp_path):
        from qtriage.backend import CachingBackend, TranscriptCache

        q = question()
        answers = ["C", "E", "C", "E", "C"]
        report = report_for("q1", histogram_from_answers(answers), spec())
        path = tmp_path / "t.jsonl"
        with TranscriptCache(path) as cache:
            live = CachingBackend(MockBackend(self.profiles({"C": 0.5, "E": 0.5}), seed=2), cache)
            first = conquer_item(q, report, "FCR", live, self_consistency=True, sc_samples=5)
        replay = CachingBackend(None, TranscriptCache(path))
        second = conquer_item(q, report, "FCR", replay, self_consistency=True, sc_samples=5)
        assert first == second

    def uplifted_conquer(self, strategy, answers):
        """Greedy conquer of a question whose gold B becomes the argmax only
        when the mock's `gold_uplift` 2.0 applies (0.40 * 2 against A's 0.45)."""
        report = report_for("q1", histogram_from_answers(answers), spec())
        profiles = self.profiles({"A": 0.45, "B": 0.40, "C": 0.15}, gold="B")
        backend = Recording(profiles, seed=0, gold_uplift=2.0)
        [outcome] = run_conquer([question(gold="B")], [report], strategy, backend,
                                divide_records=self.divide_records(answers))
        return outcome, backend.requests

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_gold_uplift_reaches_exactly_the_uplifted_strategies(self, strategy):
        assert set(UPLIFTED_BY_STRATEGY) == set(STRATEGIES)
        outcome, requests = self.uplifted_conquer(strategy, ["A", "B", "A", "C", "B"])
        assert [r.metadata["strategy"] for r in requests] == [strategy]
        assert (outcome.final_answer == "B") is UPLIFTED_BY_STRATEGY[strategy]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_a_question_without_a_parsed_answer_is_sent_as_ztcot(self, strategy):
        outcome, requests = self.uplifted_conquer(strategy, [None] * 5)
        assert [r.metadata for r in requests] == [{"strategy": "ZTCOT"}]
        assert outcome.final_answer == "A"

    @pytest.mark.parametrize("answers", [["A", "B", "A", "C", "B"], [None] * 5])
    def test_an_unknown_strategy_fails_before_any_call(self, answers):
        report = report_for("q1", histogram_from_answers(answers), spec())
        backend = Recording(self.profiles({"A": 1.0}), seed=0)
        for conquer in (run_conquer, conquer_item):
            args = ([question()], [report]) if conquer is run_conquer else (question(), report)
            with pytest.raises(PromptError, match="unknown strategy 'BOGUS'"):
                conquer(*args, "BOGUS", backend)
        assert backend.requests == []


class BarrierBackend(Backend):
    """Completes a request only once `parties` requests are in flight together."""

    def __init__(self, inner: Backend, parties: int) -> None:
        self.inner = inner
        self.barrier = threading.Barrier(parties, timeout=5)

    def complete(self, req):
        self.barrier.wait()
        return self.inner.complete(req)


class JitteryMock(MockBackend):
    """A mock that waits like a network backend: a seeded 0-200 us per request."""

    waits = True

    def complete(self, req):
        time.sleep(random.Random(f"{self.seed}|{req.key()}").uniform(0, 2e-4))
        return super().complete(req)


class TestRunConquer:
    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=8),
        family=st.sampled_from(PROFILE_FAMILIES),
        seed=st.integers(min_value=0, max_value=10_000),
        strategy=st.sampled_from(list(STRATEGIES)),
        sc=st.booleans(),
    )
    def test_threads_leave_outputs_unchanged(self, n, family, seed, strategy, sc):
        questions, profiles = generate_synthetic(n, family=family, seed=seed)
        backend = JitteryMock(profiles, seed=seed)
        runs = []
        for parallelism in (1, 8):
            reports, records = run_divide(questions, spec(), backend, parallelism=parallelism)
            outcomes = run_conquer(
                questions, reports, strategy, backend, divide_records=records,
                parallelism=parallelism, self_consistency=sc, sc_samples=3, seed=seed,
            )
            runs.append((reports, records, outcomes))
        assert runs[0] == runs[1]

    def test_sc_samples_of_one_question_are_in_flight_together(self):
        q = question()
        report = report_for("q1", histogram_from_answers(["C", "E", "C", "E", "C"]), spec())
        inner = MockBackend({"q1": QuestionProfile("q1", {"C": 1.0}, 80)}, seed=1)
        # round 1 issues ceil(5/2) = 3 samples; three equal answers decide the vote
        outcomes = run_conquer(
            [q], [report], "FCR", BarrierBackend(inner, 3),
            self_consistency=True, sc_samples=5, parallelism=5,
        )
        assert len(outcomes[0].records) == 3 and inner.calls == 3

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=8),
        family=st.sampled_from(PROFILE_FAMILIES),
        seed=st.integers(min_value=0, max_value=10_000),
        strategy=st.sampled_from(list(STRATEGIES)),
        sc=st.booleans(),
        subsets=st.sampled_from([("med", "low"), ("med",), ("low_top", "low_bottom")]),
    )
    def test_batch_equals_one_question_at_a_time(self, n, family, seed, strategy, sc, subsets):
        questions, profiles = generate_synthetic(n, family=family, seed=seed)
        backend = MockBackend(profiles, seed=seed)
        reports, records = run_divide(questions, spec(), backend)
        options = dict(self_consistency=sc, sc_samples=3, seed=seed)
        by_id = {q.id: q for q in questions}
        expected = sorted(
            (
                conquer_item(by_id[r.question_id], r, strategy, backend,
                             divide_records=records, **options)
                for r in reports if r.subset in subsets or r.fine_bin in subsets
            ),
            key=lambda o: o.question_id,
        )
        for parallelism in (1, 4):
            assert run_conquer(
                questions, reports, strategy, backend, divide_records=records,
                subsets=subsets, parallelism=parallelism, **options,
            ) == expected


class ScriptedBackend(Backend):
    """Answers sample j of a question with its j-th scripted answer; None is no answer."""

    waits = False

    def __init__(self, answers: dict) -> None:
        self.answers = answers
        self.calls = 0

    def complete(self, req):
        self.calls += 1
        answer = self.answers[req.question_id][req.sample_index]
        text = "no idea." if answer is None else f"So the answer is ({answer})."
        return Completion(text, prompt_tokens=1, output_tokens=1)


def vote(answers):
    h = histogram_from_answers(answers)
    return majority_answer(h) if h.counts else None


def decided(prefix, n):
    """Whether no answers of the other n - len(prefix) samples change the vote.

    Giving them all to one answer, seen or new, is the strongest challenge.
    """
    rest = n - len(prefix)
    return all(vote(prefix + [a] * rest) == vote(prefix) for a in {*prefix, "D", None})


def answer_lists(n):
    """Lists of n answers over A, B, C and None (unparsed)."""
    return st.lists(st.sampled_from(["A", "B", "C", None]), min_size=n, max_size=n)


sample_counts = st.integers(min_value=1, max_value=10)


class TestStopRule:
    @settings(max_examples=150, deadline=None)
    @given(answers=sample_counts.flatmap(answer_lists))
    def test_vote_decided_is_exact(self, answers):
        for k in range(len(answers) + 1):
            prefix = answers[:k]
            assert vote_decided(histogram_from_answers(prefix), len(answers) - k) == decided(
                prefix, len(answers)
            ), k

    @settings(max_examples=60, deadline=None)
    @given(lists=sample_counts.flatmap(lambda n: st.lists(answer_lists(n), min_size=1, max_size=4)))
    def test_stopped_vote_is_the_full_vote_at_the_earliest_decided_prefix(self, lists):
        scripts = {f"q{i}": answers for i, answers in enumerate(lists)}
        low = report_for("q", histogram_from_answers(list("ABCDE")), spec())
        reports = [replace(low, question_id=qid) for qid in scripts]
        backend = ScriptedBackend(scripts)
        outcomes = run_conquer(
            [question(qid) for qid in scripts], reports, "ZTCOT", backend,
            self_consistency=True, sc_samples=len(lists[0]),
        )
        for outcome in outcomes:
            answers = scripts[outcome.question_id]
            n, k = len(answers), len(outcome.records)
            assert [r.sample_index for r in outcome.records] == list(range(k))
            assert outcome.final_answer == vote(answers)
            assert decided(answers[:k], n)
            assert not any(decided(answers[:j], n) for j in range((n + 1) // 2, k))
        assert backend.calls == sum(len(o.records) for o in outcomes)

    def test_a_request_is_built_only_when_it_is_issued(self, tmp_path, monkeypatch):
        # An SC plan that stops early leaves its later samples unbuilt: each phase
        # constructs one request per completion it fetches, from the mock or the cache.
        questions, profiles = generate_synthetic(300, family="second_gold", seed=7)
        built = []
        post_init = CompletionRequest.__post_init__

        def counted(self):
            built.append(self.phase)
            post_init(self)

        monkeypatch.setattr(CompletionRequest, "__post_init__", counted)
        with TranscriptCache(tmp_path / "transcript.jsonl") as cache:
            mock = MockBackend(profiles, seed=7, noise_rate=0.05)
            backend = CachingBackend(mock, cache)
            reports, records = run_divide(questions, spec(), backend)
            assert built.count("divide") == mock.calls + backend.hits == 1500
            mock.calls = backend.hits = 0
            outcomes = run_conquer(questions, reports, "COM2", backend, divide_records=records,
                                   self_consistency=True, sc_samples=5)
        issued = sum(len(o.records) for o in outcomes)
        assert built.count("conquer") == mock.calls + backend.hits == issued
        assert issued < 5 * sum(bool(o.records) for o in outcomes)  # some SC plan stopped early


class TestSCPrefix:
    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=8),
        family=st.sampled_from(PROFILE_FAMILIES),
        seed=st.integers(min_value=0, max_value=10_000),
        strategy=st.sampled_from(list(STRATEGIES)),
        sc_samples=st.integers(min_value=1, max_value=10),
    )
    def test_records_are_a_prefix_of_one_full_batch(self, n, family, seed, strategy, sc_samples):
        questions, profiles = generate_synthetic(n, family=family, seed=seed)
        backend = MockBackend(profiles, seed=seed)
        reports, records = run_divide(questions, spec(), backend)
        options = dict(self_consistency=True, sc_samples=sc_samples, seed=seed)
        outcomes = run_conquer(questions, reports, strategy, backend,
                               divide_records=records, **options)
        by_id = {q.id: q for q in questions}
        for outcome, report in zip(outcomes, sorted(
            (r for r in reports if r.subset != "high"), key=lambda r: r.question_id
        )):
            # Every sample of the question in one batch, as before votes could stop early.
            own = [r for r in records if r.question_id == report.question_id]
            plan, mapping, answer = _plan_item(by_id[report.question_id], report, strategy,
                                               own, {}, **options)
            full = sample([plan], backend)[0]
            assert outcome.question_id == report.question_id
            assert outcome.records == tuple(full[: len(outcome.records)])
            assert len(outcome.records) >= min(1, len(full))
            assert outcome.final_answer == _final_answer(full, mapping, answer)


class BatchCounting(Backend):
    """`inner`'s completions; counts the batches `execute` ends, one per round trip."""

    waits = False

    def __init__(self, inner):
        self.inner, self.batches = inner, 0

    def complete(self, req):
        return self.inner.complete(req)

    def end_batch(self):
        self.batches += 1


class TestRoundTrips:
    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(1, 20),
        family=st.sampled_from(["uniform_correct", "second_gold"]),
        seed=st.integers(0, 10_000),
        strategy=st.sampled_from(list(STRATEGIES)),
        sc_samples=st.integers(1, 10),
    )
    def test_one_batch_per_round(self, n, family, seed, strategy, sc_samples):
        questions, profiles = generate_synthetic(n, family=family, seed=seed)
        backend = BatchCounting(MockBackend(profiles, seed=seed, noise_rate=0.1))
        reports, records = run_divide(questions, spec(), backend)
        assert backend.batches == 1
        for sc in (False, True):
            backend.batches = 0
            outcomes = run_conquer(questions, reports, strategy, backend, divide_records=records,
                                   self_consistency=sc, sc_samples=sc_samples)
            issued = [len(o.records) for o in outcomes if o.records]
            if not issued:
                assert backend.batches == 0
            elif not sc:
                assert backend.batches == 1
            else:
                assert backend.batches == 1 + max(issued) - (sc_samples + 1) // 2
                assert backend.batches <= sc_samples // 2 + 1
