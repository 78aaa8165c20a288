import json
import math
import sys
import time

import pytest
from hypothesis import given, strategies as st

from qtriage.backend import (
    CacheError,
    CacheMissError,
    CachingBackend,
    CompletionRequest,
    ConfigError,
    MockBackend,
    NoFetchBackend,
    QuestionProfile,
    TranscriptCache,
    TransportError,
    execute,
    load_profiles,
    save_profiles,
)
from qtriage.extraction import extract_choice_answer


def req(qid="q1", idx=0, phase="divide", temperature=0.7, prompt="p", metadata=None):
    return CompletionRequest(
        prompt=prompt, temperature=temperature, max_output_tokens=256,
        sample_index=idx, question_id=qid, phase=phase, metadata=metadata or {},
    )


def profile(qid="q1", dist=None, gold=None, mean=120):
    return QuestionProfile(
        question_id=qid,
        answer_distribution=dist or {"A": 1.0},
        rationale_length_mean=mean,
        gold=gold,
    )


class TestMockBackend:
    def test_deterministic_per_key(self):
        b1 = MockBackend({"q1": profile(dist={"A": 0.5, "B": 0.5})}, seed=3)
        b2 = MockBackend({"q1": profile(dist={"A": 0.5, "B": 0.5})}, seed=3)
        assert b1.complete(req()).text == b2.complete(req()).text

    def test_different_seed_changes_stream(self):
        dist = {"A": 0.5, "B": 0.5}
        texts = set()
        for seed in range(8):
            b = MockBackend({"q1": profile(dist=dist)}, seed=seed)
            texts.add(b.complete(req()).text)
        assert len(texts) > 1

    def test_degenerate_distribution_sentinel(self):
        b = MockBackend({"q1": profile(dist={"A": 1.0})}, seed=0)
        assert b.complete(req()).text.endswith("the answer is (A).")

    def test_temperature_zero_is_argmax(self):
        b = MockBackend({"q1": profile(dist={"A": 0.4, "B": 0.6})}, seed=0)
        for idx in range(20):
            text = b.complete(req(idx=idx, temperature=0.0)).text
            assert text.endswith("the answer is (B).")

    def test_empirical_frequency_matches_distribution(self):
        # Monte Carlo oracle: 10,000 draws at p(A)=0.5 must land in 0.5 +/- 0.02
        b = MockBackend({"q1": profile(dist={"A": 0.5, "B": 0.5})}, seed=7)
        n = 10_000
        hits = 0
        for idx in range(n):
            text = b.complete(req(idx=idx)).text
            if text.endswith("(A)."):
                hits += 1
        assert abs(hits / n - 0.5) < 0.02

    def test_three_sigma_binomial_bound(self):
        dist = {"A": 0.2, "B": 0.3, "C": 0.5}
        b = MockBackend({"q1": profile(dist=dist)}, seed=3)
        n = 10_000
        counts = {k: 0 for k in dist}
        for idx in range(n):
            text = b.complete(req(idx=idx)).text
            counts[text[-3]] += 1
        for label, p in dist.items():
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(counts[label] / n - p) <= 3 * sigma

    def test_extraction_closed_loop(self):
        b = MockBackend({"q1": profile(dist={"A": 0.3, "B": 0.3, "C": 0.4})}, seed=5)
        for idx in range(200):
            text = b.complete(req(idx=idx)).text
            ans = extract_choice_answer(text, set("ABC"))
            assert ans.is_parsed

    def test_noise_mode_yields_unparsed(self):
        b = MockBackend({"q1": profile(dist={"A": 1.0})}, seed=5, noise_rate=1.0)
        text = b.complete(req()).text
        assert not extract_choice_answer(text, set("ABC")).is_parsed

    def test_label_map_restricts_support(self):
        dist = {"A": 0.4, "B": 0.35, "C": 0.25}
        b = MockBackend({"q1": profile(dist=dist)}, seed=9)
        meta = {"label_map": [["A", "B"], ["B", "C"]]}  # originals B, C survive
        for idx in range(50):
            text = b.complete(req(idx=idx, metadata=meta)).text
            assert text.endswith("(A).") or text.endswith("(B).")

    def test_gold_uplift_applies_at_argmax(self):
        dist = {"A": 0.45, "B": 0.40, "C": 0.15}
        b = MockBackend({"q1": profile(dist=dist, gold="B")}, seed=0, gold_uplift=2.0)
        text = b.complete(req(temperature=0.0, metadata={"uplift_gold": True})).text
        assert text.endswith("(B).")

    def test_missing_profile_errors(self):
        b = MockBackend({}, seed=0)
        with pytest.raises(ConfigError):
            b.complete(req())

    def test_profile_sum_validated(self):
        with pytest.raises(ConfigError):
            MockBackend({"q1": profile(dist={"A": 0.5, "B": 0.6})}, seed=0)


class TestTranscriptCache:
    def test_miss_then_hit(self, tmp_path):
        cache = TranscriptCache(tmp_path / "t.jsonl")
        backend = MockBackend({"q1": profile()}, seed=0)
        wrapped = CachingBackend(backend, cache)
        c1 = wrapped.complete(req())
        c2 = wrapped.complete(req())
        assert c1 == c2
        assert backend.calls == 1
        assert wrapped.hits == 1 and wrapped.misses == 1

    def test_distinct_sample_index_distinct_entries(self, tmp_path):
        cache = TranscriptCache(tmp_path / "t.jsonl")
        backend = MockBackend({"q1": profile()}, seed=0)
        wrapped = CachingBackend(backend, cache)
        wrapped.complete(req(idx=0))
        wrapped.complete(req(idx=1))
        assert backend.calls == 2
        assert len(cache) == 2

    def test_cache_get_or_fetch(self, tmp_path):
        cache = TranscriptCache(tmp_path / "t.jsonl")
        backend = MockBackend({"q1": profile()}, seed=0)
        CachingBackend(backend, cache).complete(req())
        CachingBackend(backend, cache).complete(req())
        assert backend.calls == 1

    @given(
        st.sampled_from(["prompt", "temperature", "max_output_tokens", "sample_index",
                         "question_id", "phase"]),
        st.data(),
    )
    def test_requests_differing_in_one_field_have_distinct_keys(self, name, data):
        values = {
            "prompt": st.text(max_size=40),
            "temperature": st.floats(0, 2, allow_nan=False),
            "max_output_tokens": st.integers(1, 4096),
            "sample_index": st.integers(0, 100),
            "question_id": st.text(min_size=1, max_size=12),
            "phase": st.sampled_from(["divide", "conquer"]),
        }
        base = data.draw(st.fixed_dictionaries(values))
        other = data.draw(values[name].filter(lambda v: v != base[name]))
        a = CompletionRequest(**base)
        b = CompletionRequest(**{**base, name: other})
        assert a.key() != b.key()
        assert len(a.key().rsplit("|", 1)[1]) == 16  # keys keep their length

    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "t.jsonl"
        cache = TranscriptCache(path)
        backend = MockBackend({"q1": profile()}, seed=0)
        completion = CachingBackend(backend, cache).complete(req())
        reopened = TranscriptCache(path)
        assert reopened.get(req().key()) == completion

    def test_corrupted_line_raises_with_position(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("not json at all\n")
        with pytest.raises(CacheError, match="line 1"):
            TranscriptCache(path)

    def test_corrupted_completion_names_key(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({"key": "k1", "completion": {"text": "x"}}) + "\n")
        with pytest.raises(CacheError, match="k1"):
            TranscriptCache(path)


class TestExecute:
    def test_completions_come_back_in_input_order(self):
        class SlowFirst(MockBackend):
            def complete(self, req):
                time.sleep(0.0001 * (400 - req.sample_index) * (req.sample_index % 3 == 0))
                return super().complete(req)

        requests = [req(idx=i) for i in range(400)]
        expected = [MockBackend({"q1": profile()}, seed=0).complete(r) for r in requests]
        backend = SlowFirst({"q1": profile()}, seed=0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert execute(requests, backend, parallelism=8) == expected
        finally:
            sys.setswitchinterval(interval)
        assert backend.calls == len(requests)  # each request claimed exactly once

    def test_first_failure_cancels_requests_not_started(self):
        class FailsFirst(MockBackend):
            def complete(self, req):
                if req.sample_index == 0:
                    raise TransportError("injected outage")
                time.sleep(0.05)
                return super().complete(req)

        backend = FailsFirst({"q1": profile()}, seed=0)
        with pytest.raises(TransportError):
            execute([req(idx=i) for i in range(20)], backend, parallelism=1)
        assert backend.calls < 10  # without cancellation all 19 others run


class TestReplayBackend:
    def test_replays_verbatim(self, tmp_path):
        cache = TranscriptCache(tmp_path / "t.jsonl")
        backend = MockBackend({"q1": profile()}, seed=0)
        recorded = CachingBackend(backend, cache).complete(req())
        replay = CachingBackend(NoFetchBackend(), TranscriptCache(tmp_path / "t.jsonl"))
        assert replay.complete(req()) == recorded
        assert replay.hits == 1

    def test_missing_key_names_it(self, tmp_path):
        replay = CachingBackend(NoFetchBackend(), TranscriptCache(tmp_path / "empty.jsonl"))
        with pytest.raises(CacheMissError, match=req().key()):
            replay.complete(req())


class TestProfileIO:
    def test_round_trip(self, tmp_path):
        profiles = {
            "q1": profile(dist={"A": 0.25, "B": 0.75}, gold="B"),
            "q2": profile(qid="q2", dist={"A": 1.0}),
        }
        path = tmp_path / "profiles.jsonl"
        save_profiles(path, profiles)
        loaded = load_profiles(path)
        assert loaded == profiles
