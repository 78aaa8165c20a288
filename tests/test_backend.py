import hashlib
import json
import math
import random
import re
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from qtriage.backend import (
    CacheError,
    CacheMissError,
    CachingBackend,
    Completion,
    CompletionRequest,
    ConfigError,
    HttpChatBackend,
    NoFetchBackend,
    TranscriptCache,
    TransportError,
    execute,
)
from qtriage.synth import (
    _CYCLE,
    _FILLER_WORDS,
    MockBackend,
    QuestionProfile,
    _filler,
    load_profile_file,
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


def loop_filler(start, target):
    """The word loop the mock's rationale once ran, kept as the reference."""
    words = []
    size = 0
    while size < target:
        word = _FILLER_WORDS[(start + len(words)) % len(_FILLER_WORDS)]
        words.append(word)
        size += len(word) + 1
    return " ".join(words)


def loop_rationale(mean_len, rng):
    target = max(20, int(-mean_len * math.log(1.0 - rng.random())))
    return loop_filler(rng.randrange(len(_FILLER_WORDS)), target)


# Text with what JSON must escape or may pass through raw, beside arbitrary characters.
json_text = st.text(st.characters(codec="utf-8") | st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\r", "\t", "\u2028", "\ufeff", "\U0001f600", "|"]))


class TestMockBackend:
    @given(st.integers(1, 5000), st.integers(0, 2**64 - 1))
    def test_rationale_equals_the_word_loop(self, mean_len, seed):
        sliced, looped = random.Random(seed), random.Random(seed)
        text = MockBackend({}, seed=0)._rationale(mean_len, sliced)
        assert text == loop_rationale(mean_len, looped)
        assert sliced.random() == looped.random()  # both drew the same numbers

    @pytest.mark.parametrize("start", range(len(_FILLER_WORDS)))
    def test_filler_equals_the_word_loop(self, start):
        # Every target over three cycles, then cycle multiples and their neighbours further out.
        far = [cycles * _CYCLE + d for cycles in (7, 40) for d in (-1, 0, 1)]
        for target in [*range(3 * _CYCLE + 2), *far]:
            assert _filler(start, target) == loop_filler(start, target), target

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
        text = b.complete(req(temperature=0.0, metadata={"strategy": "PKR"})).text
        assert text.endswith("(B).")

    def test_missing_profile_errors(self):
        b = MockBackend({}, seed=0)
        with pytest.raises(ConfigError):
            b.complete(req())

    def test_profile_sum_validated(self):
        with pytest.raises(ConfigError):
            MockBackend({"q1": profile(dist={"A": 0.5, "B": 0.6})}, seed=0)


def test_backend_lends_the_benchmark_only_its_three_simulator_names():
    from qtriage import backend, synth

    for name in ("MockBackend", "load_profiles", "save_profiles"):
        assert getattr(backend, name) is getattr(synth, name)
    with pytest.raises(AttributeError):
        backend.QuestionProfile


class TestTranscriptCache:
    def test_miss_then_hit(self, tmp_path):
        with TranscriptCache(tmp_path / "t.jsonl") as cache:
            backend = MockBackend({"q1": profile()}, seed=0)
            wrapped = CachingBackend(backend, cache)
            c1 = wrapped.complete(req())
            c2 = wrapped.complete(req())
        assert c1 == c2
        assert backend.calls == 1
        assert wrapped.hits == 1 and wrapped.misses == 1

    def test_distinct_sample_index_distinct_entries(self, tmp_path):
        with TranscriptCache(tmp_path / "t.jsonl") as cache:
            backend = MockBackend({"q1": profile()}, seed=0)
            wrapped = CachingBackend(backend, cache)
            wrapped.complete(req(idx=0))
            wrapped.complete(req(idx=1))
        assert backend.calls == 2
        assert len(cache) == 2

    def test_cache_get_or_fetch(self, tmp_path):
        with TranscriptCache(tmp_path / "t.jsonl") as cache:
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
        with TranscriptCache(path) as cache:
            backend = MockBackend({"q1": profile()}, seed=0)
            completion = CachingBackend(backend, cache).complete(req())
        reopened = TranscriptCache(path)
        assert reopened.get(req().key()) == completion

    def test_put_after_outside_append_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TranscriptCache(path) as cache:
            CachingBackend(MockBackend({"q1": profile()}, seed=0), cache).complete(req(idx=0))
        stale = TranscriptCache(path)
        with TranscriptCache(path) as other:
            CachingBackend(MockBackend({"q1": profile()}, seed=0), other).complete(req(idx=1))
        completion = stale.get(req(idx=0).key())
        with pytest.raises(CacheError, match="changed since it was loaded"):
            stale.put(req(idx=2), completion)
        assert len(TranscriptCache(path)) == 2  # the stale cache wrote nothing

    def test_second_writer_is_refused_until_the_first_closes(self, tmp_path):
        path = tmp_path / "t.jsonl"
        completion = MockBackend({"q1": profile()}, seed=0).complete(req())
        first, second = TranscriptCache(path), TranscriptCache(path)
        with first:
            first.put(req(idx=0), completion)
            with pytest.raises(CacheError, match="another writer"):
                second.put(req(idx=1), completion)
        assert second.get(req(idx=1).key()) is None
        with pytest.raises(CacheError, match="changed since it was loaded"):
            second.put(req(idx=1), completion)  # the first writer's entry is not in its index
        with TranscriptCache(path) as third:
            third.put(req(idx=1), completion)
        assert len(TranscriptCache(path)) == 2

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

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["q1", "q2"]),
                st.sampled_from(["divide", "conquer"]),
                st.integers(0, 3),
                st.sampled_from(["p", "other prompt", "\u00e9 prompt"]),
                st.sampled_from([0.0, 0.7]),
            ),
            min_size=1,
            max_size=30,
        ),
        st.data(),
    )
    def test_each_params_hash_carries_its_request_on_its_first_line_only(self, draws, data):
        requests = [
            req(qid=qid, phase=phase, idx=idx, prompt=prompt, temperature=temperature)
            for qid, phase, idx, prompt, temperature in draws
        ]
        # A first run stops after `stop_at` requests; the rerun issues them all.
        stop_at = data.draw(st.integers(0, len(requests)))
        torn = data.draw(st.booleans())  # the first run's last line was cut short
        profiles = {"q1": profile("q1"), "q2": profile("q2")}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.jsonl"
            for part in (requests[:stop_at], requests):
                if torn and path.exists() and path.stat().st_size:
                    path.write_bytes(path.read_bytes()[:-1])
                with TranscriptCache(path) as cache:
                    backend = CachingBackend(MockBackend(profiles, seed=0), cache)
                    for r in part:
                        backend.complete(r)
            lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
            assert len(TranscriptCache(path)) == len(lines)
        assert sorted(line["key"] for line in lines) == sorted({r.key() for r in requests})
        by_key = {r.key(): r for r in requests}
        seen = set()
        for line in lines:
            h = line["key"].rsplit("|", 1)[1]
            assert set(line) == ({"key", "completion"} if h in seen
                                 else {"key", "completion", "request"}), line
            if h not in seen:
                r = by_key[line["key"]]
                assert line["request"] == {"prompt": r.prompt, "temperature": r.temperature,
                                           "max_output_tokens": r.max_output_tokens}
            seen.add(h)

    @given(
        texts=st.tuples(json_text, json_text),
        prompt=json_text,
        key_head=json_text,
        counts=st.lists(st.integers(min_value=0), min_size=5, max_size=5),
        temperature=st.integers(0, 2) | st.floats() | st.sampled_from([math.inf, math.nan]),
    )
    def test_put_writes_the_bytes_json_dumps_writes(
        self, texts, prompt, key_head, counts, temperature
    ):
        max_output_tokens, *tokens = counts
        r = CompletionRequest(prompt=prompt, temperature=temperature,
                              max_output_tokens=max_output_tokens, sample_index=0,
                              question_id="q", phase="divide")
        h = r.key().rsplit("|", 1)[1]
        keys = [f"{key_head}|0|{h}", f"{key_head}|1|{h}"]  # the second line has no request
        completions = [Completion(texts[0], *tokens[:2]), Completion(texts[1], *tokens[2:])]
        request = {"prompt": prompt, "temperature": temperature,
                   "max_output_tokens": max_output_tokens}
        entries = [{"key": keys[0], "completion": completions[0].to_dict(), "request": request},
                   {"key": keys[1], "completion": completions[1].to_dict()}]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.jsonl"
            with TranscriptCache(path) as cache:
                for key, completion in zip(keys, completions):
                    cache.put(r, completion, key)
            written = path.read_bytes()
            loaded = TranscriptCache(path)
        assert written == b"".join(
            (json.dumps(e, ensure_ascii=False, sort_keys=True) + "\n").encode() for e in entries)
        assert [loaded.get(key) for key in keys] == completions

    def test_concurrent_puts_write_each_request_once(self, tmp_path):
        class Waiting(MockBackend):
            waits = True

            def complete(self, req):
                time.sleep(0.005)  # the workers' puts of one prompt then race
                return super().complete(req)

        # Each prompt is sampled once per worker, so all eight race to write it first.
        prompts = [f"p{i}" for i in range(25)]
        requests = [req(idx=i, prompt=prompts[i // 8]) for i in range(200)]
        path = tmp_path / "t.jsonl"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with TranscriptCache(path) as cache:
                execute(requests, CachingBackend(Waiting({"q1": profile()}, seed=0), cache), 8)
        finally:
            sys.setswitchinterval(interval)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == len(requests)
        written = sorted(line["request"]["prompt"] for line in lines if "request" in line)
        assert written == sorted(prompts)

    def test_legacy_lines_load_serve_hits_and_keep_their_requests(self, tmp_path):
        # Older transcripts repeat the full request and a timestamp on every line,
        # and tag each completion with the backend that made it.
        path = tmp_path / "t.jsonl"
        completion = MockBackend({"q1": profile()}, seed=0).complete(req())
        tagged = {**completion.to_dict(), "backend_tag": "mock"}
        legacy = [
            {"key": r.key(), "completion": tagged, "timestamp": 1.0e9,
             "request": {"prompt": r.prompt, "temperature": r.temperature,
                         "max_output_tokens": r.max_output_tokens, "sample_index": r.sample_index,
                         "question_id": r.question_id, "phase": r.phase}}
            for r in (req(idx=0), req(idx=1))
        ]
        path.write_text("".join(json.dumps(line) + "\n" for line in legacy))
        inner = MockBackend({"q1": profile()}, seed=0)
        with TranscriptCache(path) as cache:
            backend = CachingBackend(inner, cache)
            assert backend.complete(req(idx=1)) == completion
            backend.complete(req(idx=2))
            backend.complete(req(idx=0, prompt="new"))
        assert backend.hits == 1 and inner.calls == 2
        appended = [json.loads(line) for line in path.read_text().splitlines()[2:]]
        assert "request" not in appended[0]  # its hash is already in the file
        assert appended[1]["request"]["prompt"] == "new"
        assert len(TranscriptCache(path)) == 4

    def test_key_from_before_params_hashing_raises_naming_path_and_line(self, tmp_path):
        # Keys once hashed the prompt alone; such a transcript must not just refetch.
        path = tmp_path / "t.jsonl"
        completion = MockBackend({"q1": profile()}, seed=0).complete(req()).to_dict()
        request = {"prompt": "p", "temperature": 0.7, "max_output_tokens": 256}
        stale_key = "q1|divide|1|" + hashlib.sha256(b"p").hexdigest()[:16]
        path.write_text(
            json.dumps({"key": req(idx=0).key(), "request": request, "completion": completion})
            + "\n"
            + json.dumps({"key": stale_key, "request": request, "completion": completion})
            + "\n"
        )
        with pytest.raises(CacheError) as excinfo:
            TranscriptCache(path)
        message = str(excinfo.value)
        assert str(path) in message and "line 2" in message and stale_key in message


class TestExecute:
    def test_completions_come_back_in_input_order(self):
        class SlowFirst(MockBackend):
            waits = True

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

    def test_first_failure_stops_threads_taking_requests(self):
        started = []

        class FailsFirstWaiting(MockBackend):
            waits = True

            def complete(self, req):
                started.append(req.sample_index)
                time.sleep(0.01 if req.sample_index == 0 else 0.05)
                if req.sample_index == 0:
                    raise TransportError("injected outage")
                return super().complete(req)

        backend = FailsFirstWaiting({"q1": profile()}, seed=0)
        with pytest.raises(TransportError):
            execute([req(idx=i) for i in range(40)], backend, parallelism=4)
        assert len(started) < 10  # the other workers stop after their first request

    def test_the_earliest_failure_in_input_order_is_raised(self):
        barrier = threading.Barrier(4, timeout=5)
        started, finished = [], []

        class FailsTwice(MockBackend):
            waits = True

            def complete(self, req):
                i = req.sample_index
                started.append(i)
                if i < 4:
                    barrier.wait()  # requests 0-3 are in flight together
                # Request 2 fails first; request 1 fails later but comes first in input order.
                time.sleep({1: 0.02, 2: 0.0}.get(i, 0.1))
                if i in (1, 2):
                    raise TransportError(f"injected outage {i}")
                finished.append(i)
                return super().complete(req)

        requests = [req(idx=i) for i in range(40)]
        with pytest.raises(TransportError, match="outage 1"):
            execute(requests, FailsTwice({"q1": profile()}, seed=0), parallelism=4)
        assert sorted(started) == list(range(len(started)))  # started in input order
        assert len(started) < 10 and requests[-1].sample_index not in started
        assert sorted(finished) == sorted(set(started) - {1, 2})  # none left running


    @pytest.mark.parametrize("cached", [False, True])
    def test_in_process_backend_completes_on_the_calling_thread(self, tmp_path, cached):
        class ThreadRecording(MockBackend):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.threads = set()

            def complete(self, req):
                self.threads.add(threading.get_ident())
                return super().complete(req)

        requests = [req(idx=i) for i in range(40)]

        def run(parallelism):
            inner = ThreadRecording({"q1": profile(dist={"A": 0.5, "B": 0.5})}, seed=0)
            with TranscriptCache(tmp_path / f"p{parallelism}.jsonl") as cache:
                backend = CachingBackend(inner, cache) if cached else inner
                return execute(requests, backend, parallelism), inner.threads

        serial, _ = run(1)
        parallel, threads = run(8)
        assert parallel == serial
        assert threads == {threading.get_ident()}


class FakeResponse:
    def __init__(self, status_code, body=None, headers=None):
        self.status_code = status_code
        self.headers = headers or {}
        self._body = body

    def json(self):
        return self._body

    def raise_for_status(self):
        assert self.status_code < 400, "the backend handles error statuses first"


def answered(payload):
    prompt = payload["messages"][0]["content"]
    body = {
        "choices": [{"message": {"content": f"about {prompt}. So the answer is (A)."}}],
        "usage": {"prompt_tokens": 3, "completion_tokens": 9},
    }
    return FakeResponse(200, body)


class FakeSession:
    """Stands in for `requests.Session`: serves `responses` in turn, then 200s."""

    def __init__(self, responses=(), barrier=None):
        self.responses = list(responses)
        self.barrier = barrier
        self.posts = 0
        self._lock = threading.Lock()

    def post(self, url, json, headers, timeout):
        with self._lock:
            self.posts += 1
            response = self.responses.pop(0) if self.responses else None
        if self.barrier is not None:
            self.barrier.wait()
        return response or answered(json)


def http_backend(session, **kwargs):
    return HttpChatBackend("http://llm.invalid/v1", "m", api_key="k", session=session, **kwargs)


class TestHttpChatBackend:
    def test_parallelism_puts_that_many_requests_in_flight(self):
        session = FakeSession(barrier=threading.Barrier(4, timeout=5))
        requests = [req(idx=i, prompt=f"p{i}") for i in range(8)]
        completions = execute(requests, http_backend(session), parallelism=4)
        assert [c.text for c in completions] == [
            f"about p{i}. So the answer is (A)." for i in range(8)
        ]
        assert session.posts == 8

    def test_each_thread_posts_through_its_own_session(self, monkeypatch):
        barrier = threading.Barrier(4, timeout=5)
        sessions = []

        class RecordingSession:
            def __init__(self):
                self.threads = set()
                sessions.append(self)

            def post(self, url, json, headers, timeout):
                self.threads.add(threading.get_ident())
                barrier.wait()
                return answered(json)

            def close(self):
                pass

        monkeypatch.setattr("requests.Session", RecordingSession)
        backend = HttpChatBackend("http://llm.invalid/v1", "m", api_key="k")
        completions = execute([req(idx=i, prompt=f"p{i}") for i in range(8)], backend, 4)
        assert [c.text for c in completions] == [
            f"about p{i}. So the answer is (A)." for i in range(8)
        ]
        assert len(sessions) == 4
        assert [len(s.threads) for s in sessions] == [1, 1, 1, 1]
        assert len(set.union(*(s.threads for s in sessions))) == 4

    def test_each_batch_closes_the_sessions_it_opened(self, monkeypatch):
        barrier = threading.Barrier(4, timeout=5)
        opened, closed = [], []

        class CountingSession(FakeSession):
            def __init__(self):
                super().__init__(barrier=barrier)
                opened.append(self)

            def close(self):
                closed.append(self)

        monkeypatch.setattr("requests.Session", CountingSession)
        backend = HttpChatBackend("http://llm.invalid/v1", "m", api_key="k")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads switch often, so a lost session would show
        try:
            for batch in (1, 2):
                execute([req(idx=i, prompt=f"b{batch}p{i}") for i in range(8)], backend, 4)
                assert len(opened) == 4 * batch and closed == opened
        finally:
            sys.setswitchinterval(interval)
        injected = CountingSession()
        execute([req(idx=i) for i in range(4)], http_backend(injected), 4)
        assert injected.posts == 4 and injected not in closed  # the caller owns it

    @pytest.mark.parametrize("retry_after, low, high", [
        ("7", 7, 7),
        ("Wed, 21 Oct 2015 07:28:00 GMT", 3.0, 3.75),  # HTTP-date: the backoff delay
    ])
    def test_429_waits_retry_after_seconds(self, monkeypatch, retry_after, low, high):
        slept = []
        monkeypatch.setattr("qtriage.backend.time.sleep", slept.append)
        session = FakeSession([FakeResponse(429, headers={"Retry-After": retry_after})])
        completion = http_backend(session, base_delay=3.0).complete(req())
        assert completion.output_tokens == 9
        assert len(slept) == 1 and low <= slept[0] <= high

    @pytest.mark.parametrize("status", [401, 403])
    def test_rejected_credential_fails_after_one_post(self, monkeypatch, status):
        slept = []
        monkeypatch.setattr("qtriage.backend.time.sleep", slept.append)
        session = FakeSession([FakeResponse(status)])
        backend = http_backend(session)
        with pytest.raises(ConfigError, match=f"authentication failed \\({status}\\)"):
            backend.complete(req())
        assert session.posts == backend.calls == 1 and slept == []

    def test_5xx_then_success_retries_once(self, monkeypatch):
        slept = []
        monkeypatch.setattr("qtriage.backend.time.sleep", slept.append)
        session = FakeSession([FakeResponse(503)])
        backend = http_backend(session)
        assert backend.complete(req()).text == "about p. So the answer is (A)."
        assert session.posts == backend.calls == 2 and len(slept) == 1


    @pytest.mark.parametrize("body", [
        {"choices": []},
        [{"message": {"content": "So the answer is (A)."}}],
        {"choices": [{"message": {"content": "So the answer is (A)."}}], "usage": None},
        {"choices": [{"message": {"content": None}}]},
    ])
    def test_malformed_200_body_is_retried_then_a_transport_error(self, monkeypatch, body):
        monkeypatch.setattr("qtriage.backend.time.sleep", lambda seconds: None)
        session = FakeSession([FakeResponse(200, body)] * 3)
        with pytest.raises(TransportError, match=re.escape(req().key())):
            http_backend(session, max_attempts=3).complete(req())
        assert session.posts == 3


class TestReplayBackend:
    def test_replays_verbatim(self, tmp_path):
        with TranscriptCache(tmp_path / "t.jsonl") as cache:
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

    def test_profile_file_is_read_once(self, monkeypatch):
        from qtriage import model
        from qtriage.synth import bundled_data_path

        path = bundled_data_path("toy20_profiles.jsonl")
        reads = []
        read_text = model._read_text

        def counted(*args):
            reads.append(args[0])
            return read_text(*args)

        monkeypatch.setattr(model, "_read_text", counted)
        profiles, assertions = load_profile_file(path)
        assert reads == [path]
        assert profiles == load_profiles(path) and assertions == {}
