"""Model-completion backends, the transcript cache, and the request engine.

All backends implement a single `complete(request)` method and are safe to
call from multiple threads. A persistent append-only transcript cache can
wrap any backend so completed work is never refetched; replay is that cache
over a backend that never fetches. `execute` is the one way every phase
issues a batch of requests.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import threading
import time
from concurrent import futures
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import requests

from .model import QtriageError, read_jsonl

API_KEY_ENV = "QTRIAGE_API_KEY"


class BackendError(QtriageError):
    pass


class ConfigError(BackendError):
    pass


class TransportError(BackendError):
    pass


class CacheMissError(BackendError):
    pass


class CacheError(BackendError):
    pass


def _short_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class CompletionRequest:
    prompt: str
    temperature: float
    max_output_tokens: int
    sample_index: int
    question_id: str
    phase: str  # "divide" | "conquer"
    # Simulator-only hints (label remapping, strategy effects); never part
    # of the request key and ignored by the live backend.
    metadata: dict = field(default_factory=dict, compare=False)

    def key(self) -> str:
        """`question_id|phase|sample_index|h`; `h` hashes temperature, token limit and prompt.

        The backend and model are not part of the key.
        """
        params = f"{float(self.temperature)!r}|{self.max_output_tokens}|{self.prompt}"
        return f"{self.question_id}|{self.phase}|{self.sample_index}|{_short_hash(params)}"

    def validate(self) -> None:
        if not (0 <= self.temperature <= 2):
            raise ConfigError(f"temperature {self.temperature} outside [0, 2]")
        if self.max_output_tokens <= 0:
            raise ConfigError("max_output_tokens must be positive")
        if self.sample_index < 0:
            raise ConfigError("sample_index must be non-negative")
        if self.phase not in ("divide", "conquer"):
            raise ConfigError(f"unknown phase {self.phase!r}")


@dataclass(frozen=True)
class Completion:
    text: str
    prompt_tokens: int
    output_tokens: int
    backend_tag: str

    def to_dict(self) -> dict:
        return {
            "text": self.text,
            "prompt_tokens": self.prompt_tokens,
            "output_tokens": self.output_tokens,
            "backend_tag": self.backend_tag,
        }

    @staticmethod
    def from_dict(d: dict) -> "Completion":
        return Completion(
            text=d["text"],
            prompt_tokens=int(d["prompt_tokens"]),
            output_tokens=int(d["output_tokens"]),
            backend_tag=d["backend_tag"],
        )


@dataclass(frozen=True)
class QuestionProfile:
    """Simulated answer behaviour for one question (mock backend only)."""

    question_id: str
    answer_distribution: dict[str, float]
    rationale_length_mean: int = 200
    gold: Optional[str] = None

    def validate(self) -> None:
        if not self.answer_distribution:
            raise ConfigError(f"profile {self.question_id}: empty distribution")
        total = sum(self.answer_distribution.values())
        if any(p < 0 or p > 1 for p in self.answer_distribution.values()):
            raise ConfigError(f"profile {self.question_id}: probability outside [0, 1]")
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"profile {self.question_id}: probabilities sum to {total}")
        if self.rationale_length_mean <= 0:
            raise ConfigError(f"profile {self.question_id}: non-positive rationale length")


def load_profiles(path: str | Path) -> dict[str, QuestionProfile]:
    """Read a profile JSONL; a simulator assertions record is skipped."""
    profiles: dict[str, QuestionProfile] = {}
    for lineno, rec in read_jsonl(path, ConfigError):
        if "assertions" in rec and "question_id" not in rec:
            continue
        where = f"{path} line {lineno}"
        missing = [k for k in ("question_id", "answer_distribution") if k not in rec]
        if missing:
            raise ConfigError(f"{where}: missing {', '.join(missing)}")
        qid, dist = rec["question_id"], rec["answer_distribution"]
        if not isinstance(qid, str) or not qid:
            raise ConfigError(f"{where}: question_id must be a non-empty string")
        if not isinstance(dist, dict):
            raise ConfigError(f"{where}: answer_distribution must be an object")
        try:
            dist = {k: float(v) for k, v in dist.items()}
            length = int(rec.get("rationale_length_mean", 200))
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"{where}: answer_distribution values and "
                f"rationale_length_mean must be numbers: {exc}"
            ) from exc
        profile = QuestionProfile(
            question_id=qid,
            answer_distribution=dist,
            rationale_length_mean=length,
            gold=rec.get("gold"),
        )
        profile.validate()
        profiles[profile.question_id] = profile
    return profiles


def save_profiles(path: str | Path, profiles: dict[str, QuestionProfile]) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for qid in sorted(profiles):
            p = profiles[qid]
            rec = {
                "question_id": p.question_id,
                "answer_distribution": p.answer_distribution,
                "rationale_length_mean": p.rationale_length_mean,
            }
            if p.gold is not None:
                rec["gold"] = p.gold
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


class Backend:
    """Interface: one blocking completion per request."""

    tag = "base"

    def complete(self, req: CompletionRequest) -> Completion:
        raise NotImplementedError


_FILLER_WORDS = (
    "consider the given information and work through each part carefully "
    "then compare the remaining possibilities before settling on one"
).split()

_NOISE_ENDING = "i cannot settle on a single option here."


class MockBackend(Backend):
    """Deterministic simulator: draws answers from per-question profiles.

    Every completion is a pure function of (seed, question id, phase,
    sample index, prompt), so reruns and replays are bit-exact regardless
    of scheduling. In noise mode a configurable fraction of completions
    omit the answer sentinel to exercise extraction fallbacks.
    """

    tag = "mock"

    def __init__(
        self,
        profiles: dict[str, QuestionProfile],
        seed: int,
        noise_rate: float = 0.0,
        gold_uplift: float = 1.0,
    ) -> None:
        for p in profiles.values():
            p.validate()
        self.profiles = profiles
        self.seed = seed
        self.noise_rate = noise_rate
        self.gold_uplift = gold_uplift
        self.calls = 0
        self._lock = threading.Lock()

    def _rng(self, req: CompletionRequest) -> random.Random:
        material = (
            f"{self.seed}|{req.question_id}|{req.phase}|{req.sample_index}|"
            f"{_short_hash(req.prompt)}"
        ).encode("utf-8")
        digest = hashlib.sha256(material).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def _effective_distribution(self, profile: QuestionProfile, req: CompletionRequest):
        """Distribution over emitted values after metadata adjustments.

        label_map restricts support to the surviving original labels and
        renames them into the filtered label space; uplift_gold scales the
        gold option's probability (strategy-effect assumption made explicit).
        """
        dist = dict(profile.answer_distribution)
        emit_as = {value: value for value in dist}

        label_map = req.metadata.get("label_map")
        if label_map:
            allowed = {orig for _, orig in label_map}
            rename = {orig: new for new, orig in label_map}
            dist = {k: v for k, v in dist.items() if k in allowed}
            if not dist:
                raise ConfigError(
                    f"profile {profile.question_id}: no probability mass on labels {sorted(allowed)}"
                )
            emit_as = {k: rename[k] for k in dist}

        if req.metadata.get("uplift_gold") and profile.gold in dist:
            dist[profile.gold] *= self.gold_uplift

        total = sum(dist.values())
        dist = {k: v / total for k, v in dist.items()}
        return dist, emit_as

    def _draw(self, dist: dict[str, float], temperature: float, rng: random.Random) -> str:
        items = sorted(dist.items())
        if temperature == 0:
            return max(items, key=lambda kv: kv[1])[0]
        u = rng.random()
        acc = 0.0
        for value, p in items:
            acc += p
            if u < acc:
                return value
        return items[-1][0]

    def _rationale(self, mean_len: int, rng: random.Random) -> str:
        target = max(20, int(-mean_len * math.log(1.0 - rng.random())))
        words = []
        size = 0
        i = rng.randrange(len(_FILLER_WORDS))
        while size < target:
            word = _FILLER_WORDS[(i + len(words)) % len(_FILLER_WORDS)]
            words.append(word)
            size += len(word) + 1
        return " ".join(words)

    def complete(self, req: CompletionRequest) -> Completion:
        req.validate()
        profile = self.profiles.get(req.question_id)
        if profile is None:
            raise ConfigError(f"no simulator profile for question {req.question_id!r}")
        with self._lock:
            self.calls += 1
        rng = self._rng(req)
        dist, emit_as = self._effective_distribution(profile, req)
        drawn = self._draw(dist, req.temperature, rng)
        emitted = emit_as[drawn]

        body = self._rationale(profile.rationale_length_mean, rng)
        if self.noise_rate > 0 and rng.random() < self.noise_rate:
            text = f"{body}\n{_NOISE_ENDING}"
        elif len(emitted) == 1 and emitted.isupper():
            text = f"{body}\nSo the answer is ({emitted})."
        else:
            text = f"{body}\nSo the answer is {emitted}."

        return Completion(
            text=text,
            prompt_tokens=max(1, len(req.prompt) // 4),
            output_tokens=max(1, len(text) // 4),
            backend_tag=self.tag,
        )


class HttpChatBackend(Backend):
    """Minimal HTTP JSON chat-completion client with retry and backoff."""

    tag = "http"

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: Optional[str] = None,
        max_attempts: int = 5,
        base_delay: float = 1.0,
        backoff_factor: float = 2.0,
        timeout: float = 120.0,
        session: Optional[requests.Session] = None,
    ) -> None:
        if not endpoint:
            raise ConfigError("live backend requires an endpoint URL")
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        if not self.api_key:
            raise ConfigError(f"missing API credential; set {API_KEY_ENV}")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.backoff_factor = backoff_factor
        self.timeout = timeout
        self.session = session or requests.Session()
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, req: CompletionRequest) -> Completion:
        req.validate()
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": req.prompt}],
            "temperature": req.temperature,
            "max_tokens": req.max_output_tokens,
        }
        headers = {"Authorization": f"Bearer {self.api_key}"}
        last_error: Optional[Exception] = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                with self._lock:
                    self.calls += 1
                resp = self.session.post(
                    self.endpoint, json=payload, headers=headers, timeout=self.timeout
                )
                if resp.status_code in (401, 403):
                    raise ConfigError(f"authentication failed ({resp.status_code})")
                if resp.status_code == 429 or resp.status_code >= 500:
                    raise requests.RequestException(f"retryable status {resp.status_code}")
                resp.raise_for_status()
                body = resp.json()
                text = body["choices"][0]["message"]["content"]
                usage = body.get("usage", {})
                return Completion(
                    text=text,
                    prompt_tokens=int(usage.get("prompt_tokens", 0)),
                    output_tokens=int(usage.get("completion_tokens", 0)),
                    backend_tag=self.tag,
                )
            except ConfigError:
                raise
            except (requests.RequestException, KeyError, ValueError) as exc:
                last_error = exc
                if attempt < self.max_attempts:
                    delay = self.base_delay * self.backoff_factor ** (attempt - 1)
                    time.sleep(delay * (1.0 + random.random() * 0.25))
        raise TransportError(
            f"request {req.key()} failed after {self.max_attempts} attempts: {last_error}"
        )


class TranscriptCache:
    """Append-only JSONL store of (request key, request, completion).

    Each line of the file holds the full request; memory holds only
    `key -> completion`, rebuilt on open. Writes are serialized and flushed
    immediately so an interrupted run loses at most the entry in flight. An
    unterminated last line is such an entry: it is dropped on load and cut
    from the file before the next append.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._completions: dict[str, Completion] = {}
        self._torn_tail: Optional[int] = None  # file offset of an unterminated last line
        if self.path.exists():
            self._load()
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)

    def _load(self) -> None:
        with self.path.open("rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.endswith(b"\n"):
                    self._torn_tail = fh.tell() - len(line)
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line.decode("utf-8"))
                except ValueError as exc:
                    raise CacheError(
                        f"{self.path}: corrupted entry at line {lineno}: {exc}"
                    ) from exc
                key = rec.get("key")
                if not key:
                    raise CacheError(f"{self.path}: entry at line {lineno} has no key")
                try:
                    completion = Completion.from_dict(rec["completion"])
                except (KeyError, TypeError, ValueError) as exc:
                    raise CacheError(
                        f"{self.path}: corrupted entry for key {key!r}: {exc}"
                    ) from exc
                self._completions[key] = completion

    def __len__(self) -> int:
        return len(self._completions)

    def get(self, key: str) -> Optional[Completion]:
        return self._completions.get(key)

    def put(self, req: CompletionRequest, completion: Completion) -> None:
        key = req.key()
        entry = {
            "key": key,
            "request": {
                "prompt": req.prompt,
                "temperature": req.temperature,
                "max_output_tokens": req.max_output_tokens,
                "sample_index": req.sample_index,
                "question_id": req.question_id,
                "phase": req.phase,
            },
            "completion": completion.to_dict(),
            "timestamp": time.time(),
        }
        line = json.dumps(entry, ensure_ascii=False, sort_keys=True)
        with self._lock:
            if self._torn_tail is not None:
                os.truncate(self.path, self._torn_tail)
                self._torn_tail = None
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(line + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            self._completions[key] = completion


class CachingBackend(Backend):
    """Wraps a backend with a TranscriptCache; hits skip the inner backend."""

    def __init__(self, inner: Backend, cache: TranscriptCache) -> None:
        self.inner = inner
        self.cache = cache
        self.tag = inner.tag
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()

    def complete(self, req: CompletionRequest) -> Completion:
        key = req.key()
        cached = self.cache.get(key)
        if cached is not None:
            with self._lock:
                self.hits += 1
            return cached
        completion = self.inner.complete(req)
        self.cache.put(req, completion)
        with self._lock:
            self.misses += 1
        return completion


class NoFetchBackend(Backend):
    """Inner backend for replay: every request the transcript lacks is a miss."""

    tag = "replay"

    def complete(self, req: CompletionRequest) -> Completion:
        raise CacheMissError(f"transcript has no entry for key {req.key()!r}")


def execute(
    requests: Sequence[CompletionRequest], backend: Backend, parallelism: int = 1
) -> list[Completion]:
    """Complete every request with at most `parallelism` in flight.

    Each worker takes the next request as soon as it is free, and completions
    come back in input order. After the first failure, or an interrupt, no
    request starts; the failure is raised once those started have finished.
    """
    completions: list = [None] * len(requests)
    todo = iter(range(len(requests)))
    lock = threading.Lock()
    stop = threading.Event()

    def work() -> None:
        while True:
            with lock:
                i = None if stop.is_set() else next(todo, None)
            if i is None:
                return
            completions[i] = backend.complete(requests[i])

    workers = max(1, min(parallelism, len(requests)))
    with futures.ThreadPoolExecutor(max_workers=workers) as pool:
        running = [pool.submit(work) for _ in range(workers)]
        try:
            futures.wait(running, return_when=futures.FIRST_EXCEPTION)
        finally:
            stop.set()  # after a failure, or an interrupt of the caller
        for future in running:
            future.result()
    return completions
