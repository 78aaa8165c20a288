"""Model-completion backends, the transcript cache, and the request engine.

All backends implement a single `complete(request)` method and are safe to
call from multiple threads. A persistent append-only transcript cache can
wrap any backend so completed work is never refetched; replay is that cache
over a backend that never fetches. `execute` is the one way every phase
issues a batch of requests; it starts threads only for a backend that
`waits` outside the interpreter.
"""

from __future__ import annotations

import bisect
import fcntl
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

from .model import QtriageError, read_jsonl

API_KEY_ENV = "QTRIAGE_API_KEY"
BACKOFF_FACTOR = 2.0  # each retry of a live request waits this many times longer
REQUEST_TIMEOUT_S = 120.0


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


def _params_hash(prompt: str, temperature: float, max_output_tokens: int) -> str:
    """The last field of a request key: hashes temperature, token limit and prompt."""
    return _short_hash(f"{float(temperature)!r}|{max_output_tokens}|{prompt}")


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
        h = _params_hash(self.prompt, self.temperature, self.max_output_tokens)
        return f"{self.question_id}|{self.phase}|{self.sample_index}|{h}"

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

    def to_dict(self) -> dict:
        return {
            "text": self.text,
            "prompt_tokens": self.prompt_tokens,
            "output_tokens": self.output_tokens,
        }

    @staticmethod
    def from_dict(d: dict) -> "Completion":
        return Completion(
            text=d["text"],
            prompt_tokens=int(d["prompt_tokens"]),
            output_tokens=int(d["output_tokens"]),
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
    """Read a profile JSONL's profiles; its assertions records are checked and skipped."""
    return load_profile_file(path)[0]


def load_profile_file(path: str | Path) -> tuple[dict[str, QuestionProfile], dict]:
    """Read a profile JSONL; a record with an 'assertions' key configures simulator checks."""
    profiles: dict[str, QuestionProfile] = {}
    assertions: dict = {}
    for lineno, rec in read_jsonl(path, ConfigError):
        where = f"{path} line {lineno}"
        if "assertions" in rec and "question_id" not in rec:
            if not isinstance(rec["assertions"], dict):
                raise ConfigError(f"{where}: assertions must be an object")
            assertions.update(rec["assertions"])
            continue
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
    return profiles, assertions


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

    waits = True
    """`complete` spends its time waiting outside the interpreter (network), so
    threads overlap it."""

    def complete(self, req: CompletionRequest) -> Completion:
        raise NotImplementedError

    def end_batch(self) -> None:
        """Release what `complete` opened for the batch `execute` has just run."""


_FILLER_WORDS = (
    "consider the given information and work through each part carefully "
    "then compare the remaining possibilities before settling on one"
).split()

_NOISE_ENDING = "i cannot settle on a single option here."


def _rotation(start: int) -> tuple[str, list[int]]:
    """The filler words read from word `start` round the cycle, each followed by
    a space, and the offset just past each word's space, after a leading 0."""
    words = _FILLER_WORDS[start:] + _FILLER_WORDS[:start]
    ends = [0]
    for word in words:
        ends.append(ends[-1] + len(word) + 1)
    return " ".join(words) + " ", ends


_ROTATIONS = tuple(_rotation(start) for start in range(len(_FILLER_WORDS)))
_CYCLE = len(_ROTATIONS[0][0])  # characters in one pass over the words, spaces included


def _filler(start: int, target: int) -> str:
    """The fewest filler words, cycling from word `start`, whose lengths plus one
    each sum to at least `target`, joined by spaces."""
    text, ends = _ROTATIONS[start]
    cycles, rest = divmod(target, _CYCLE)
    size = cycles * _CYCLE + ends[bisect.bisect_left(ends, rest)]
    return (text * (cycles + 1))[:size - 1] if size else ""


class MockBackend(Backend):
    """Deterministic simulator: draws answers from per-question profiles.

    Every completion is a pure function of (seed, question id, phase,
    sample index, prompt), so reruns and replays are bit-exact regardless
    of scheduling. In noise mode a configurable fraction of completions
    omit the answer sentinel to exercise extraction fallbacks.
    """

    waits = False

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
        return _filler(rng.randrange(len(_FILLER_WORDS)), target)

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
        )


def _delay_seconds(retry_after: Optional[str]) -> Optional[int]:
    """A `Retry-After` value in its delay-seconds form; None for an HTTP-date or no header."""
    if retry_after is not None and retry_after.isascii() and retry_after.strip().isdigit():
        return int(retry_after)
    return None


def _chat_completion(body) -> Completion:
    """The completion a chat-completion response body holds.

    Raises `ValueError` for a body without a string `choices[0].message.content`,
    or with a `usage` that is present but not an object of non-negative integer
    counts; a missing `usage` counts zero tokens.
    """
    try:
        text = body["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError):
        text = None
    if not isinstance(text, str):
        raise ValueError("response has no string choices[0].message.content")
    usage = body.get("usage", {})
    counts = [usage.get(k, 0) if isinstance(usage, dict) else None
              for k in ("prompt_tokens", "completion_tokens")]
    if not all(type(n) is int and n >= 0 for n in counts):
        raise ValueError(f"response usage is not an object of integer counts: {usage!r}")
    return Completion(text, prompt_tokens=counts[0], output_tokens=counts[1])


class HttpChatBackend(Backend):
    """Minimal HTTP JSON chat-completion client with retry and backoff."""

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: Optional[str] = None,
        max_attempts: int = 5,
        base_delay: float = 1.0,
        session: Optional["requests.Session"] = None,
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
        self._session = session  # shared by every thread when injected; the caller closes it
        self._sessions: dict[int, "requests.Session"] = {}  # else one per thread and batch
        self.calls = 0
        self._lock = threading.Lock()

    def _thread_session(self) -> "requests.Session":
        import requests  # only the live backend pays for this import

        if self._session is not None:
            return self._session
        thread = threading.get_ident()
        with self._lock:
            if thread not in self._sessions:
                self._sessions[thread] = requests.Session()
            return self._sessions[thread]

    def end_batch(self) -> None:
        """Close the sessions this batch's threads opened."""
        with self._lock:
            sessions, self._sessions = self._sessions, {}
        for session in sessions.values():
            session.close()

    def complete(self, req: CompletionRequest) -> Completion:
        import requests

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
            retry_after = None
            try:
                with self._lock:
                    self.calls += 1
                resp = self._thread_session().post(
                    self.endpoint, json=payload, headers=headers, timeout=REQUEST_TIMEOUT_S
                )
                if resp.status_code in (401, 403):
                    raise ConfigError(f"authentication failed ({resp.status_code})")
                if resp.status_code == 429:
                    retry_after = _delay_seconds(resp.headers.get("Retry-After"))
                if resp.status_code == 429 or resp.status_code >= 500:
                    raise requests.RequestException(f"retryable status {resp.status_code}")
                resp.raise_for_status()
                return _chat_completion(resp.json())
            except (requests.RequestException, ValueError) as exc:
                last_error = exc
                if attempt < self.max_attempts:
                    if retry_after is None:
                        delay = self.base_delay * BACKOFF_FACTOR ** (attempt - 1)
                        retry_after = delay * (1.0 + random.random() * 0.25)
                    time.sleep(retry_after)
        raise TransportError(
            f"request {req.key()} failed after {self.max_attempts} attempts: {last_error}"
        )


_json_string = json.encoder.encode_basestring  # json.dumps' quoting when ensure_ascii=False


def _json_number(value) -> str:
    """`value` as `json.dumps` writes it; `repr` for an int or a finite float."""
    kind = type(value)
    if kind is int or (kind is float and math.isfinite(value)):
        return repr(value)
    return json.dumps(value, ensure_ascii=False, sort_keys=True)


class TranscriptCache:
    """Append-only JSONL store of request keys and completions.

    Each line is `{"key", "completion"}`; the key holds the question id, phase,
    sample index and params hash. The first line for a params hash also
    carries `"request": {"prompt", "temperature", "max_output_tokens"}`, the
    fields that hash covers, so a prompt sampled t times is written once. On
    load, a line's request must hash to its key, else the transcript predates
    the current key format and loading fails; a line without a request is
    taken as it is, so a transcript that repeats the request on every line
    loads the same way.

    Memory holds `key -> completion` and the hashes whose request is in the
    file, rebuilt on open. The first `put` opens one append handle, which
    holds an exclusive `flock` on the file until `close()`, so one writer at a
    time. Each entry is flushed as it is written, so a process crash loses at
    most the entry in flight; a hash counts as written only once its line is
    flushed, so the refetched entry carries the lost one's request. `close()`
    makes the entries durable with one `fsync` and keeps the index, so a later
    `put` opens the handle again. An unterminated last line is such a lost
    entry: it is dropped on load and cut from the file when the handle opens.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._completions: dict[str, Completion] = {}
        self._requested: set[str] = set()  # params hashes whose request is in the file
        self._size = 0  # bytes of the file this cache has read or written
        self._torn_tail: Optional[int] = None  # file offset of an unterminated last line
        self._fh = None  # the append handle, open from the first put to close()
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
                if "request" in rec:
                    self._requested.add(self._check_request(rec["request"], key, lineno))
                try:
                    completion = Completion.from_dict(rec["completion"])
                except (KeyError, TypeError, ValueError) as exc:
                    raise CacheError(
                        f"{self.path}: corrupted entry for key {key!r}: {exc}"
                    ) from exc
                self._completions[key] = completion
            self._size = fh.tell()

    def _check_request(self, request, key: str, lineno: int) -> str:
        """The key's params hash, once the request on its line is shown to hash to it."""
        h = key.rsplit("|", 1)[-1]
        try:
            actual = _params_hash(
                request["prompt"], request["temperature"], request["max_output_tokens"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CacheError(
                f"{self.path}: corrupted request at line {lineno} for key {key!r}: {exc!r}"
            ) from exc
        if actual != h:
            raise CacheError(
                f"{self.path}: line {lineno}: key {key!r} does not match its request's "
                f"hash {actual}; the transcript predates the current key format"
            )
        return h

    def __len__(self) -> int:
        return len(self._completions)

    def __enter__(self) -> "TranscriptCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def get(self, key: str) -> Optional[Completion]:
        return self._completions.get(key)

    def _open_for_append(self):
        """The append handle, locked, over exactly the bytes this cache has indexed."""
        fh = self.path.open("ab")
        try:
            try:
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise CacheError(
                    f"{self.path}: another writer holds this transcript; one writer per run dir"
                ) from None
            size = os.fstat(fh.fileno()).st_size
            if size != self._size:
                raise CacheError(
                    f"{self.path}: changed since it was loaded "
                    f"({size} bytes, not {self._size}); rerun to reload it"
                )
            if self._torn_tail is not None:
                os.ftruncate(fh.fileno(), self._torn_tail)
                self._size, self._torn_tail = self._torn_tail, None
        except BaseException:
            fh.close()
            raise
        return fh

    def put(
        self, req: CompletionRequest, completion: Completion, key: Optional[str] = None
    ) -> None:
        """Append one entry; `key` is `req.key()`, passed by a caller that already has it."""
        key = req.key() if key is None else key
        h = key.rsplit("|", 1)[-1]
        # What json.dumps(entry, ensure_ascii=False, sort_keys=True) writes, built directly.
        line = (
            f'{{"completion": {{"output_tokens": {_json_number(completion.output_tokens)}, '
            f'"prompt_tokens": {_json_number(completion.prompt_tokens)}, '
            f'"text": {_json_string(completion.text)}}}, "key": {_json_string(key)}'
        )
        with self._lock:
            if h not in self._requested:
                line += (
                    f', "request": {{"max_output_tokens": {_json_number(req.max_output_tokens)}, '
                    f'"prompt": {_json_string(req.prompt)}, '
                    f'"temperature": {_json_number(req.temperature)}}}'
                )
            line = (line + "}\n").encode("utf-8")
            if self._fh is None:
                self._fh = self._open_for_append()
            self._fh.write(line)
            self._fh.flush()
            self._size += len(line)
            self._completions[key] = completion
            self._requested.add(h)

    def close(self) -> None:
        """`fsync` and close the append handle, if open; the index stays usable."""
        with self._lock:
            if self._fh is None:
                return
            try:
                os.fsync(self._fh.fileno())
            finally:
                self._fh.close()
                self._fh = None


class CachingBackend(Backend):
    """Wraps a backend with a TranscriptCache; hits skip the inner backend."""

    def __init__(self, inner: Backend, cache: TranscriptCache) -> None:
        self.inner = inner
        self.cache = cache
        self.waits = inner.waits
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()

    def end_batch(self) -> None:
        self.inner.end_batch()

    def complete(self, req: CompletionRequest) -> Completion:
        key = req.key()
        cached = self.cache.get(key)
        if cached is not None:
            with self._lock:
                self.hits += 1
            return cached
        completion = self.inner.complete(req)
        self.cache.put(req, completion, key)
        with self._lock:
            self.misses += 1
        return completion


class NoFetchBackend(Backend):
    """Inner backend for replay: every request the transcript lacks is a miss."""

    waits = False

    def complete(self, req: CompletionRequest) -> Completion:
        raise CacheMissError(f"transcript has no entry for key {req.key()!r}")


def execute(
    requests: Sequence[CompletionRequest], backend: Backend, parallelism: int = 1
) -> list[Completion]:
    """Complete every request with at most `parallelism` in flight.

    Completions come back in input order. After the first failure, or an
    interrupt, no request starts; the failure is raised once those started
    have finished. Threads are used only when `parallelism > 1` and the
    backend `waits`: each worker then takes the next request as soon as it is
    free. Otherwise the requests complete one by one on the calling thread,
    because threads cannot overlap work that never leaves the interpreter.
    Either way the batch ends with `backend.end_batch()`.
    """
    try:
        if parallelism <= 1 or not backend.waits:
            return [backend.complete(r) for r in requests]
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
    finally:
        backend.end_batch()
