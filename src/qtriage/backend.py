"""The live path: the backend interface, the HTTP backend, the transcript
cache, and the request engine. The simulator is in `synth`.

All backends implement a single `complete(request)` method and are safe to
call from multiple threads. A persistent append-only transcript cache can
wrap any backend so completed work is never refetched; replay is that cache
over a backend that never fetches. `execute` is the one way every phase
issues a batch of requests; only for a backend that `waits` outside the
interpreter does it run each request as one task of a thread pool.
"""

from __future__ import annotations

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

from .model import QtriageError

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
    # Facts of how the prompt was built, which the live backend ignores; never
    # part of the request key.
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


class Backend:
    """Interface: one blocking completion per request."""

    waits = True
    """`complete` spends its time waiting outside the interpreter (network), so
    threads overlap it."""

    def complete(self, req: CompletionRequest) -> Completion:
        raise NotImplementedError

    def end_batch(self) -> None:
        """Release what `complete` opened for the batch `execute` has just run."""


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

    Completions come back in input order. When `parallelism > 1` and the
    backend `waits`, each request is one task of a thread pool, which starts
    them in input order; the first failure, or an interrupt, cancels those
    not yet started, and the earliest failure in input order is raised once
    the started ones have finished. Otherwise the requests complete one by
    one on the calling thread: threads cannot overlap work that never leaves
    the interpreter. Either way the batch ends with `backend.end_batch()`.
    """
    try:
        if parallelism <= 1 or not backend.waits:
            return [backend.complete(r) for r in requests]
        with futures.ThreadPoolExecutor(max(1, min(parallelism, len(requests)))) as pool:
            tasks = [pool.submit(backend.complete, r) for r in requests]
            try:
                futures.wait(tasks, return_when=futures.FIRST_EXCEPTION)
            finally:
                for task in tasks:  # after a failure, or an interrupt of the caller
                    task.cancel()
            return [task.result() for task in tasks]
    finally:
        backend.end_batch()


def __getattr__(name: str):
    # bench/ imports these three from here. The benchmark repair (ROADMAP.md
    # items 1 and 3) imports them from `synth` and deletes this.
    if name in ("MockBackend", "load_profiles", "save_profiles"):
        from . import synth

        return getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
