"""In-memory span recorder that wraps qtriage's public functions from outside.

Nothing under ``src/`` knows about tracing: ``Tracer.installed()`` swaps the
module attributes the pipeline calls through for timing wrappers and puts the
originals back on exit. A span is ``(id, name, start, end, parent, pass_id,
tag)``; ``tag`` carries a small fact read from the wrapped call's result
(prompt length, extraction rule, whether a conquer item issued a call).

``run_divide`` and ``run_conquer`` call the backend from ThreadPoolExecutor
workers, which start with an empty span stack. Such a span takes as parent
the innermost span open on the main thread, i.e. the phase step that
submitted the work.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import itertools
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Iterator, Optional, Sequence

Span = tuple  # (id, name, start, end, parent, pass_id, tag)


def _rule(answer) -> str:
    return answer.rule_id if answer.is_parsed else "unparsed"


def _no_call(outcome) -> bool:
    return not outcome.records


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pass_id: object = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[list[int], int, Optional[int]]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack, sid, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, self.pass_id, None))

    def wrap(self, fn: Callable, name: str, tag: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, sid, parent = tracer._open()
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                label = tag(result) if tag is not None and result is not None else None
                tracer.spans.append((sid, name, start, end, parent, tracer.pass_id, label))

        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap the layer boundaries of an imported qtriage for the duration."""
        from qtriage import backend, conquer, divide, pipeline

        targets = [
            (pipeline, "run_divide", "divide.run", None),
            (pipeline, "records_from_transcript", "divide.retranscribe", None),
            (pipeline, "run_conquer", "conquer.run", None),
            (conquer, "conquer_item", "conquer.item", _no_call),
            (divide, "build_prompt", "prompts.build", len),
            (conquer, "build_prompt", "prompts.build", len),
            (divide, "extract_choice_answer", "extraction.extract", _rule),
            (conquer, "extract_choice_answer", "extraction.extract", _rule),
            (pipeline, "subset_prior_metrics", "report.metrics", None),
            (pipeline, "strategy_metrics", "report.metrics", None),
            (pipeline, "cost_summary", "report.metrics", None),
            (pipeline, "accuracy_curves", "report.curves", None),
            (pipeline, "emit_report", "report.emit", None),
            (backend.CachingBackend, "complete", "backend.cached_complete", None),
            (backend.MockBackend, "complete", "backend.complete", None),
            (backend.TranscriptCache, "__init__", "backend.transcript_load", None),
            (backend.TranscriptCache, "put", "backend.transcript_put", None),
        ]
        saved = []
        try:
            for owner, attr, name, tag in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, tag))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write every recorded span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tparent\tpass_id\ttag\n")
            for sid, name, start, end, parent, pass_id, tag in self.spans:
                fh.write(f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{pass_id}\t{tag}\n")


def union_length(intervals: Sequence[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, each clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[object, list[tuple[float, float]]] = defaultdict(list)
    for sid, _name, start, end, parent, _pass, _tag in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - union_length(children.get(sid, ()), start, end)
        for sid, _name, start, end, _parent, _pass, _tag in spans
    }
