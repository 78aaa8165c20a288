"""Divide phase: sample answers per question, score confidence, and partition.

The confidence score of a question is the maximum answer frequency across
its sampled completions. Questions are routed to high / med / low subsets
by the (mu, nu) thresholds, with a finer split of the low subset at 0.4.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from pathlib import Path
from typing import Callable, Optional, Sequence

from .backend import (
    Backend,
    CacheMissError,
    Completion,
    CompletionRequest,
    TranscriptCache,
    execute,
)
from .extraction import extract_choice_answer, extract_numeric_answer
from .model import DatasetError, DatasetSpec, QtriageError, Question, read_jsonl
from .prompts import build_prompt

DIVIDE_TEMPERATURE = 0.7
DEFAULT_MAX_OUTPUT_TOKENS = 512
FINE_SPLIT = Fraction(2, 5)  # low subset splits into top/bottom at 0.4

SUBSETS = ("high", "med", "low")


class DivideError(QtriageError, ValueError):
    pass


@dataclass(frozen=True)
class InferenceRecord:
    """One completion for one question, with its extracted answer."""

    question_id: str
    phase: str
    sample_index: int
    prompt: str
    text: str
    answer: Optional[str]  # parsed value, or None when unparsed
    prompt_tokens: int
    output_tokens: int

    def to_dict(self) -> dict:
        return {
            "question_id": self.question_id,
            "phase": self.phase,
            "sample_index": self.sample_index,
            "answer": self.answer,
            "prompt_tokens": self.prompt_tokens,
            "output_tokens": self.output_tokens,
        }

    @staticmethod
    def from_completion(
        req: CompletionRequest, comp: Completion, answer: Optional[str]
    ) -> "InferenceRecord":
        return InferenceRecord(
            question_id=req.question_id,
            phase=req.phase,
            sample_index=req.sample_index,
            prompt=req.prompt,
            text=comp.text,
            answer=answer,
            prompt_tokens=comp.prompt_tokens,
            output_tokens=comp.output_tokens,
        )


@dataclass(frozen=True)
class AnswerHistogram:
    """Counts of parsed answers for one question's samples."""

    counts: dict[str, int]
    total_samples: int
    unparsed_count: int
    first_seen: dict[str, int] = field(default_factory=dict)


def histogram_from_answers(answers: Sequence[Optional[str]]) -> AnswerHistogram:
    """Fold an ordered answer list (None = unparsed) into a histogram."""
    counts: dict[str, int] = {}
    first_seen: dict[str, int] = {}
    unparsed = 0
    for idx, ans in enumerate(answers):
        if ans is None:
            unparsed += 1
            continue
        counts[ans] = counts.get(ans, 0) + 1
        first_seen.setdefault(ans, idx)
    return AnswerHistogram(
        counts=counts,
        total_samples=len(answers),
        unparsed_count=unparsed,
        first_seen=first_seen,
    )


def confidence_score(h: AnswerHistogram) -> Fraction:
    """Max answer frequency over all samples; 0 when everything was unparsed.

    Unparsed completions stay in the denominator: an unparseable generation
    is evidence of low confidence, not grounds to shrink the sample count.
    """
    if h.total_samples < 1:
        raise DivideError("histogram has no samples")
    if not h.counts:
        return Fraction(0)
    return Fraction(max(h.counts.values()), h.total_samples)


def majority_answer(h: AnswerHistogram) -> str:
    """Most frequent answer; ties go to the answer seen at the earliest sample."""
    if not h.counts:
        raise DivideError("cannot vote on a histogram with no parsed answers")
    best = max(h.counts.values())
    tied = [a for a, c in h.counts.items() if c == best]
    return min(tied, key=lambda a: h.first_seen.get(a, 0))


def assign_subset(cs: Fraction, mu: Fraction, nu: Fraction) -> str:
    if cs > mu:
        return "high"
    if cs > nu:
        return "med"
    return "low"


def assign_fine_bin(cs: Fraction, mu: Fraction, nu: Fraction) -> str:
    subset = assign_subset(cs, mu, nu)
    if subset != "low":
        return subset
    return "low_top" if cs > FINE_SPLIT else "low_bottom"


@dataclass(frozen=True)
class ConfidenceReport:
    question_id: str
    histogram: AnswerHistogram
    cs: Fraction
    subset: str
    fine_bin: str

    def to_dict(self) -> dict:
        return {
            "question_id": self.question_id,
            "counts": dict(sorted(self.histogram.counts.items())),
            "first_seen": dict(sorted(self.histogram.first_seen.items())),
            "total_samples": self.histogram.total_samples,
            "unparsed_count": self.histogram.unparsed_count,
            "cs": [self.cs.numerator, self.cs.denominator],
            "subset": self.subset,
            "fine_bin": self.fine_bin,
        }

    @staticmethod
    def from_dict(d: dict) -> "ConfidenceReport":
        hist = AnswerHistogram(
            counts={k: int(v) for k, v in d["counts"].items()},
            total_samples=int(d["total_samples"]),
            unparsed_count=int(d["unparsed_count"]),
            first_seen={k: int(v) for k, v in d.get("first_seen", {}).items()},
        )
        num, den = d["cs"]
        return ConfidenceReport(
            question_id=d["question_id"],
            histogram=hist,
            cs=Fraction(num, den),
            subset=d["subset"],
            fine_bin=d["fine_bin"],
        )


def report_for(question_id: str, h: AnswerHistogram, spec: DatasetSpec) -> ConfidenceReport:
    cs = confidence_score(h)
    return ConfidenceReport(
        question_id=question_id,
        histogram=h,
        cs=cs,
        subset=assign_subset(cs, spec.mu, spec.nu),
        fine_bin=assign_fine_bin(cs, spec.mu, spec.nu),
    )


def partition(reports: Sequence[ConfidenceReport]) -> dict[str, list[str]]:
    """Group question ids by subset; the three lists partition the input."""
    out: dict[str, list[str]] = {s: [] for s in SUBSETS}
    for r in reports:
        out[r.subset].append(r.question_id)
    return out


def extract_for(q: Question, text: str) -> Optional[str]:
    """The answer a completion gives to `q`: a number for cloze, else a label."""
    if q.kind == "cloze" or not q.choices:
        ans = extract_numeric_answer(text)
    else:
        ans = extract_choice_answer(text, set(q.labels()))
    return ans.value if ans.is_parsed else None


def divide_requests(q: Question, samples: int) -> list[CompletionRequest]:
    """The ZTCOT requests divide issues for `q`; later phases look them up by key."""
    prompt = build_prompt(q, "ZTCOT")
    return [
        CompletionRequest(
            prompt=prompt,
            temperature=DIVIDE_TEMPERATURE,
            max_output_tokens=DEFAULT_MAX_OUTPUT_TOKENS,
            sample_index=j,
            question_id=q.id,
            phase="divide",
        )
        for j in range(samples)
    ]


def run_divide(
    questions: Sequence[Question],
    spec: DatasetSpec,
    backend: Backend,
    parallelism: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> tuple[list[ConfidenceReport], list[InferenceRecord]]:
    """Sample each question divide_base times and score its confidence.

    All requests run as one batch; each question's answers are folded from
    its own slice of the in-order completions, so output is independent of
    completion order.
    """
    spec.validate()
    t = spec.divide_base
    requests = [r for q in questions for r in divide_requests(q, t)]
    done = zip(requests, execute(requests, backend, parallelism))
    records: list[InferenceRecord] = []
    reports: list[ConfidenceReport] = []
    for q in questions:
        own = islice(done, t)
        recs = [InferenceRecord.from_completion(r, c, extract_for(q, c.text)) for r, c in own]
        records += recs
        reports.append(report_for(q.id, histogram_from_answers([r.answer for r in recs]), spec))
        if progress is not None:
            progress(f"{q.id}: cs={float(reports[-1].cs):.2f} subset={reports[-1].subset}")
    records.sort(key=lambda r: (r.question_id, r.sample_index))
    return reports, records


def questions_for(
    questions: Sequence[Question], reports: Sequence[ConfidenceReport]
) -> list[Question]:
    """The question behind each report, in order.

    Raises `DatasetError` for a report whose question is not in `questions`.
    """
    by_id = {q.id: q for q in questions}
    out = []
    for r in reports:
        q = by_id.get(r.question_id)
        if q is None:
            raise DatasetError(f"partition question {r.question_id!r} is not in the dataset")
        out.append(q)
    return out


def records_from_transcript(
    cache: TranscriptCache,
    questions: Sequence[Question],
    reports: Sequence[ConfidenceReport],
) -> list[InferenceRecord]:
    """The divide records behind each report: its own requests, looked up by key.

    Raises `DatasetError` for a report whose question is not in `questions`,
    and `CacheMissError` naming the key of the first request the cache lacks.
    """
    records = []
    for q, report in zip(questions_for(questions, reports), reports):
        for req in divide_requests(q, report.histogram.total_samples):
            comp = cache.get(req.key())
            if comp is None:
                raise CacheMissError(
                    f"divide transcript incomplete: no entry for key {req.key()!r}"
                )
            records.append(InferenceRecord.from_completion(req, comp, extract_for(q, comp.text)))
    records.sort(key=lambda r: (r.question_id, r.sample_index))
    return records


def save_reports(path: str | Path, reports: Sequence[ConfidenceReport]) -> None:
    lines = [json.dumps(r.to_dict(), sort_keys=True) for r in reports]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def load_reports(path: str | Path) -> list[ConfidenceReport]:
    """Read a partition file; a missing one means divide has not finished."""
    if not Path(path).is_file():
        raise DivideError(f"partition file missing; run divide first: {path}")
    reports = []
    for lineno, rec in read_jsonl(path, DivideError):
        try:
            reports.append(ConfidenceReport.from_dict(rec))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise DivideError(f"{path} line {lineno}: bad partition record: {exc!r}") from exc
    return reports
