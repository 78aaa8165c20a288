"""Divide phase: sample answers per question, score confidence, and partition.

The confidence score of a question is the maximum answer frequency across
its sampled completions. Questions are routed to high / med / low subsets
by the (mu, nu) thresholds, with a finer split of the low subset at 0.4.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, Optional, Sequence

from .backend import (
    Backend,
    CacheMissError,
    CachingBackend,
    CompletionRequest,
    TranscriptCache,
    execute,
)
from .extraction import extract_choice_answer, extract_numeric_answer
from .model import DatasetError, DatasetSpec, QtriageError, Question, decode_jsonl
from .prompts import build_prompt

DIVIDE_TEMPERATURE = 0.7
DEFAULT_MAX_OUTPUT_TOKENS = 512
FINE_SPLIT = Fraction(2, 5)  # low subset splits into top/bottom at 0.4

SUBSETS = ("high", "med", "low")
LOW_BINS = ("low_top", "low_bottom")  # the fine bins the low subset splits into
BY_QUESTION = attrgetter("question_id", "sample_index")  # the order divide records come in


class DivideError(QtriageError, ValueError):
    pass


@dataclass(frozen=True, slots=True)
class InferenceRecord:
    """One completion for one question, with its extracted answer."""

    question_id: str
    phase: str
    sample_index: int
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


@dataclass(frozen=True)
class AnswerHistogram:
    """Counts of parsed answers for one question's samples."""

    counts: dict[str, int]
    total_samples: int
    unparsed_count: int
    first_seen: dict[str, int]  # answer -> index of the first sample that gave it


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


def vote_rank(count: int, first_seen: int) -> tuple[int, int]:
    """The order every vote ranks answers by: the higher count wins, and a tie
    goes to the answer whose first sample came earliest."""
    return count, -first_seen


def majority_answer(h: AnswerHistogram) -> str:
    """The most frequent answer, ties broken as `vote_rank` breaks them."""
    if not h.counts:
        raise DivideError("cannot vote on a histogram with no parsed answers")
    return max(h.counts, key=lambda a: vote_rank(h.counts[a], h.first_seen[a]))


def vote_decided(h: AnswerHistogram, remaining: int) -> bool:
    """True when no answers of `remaining` more samples can change `majority_answer(h)`.

    A rival overtakes only if every remaining sample goes to it; an answer not
    seen yet would be first seen after every sample so far.
    """
    if not h.counts:
        return remaining == 0
    lead = majority_answer(h)
    bar = vote_rank(h.counts[lead], h.first_seen[lead])
    rivals = [(c, h.first_seen[a]) for a, c in h.counts.items() if a != lead]
    return all(vote_rank(c + remaining, first) < bar
               for c, first in (*rivals, (0, h.total_samples)))


def prefix_majorities(answers: Sequence[tuple[int, Optional[str]]], t: int) -> list[Optional[str]]:
    """`majority_answer` of the first k `(sample_index, answer)` pairs, for k = 1..t.

    One pass in sample order keeps the counts, each answer's first occurrence
    and the leader; None while nothing parsed. Past the last pair the vote
    stays the same.
    """
    counts: dict[str, int] = {}
    first_seen: dict[str, int] = {}
    leader, lead_rank = None, None
    votes: list[Optional[str]] = []
    for idx, (_, ans) in enumerate(sorted(answers, key=itemgetter(0))):
        if ans is not None:
            counts[ans] = counts.get(ans, 0) + 1
            rank = vote_rank(counts[ans], first_seen.setdefault(ans, idx))
            if leader is None or rank > lead_rank:
                leader, lead_rank = ans, rank
        votes.append(leader)
    return votes + [leader] * (t - len(votes))


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
            first_seen={k: int(v) for k, v in d["first_seen"].items()},
        )
        if hist.first_seen.keys() != hist.counts.keys():
            raise ValueError("first_seen does not name exactly the counted answers")
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
    """The ZTCOT requests divide issues for `q`; replay asks the transcript for them."""
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


def sample(
    plans: Sequence[tuple[Question, Sequence[CompletionRequest]]],
    backend: Backend,
    parallelism: int = 1,
    first: Callable[[int], int] = lambda n: n,
) -> list[list[InferenceRecord]]:
    """Each plan's records in sample order; a plan is a question as asked and its requests.

    Round 1 issues the first `first(n)` of each plan's n requests, by default
    all of them; each later round, the next request of every plan whose vote
    `vote_decided` has not settled. Each round is one `execute` batch, in plan order.
    """
    records: list[list[InferenceRecord]] = [[] for _ in plans]
    batch = [(i, r) for i, (_, reqs) in enumerate(plans) for r in reqs[: first(len(reqs))]]
    while batch:
        for (i, req), comp in zip(batch, execute([r for _, r in batch], backend, parallelism)):
            answer = extract_for(plans[i][0], comp.text)
            records[i].append(InferenceRecord(req.question_id, req.phase, req.sample_index,
                                              comp.text, answer, comp.prompt_tokens,
                                              comp.output_tokens))
        left = {i: len(plans[i][1]) - len(records[i]) for i, _ in batch}  # samples not issued
        batch = [(i, plans[i][1][-n]) for i, n in left.items() if n and not vote_decided(
            histogram_from_answers([r.answer for r in records[i]]), n)]
    return records


def run_divide(
    questions: Sequence[Question],
    spec: DatasetSpec,
    backend: Backend,
    parallelism: int = 1,
) -> tuple[list[ConfidenceReport], list[InferenceRecord]]:
    """Sample each question divide_base times and score its confidence.

    All samples are `sample`'s first round, one batch in question order, so
    output is independent of completion order.
    """
    sampled = sample([(q, divide_requests(q, spec.divide_base)) for q in questions],
                     backend, parallelism)
    reports = [report_for(q.id, histogram_from_answers([r.answer for r in recs]), spec)
               for q, recs in zip(questions, sampled)]
    return reports, sorted(chain(*sampled), key=BY_QUESTION)


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
    """The divide records behind each report: its own divide plan, replayed by
    `sample` over the cache with no backend behind it.

    Raises `DatasetError` for a report whose question is not in `questions`,
    and `CacheMissError` naming the key of the first request the cache lacks.
    """
    plans = [(q, divide_requests(q, r.histogram.total_samples))
             for q, r in zip(questions_for(questions, reports), reports)]
    try:
        sampled = sample(plans, CachingBackend(None, cache))
    except CacheMissError as exc:
        raise CacheMissError(f"divide transcript incomplete: {exc}") from None
    return sorted(chain(*sampled), key=BY_QUESTION)


def load_reports(path: str | Path, data: Optional[bytes] = None) -> list[ConfidenceReport]:
    """Read a partition file or its `data`; a missing one means divide has not finished."""
    if not Path(path).is_file():
        raise DivideError(f"partition file missing; run divide first: {path}")
    return decode_jsonl(path, ConfidenceReport.from_dict, DivideError, "partition", data)
