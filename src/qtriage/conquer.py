"""Conquer phase: re-solve med/low confidence questions.

Strategies: plain re-query (ZTCOT), rationale reuse (PKR), choice filtering
(FCR), and their combinations (COM1/COM2), each optionally wrapped in
self-consistency voting, which stops sampling once the vote is decided. A
cloze question is conquered as an MCQ whose choices are its divide-phase
answers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from .backend import Backend, CompletionRequest, execute
from .divide import (
    DEFAULT_MAX_OUTPUT_TOKENS,
    LOW_BINS,
    SUBSETS,
    AnswerHistogram,
    ConfidenceReport,
    InferenceRecord,
    extract_for,
    histogram_from_answers,
    majority_answer,
    questions_for,
    vote_decided,
)
from .extraction import extract_choice_answer  # unused here; bench/tracing.py wraps this name
from .model import (
    LabelMapping,
    QtriageError,
    Question,
    cloze_to_mcq,
    decode_jsonl,
    restrict_choices,
)
from .prompts import build_prompt, strategy_needs_filtered, strategy_needs_rationales

SC_TEMPERATURE = 0.7
GREEDY_TEMPERATURE = 0.0

RATIONALE_SELECT_MODES = ("longest", "random", "shortest")


class ConquerError(QtriageError, ValueError):
    pass


def check_subsets(subsets: Sequence[str]) -> None:
    """Raise `ConquerError` unless `subsets` is a non-empty list of conquerable names."""
    allowed = ", ".join(s for s in SUBSETS + LOW_BINS if s != "high")
    if not subsets:
        raise ConquerError(f"no subset given to conquer; choose from {allowed}")
    for name in subsets:
        if name == "high":
            raise ConquerError("subset 'high' is fixed, not conquered")
        if name not in SUBSETS + LOW_BINS:
            raise ConquerError(f"unknown subset {name!r}; choose from {allowed}")


@dataclass(frozen=True)
class RationaleCluster:
    """All divide-phase rationales that led to one particular answer."""

    answer: str
    rationales: tuple[tuple[str, int, int], ...]  # (text, length, sample_index)


@dataclass(frozen=True)
class ConquerOutcome:
    question_id: str
    strategy: str
    self_consistency: bool
    final_answer: Optional[str]  # in the ORIGINAL label space; None = unparsed
    records: tuple[InferenceRecord, ...]
    mapping: Optional[LabelMapping] = None

    def to_dict(self) -> dict:
        return {
            "question_id": self.question_id,
            "strategy": self.strategy,
            "self_consistency": self.self_consistency,
            "final_answer": self.final_answer,
            "mapping": [list(pair) for pair in self.mapping.forward] if self.mapping else None,
            "records": [r.to_dict() for r in self.records],
        }

    @staticmethod
    def from_dict(d: dict) -> "ConquerOutcome":
        """The outcome `to_dict` wrote; its records carry no completion text."""
        qid, pairs = d["question_id"], d["mapping"]
        return ConquerOutcome(
            qid, d["strategy"], d["self_consistency"], d["final_answer"],
            records=tuple(InferenceRecord(**r, text="") for r in d["records"]),
            mapping=None if pairs is None else LabelMapping(tuple(map(tuple, pairs)), qid),
        )


def _strip_sentinel(text: str) -> str:
    """Rationale body without the final answer sentence; length basis for PKR."""
    lines = text.splitlines()
    while lines and ("answer is" in lines[-1].lower() or not lines[-1].strip()):
        lines.pop()
    return "\n".join(lines)


def clusters_from_records(records: Sequence[InferenceRecord]) -> list[RationaleCluster]:
    """Group parsed divide records by answer, preserving sample order."""
    grouped: dict[str, list[tuple[str, int, int]]] = {}
    for rec in sorted(records, key=lambda r: r.sample_index):
        if rec.answer is None:
            continue
        body = _strip_sentinel(rec.text)
        grouped.setdefault(rec.answer, []).append((body, len(body), rec.sample_index))
    return [RationaleCluster(answer=a, rationales=tuple(rs)) for a, rs in grouped.items()]


def select_rationales(
    clusters: Sequence[RationaleCluster],
    strategy: str = "longest",
    seed: Optional[int] = None,
) -> list[tuple[str, str]]:
    """Pick one rationale per cluster; this is the prior-knowledge set.

    Output is ordered by descending cluster size, then by earliest first
    occurrence, so the model's modal answer leads the prior block.
    """
    if not clusters:
        raise ConquerError("no rationale clusters to select from")
    if strategy not in RATIONALE_SELECT_MODES:
        raise ConquerError(f"unknown rationale selection strategy {strategy!r}")
    for c in clusters:
        if not c.rationales:
            raise ConquerError(f"cluster for answer {c.answer!r} is empty")

    rng = random.Random(seed) if strategy == "random" else None
    ordered = sorted(
        clusters, key=lambda c: (-len(c.rationales), min(r[2] for r in c.rationales))
    )
    picked: list[tuple[str, str]] = []
    for c in ordered:
        if strategy == "longest":
            best = max(c.rationales, key=lambda r: (r[1], -r[2]))
        elif strategy == "shortest":
            best = min(c.rationales, key=lambda r: (r[1], r[2]))
        else:
            best = c.rationales[rng.randrange(len(c.rationales))]
        picked.append((c.answer, best[0]))
    return picked


def filter_choices(q: Question, h: AnswerHistogram) -> tuple[Question, LabelMapping]:
    """Reduce the choice list to the distinct previously-answered options.

    Surviving contents keep their original label order and are relabeled
    from 'A'; the mapping records new label -> original label. A cloze
    question becomes an MCQ over its prior answers in first-seen order, and
    its mapping records new label -> answer value.
    """
    if not h.counts:
        raise ConquerError(
            f"question {q.id}: no parsed prior answers; fall back to ZTCOT"
        )
    if q.kind == "cloze":
        return cloze_to_mcq(q, sorted(h.counts, key=lambda a: h.first_seen.get(a, 0)))
    labels = q.labels()
    bad = [a for a in h.counts if a not in labels]
    if bad:
        raise ConquerError(f"question {q.id}: prior answers {bad} are not valid labels")
    return restrict_choices(q, [(lab, content) for lab, content in q.choices if lab in h.counts])


def _map_rationale_labels(
    rationales: list[tuple[str, str]], mapping: Optional[LabelMapping]
) -> list[tuple[str, str]]:
    if mapping is None:
        return rationales
    inverse = {orig: new for new, orig in mapping.forward}
    return [(inverse.get(ans, ans), text) for ans, text in rationales]


class _Plan(NamedTuple):
    """One question's conquer work, split so many questions can share one batch."""

    question_id: str
    strategy: str  # as asked for; an unparsed question is asked with the ZTCOT prompt
    self_consistency: bool
    mapping: Optional[LabelMapping]
    answer: Optional[str]  # before any call: the one surviving choice, else None
    asked: Question  # the question as the prompt poses it
    requests: tuple[CompletionRequest, ...]


def _plan_item(
    q: Question,
    report: ConfidenceReport,
    strategy: str,
    own_records: Sequence[InferenceRecord],
    prior: dict,
    self_consistency: bool = False,
    sc_samples: int = 5,
    rationale_select: str = "longest",
    seed: Optional[int] = None,
    tail_override: Optional[str] = None,
) -> _Plan:
    """Plan one question's requests; `own_records` are its divide records.

    `prior` holds what the question's divide result gives every strategy (see
    `run_conquer`); a part it lacks is derived here and added to it.
    A question with no parsed divide answer has no choice to filter by and no
    rationale to reuse, so every strategy asks it with the ZTCOT prompt.
    """
    asked_for = strategy
    if not report.histogram.counts:
        strategy = "ZTCOT"
    working = q
    mapping: Optional[LabelMapping] = None
    if strategy_needs_filtered(strategy):
        if q.id not in prior:
            prior[q.id] = filter_choices(q, report.histogram)
        working, mapping = prior[q.id]
        if len(working.choices) == 1:
            # A single surviving option needs no model call.
            return _Plan(q.id, asked_for, self_consistency, mapping,
                         mapping.to_original("A"), working, ())

    rationales = None
    if strategy_needs_rationales(strategy):
        key = (q.id, rationale_select, seed)
        if key not in prior:
            clusters = clusters_from_records(own_records)
            prior[key] = select_rationales(clusters, rationale_select, seed=seed)
        rationales = _map_rationale_labels(prior[key], mapping)

    prompt = build_prompt(working, strategy, rationales=rationales, tail_override=tail_override)
    metadata: dict = {"strategy": strategy}
    if mapping is not None:
        metadata["label_map"] = [list(pair) for pair in mapping.forward]

    n_samples = sc_samples if self_consistency else 1
    temperature = SC_TEMPERATURE if self_consistency else GREEDY_TEMPERATURE
    requests = tuple(
        CompletionRequest(
            prompt=prompt,
            temperature=temperature,
            max_output_tokens=DEFAULT_MAX_OUTPUT_TOKENS,
            sample_index=j,
            question_id=q.id,
            phase="conquer",
            metadata=metadata,
        )
        for j in range(n_samples)
    )
    return _Plan(q.id, asked_for, self_consistency, mapping, None, working, requests)


def _fold_item(plan: _Plan, records: Sequence[InferenceRecord]) -> ConquerOutcome:
    """Vote over the records of one question's issued samples and map the answer back."""
    hist = histogram_from_answers([r.answer for r in records])
    final = plan.answer
    if hist.counts:
        emitted = majority_answer(hist)
        final = plan.mapping.to_original(emitted) if plan.mapping else emitted
    return ConquerOutcome(plan.question_id, plan.strategy, plan.self_consistency, final,
                          tuple(records), plan.mapping)


def _conquer_plans(
    plans: Sequence[_Plan], backend: Backend, parallelism: int = 1
) -> list[ConquerOutcome]:
    """Issue each plan's samples in rounds until its vote is decided, then fold.

    Round 1 issues the first ceil(n/2) of a plan's n samples, since that many
    equal answers already win; each later round issues the next sample of
    every plan whose vote is not yet decided. Each round is one `execute`
    batch, and the issued samples are a prefix of the plan's requests.
    """
    records: list[list[InferenceRecord]] = [[] for _ in plans]
    batch = [(i, r) for i, p in enumerate(plans) for r in p.requests[: (len(p.requests) + 1) // 2]]
    while batch:
        for (i, req), comp in zip(batch, execute([r for _, r in batch], backend, parallelism)):
            answer = extract_for(plans[i].asked, comp.text)
            records[i].append(InferenceRecord.from_completion(req, comp, answer))
        batch = [
            (i, plans[i].requests[len(records[i])])
            for i in dict.fromkeys(i for i, _ in batch)
            if not vote_decided(
                histogram_from_answers([r.answer for r in records[i]]),
                len(plans[i].requests) - len(records[i]),
            )
        ]
    return [_fold_item(p, recs) for p, recs in zip(plans, records)]


def conquer_item(
    q: Question,
    report: ConfidenceReport,
    strategy: str,
    backend: Backend,
    divide_records: Sequence[InferenceRecord] = (),
    **options,
) -> ConquerOutcome:
    """Run one conquer strategy on one question and map the answer back.

    `options` are those of `run_conquer` past `parallelism`: self_consistency,
    sc_samples, rationale_select, seed, tail_override.
    """
    own = [r for r in divide_records if r.question_id == q.id]
    return _conquer_plans([_plan_item(q, report, strategy, own, {}, **options)], backend)[0]


def run_conquer(
    questions: Sequence[Question],
    reports: Sequence[ConfidenceReport],
    strategy: str,
    backend: Backend,
    divide_records: Sequence[InferenceRecord] = (),
    subsets: Sequence[str] = ("med", "low"),
    parallelism: int = 1,
    prior: Optional[dict] = None,
    **options,
) -> list[ConquerOutcome]:
    """Conquer every question routed to one of the selected subsets.

    The high subset is never touched: its divide-phase majority stands.
    Each round's requests, over every selected question, run as one batch
    with at most `parallelism` in flight; an SC question stops sampling once
    its vote is decided.

    `prior` is each question's prior, which every strategy shares: by question
    id its `filter_choices` result, and by (question id, rationale_select,
    seed) its selected rationales in the original label space. Each part is
    derived at first use and added to it, so a caller that passes one dict for
    unchanged questions, reports and divide records derives each part once.
    """
    check_subsets(subsets)
    records_by_id: dict[str, list[InferenceRecord]] = {}
    for rec in divide_records:
        records_by_id.setdefault(rec.question_id, []).append(rec)
    selected = [r for r in reports if r.subset in subsets or r.fine_bin in subsets]
    prior = {} if prior is None else prior
    plans = [
        _plan_item(q, r, strategy, records_by_id.get(r.question_id, ()), prior, **options)
        for q, r in zip(questions_for(questions, selected), selected)
    ]
    outcomes = _conquer_plans(plans, backend, parallelism)
    outcomes.sort(key=lambda o: o.question_id)
    return outcomes


def read_outcomes(path: str | Path) -> list[ConquerOutcome]:
    """Decode an outcomes file; its records carry no completion text."""
    return decode_jsonl(path, ConquerOutcome.from_dict, ConquerError, "outcome")


def load_outcomes(path: str | Path) -> list[dict]:
    """Read an outcomes file as the dicts its lines hold."""
    return [o.to_dict() for o in read_outcomes(path)]
