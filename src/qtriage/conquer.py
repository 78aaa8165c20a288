"""Conquer phase: re-solve med/low confidence questions.

Strategies: plain re-query (ZTCOT), rationale reuse (PKR), choice filtering
(FCR), and their combinations (COM1/COM2), each optionally wrapped in
self-consistency voting. A cloze question is conquered as an MCQ whose
choices are its divide-phase answers.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence

from .backend import Backend, Completion, CompletionRequest, execute
from .divide import (
    DEFAULT_MAX_OUTPUT_TOKENS,
    AnswerHistogram,
    ConfidenceReport,
    InferenceRecord,
    extract_for,
    histogram_from_answers,
    majority_answer,
    questions_for,
)
from .extraction import extract_choice_answer  # unused here; bench/tracing.py wraps this name
from .model import (
    LabelMapping,
    QtriageError,
    Question,
    cloze_to_mcq,
    read_jsonl,
    relabel_choices,
)
from .prompts import build_prompt, strategy_needs_filtered, strategy_needs_rationales

SC_TEMPERATURE = 0.7
GREEDY_TEMPERATURE = 0.0

RATIONALE_SELECT_MODES = ("longest", "random", "shortest")


class ConquerError(QtriageError, ValueError):
    pass


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
            "mapping": list(self.mapping.forward) if self.mapping else None,
            "records": [r.to_dict() for r in self.records],
        }


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

    rng = random.Random(seed)
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
    survivors = [lab for lab in labels if lab in h.counts]
    contents = [q.content_of(lab) for lab in survivors]
    new_choices = relabel_choices(contents)
    mapping = LabelMapping(
        forward=tuple((new, orig) for (new, _), orig in zip(new_choices, survivors)),
        origin=q.id,
    )
    new_gold = None
    if q.gold is not None and q.gold in survivors:
        new_gold = new_choices[survivors.index(q.gold)][0]
    filtered = replace(q, choices=tuple(new_choices), gold=new_gold)
    return filtered, mapping


def _map_rationale_labels(
    rationales: list[tuple[str, str]], mapping: Optional[LabelMapping]
) -> list[tuple[str, str]]:
    if mapping is None:
        return rationales
    inverse = {orig: new for new, orig in mapping.forward}
    return [(inverse.get(ans, ans), text) for ans, text in rationales]


class _Plan(NamedTuple):
    """One question's conquer work, split so many questions can share one batch."""

    outcome: ConquerOutcome  # as it stands before any call
    asked: Question  # the question as the prompt poses it
    requests: tuple[CompletionRequest, ...]


def _plan_item(
    q: Question,
    report: ConfidenceReport,
    strategy: str,
    own_records: Sequence[InferenceRecord],
    self_consistency: bool = False,
    sc_samples: int = 5,
    rationale_select: str = "longest",
    seed: Optional[int] = None,
    tail_override: Optional[str] = None,
) -> _Plan:
    """Plan one question's requests; `own_records` are its divide records."""
    base = ConquerOutcome(q.id, strategy, self_consistency, final_answer=None, records=())
    working = q
    mapping: Optional[LabelMapping] = None
    if strategy_needs_filtered(strategy):
        working, mapping = filter_choices(q, report.histogram)
        base = replace(base, mapping=mapping)
        if len(working.choices) == 1:
            # A single surviving option needs no model call.
            return _Plan(replace(base, final_answer=mapping.to_original("A")), working, ())

    rationales = None
    if strategy_needs_rationales(strategy):
        clusters = clusters_from_records(own_records)
        rationales = _map_rationale_labels(
            select_rationales(clusters, rationale_select, seed=seed), mapping
        )

    prompt = build_prompt(working, strategy, rationales=rationales, tail_override=tail_override)
    metadata: dict = {}
    if mapping is not None:
        metadata["label_map"] = [list(pair) for pair in mapping.forward]
    if strategy_needs_rationales(strategy):
        metadata["uplift_gold"] = True

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
    return _Plan(base, working, requests)


def _fold_item(plan: _Plan, completions: Iterable[Completion]) -> ConquerOutcome:
    """Vote over one question's completions and map the answer back."""
    records = []
    for req, comp in zip(plan.requests, completions):
        answer = extract_for(plan.asked, comp.text)
        records.append(InferenceRecord.from_completion(req, comp, answer))

    hist = histogram_from_answers([r.answer for r in records])
    if not hist.counts:
        return replace(plan.outcome, records=tuple(records))
    emitted = majority_answer(hist)
    mapping = plan.outcome.mapping
    final = mapping.to_original(emitted) if mapping else emitted
    return replace(plan.outcome, final_answer=final, records=tuple(records))


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
    plan = _plan_item(q, report, strategy, own, **options)
    return _fold_item(plan, execute(plan.requests, backend))


def run_conquer(
    questions: Sequence[Question],
    reports: Sequence[ConfidenceReport],
    strategy: str,
    backend: Backend,
    divide_records: Sequence[InferenceRecord] = (),
    subsets: Sequence[str] = ("med", "low"),
    parallelism: int = 1,
    **options,
) -> list[ConquerOutcome]:
    """Conquer every question routed to one of the selected subsets.

    The high subset is never touched: its divide-phase majority stands.
    Every selected question's requests, SC samples included, run as one
    batch with at most `parallelism` in flight.
    """
    if "high" in subsets:
        raise ConquerError("the high confidence subset is fixed, not conquered")
    records_by_id: dict[str, list[InferenceRecord]] = {}
    for rec in divide_records:
        records_by_id.setdefault(rec.question_id, []).append(rec)
    selected = [r for r in reports if r.subset in subsets or r.fine_bin in subsets]
    plans = [
        _plan_item(q, r, strategy, records_by_id.get(r.question_id, ()), **options)
        for q, r in zip(questions_for(questions, selected), selected)
    ]
    completions = iter(execute([r for p in plans for r in p.requests], backend, parallelism))
    outcomes = [_fold_item(p, islice(completions, len(p.requests))) for p in plans]
    outcomes.sort(key=lambda o: o.question_id)
    return outcomes


def save_outcomes(path: str | Path, outcomes: Sequence[ConquerOutcome]) -> None:
    lines = [json.dumps(o.to_dict(), sort_keys=True) for o in outcomes]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def load_outcomes(path: str | Path) -> list[dict]:
    """Read an outcomes file as the dicts `save_outcomes` wrote."""
    out = []
    for lineno, rec in read_jsonl(path, ConquerError):
        missing = [k for k in ("question_id", "final_answer", "records") if k not in rec]
        if missing:
            raise ConquerError(f"{path} line {lineno}: missing {', '.join(missing)}")
        out.append(rec)
    return out
