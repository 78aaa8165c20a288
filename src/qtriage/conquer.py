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
from typing import Optional, Sequence

from .backend import Backend
from .divide import (
    LOW_BINS,
    SUBSETS,
    AnswerHistogram,
    ConfidenceReport,
    InferenceRecord,
    Plan,
    histogram_from_answers,
    majority_answer,
    questions_for,
    sample,
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
from .prompts import STRATEGIES, build_prompt, strategy_row

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


@dataclass(frozen=True, slots=True)
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


def select_rationales(
    records: Sequence[InferenceRecord],
    strategy: str = "longest",
    seed: Optional[int] = None,
) -> list[tuple[str, str]]:
    """Pick one rationale per parsed answer of a question's divide `records`;
    this is the prior-knowledge set of `(answer, body)` pairs.

    A body is a record's text without its final answer sentence. "longest" and
    "shortest" pick by body length, ties to the earliest sample; "random" picks
    by `seed`. Answers are ordered by descending count, then by earliest
    sample, so the model's modal answer leads the prior block.
    """
    if strategy not in RATIONALE_SELECT_MODES:
        raise ConquerError(f"unknown rationale selection strategy {strategy!r}")
    bodies: dict[str, list[str]] = {}
    for rec in sorted(records, key=lambda r: r.sample_index):
        if rec.answer is not None:
            bodies.setdefault(rec.answer, []).append(_strip_sentinel(rec.text))
    if not bodies:
        raise ConquerError("no parsed divide records to select rationales from")
    rng = random.Random(seed) if strategy == "random" else None
    pick = {"longest": lambda bs: max(bs, key=len), "shortest": lambda bs: min(bs, key=len),
            "random": lambda bs: bs[rng.randrange(len(bs))]}[strategy]
    return [(a, pick(bs)) for a, bs in sorted(bodies.items(), key=lambda ab: -len(ab[1]))]


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
        return cloze_to_mcq(q, sorted(h.counts, key=lambda a: h.first_seen[a]))
    labels = q.labels()
    bad = [a for a in h.counts if a not in labels]
    if bad:
        raise ConquerError(f"question {q.id}: prior answers {bad} are not valid labels")
    return restrict_choices(q, [(lab, content) for lab, content in q.choices if lab in h.counts])


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
) -> tuple[Plan, Optional[LabelMapping], Optional[str]]:
    """Plan one question's samples; `own_records` are its divide records.

    Returns the plan, the mapping from the labels it asks with to the
    question's own, and the answer known before any call: a single surviving
    choice needs no call, so its plan has no samples and no prompt; else None.

    `prior` holds what the question's divide result gives every strategy (see
    `run_conquer`); a part it lacks is derived here and added to it.
    A question with no parsed divide answer has no choice to filter by and no
    rationale to reuse, so every strategy asks it with the ZTCOT prompt.
    """
    row = strategy_row(strategy)
    if not report.histogram.counts:
        strategy, row = "ZTCOT", STRATEGIES["ZTCOT"]
    working = q
    mapping: Optional[LabelMapping] = None
    if row.filtered:
        if q.id not in prior:
            prior[q.id] = filter_choices(q, report.histogram)
        working, mapping = prior[q.id]
        if len(working.choices) == 1:
            answer = mapping.to_original("A")
            return Plan(working, "", 0, "conquer", GREEDY_TEMPERATURE), mapping, answer

    rationales = None
    if row.rationales:
        key = (q.id, rationale_select, seed)
        if key not in prior:
            prior[key] = select_rationales(own_records, rationale_select, seed=seed)
        rationales = prior[key]
        if mapping is not None:
            rationales = [(mapping.to_new(a), body) for a, body in rationales]

    prompt = build_prompt(working, strategy, rationales=rationales, tail_override=tail_override)
    metadata: dict = {"strategy": strategy}
    if mapping is not None:
        metadata["label_map"] = mapping.forward
    n, temperature = (sc_samples, SC_TEMPERATURE) if self_consistency else (1, GREEDY_TEMPERATURE)
    return Plan(working, prompt, n, "conquer", temperature, metadata), mapping, None


def _final_answer(
    records: Sequence[InferenceRecord], mapping: Optional[LabelMapping], answer: Optional[str]
) -> Optional[str]:
    """The vote over one question's issued samples, in its own labels; `answer`
    when none parsed."""
    hist = histogram_from_answers([r.answer for r in records])
    if not hist.counts:
        return answer
    emitted = majority_answer(hist)
    return mapping.to_original(emitted) if mapping else emitted


def _conquer_plans(
    items: Sequence[tuple[Plan, Optional[LabelMapping], Optional[str]]],
    strategy: str,
    self_consistency: bool,
    backend: Backend,
    parallelism: int = 1,
) -> list[ConquerOutcome]:
    """Sample each `_plan_item` plan until its vote is decided, round 1 asking
    ceil(n/2) of its n samples since that many equal answers already win; then vote."""
    sampled = sample([plan for plan, _, _ in items], backend, parallelism,
                     first=lambda n: (n + 1) // 2)
    return [ConquerOutcome(plan.asked.id, strategy, self_consistency,
                           _final_answer(records, mapping, answer), tuple(records), mapping)
            for (plan, mapping, answer), records in zip(items, sampled)]


def conquer_item(
    q: Question,
    report: ConfidenceReport,
    strategy: str,
    backend: Backend,
    divide_records: Sequence[InferenceRecord] = (),
    self_consistency: bool = False,
    **options,
) -> ConquerOutcome:
    """Run one conquer strategy on one question and map the answer back.

    `options` are those of `run_conquer` past `self_consistency`: sc_samples,
    rationale_select, seed, tail_override.
    """
    own = [r for r in divide_records if r.question_id == q.id]
    item = _plan_item(q, report, strategy, own, {}, self_consistency, **options)
    return _conquer_plans([item], strategy, self_consistency, backend)[0]


def run_conquer(
    questions: Sequence[Question],
    reports: Sequence[ConfidenceReport],
    strategy: str,
    backend: Backend,
    divide_records: Sequence[InferenceRecord] = (),
    subsets: Sequence[str] = ("med", "low"),
    parallelism: int = 1,
    prior: Optional[dict] = None,
    self_consistency: bool = False,
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
    items = [
        _plan_item(q, r, strategy, records_by_id.get(r.question_id, ()), prior,
                   self_consistency, **options)
        for q, r in zip(questions_for(questions, selected), selected)
    ]
    outcomes = _conquer_plans(items, strategy, self_consistency, backend, parallelism)
    outcomes.sort(key=lambda o: o.question_id)
    return outcomes


def read_outcomes(path: str | Path) -> list[ConquerOutcome]:
    """Decode an outcomes file; its records carry no completion text."""
    return decode_jsonl(path, ConquerOutcome.from_dict, ConquerError, "outcome")


def load_outcomes(path: str | Path) -> list[dict]:
    """Read an outcomes file as the dicts its lines hold."""
    return [o.to_dict() for o in read_outcomes(path)]
