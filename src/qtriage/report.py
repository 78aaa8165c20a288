"""Scoring, aggregation, cost accounting, and report file emission."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .conquer import ConquerOutcome
from .divide import (
    LOW_BINS,
    SUBSETS,
    ConfidenceReport,
    InferenceRecord,
    majority_answer,
    prefix_majorities,
)
from .model import QtriageError, Question, write_atomic


class ReportError(QtriageError, ValueError):
    pass


@dataclass(frozen=True)
class SubsetMetrics:
    subset: str
    n: int
    accuracy: Optional[Fraction]  # absent when n == 0
    unparsed_rate: Fraction
    queries: int
    prompt_tokens: int
    output_tokens: int


def em_accuracy(
    predictions: Sequence[tuple[str, Optional[str]]],
    golds: dict[str, str],
) -> Fraction:
    """Exact-match accuracy; unparsed predictions count as incorrect."""
    if not predictions:
        raise ReportError("cannot score an empty prediction set")
    missing = [qid for qid, _ in predictions if qid not in golds or golds[qid] is None]
    if missing:
        raise ReportError(f"missing gold labels for: {sorted(missing)}")
    correct = sum(1 for qid, pred in predictions if pred is not None and pred == golds[qid])
    return Fraction(correct, len(predictions))


def weighted_average(rows: Sequence[tuple[int, float]]) -> float:
    """Average of values weighted by their item counts."""
    total = sum(n for n, _ in rows)
    if any(n < 0 for n, _ in rows):
        raise ReportError("negative count in weighted average")
    if total == 0:
        raise ReportError("weighted average over zero items")
    return sum(n * v for n, v in rows) / total


def cost_summary(
    records: Sequence[InferenceRecord],
    reports: Sequence[ConfidenceReport] = (),
) -> dict:
    """Exact query/token counts per phase, plus queries avoided by fixing high.

    Each high question avoids its divide samples, the SC budget conquer would
    give it: an upper bound, since an SC vote may stop early.
    """
    queries: dict[str, int] = {}
    tokens: dict[str, dict[str, int]] = {}
    for rec in records:
        queries[rec.phase] = queries.get(rec.phase, 0) + 1
        tk = tokens.setdefault(rec.phase, {"prompt": 0, "output": 0})
        tk["prompt"] += rec.prompt_tokens
        tk["output"] += rec.output_tokens
    high = (r.histogram.total_samples for r in reports if r.subset == "high")
    return {"queries_by_phase": queries, "tokens_by_phase": tokens,
            "queries_saved_by_fixing_high": sum(high)}


def prior_predictions(
    reports: Sequence[ConfidenceReport],
) -> list[tuple[str, Optional[str]]]:
    """Divide-phase majority answer per question (None when all unparsed)."""
    out = []
    for r in reports:
        pred = majority_answer(r.histogram) if r.histogram.counts else None
        out.append((r.question_id, pred))
    return out


def _subset_metrics(subset: str, rows: Sequence[tuple], golds: dict) -> SubsetMetrics:
    """One subset's metrics from per-question rows.

    A row is `(question_id, prediction, unparsed, samples, queries,
    prompt_tokens, output_tokens)`. Accuracy is over the questions with a gold
    (None when none has one); the unparsed rate is unparsed over samples.
    """
    scorable = [(qid, pred) for qid, pred, *_ in rows if golds.get(qid) is not None]
    unparsed, samples, queries, ptok, otok = (sum(row[i] for row in rows) for i in range(2, 7))
    return SubsetMetrics(
        subset=subset,
        n=len(rows),
        accuracy=em_accuracy(scorable, golds) if scorable else None,
        unparsed_rate=Fraction(unparsed, samples) if samples else Fraction(0),
        queries=queries,
        prompt_tokens=ptok,
        output_tokens=otok,
    )


def _prior_metrics(
    reports: Sequence[ConfidenceReport],
    golds: dict,
    records: Sequence[InferenceRecord] = (),
) -> dict[str, SubsetMetrics]:
    """Divide-stage metrics per subset and per low fine bin; `records` are divide records."""
    cost: dict[str, tuple[int, int, int]] = {}
    for rec in records:
        n, p, o = cost.get(rec.question_id, (0, 0, 0))
        cost[rec.question_id] = (n + 1, p + rec.prompt_tokens, o + rec.output_tokens)

    groups: dict[str, list[tuple]] = {name: [] for name in (*SUBSETS, *LOW_BINS)}
    for r, (qid, pred) in zip(reports, prior_predictions(reports)):
        h = r.histogram
        row = (qid, pred, h.unparsed_count, h.total_samples, *cost.get(qid, (0, 0, 0)))
        if r.subset in SUBSETS:
            groups[r.subset].append(row)
        if r.fine_bin in LOW_BINS:
            groups[r.fine_bin].append(row)
    return {name: _subset_metrics(name, rows, golds) for name, rows in groups.items()}


def subset_prior_metrics(
    questions: Sequence[Question],
    reports: Sequence[ConfidenceReport],
    records: Sequence[InferenceRecord] = (),
) -> dict[str, SubsetMetrics]:
    """Prior (divide-stage) metrics per subset and per fine bin."""
    return _prior_metrics(reports, {q.id: q.gold for q in questions}, records)


def strategy_metrics(
    questions: Sequence[Question],
    reports: Sequence[ConfidenceReport],
    outcomes: Sequence[ConquerOutcome],
) -> dict[str, SubsetMetrics]:
    """Per-subset metrics for one conquer outcome set."""
    golds = {q.id: q.gold for q in questions}
    subset_of = {r.question_id: r.subset for r in reports}
    grouped: dict[str, list[tuple]] = {}
    for o in outcomes:
        records = o.records
        grouped.setdefault(subset_of.get(o.question_id, "unknown"), []).append((
            o.question_id, o.final_answer, o.final_answer is None, 1, len(records),
            sum(r.prompt_tokens for r in records), sum(r.output_tokens for r in records),
        ))
    return {name: _subset_metrics(name, rows, golds) for name, rows in sorted(grouped.items())}


def accuracy_curves(
    questions: Sequence[Question],
    reports: Sequence[ConfidenceReport],
    records: Sequence[InferenceRecord],
) -> list[tuple[str, int, Optional[float]]]:
    """Accuracy of the first-k-sample majority vote of divide `records`, per subset and k."""
    golds = {q.id: q.gold for q in questions}
    answers_by_q: dict[str, list[tuple[int, Optional[str]]]] = {}
    for rec in records:
        answers_by_q.setdefault(rec.question_id, []).append((rec.sample_index, rec.answer))

    t = max((len(v) for v in answers_by_q.values()), default=0)
    rows: list[tuple[str, int, Optional[float]]] = []
    for subset in SUBSETS:
        correct, n = [0] * t, 0
        for r in reports:
            gold = golds.get(r.question_id)
            if r.subset != subset or gold is None:
                continue
            n += 1
            for k, vote in enumerate(prefix_majorities(answers_by_q.get(r.question_id, ()), t)):
                correct[k] += vote == gold
        rows += [
            (subset, k, float(Fraction(c, n)) if n else None) for k, c in enumerate(correct, 1)
        ]
    return rows


def _fmt_pct(value: Optional[Fraction]) -> str:
    if value is None:
        return ""
    return f"{float(value) * 100:.2f}"


def _metrics_to_dict(m: SubsetMetrics) -> dict:
    return {
        "n": m.n,
        "accuracy": float(m.accuracy) if m.accuracy is not None else None,
        "unparsed_rate": float(m.unparsed_rate),
        "queries": m.queries,
        "prompt_tokens": m.prompt_tokens,
        "output_tokens": m.output_tokens,
    }


def emit_report(
    out_dir: str | Path,
    dataset_name: str,
    prior: dict[str, SubsetMetrics],
    strategies: dict[str, dict[str, SubsetMetrics]],
    cost: dict,
    curves: Sequence[tuple[str, int, Optional[float]]],
    run_id: str = "",
    partial: bool = False,
) -> dict[str, Path]:
    """Write report.json, summary.csv, and curves.csv; byte-stable given
    identical inputs."""
    out_dir = Path(out_dir)

    tree = {
        "run_id": run_id,
        "dataset": dataset_name,
        "partial": partial,
        "prior": {k: _metrics_to_dict(v) for k, v in sorted(prior.items())},
        "strategies": {
            name: {k: _metrics_to_dict(v) for k, v in sorted(ms.items())}
            for name, ms in sorted(strategies.items())
        },
        "cost": cost,
    }
    report_path = out_dir / "report.json"
    write_atomic(report_path, json.dumps(tree, indent=2, sort_keys=True) + "\n")

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["dataset", "subset", "strategy", "sc", "n", "accuracy_pct",
         "unparsed_rate", "queries", "prompt_tokens", "output_tokens"]
    )
    rows = [(subset, "prior", "", prior[subset]) for subset in (*SUBSETS, *LOW_BINS)
            if subset in prior]
    for name in sorted(strategies):
        strat, _, sc = name.partition("+")
        rows += [(subset, strat, sc, m) for subset, m in sorted(strategies[name].items())]
    for subset, strat, sc, m in rows:
        writer.writerow(
            [dataset_name, subset, strat, sc, m.n, _fmt_pct(m.accuracy),
             f"{float(m.unparsed_rate):.4f}", m.queries, m.prompt_tokens, m.output_tokens]
        )
    summary_path = out_dir / "summary.csv"
    write_atomic(summary_path, buf.getvalue())

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["dataset", "subset", "sc_count", "accuracy"])
    for subset, k, acc in curves:
        writer.writerow([dataset_name, subset, k, "" if acc is None else f"{acc:.6f}"])
    curves_path = out_dir / "curves.csv"
    write_atomic(curves_path, buf.getvalue())

    return {"report": report_path, "summary": summary_path, "curves": curves_path}
