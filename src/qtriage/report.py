"""Scoring, aggregation, cost accounting, and report file emission."""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .divide import (
    SUBSETS,
    ConfidenceReport,
    InferenceRecord,
    histogram_from_answers,
    majority_answer,
)
from .model import QtriageError, Question


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
    sc_budget: int = 0,
) -> dict:
    """Exact query/token counts per phase, plus queries avoided by fixing high."""
    queries: dict[str, int] = {}
    tokens: dict[str, dict[str, int]] = {}
    for rec in records:
        queries[rec.phase] = queries.get(rec.phase, 0) + 1
        tk = tokens.setdefault(rec.phase, {"prompt": 0, "output": 0})
        tk["prompt"] += rec.prompt_tokens
        tk["output"] += rec.output_tokens
    high = sum(1 for r in reports if r.subset == "high")
    return {
        "queries_by_phase": queries,
        "tokens_by_phase": tokens,
        "queries_saved_by_fixing_high": high * sc_budget,
    }


def prior_predictions(
    reports: Sequence[ConfidenceReport],
) -> list[tuple[str, Optional[str]]]:
    """Divide-phase majority answer per question (None when all unparsed)."""
    out = []
    for r in reports:
        pred = majority_answer(r.histogram) if r.histogram.counts else None
        out.append((r.question_id, pred))
    return out


def subset_prior_metrics(
    questions: Sequence[Question],
    reports: Sequence[ConfidenceReport],
    records: Sequence[InferenceRecord] = (),
) -> dict[str, SubsetMetrics]:
    """Prior (divide-stage) metrics per subset and per fine bin."""
    golds = {q.id: q.gold for q in questions}
    rec_tokens: dict[str, tuple[int, int, int]] = {}
    for rec in records:
        if rec.phase != "divide":
            continue
        p, o, n = rec_tokens.get(rec.question_id, (0, 0, 0))
        rec_tokens[rec.question_id] = (p + rec.prompt_tokens, o + rec.output_tokens, n + 1)

    out: dict[str, SubsetMetrics] = {}
    bins = [("subset", s) for s in SUBSETS]
    bins += [("fine_bin", b) for b in ("low_top", "low_bottom")]
    for attr, name in bins:
        group = [r for r in reports if getattr(r, attr) == name]
        n = len(group)
        preds = prior_predictions(group)
        scorable = [(qid, p) for qid, p in preds if golds.get(qid) is not None]
        accuracy = em_accuracy(scorable, golds) if scorable else None
        unparsed_total = sum(r.histogram.unparsed_count for r in group)
        sample_total = sum(r.histogram.total_samples for r in group)
        queries = sum(rec_tokens.get(r.question_id, (0, 0, 0))[2] for r in group)
        ptok = sum(rec_tokens.get(r.question_id, (0, 0, 0))[0] for r in group)
        otok = sum(rec_tokens.get(r.question_id, (0, 0, 0))[1] for r in group)
        out[name] = SubsetMetrics(
            subset=name,
            n=n,
            accuracy=accuracy,
            unparsed_rate=Fraction(unparsed_total, sample_total) if sample_total else Fraction(0),
            queries=queries,
            prompt_tokens=ptok,
            output_tokens=otok,
        )
    return out


def strategy_metrics(
    questions: Sequence[Question],
    reports: Sequence[ConfidenceReport],
    outcomes: Sequence[dict],
) -> dict[str, SubsetMetrics]:
    """Per-subset metrics for one conquer outcomes file."""
    golds = {q.id: q.gold for q in questions}
    subset_of = {r.question_id: r.subset for r in reports}
    grouped: dict[str, list[dict]] = {}
    for o in outcomes:
        grouped.setdefault(subset_of.get(o["question_id"], "unknown"), []).append(o)

    out: dict[str, SubsetMetrics] = {}
    for subset, items in sorted(grouped.items()):
        preds = [(o["question_id"], o["final_answer"]) for o in items]
        scorable = [(qid, p) for qid, p in preds if golds.get(qid) is not None]
        accuracy = em_accuracy(scorable, golds) if scorable else None
        unparsed = sum(1 for _, p in preds if p is None)
        queries = sum(len(o["records"]) for o in items)
        ptok = sum(r["prompt_tokens"] for o in items for r in o["records"])
        otok = sum(r["output_tokens"] for o in items for r in o["records"])
        out[subset] = SubsetMetrics(
            subset=subset,
            n=len(items),
            accuracy=accuracy,
            unparsed_rate=Fraction(unparsed, len(items)) if items else Fraction(0),
            queries=queries,
            prompt_tokens=ptok,
            output_tokens=otok,
        )
    return out


def accuracy_curves(
    questions: Sequence[Question],
    reports: Sequence[ConfidenceReport],
    records: Sequence[InferenceRecord],
) -> list[tuple[str, int, Optional[float]]]:
    """Accuracy of the first-k-sample majority vote, per subset and k."""
    golds = {q.id: q.gold for q in questions}
    answers_by_q: dict[str, list[Optional[str]]] = {}
    for rec in sorted(records, key=lambda r: (r.question_id, r.sample_index)):
        if rec.phase == "divide":
            answers_by_q.setdefault(rec.question_id, []).append(rec.answer)

    t = max((len(v) for v in answers_by_q.values()), default=0)
    rows: list[tuple[str, int, Optional[float]]] = []
    for subset in SUBSETS:
        qids = [r.question_id for r in reports if r.subset == subset]
        for k in range(1, t + 1):
            preds = []
            for qid in qids:
                if golds.get(qid) is None:
                    continue
                h = histogram_from_answers(answers_by_q.get(qid, [])[:k])
                preds.append((qid, majority_answer(h) if h.counts else None))
            acc = float(em_accuracy(preds, golds)) if preds else None
            rows.append((subset, k, acc))
    return rows


def _fmt_pct(value: Optional[Fraction]) -> str:
    if value is None:
        return ""
    return f"{float(value) * 100:.2f}"


def _atomic_write(path: Path, data: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
    out_dir.mkdir(parents=True, exist_ok=True)

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
    _atomic_write(report_path, json.dumps(tree, indent=2, sort_keys=True) + "\n")

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["dataset", "subset", "strategy", "sc", "n", "accuracy_pct",
         "unparsed_rate", "queries", "prompt_tokens", "output_tokens"]
    )
    for subset in (*SUBSETS, "low_top", "low_bottom"):
        if subset in prior:
            m = prior[subset]
            writer.writerow(
                [dataset_name, subset, "prior", "", m.n, _fmt_pct(m.accuracy),
                 f"{float(m.unparsed_rate):.4f}", m.queries, m.prompt_tokens, m.output_tokens]
            )
    for name in sorted(strategies):
        strat, _, sc = name.partition("+")
        for subset, m in sorted(strategies[name].items()):
            writer.writerow(
                [dataset_name, subset, strat, sc, m.n, _fmt_pct(m.accuracy),
                 f"{float(m.unparsed_rate):.4f}", m.queries, m.prompt_tokens, m.output_tokens]
            )
    summary_path = out_dir / "summary.csv"
    _atomic_write(summary_path, buf.getvalue())

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["dataset", "subset", "sc_count", "accuracy"])
    for subset, k, acc in curves:
        writer.writerow([dataset_name, subset, k, "" if acc is None else f"{acc:.6f}"])
    curves_path = out_dir / "curves.csv"
    _atomic_write(curves_path, buf.getvalue())

    return {"report": report_path, "summary": summary_path, "curves": curves_path}
