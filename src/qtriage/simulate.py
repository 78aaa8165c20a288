"""Full synthetic pipeline runs with statistical property assertions.

Desk-scale stand-in for full-benchmark evaluation: the mock backend plays
the model, and configurable assertions check that confidence correlates
with correctness, that subset accuracies are ordered, and that choice
filtering beats a plain greedy re-query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from .divide import SUBSETS, ConfidenceReport
from .manifest import dataset_spec, new_manifest, parse_config, stored_config
from .pipeline import (
    build_backend,
    run_conquer_phase,
    run_divide_phase,
    run_report_phase,
)
from .report import _prior_metrics, em_accuracy, prior_predictions
from .synth import QuestionProfile, generate_synthetic, questions_from_profiles


@dataclass
class SimulationResult:
    run_dir: str
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)


def spearman_cs_vs_correct(
    reports: Sequence[ConfidenceReport], golds: dict[str, Optional[str]]
) -> float:
    """Rank correlation between confidence score and majority-vote correctness."""
    xs, ys = [], []
    for r, (qid, pred) in zip(reports, prior_predictions(reports)):
        gold = golds.get(qid)
        if gold is None:
            continue
        xs.append(float(r.cs))
        ys.append(1.0 if pred == gold else 0.0)
    return spearman(xs, ys)


def _doubled_ranks(values: Sequence[float]) -> list[int]:
    """Twice each value's 1-based rank, ties sharing their average rank."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0] * len(values)
    start = 0
    while start < len(order):
        end = start
        while end + 1 < len(order) and values[order[end + 1]] == values[order[start]]:
            end += 1
        for i in order[start:end + 1]:
            ranks[i] = start + end + 2
        start = end + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman's rho: Pearson over average ranks; 0.0 when either side is constant.

    Ranks are doubled to make them integers, so every sum is exact and rounding
    happens only in the final square root and division.
    """
    if len(set(xs)) < 2 or len(set(ys)) < 2:
        return 0.0
    a, b = _doubled_ranks(xs), _doubled_ranks(ys)
    n = len(a)
    sa, sb = sum(a), sum(b)
    cov = n * sum(x * y for x, y in zip(a, b)) - sa * sb
    var_a = n * sum(x * x for x in a) - sa * sa
    var_b = n * sum(y * y for y in b) - sb * sb
    return cov / math.sqrt(var_a * var_b)


def subset_accuracies(
    reports: Sequence[ConfidenceReport], golds: dict[str, Optional[str]]
) -> dict[str, Optional[float]]:
    prior = _prior_metrics(reports, golds)
    return {s: None if prior[s].accuracy is None else float(prior[s].accuracy) for s in SUBSETS}


def run_simulation(
    run_dir: str | Path,
    seed: int,
    settings: Optional[dict] = None,
    profiles: Optional[dict[str, QuestionProfile]] = None,
    family: str = "uniform_correct",
    n_questions: int = 500,
    strategies: Sequence[tuple[str, bool]] = (("ZTCOT", False), ("FCR", True)),
) -> SimulationResult:
    """Divide, conquer, and report on the mock backend, then run the assertions
    that are set.

    `settings` are `parse_config`'s, its defaults when None; a simulation reads
    the divide settings, `parallelism`, the mock's `backend.noise_rate` and
    `backend.gold_uplift`, and the assertions.
    """
    settings = {**(settings or parse_config()), "dataset.path": None,
                "dataset.name": f"sim-{family}", "backend.kind": "mock", "backend.profiles": None}
    spec, parallelism = dataset_spec(settings), settings["parallelism"]
    if profiles is None:
        questions, profiles = generate_synthetic(n_questions, family=family, seed=seed)
    else:
        questions = questions_from_profiles(profiles)
    manifest = new_manifest(stored_config(settings), seed, run_dir)
    backend = build_backend(settings, seed, profiles)
    reports, _records = run_divide_phase(
        questions, spec, backend, manifest, parallelism=parallelism
    )

    golds = {q.id: q.gold for q in questions}
    outcome_sets: dict[tuple[str, bool], list] = {}
    for strategy, sc in strategies:
        outcome_sets[strategy, sc] = run_conquer_phase(
            questions, reports, strategy, backend, manifest,
            self_consistency=sc, sc_samples=spec.divide_base,
            parallelism=parallelism, seed=seed,
        )
    run_report_phase(questions, spec, manifest)

    result = SimulationResult(run_dir=str(run_dir))

    spearman_min = settings["assertions.spearman_min"]
    if spearman_min is not None:
        rho = spearman_cs_vs_correct(reports, golds)
        result.checks.append(
            ("spearman", rho > spearman_min, f"rho={rho:.3f} threshold={spearman_min}")
        )

    if settings["assertions.subset_ordering"]:
        accs = subset_accuracies(reports, golds)
        present = [(s, a) for s, a in accs.items() if a is not None]
        ordered = all(a > b for (_, a), (_, b) in zip(present, present[1:]))
        detail = " ".join(f"{s}={a:.3f}" for s, a in present)
        result.checks.append(("subset_ordering", ordered, detail))

    min_pp = settings["assertions.fcr_uplift_min_pp"]
    if min_pp is not None:
        fcr = outcome_sets.get(("FCR", True))
        if fcr is None:
            fcr = outcome_sets.get(("FCR", False))
        scored = [None if outcomes is None else
                  [(o.question_id, o.final_answer) for o in outcomes
                   if golds[o.question_id] is not None]
                  for outcomes in (outcome_sets.get(("ZTCOT", False)), fcr)]
        if None in scored:
            check = (False, "needs ztcot and fcr strategies")
        elif not all(scored):
            check = (False, "no conquered question has a gold to score")
        else:
            acc_base, acc_fcr = (float(em_accuracy(pairs, golds)) for pairs in scored)
            delta_pp = (acc_fcr - acc_base) * 100
            check = (delta_pp >= min_pp, f"fcr={acc_fcr:.3f} ztcot={acc_base:.3f} "
                                         f"delta={delta_pp:.1f}pp min={min_pp}pp")
        result.checks.append(("fcr_uplift", *check))

    return result
