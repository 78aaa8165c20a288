"""Full synthetic pipeline runs with statistical property assertions.

Desk-scale stand-in for full-benchmark evaluation: the mock backend plays
the model on generated or given profiles, and configurable assertions check
that confidence correlates with correctness, that subset accuracies are
ordered, and that choice filtering beats a plain greedy re-query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from .backend import ConfigError
from .divide import SUBSETS, ConfidenceReport
from .manifest import PROFILES, parse_config
from .pipeline import Run
from .report import _prior_metrics, em_accuracy, prior_predictions
from .synth import generate_synthetic, save_profiles


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
    family: Optional[str] = None,
    n_questions: Optional[int] = None,
    strategies: Sequence[tuple[str, bool]] = (("ZTCOT", False), ("FCR", True)),
) -> SimulationResult:
    """Divide, conquer, and report, then run the assertions that are set.

    `settings` are `parse_config`'s, its defaults when None, read as `divide`
    reads them. Without a `backend.profiles` file, `n_questions` (default 500)
    profiles of the `family` (default `uniform_correct`) are written to the run
    dir and used, and name the dataset `sim-<family>` unless `dataset.name` is
    set; beside one, `family` and `n_questions` raise `ConfigError`. The file is
    read once; an assertion that `settings` leave unset is taken from its
    assertions record.
    """
    settings = settings or parse_config()
    if not settings["backend.profiles"]:
        family = "uniform_correct" if family is None else family
        n_questions = 500 if n_questions is None else n_questions
        _, profiles = generate_synthetic(n_questions, family=family, seed=seed)
        path = Path(run_dir) / PROFILES
        save_profiles(path, profiles)
        settings = {**settings, "backend.profiles": str(path),
                    "dataset.name": settings["dataset.name"] or f"sim-{family}"}
    elif family is not None or n_questions is not None:
        raise ConfigError("family and n_questions are for generated profiles, not beside "
                          f"backend.profiles {settings['backend.profiles']}")
    run = Run(settings, seed, run_dir)
    record = parse_config((f"{settings['backend.profiles']}:", {"assertions": run.profile_file[1]}))
    settings = {k: record[k] if v is None and k.startswith("assertions.") else v
                for k, v in settings.items()}
    reports, _ = run.divide()
    outcome_sets = {(strategy, sc): run.conquer(strategy, sc) for strategy, sc in strategies}
    run.report()
    golds = {q.id: q.gold for q in run.questions}

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
        fcr = outcome_sets.get(("FCR", True), outcome_sets.get(("FCR", False)))
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
