"""Full synthetic pipeline runs with statistical property assertions.

Desk-scale stand-in for full-benchmark evaluation: the mock backend plays
the model, and configurable assertions check that confidence correlates
with correctness, that subset accuracies are ordered, and that choice
filtering beats a plain greedy re-query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from scipy import stats

from .backend import ConfigError, MockBackend, QuestionProfile, load_profiles
from .divide import SUBSETS, ConfidenceReport, majority_answer
from .manifest import new_manifest
from .model import DatasetSpec, Question, read_jsonl
from .pipeline import (
    questions_from_profiles,
    run_conquer_phase,
    run_divide_phase,
    run_report_phase,
)
from .report import em_accuracy, prior_predictions
from .synth import generate_synthetic

DEFAULT_ASSERTIONS = {
    "spearman_min": None,
    "subset_ordering": False,
    "fcr_uplift_min_pp": None,
}


@dataclass
class SimulationResult:
    run_dir: str
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)


def load_profile_file(path: str | Path) -> tuple[dict[str, QuestionProfile], dict]:
    """Read a profile JSONL; a record with an 'assertions' key configures checks."""
    profiles = load_profiles(path)
    assertions: dict = {}
    for _, rec in read_jsonl(path, ConfigError):
        if "assertions" in rec and "question_id" not in rec:
            assertions.update(rec["assertions"])
    return profiles, assertions


def spearman_cs_vs_correct(
    reports: Sequence[ConfidenceReport], golds: dict[str, Optional[str]]
) -> float:
    """Rank correlation between confidence score and majority-vote correctness."""
    xs, ys = [], []
    for r in reports:
        gold = golds.get(r.question_id)
        if gold is None:
            continue
        pred = majority_answer(r.histogram) if r.histogram.counts else None
        xs.append(float(r.cs))
        ys.append(1.0 if pred == gold else 0.0)
    if len(set(xs)) < 2 or len(set(ys)) < 2:
        return 0.0
    rho, _ = stats.spearmanr(xs, ys)
    return float(rho)


def subset_accuracies(
    reports: Sequence[ConfidenceReport], golds: dict[str, Optional[str]]
) -> dict[str, Optional[float]]:
    out: dict[str, Optional[float]] = {}
    for subset in SUBSETS:
        scorable = [
            r for r in reports if r.subset == subset and golds.get(r.question_id) is not None
        ]
        preds = prior_predictions(scorable)
        out[subset] = float(em_accuracy(preds, golds)) if preds else None
    return out


def run_simulation(
    run_dir: str | Path,
    seed: int,
    profiles: Optional[dict[str, QuestionProfile]] = None,
    questions: Optional[Sequence[Question]] = None,
    family: str = "uniform_correct",
    n_questions: int = 500,
    divide_base: int = 5,
    assertions: Optional[dict] = None,
    parallelism: int = 1,
    noise_rate: float = 0.0,
    strategies: Sequence[tuple[str, bool]] = (("ZTCOT", False), ("FCR", True)),
    progress=None,
) -> SimulationResult:
    """Divide, conquer, and report on the mock backend, then run assertions."""
    assertions = {**DEFAULT_ASSERTIONS, **(assertions or {})}
    spec = DatasetSpec(name=f"sim-{family}", divide_base=divide_base)
    spec.validate()
    if profiles is None:
        questions, profiles = generate_synthetic(n_questions, family=family, seed=seed)
    elif questions is None:
        questions = questions_from_profiles(profiles)

    config = {
        "dataset": {"name": spec.name, "divide_base": divide_base,
                    "mu": [spec.mu.numerator, spec.mu.denominator],
                    "nu": [spec.nu.numerator, spec.nu.denominator]},
        "backend": {"kind": "mock", "noise_rate": noise_rate},
    }
    manifest = new_manifest(config, seed, run_dir)
    Path(run_dir).mkdir(parents=True, exist_ok=True)

    backend = MockBackend(profiles, seed=seed, noise_rate=noise_rate)
    reports, _records = run_divide_phase(
        questions, spec, backend, manifest, parallelism=parallelism, progress=progress
    )

    golds = {q.id: q.gold for q in questions}
    outcome_sets: dict[str, list] = {}
    for strategy, sc in strategies:
        name = f"{strategy.lower()}{'+sc' if sc else ''}"
        outcome_sets[name] = run_conquer_phase(
            questions, reports, strategy, backend, manifest,
            self_consistency=sc, sc_samples=divide_base,
            parallelism=parallelism, seed=seed,
        )
    run_report_phase(questions, spec, manifest)

    result = SimulationResult(run_dir=str(run_dir))

    if assertions.get("spearman_min") is not None:
        rho = spearman_cs_vs_correct(reports, golds)
        threshold = float(assertions["spearman_min"])
        result.checks.append(
            ("spearman", rho > threshold, f"rho={rho:.3f} threshold={threshold}")
        )

    if assertions.get("subset_ordering"):
        accs = subset_accuracies(reports, golds)
        present = [(s, a) for s, a in accs.items() if a is not None]
        ordered = all(a > b for (_, a), (_, b) in zip(present, present[1:]))
        detail = " ".join(f"{s}={a:.3f}" for s, a in present)
        result.checks.append(("subset_ordering", ordered, detail))

    if assertions.get("fcr_uplift_min_pp") is not None:
        min_pp = float(assertions["fcr_uplift_min_pp"])
        base = outcome_sets.get("ztcot")
        fcr = outcome_sets.get("fcr+sc") or outcome_sets.get("fcr")
        if base is None or fcr is None:
            result.checks.append(("fcr_uplift", False, "needs ztcot and fcr strategies"))
        else:
            acc_base = float(em_accuracy(
                [(o.question_id, o.final_answer) for o in base], golds))
            acc_fcr = float(em_accuracy(
                [(o.question_id, o.final_answer) for o in fcr], golds))
            delta_pp = (acc_fcr - acc_base) * 100
            result.checks.append(
                ("fcr_uplift", delta_pp >= min_pp,
                 f"fcr={acc_fcr:.3f} ztcot={acc_base:.3f} delta={delta_pp:.1f}pp min={min_pp}pp")
            )

    return result
