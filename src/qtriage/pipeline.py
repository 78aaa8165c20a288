"""Glue between configuration, backends, and the phase operations.

The CLI is a thin wrapper over this module so the full pipeline is equally
drivable from tests and notebooks.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import synth
from .backend import (
    Backend,
    CachingBackend,
    HttpChatBackend,
    MockBackend,
    NoFetchBackend,
    QuestionProfile,
    TranscriptCache,
    load_profiles,
)
from .conquer import ConquerOutcome, run_conquer, save_outcomes
from .divide import (
    ConfidenceReport,
    InferenceRecord,
    records_from_transcript,
    run_divide,
    save_reports,
)
from .manifest import RunManifest, new_manifest
from .model import LABELS, DatasetSpec, Question, load_dataset
from .report import (
    accuracy_curves,
    cost_summary,
    emit_report,
    strategy_metrics,
    subset_prior_metrics,
)


class ConfigurationError(ValueError):
    """One or more invalid configuration values; message lists them all."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return Fraction(int(value[0]), int(value[1]))
    return Fraction(str(value))


def load_config(path: Optional[str | Path]) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigurationError(f"config file not found: {p}")
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {p} is not valid JSON: {exc}") from exc


def dataset_spec_from_config(config: dict) -> DatasetSpec:
    ds = config.get("dataset", {})
    errors = []
    name = ds.get("name", Path(ds.get("path", "dataset")).stem)
    try:
        divide_base = int(ds.get("divide_base", 5))
    except (TypeError, ValueError):
        errors.append(f"dataset.divide_base is not an integer: {ds.get('divide_base')!r}")
        divide_base = 5
    try:
        mu = _as_fraction(ds.get("mu", "0.8"))
        nu = _as_fraction(ds.get("nu", "0.6"))
    except (ValueError, ZeroDivisionError) as exc:
        errors.append(f"dataset thresholds invalid: {exc}")
        mu, nu = Fraction(4, 5), Fraction(3, 5)
    spec = DatasetSpec(name=name, divide_base=divide_base, mu=mu, nu=nu)
    try:
        spec.validate()
    except ValueError as exc:
        errors.append(str(exc))
    if errors:
        raise ConfigurationError("; ".join(errors))
    return spec


def build_backend(config: dict, seed: int) -> Backend:
    bc = config.get("backend", {})
    kind = bc.get("kind", "mock")
    if kind == "mock":
        profiles_path = bc.get("profiles")
        if not profiles_path:
            raise ConfigurationError("mock backend requires backend.profiles path")
        profiles = load_profiles(profiles_path)
        return MockBackend(
            profiles,
            seed=seed,
            noise_rate=float(bc.get("noise_rate", 0.0)),
            gold_uplift=float(bc.get("gold_uplift", 1.0)),
        )
    if kind == "http":
        return HttpChatBackend(
            endpoint=bc.get("endpoint", ""),
            model=bc.get("model", ""),
            max_attempts=int(bc.get("max_attempts", 5)),
            base_delay=float(bc.get("base_delay", 1.0)),
        )
    if kind == "replay":
        transcript = bc.get("transcript")
        if not transcript:
            raise ConfigurationError("replay backend requires backend.transcript path")
        return CachingBackend(NoFetchBackend(), TranscriptCache(transcript))
    raise ConfigurationError(f"unknown backend kind {kind!r}")


def questions_from_profiles(profiles: dict[str, QuestionProfile]) -> list[Question]:
    """Synthesize question shells for profiles that lack a dataset file."""
    questions = []
    for qid in sorted(profiles):
        p = profiles[qid]
        support = sorted(p.answer_distribution)
        n_choices = max(LABELS.index(lab) for lab in support) + 1
        q = synth._make_question(
            int(qid.lstrip("q") or 0) if qid.lstrip("q").isdigit() else 0,
            n_choices,
            p.gold or support[0],
            source="profile",
        )
        questions.append(
            Question(
                id=qid, text=q.text, choices=q.choices, gold=p.gold,
                source="profile", kind="mcq",
            )
        )
    return questions


def run_divide_phase(
    questions: Sequence[Question],
    spec: DatasetSpec,
    backend: Backend,
    manifest: RunManifest,
    parallelism: int = 1,
    progress=None,
) -> tuple[list[ConfidenceReport], list[InferenceRecord]]:
    cache = TranscriptCache(manifest.transcript_path)
    cached_backend = CachingBackend(backend, cache)
    try:
        reports, records = run_divide(
            questions, spec, cached_backend, parallelism=parallelism, progress=progress
        )
    except Exception:
        manifest.mark("divide", "partial")
        manifest.save()
        raise
    save_reports(manifest.partition_path, reports)
    manifest.mark("divide", "done")
    manifest.save()
    return reports, records


def run_conquer_phase(
    questions: Sequence[Question],
    reports: Sequence[ConfidenceReport],
    strategy: str,
    backend: Backend,
    manifest: RunManifest,
    self_consistency: bool = False,
    **options,
) -> list[ConquerOutcome]:
    """Conquer one strategy through the run's transcript; `options` go to `run_conquer`."""
    cache = TranscriptCache(manifest.transcript_path)
    divide_records = records_from_transcript(cache.entries(), questions, phase="divide")
    cached_backend = CachingBackend(backend, cache)
    try:
        outcomes = run_conquer(
            questions, reports, strategy, cached_backend, divide_records=divide_records,
            self_consistency=self_consistency, **options,
        )
    except Exception:
        manifest.mark("conquer", "partial")
        manifest.save()
        raise
    name = f"{strategy.lower()}{'+sc' if self_consistency else ''}"
    out_path = manifest.outcome_path(name)
    save_outcomes(out_path, outcomes)
    manifest.paths.setdefault("outcomes", {})[name] = str(out_path)
    manifest.mark("conquer", "done")
    manifest.save()
    return outcomes


def run_report_phase(
    questions: Sequence[Question],
    spec: DatasetSpec,
    manifest: RunManifest,
    partial: bool = False,
) -> dict[str, Path]:
    from .conquer import load_outcomes
    from .divide import load_reports

    reports = load_reports(manifest.partition_path)
    cache = TranscriptCache(manifest.transcript_path)
    divide_records = records_from_transcript(cache.entries(), questions, phase="divide")

    prior = subset_prior_metrics(questions, reports, divide_records)
    strategies = {}
    for name, path in sorted(manifest.paths.get("outcomes", {}).items()):
        if Path(path).exists():
            strategies[name] = strategy_metrics(questions, reports, load_outcomes(path))
    cost = cost_summary(divide_records, reports, sc_budget=spec.divide_base)
    curves = accuracy_curves(questions, reports, divide_records)
    files = emit_report(
        manifest.report_dir(), spec.name, prior, strategies, cost, curves,
        run_id=manifest.run_id, partial=partial,
    )
    manifest.mark("report", "done" if not partial else "partial")
    manifest.save()
    return files


def load_questions_from_config(config: dict) -> list[Question]:
    ds = config.get("dataset", {})
    path = ds.get("path")
    if path:
        return load_dataset(path, schema=ds.get("schema", "mcq-jsonl"))
    bc = config.get("backend", {})
    if bc.get("kind") == "mock" and bc.get("profiles"):
        return questions_from_profiles(load_profiles(bc["profiles"]))
    raise ConfigurationError("no dataset.path configured and no profiles to derive one from")
