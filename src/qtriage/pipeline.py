"""Glue between configuration, backends, and the phase operations.

The CLI is a thin wrapper over this module so the full pipeline is equally
drivable from tests and notebooks.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import synth
from .backend import (
    Backend,
    CachingBackend,
    ConfigError,
    HttpChatBackend,
    MockBackend,
    NoFetchBackend,
    QuestionProfile,
    TranscriptCache,
    load_profiles,
)
from .conquer import ConquerOutcome, load_outcomes, run_conquer, save_outcomes
from .divide import (
    ConfidenceReport,
    InferenceRecord,
    load_reports,
    records_from_transcript,
    run_divide,
    save_reports,
)
from .manifest import ManifestError, RunManifest
from .model import LABELS, DatasetSpec, Question, load_dataset, read_json
from .prompts import strategy_needs_rationales
from .report import (
    accuracy_curves,
    cost_summary,
    emit_report,
    strategy_metrics,
    subset_prior_metrics,
)


def _as_fraction(value) -> Fraction:
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return Fraction(int(value[0]), int(value[1]))
    return Fraction(str(value))


def load_config(path: Optional[str | Path]) -> dict:
    if path is None:
        return {}
    config = read_json(path, ConfigError)
    for section in ("dataset", "backend"):
        if not isinstance(config.get(section, {}), dict):
            raise ConfigError(f"{path}: config {section} must be an object")
    return config


def config_number(config: dict, dotted: str, default, cast=int):
    """The number at a dotted key of `config`, or `default` when the key is absent.

    Raises `ConfigError` naming the key for a value `cast` rejects.
    """
    node = config
    *parents, leaf = dotted.split(".")
    for part in parents:
        node = node.get(part, {})
    value = node.get(leaf, default)
    try:
        return cast(value)
    except (TypeError, ValueError):
        kind = "an integer" if cast is int else "a number"
        raise ConfigError(f"config {dotted} is not {kind}: {value!r}") from None


def dataset_spec_from_config(config: dict) -> DatasetSpec:
    ds = config.get("dataset", {})
    try:
        mu = _as_fraction(ds.get("mu", "0.8"))
        nu = _as_fraction(ds.get("nu", "0.6"))
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"dataset thresholds invalid: {exc}") from exc
    spec = DatasetSpec(
        name=ds.get("name", Path(ds.get("path", "dataset")).stem),
        divide_base=config_number(config, "dataset.divide_base", 5),
        mu=mu,
        nu=nu,
    )
    spec.validate()
    return spec


def build_backend(config: dict, seed: int) -> Backend:
    bc = config.get("backend", {})
    kind = bc.get("kind", "mock")
    if kind == "mock":
        profiles_path = bc.get("profiles")
        if not profiles_path:
            raise ConfigError("mock backend requires backend.profiles path")
        profiles = load_profiles(profiles_path)
        return MockBackend(
            profiles,
            seed=seed,
            noise_rate=config_number(config, "backend.noise_rate", 0.0, float),
            gold_uplift=config_number(config, "backend.gold_uplift", 1.0, float),
        )
    if kind == "http":
        return HttpChatBackend(
            endpoint=bc.get("endpoint", ""),
            model=bc.get("model", ""),
            max_attempts=config_number(config, "backend.max_attempts", 5),
            base_delay=config_number(config, "backend.base_delay", 1.0, float),
        )
    if kind == "replay":
        transcript = bc.get("transcript")
        if not transcript:
            raise ConfigError("replay backend requires backend.transcript path")
        return CachingBackend(NoFetchBackend(), TranscriptCache(transcript))
    raise ConfigError(f"unknown backend kind {kind!r}")


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
    """Conquer one strategy through the run's transcript; `options` go to `run_conquer`.

    A failed strategy stays marked `conquer:<outcome name>: failed` until a
    rerun of it succeeds; `conquer` reads `done` only while none is marked.
    """
    name = f"{strategy.lower()}{'+sc' if self_consistency else ''}"
    cache = TranscriptCache(manifest.transcript_path)
    try:
        needs = strategy_needs_rationales(strategy)
        divide_records = records_from_transcript(cache, questions, reports) if needs else ()
        outcomes = run_conquer(
            questions, reports, strategy, CachingBackend(backend, cache),
            divide_records=divide_records, self_consistency=self_consistency, **options,
        )
    except Exception:
        manifest.mark(f"conquer:{name}", "failed")
        manifest.mark("conquer", "partial")
        manifest.save()
        raise
    out_path = manifest.outcome_path(name)
    save_outcomes(out_path, outcomes)
    manifest.paths.setdefault("outcomes", {})[name] = str(out_path)
    manifest.status.pop(f"conquer:{name}", None)
    failed = any(phase.startswith("conquer:") for phase in manifest.status)
    manifest.mark("conquer", "partial" if failed else "done")
    manifest.save()
    return outcomes


def run_report_phase(
    questions: Sequence[Question],
    spec: DatasetSpec,
    manifest: RunManifest,
    partial: bool = False,
) -> dict[str, Path]:
    """Write the report files; a report over incomplete phases needs `partial`."""
    incomplete = sorted(p for p, s in manifest.status.items() if s != "done" and p != "report")
    if incomplete and not partial:
        raise ManifestError(
            f"phases incomplete: {', '.join(incomplete)}; rerun or pass --partial"
        )
    reports = load_reports(manifest.partition_path)
    cache = TranscriptCache(manifest.transcript_path)
    divide_records = records_from_transcript(cache, questions, reports)

    prior = subset_prior_metrics(questions, reports, divide_records)
    strategies = {}
    for name, path in sorted(manifest.paths.get("outcomes", {}).items()):
        if Path(path).exists():
            strategies[name] = strategy_metrics(questions, reports, load_outcomes(path))
    cost = cost_summary(divide_records, reports, sc_budget=spec.divide_base)
    curves = accuracy_curves(questions, reports, divide_records)
    files = emit_report(
        manifest.report_dir(), spec.name, prior, strategies, cost, curves,
        run_id=manifest.run_id, partial=bool(incomplete),
    )
    manifest.mark("report", "partial" if incomplete else "done")
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
    raise ConfigError("no dataset.path configured and no profiles to derive one from")
