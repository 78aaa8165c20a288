"""Glue between configuration, backends, and the phase operations.

The CLI is a thin wrapper over this module so the full pipeline is equally
drivable from tests and notebooks.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

from . import synth
from .backend import (
    Backend,
    CacheError,
    CachingBackend,
    ConfigError,
    HttpChatBackend,
    MockBackend,
    NoFetchBackend,
    QuestionProfile,
    TranscriptCache,
    load_profiles,
)
from .conquer import ConquerOutcome, check_subsets, read_outcomes, run_conquer
from .divide import (
    ConfidenceReport,
    InferenceRecord,
    load_reports,
    questions_for,
    records_from_transcript,
    run_divide,
)
from .manifest import ManifestError, RunManifest
from .model import LABELS, DatasetSpec, Question, encode_jsonl, load_dataset, read_json
from .prompts import strategy_needs_rationales
from .report import (
    accuracy_curves,
    cost_summary,
    emit_report,
    strategy_metrics,
    subset_prior_metrics,
)


def load_config(path: Optional[str | Path]) -> dict:
    if path is None:
        return {}
    config = read_json(path, ConfigError)
    for section in ("dataset", "backend", "assertions"):
        if not isinstance(config.get(section, {}), dict):
            raise ConfigError(f"{path}: config {section} must be an object")
    dataset = config.get("dataset", {})
    for node, dotted in ((config, "run_dir"), (dataset, "dataset.path"),
                         (dataset, "dataset.name"),
                         (config.get("backend", {}), "backend.profiles")):
        if not isinstance(node.get(dotted.rsplit(".", 1)[-1], ""), str):
            raise ConfigError(f"{path}: config {dotted} must be a string")
    return config


def config_number(config: dict, dotted: str, default, cast=int):
    """The number at a dotted key of `config`, or `default` when the key is absent.

    Raises `ConfigError` naming the key for a value `cast` rejects, a boolean,
    and a number with a fractional part for an integer key.
    """
    node = config
    *parents, leaf = dotted.split(".")
    for part in parents:
        node = node.get(part, {})
    value = node.get(leaf, default)
    try:
        return _number(value, cast)
    except (TypeError, ValueError, OverflowError):
        kind = "an integer" if cast is int else "a number"
        raise ConfigError(f"config {dotted} is not {kind}: {value!r}") from None


def _number(value, cast):
    """`cast(value)`; raises `ValueError` for a boolean, and for an integer `cast`
    of a float with a fractional part."""
    number = cast(value)
    if isinstance(value, bool) or (isinstance(value, float) and number != value):
        raise ValueError(value)
    return number


def _threshold(dataset: dict, key: str) -> Fraction:
    """`dataset[key]` as a fraction: a number, a fraction string, or a
    `[numerator, denominator]` pair of integers or integer strings."""
    value = dataset.get(key, getattr(DatasetSpec, key))
    try:
        if isinstance(value, (list, tuple)) and len(value) == 2:
            return Fraction(*(_number(member, int) for member in value))
        return Fraction(str(value))
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ConfigError(f"config dataset.{key} is not a fraction: {value!r}") from None


def dataset_spec_from_config(config: dict) -> DatasetSpec:
    ds = config.get("dataset", {})
    spec = DatasetSpec(
        name=ds.get("name", Path(ds.get("path", "dataset")).stem),
        divide_base=config_number(config, "dataset.divide_base", 5),
        mu=_threshold(ds, "mu"),
        nu=_threshold(ds, "nu"),
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
    if kind == "replay":  # every phase reads the run's own transcript.jsonl first
        return NoFetchBackend()
    raise ConfigError(f"unknown backend kind {kind!r}")


def questions_from_profiles(profiles: dict[str, QuestionProfile]) -> list[Question]:
    """Synthesize question shells for profiles that lack a dataset file."""
    questions = []
    for qid in sorted(profiles):
        p = profiles[qid]
        for answer in p.answer_distribution:
            if len(answer) != 1 or answer not in LABELS:
                raise ConfigError(
                    f"profile {qid}: answer {answer!r} is not a choice label to derive "
                    "a question from"
                )
        n_choices = max(LABELS.index(lab) for lab in p.answer_distribution) + 1
        q = synth._make_question(
            int(qid.lstrip("q") or 0) if qid.lstrip("q").isdigit() else 0,
            n_choices,
            p.gold,
            source="profile",
        )
        questions.append(replace(q, id=qid))
    return questions


@contextmanager
def _phase(manifest: RunManifest, on_failure: dict[str, str]) -> Iterator[TranscriptCache]:
    """The run's transcript for one phase's work, closed (and synced) when it ends.

    A failure marks each phase in `on_failure` with its state and saves the
    manifest. A `CacheError` leaves manifest.json as it is: the transcript is
    unreadable, or another writer owns the run dir and its manifest.
    """
    with manifest.transcript as cache:
        try:
            yield cache
        except CacheError:
            raise
        except Exception:
            for phase, state in on_failure.items():
                manifest.mark(phase, state)
            manifest.save()
            raise


def _divide_records(
    manifest: RunManifest,
    questions: Sequence[Question],
    reports: Sequence[ConfidenceReport],
    read: Optional[Callable[[], Sequence[InferenceRecord]]] = None,
) -> Sequence[InferenceRecord]:
    """The divide records behind `reports`, held for the same questions and
    sample counts; else `read()`, by default a rebuild from the run's transcript.

    Raises `DatasetError` for a report whose question is not in `questions`.
    """
    samples = (r.histogram.total_samples for r in reports)
    return manifest.hold(
        manifest.transcript_path,
        read or (lambda: tuple(records_from_transcript(manifest.transcript, questions, reports))),
        tuple(zip(questions_for(questions, reports), samples)),
    )


def run_divide_phase(
    questions: Sequence[Question],
    spec: DatasetSpec,
    backend: Backend,
    manifest: RunManifest,
    parallelism: int = 1,
    progress=None,
) -> tuple[list[ConfidenceReport], list[InferenceRecord]]:
    with _phase(manifest, {"divide": "partial"}) as cache:
        reports, records = run_divide(
            questions, spec, CachingBackend(backend, cache),
            parallelism=parallelism, progress=progress,
        )
    encode_jsonl(manifest.partition_path, reports)
    manifest.hold(manifest.partition_path, lambda: tuple(reports))
    _divide_records(manifest, questions, reports, lambda: tuple(records))
    manifest.mark("divide", "done")
    manifest.mark("report", "pending")
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
    Rejected subsets leave the manifest as it is.
    """
    if "subsets" in options:
        check_subsets(options["subsets"])
    name = f"{strategy.lower()}{'+sc' if self_consistency else ''}"
    with _phase(manifest, {f"conquer:{name}": "failed", "conquer": "partial"}) as cache:
        needs = strategy_needs_rationales(strategy)
        divide_records = _divide_records(manifest, questions, reports) if needs else ()
        outcomes = run_conquer(
            questions, reports, strategy, CachingBackend(backend, cache),
            divide_records=divide_records, self_consistency=self_consistency, **options,
        )
    encode_jsonl(manifest.outcome_path(name), outcomes)
    manifest.hold(manifest.outcome_path(name), lambda: tuple(outcomes))
    manifest.outcomes = sorted({*manifest.outcomes, name})
    manifest.status.pop(f"conquer:{name}", None)
    failed = any(phase.startswith("conquer:") for phase in manifest.status)
    manifest.mark("conquer", "partial" if failed else "done")
    manifest.mark("report", "pending")
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
    reports = manifest.hold(manifest.partition_path, lambda: load_reports(manifest.partition_path))
    divide_records = _divide_records(manifest, questions, reports)

    prior = subset_prior_metrics(questions, reports, divide_records)
    strategies = {}
    for name in manifest.outcomes:
        path = manifest.outcome_path(name)
        outcomes = manifest.hold(path, lambda: read_outcomes(path))
        strategies[name] = strategy_metrics(questions, reports, outcomes)
    cost = cost_summary(divide_records, reports, sc_budget=spec.divide_base)
    curves = accuracy_curves(questions, reports, divide_records)
    # A write that fails part way must not leave the old report reading done.
    manifest.mark("report", "pending")
    manifest.save()
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
