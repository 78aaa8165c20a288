"""Glue between configuration, backends, and the phase operations.

The CLI is a thin wrapper over this module so the full pipeline is equally
drivable from tests and notebooks.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

from .backend import (
    Backend,
    CacheError,
    CachingBackend,
    ConfigError,
    HttpChatBackend,
    NoFetchBackend,
    TranscriptCache,
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
from .model import DatasetSpec, Question, encode_jsonl, load_dataset
from .prompts import strategy_needs_rationales
from .report import (
    accuracy_curves,
    cost_summary,
    emit_report,
    strategy_metrics,
    subset_prior_metrics,
)
from .synth import MockBackend, load_profiles, questions_from_profiles


def build_backend(settings: dict, seed: int, profiles: Optional[dict] = None) -> Backend:
    """The backend the settings name; a mock reads `backend.profiles` unless given them."""
    if settings["backend.kind"] == "mock":
        path = settings["backend.profiles"]
        if profiles is None and not path:
            raise ConfigError("mock backend requires backend.profiles path")
        return MockBackend(
            load_profiles(path) if profiles is None else profiles,
            seed=seed,
            noise_rate=settings["backend.noise_rate"],
            gold_uplift=settings["backend.gold_uplift"],
        )
    if settings["backend.kind"] == "http":
        return HttpChatBackend(
            endpoint=settings["backend.endpoint"],
            model=settings["backend.model"],
            max_attempts=settings["backend.max_attempts"],
            base_delay=settings["backend.base_delay"],
        )
    return NoFetchBackend()  # replay: every phase reads the run's own transcript.jsonl first


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


def _prior(
    manifest: RunManifest, questions: Sequence[Question], reports: Sequence[ConfidenceReport]
) -> dict:
    """Each conquered question's prior (see `run_conquer`), held for the same
    questions and reports: they decide its filtered choices and, through the
    divide records, its rationales. A divide rerun that changes them derives it
    afresh; a part no strategy needs is never derived."""
    return manifest.hold("prior", dict, (tuple(questions), tuple(reports)))


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
            divide_records=divide_records, prior=_prior(manifest, questions, reports),
            self_consistency=self_consistency, **options,
        )
    encode_jsonl(manifest.outcome_path(name), outcomes)
    manifest.hold(manifest.outcome_path(name), lambda: tuple(outcomes))
    manifest.outcomes[:] = sorted({*manifest.outcomes, name})
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


def load_inputs(settings: dict, seed: int) -> tuple[list[Question], Backend]:
    """The questions and backend of a divide or conquer; a mock profile file that
    the questions are derived from is read once, for both."""
    path = settings["backend.profiles"]
    if settings["dataset.path"] or settings["backend.kind"] != "mock" or not path:
        return load_questions(settings), build_backend(settings, seed)
    profiles = load_profiles(path)
    return questions_from_profiles(profiles), build_backend(settings, seed, profiles)


def load_questions(settings: dict) -> list[Question]:
    if settings["dataset.path"]:
        return load_dataset(settings["dataset.path"], schema=settings["dataset.schema"])
    if settings["backend.kind"] == "mock" and settings["backend.profiles"]:
        return questions_from_profiles(load_profiles(settings["backend.profiles"]))
    raise ConfigError("no dataset.path configured and no profiles to derive one from")
