"""Glue between configuration, backends, and the phase operations.

`Run` is the one way a driver (the CLI, `simulate`) opens a run; it hands the
run's parts to the phase functions, so the pipeline is equally drivable from tests.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

from .backend import (
    Backend,
    CacheError,
    CachingBackend,
    ConfigError,
    HttpChatBackend,
    TranscriptCache,
)
from .conquer import ConquerOutcome, check_subsets, read_outcomes, run_conquer
from .divide import (
    ConfidenceReport,
    InferenceRecord,
    questions_for,
    records_from_transcript,
    run_divide,
)
from .manifest import INPUTS, ManifestError, RunManifest, dataset_spec, new_manifest, parse_config
from .model import DatasetSpec, Question, encode_jsonl, load_dataset
from .prompts import strategy_row
from .report import (
    accuracy_curves,
    cost_summary,
    emit_report,
    strategy_metrics,
    subset_prior_metrics,
)
from .synth import MockBackend, load_profile_file, questions_from_profiles


@contextmanager
def _phase(manifest: RunManifest, phase: str) -> Iterator[TranscriptCache]:
    """The run's transcript for `phase`'s work, closed (and synced) when it ends. A
    failure sets the phase's record to None, but a `CacheError` leaves manifest.json
    as it is: the transcript is unreadable, or another writer owns the run dir."""
    with manifest.transcript as cache:
        try:
            yield cache
        except Exception as exc:
            if not isinstance(exc, CacheError):
                manifest.record(phase, None)
            raise


@contextmanager
def _gc_paused() -> Iterator[None]:
    """No cyclic collection inside the block; the collector is left as it was found.

    The report phase builds only acyclic objects, so a collection inside it
    frees nothing. Whether the full collection that the earlier phases made
    due lands in it hangs on how much those phases allocated, and it costs as
    much as the rest of the phase; held off, it runs after the phase.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


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
    backend: Optional[Backend],
    manifest: RunManifest,
    parallelism: int = 1,
) -> tuple[list[ConfidenceReport], list[InferenceRecord]]:
    """Divide `questions` through the run's transcript; `spec` must be the manifest's
    (`Run.divide` passes it), since the manifest's config alone gives the run id."""
    with _phase(manifest, "divide") as cache:
        reports, records = run_divide(questions, spec, CachingBackend(backend, cache), parallelism)
        data = encode_jsonl(manifest.partition_path, reports)
        manifest.hold(manifest.partition_path, lambda: tuple(reports))
        manifest.digest(manifest.partition_path, data)  # for each conquer's record
        _divide_records(manifest, questions, reports, lambda: tuple(records))
        manifest.record("divide", manifest.run_id)
    return reports, records


def run_conquer_phase(
    questions: Sequence[Question],
    reports: Sequence[ConfidenceReport],
    strategy: str,
    backend: Optional[Backend],
    manifest: RunManifest,
    self_consistency: bool = False,
    **options,
) -> list[ConquerOutcome]:
    """Conquer one strategy through the run's transcript; `options` go to `run_conquer`.
    Its record holds the partition's digest and the options but `parallelism`.
    Rejected subsets leave the manifest as it is."""
    if "subsets" in options:
        check_subsets(options["subsets"])
    name = f"{strategy.lower()}{'+sc' if self_consistency else ''}"
    read = {"partition": manifest.digest(manifest.partition_path), **options}
    read.pop("parallelism", None)
    with _phase(manifest, f"conquer:{name}") as cache:
        needs = strategy_row(strategy).rationales
        divide_records = _divide_records(manifest, questions, reports) if needs else ()
        outcomes = run_conquer(
            questions, reports, strategy, CachingBackend(backend, cache),
            divide_records=divide_records, prior=_prior(manifest, questions, reports),
            self_consistency=self_consistency, **options,
        )
        encode_jsonl(manifest.outcome_path(name), outcomes)
        manifest.hold(manifest.outcome_path(name), lambda: tuple(outcomes))
        manifest.record(f"conquer:{name}", read)
    return outcomes


@_gc_paused()
def run_report_phase(
    questions: Sequence[Question],
    spec: DatasetSpec,
    manifest: RunManifest,
    partial: bool = False,
) -> dict[str, Path]:
    """Write the report files over the partition and each current outcome set, and
    record the records of the phases read; a report while a phase is not current
    (see `RunManifest.stale`) needs `partial`. `spec`, which names the dataset, must
    be the manifest's (`Run.report` passes it)."""
    reports = manifest.reports()
    stale = manifest.stale()
    if stale and not partial:
        named = ", ".join(phase + note for phase, note in stale.items())
        raise ManifestError(f"phases not current: {named}; rerun or pass --partial")
    read = {p: r for p, r in manifest.phases.items()
            if p == "divide" or p.startswith("conquer:") and p not in stale}
    divide_records = _divide_records(manifest, questions, reports)

    prior = subset_prior_metrics(questions, reports, divide_records)
    strategies = {}
    for name in (p.removeprefix("conquer:") for p in read if p != "divide"):
        path = manifest.outcome_path(name)
        outcomes = manifest.hold(path, lambda: read_outcomes(path))
        strategies[name] = strategy_metrics(questions, reports, outcomes)
    cost = cost_summary(divide_records, reports)
    curves = accuracy_curves(questions, reports, divide_records)
    manifest.record("report", None)  # a write that fails part way leaves no record
    files = emit_report(
        manifest.report_dir(), spec.name, prior, strategies, cost, curves,
        run_id=manifest.run_id, partial=bool(stale),
    )
    manifest.record("report", read)
    return files


@dataclass
class Run:
    """A run's settings (`parse_config`'s), seed and run dir, and its parts, each built
    at first use. `Run(settings, seed, run_dir)` starts a run; `open` opens the run dir
    `parse_config(*sources)` names, with `RunManifest.settings(*sources)`. A phase
    method hands its phase function the parts, the run's SC budget
    (`dataset.divide_base`), `parallelism` and seed."""

    settings: dict
    seed: int
    run_dir: str | Path
    # input file's dotted key -> its bytes, or None if unreadable; see `_input`
    _inputs: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def open(cls, *sources: tuple[str, dict]) -> "Run":
        run_dir = parse_config(*sources)["run_dir"]  # checks every source whole
        manifest = RunManifest.load(run_dir)
        run = cls(manifest.settings(*sources), manifest.seed, run_dir)
        run.manifest = manifest
        return run

    def _input(self, dotted: str) -> Optional[bytes]:
        """The bytes of the input file the setting `dotted` names; None if unreadable, so
        the part that needs them names the error. Until the run has its manifest they
        are kept for it to hash, so the part that parses them and the new manifest
        share one read."""
        if dotted not in self._inputs:
            try:
                data = Path(self.settings[dotted]).read_bytes()
            except OSError:
                data = None
            if "manifest" in self.__dict__:
                return data
            self._inputs[dotted] = data
        return self._inputs[dotted]

    @cached_property
    def manifest(self) -> RunManifest:
        inputs = {dotted: self._input(dotted) for dotted in INPUTS if self.settings[dotted]}
        self._inputs.clear()  # hashed now; a part built later reads its own file
        return new_manifest(self.settings, self.seed, self.run_dir, inputs)

    @cached_property
    def profile_file(self) -> tuple[Optional[dict], dict]:
        """The `backend.profiles` file's profiles and assertions record; (None, {}) unset."""
        path = self.settings["backend.profiles"]
        return load_profile_file(path, self._input("backend.profiles")) if path else (None, {})

    @cached_property
    def questions(self) -> list[Question]:
        """`dataset.path`'s questions, whatever the backend, else the profiles'."""
        s = self.settings
        if s["dataset.path"]:
            return load_dataset(s["dataset.path"], s["dataset.schema"], self._input("dataset.path"))
        if s["backend.profiles"]:
            return questions_from_profiles(self.profile_file[0])
        raise ConfigError("no dataset.path configured and no backend.profiles to derive one from")

    @cached_property
    def backend(self) -> Optional[Backend]:
        """The backend the settings name; a mock plays the profiles at the run's seed."""
        s = self.settings
        if s["backend.kind"] == "mock":
            if self.profile_file[0] is None:
                raise ConfigError("mock backend requires backend.profiles path")
            return MockBackend(self.profile_file[0], self.seed, s["backend.noise_rate"],
                               s["backend.gold_uplift"])
        if s["backend.kind"] == "http":
            keys = ("endpoint", "model", "max_attempts", "base_delay")
            return HttpChatBackend(**{key: s[f"backend.{key}"] for key in keys})
        return None  # replay: every phase reads the run's own transcript.jsonl alone

    def divide(self) -> tuple[list[ConfidenceReport], list[InferenceRecord]]:
        # The manifest is built last, so an unreadable input is named by the part that reads it.
        return run_divide_phase(self.questions, dataset_spec(self.settings), self.backend,
                                self.manifest, self.settings["parallelism"])

    def conquer(self, strategy: str, self_consistency: bool = False,
                **options) -> list[ConquerOutcome]:
        """Conquer the run's partition; `options` go to `run_conquer_phase` and may name
        another `seed` (for `rationale_select="random"`)."""
        reports = self.manifest.reports()
        options = {"sc_samples": self.settings["dataset.divide_base"],
                   "parallelism": self.settings["parallelism"], "seed": self.seed, **options}
        return run_conquer_phase(self.questions, reports, strategy, self.backend, self.manifest,
                                 self_consistency, **options)

    def report(self, partial: bool = False) -> dict[str, Path]:
        return run_report_phase(self.questions, dataset_spec(self.settings), self.manifest,
                                partial)
