"""Run config and manifest: `parse_config`, the one parser of every run setting,
and `manifest.json`, which stores them in one form and makes a run replayable.

This module alone knows the layout of a run directory. Every run file is
named relative to the directory the manifest was created in or loaded from,
so `manifest.json` stores no run file path and a run directory can be moved.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterator, Optional, TypeVar

from .backend import API_KEY_ENV, ConfigError, TranscriptCache
from .divide import ConfidenceReport, load_reports
from .model import SCHEMAS, DatasetSpec, QtriageError, parse_as, read_json, write_atomic


T = TypeVar("T")


class ManifestError(QtriageError, ValueError):
    pass


BACKENDS = ("mock", "http", "replay")
# dotted key -> (kind, test a value must pass or None, what a good value is,
# default). A null value is one not given. README's table lists the keys.
CONFIG = {
    "run_dir": (str, None, "a string", "run"),
    "seed": (int, None, "an integer", None),  # None: 0, or for conquer the run's seed
    "parallelism": (int, lambda n: n >= 1, "an integer >= 1", 1),
    "dataset.path": (str, None, "a string", None),
    "dataset.schema": (str, SCHEMAS.__contains__, f"one of {', '.join(SCHEMAS)}", SCHEMAS[0]),
    "dataset.name": (str, None, "a string", None),  # None: the stem of dataset.path
    "dataset.divide_base": (int, lambda n: n >= 2, "an integer >= 2", 5),
    "dataset.mu": (Fraction, lambda f: 0 < f <= 1, "a fraction in (0, 1]", DatasetSpec.mu),
    "dataset.nu": (Fraction, lambda f: 0 <= f <= 1, "a fraction in [0, 1]", DatasetSpec.nu),
    "backend.kind": (str, BACKENDS.__contains__, f"one of {', '.join(BACKENDS)}", "mock"),
    "backend.profiles": (str, None, "a string", None),
    "backend.noise_rate": (float, lambda x: 0 <= x <= 1, "a number in [0, 1]", 0.0),
    "backend.gold_uplift": (float, lambda x: 0 < x < math.inf, "a number > 0", 1.0),
    "backend.endpoint": (str, None, "a string", ""),
    "backend.model": (str, None, "a string", ""),
    "backend.max_attempts": (int, lambda n: n >= 1, "an integer >= 1", 5),
    "backend.base_delay": (float, lambda x: 0 <= x < math.inf, "a number >= 0", 1.0),
    "assertions.spearman_min": (float, None, "a number", None),
    "assertions.subset_ordering": (bool, None, "true or false", None),
    "assertions.fcr_uplift_min_pp": (float, None, "a number", None),
}
_SECTIONS = {dotted.split(".")[0] for dotted in CONFIG if "." in dotted}


def _leaves(label: str, config: dict) -> Iterator[tuple[str, object]]:
    """Each (dotted key, value) of a config tree; a section must be an object."""
    for key, value in config.items():
        if key not in _SECTIONS:
            yield key, value
        elif isinstance(value, dict):
            yield from ((f"{key}.{leaf}", member) for leaf, member in value.items())
        else:
            raise ConfigError(f"{label} {key} is not an object: {value!r}")


def parse_config(*sources: tuple[str, dict]) -> dict:
    """Every setting of `CONFIG` by dotted key: parsed from the first of `sources`
    that holds it, else its default.

    A source is a label that names it in errors, such as `"cfg.json: config"`,
    and a config tree. Raises `ConfigError` naming the label and the dotted key
    for a section that is not an object, a credential, a key `CONFIG` lacks and
    a bad value.
    """
    given = {}
    for label, config in reversed(sources):
        for dotted, value in _leaves(label, config):
            if "key" in dotted.lower() or "credential" in dotted.lower():
                raise ConfigError(f"{label} {dotted} is a credential; set {API_KEY_ENV} instead")
            if dotted not in CONFIG:
                raise ConfigError(f"{label} {dotted} is not a known key")
            if value is not None:
                given[dotted] = label, value
    settings = {}
    for dotted, (kind, test, good, default) in CONFIG.items():
        label, value = given.get(dotted, (None, default))
        try:
            settings[dotted] = None if value is None else parse_as(kind, value)
            if test and not test(settings[dotted]):
                raise ValueError(value)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            raise ConfigError(f"{label} {dotted} is not {good}: {value!r}") from None
    settings["run_dir"] = settings["run_dir"] or "run"  # an empty run_dir reads as the default
    mu, nu = settings["dataset.mu"], settings["dataset.nu"]
    if nu >= mu:
        label = (given.get("dataset.nu") or given["dataset.mu"])[0]
        raise ConfigError(f"{label} dataset.nu {nu} is not below dataset.mu {mu}")
    return settings


def dataset_spec(settings: dict) -> DatasetSpec:
    path, name = settings["dataset.path"], settings["dataset.name"]
    return DatasetSpec(
        name=Path("dataset" if path is None else path).stem if name is None else name,
        divide_base=settings["dataset.divide_base"],
        mu=settings["dataset.mu"], nu=settings["dataset.nu"],
    )


# How requests travel: stored, but left out of run_id, as parallelism is.
_TRANSPORT = ("backend.kind", "backend.endpoint", "backend.max_attempts", "backend.base_delay")
_RUN = ("dataset", "backend")  # the stored sections; the run id hashes them less _TRANSPORT
# The input files: hashed into run_id by content; stored relative to the run dir if in it.
INPUTS = ("dataset.path", "backend.profiles")
PROFILES = "profiles.jsonl"  # in a run dir: the profiles `simulate` generated


def stored_config(settings: dict) -> dict:
    """The canonical config tree of `settings`: each dataset and backend setting
    that is set, with fractions as `[n, d]`."""
    tree: dict = {}
    for dotted, value in settings.items():
        section, _, key = dotted.partition(".")
        if section not in _RUN or value is None:
            continue
        if isinstance(value, Fraction):
            value = [value.numerator, value.denominator]
        tree.setdefault(section, {})[key] = value
    return tree


@dataclass
class RunManifest:
    """A run's identity, the record of each phase, and the results this process
    holds: the partition's reports, each outcome set, the divide records and the
    conquer prior (see `hold`). The phase records are held for manifest.json,
    so another writer's are read; a loaded manifest holds those of its one read.
    """

    run_id: str
    config: dict  # stored_config's form; a run written before it keeps the tree as given
    seed: int
    run_dir: Path  # where manifest.json lives; never written to it
    # run file path or result name -> (inputs, value held for them); never written
    _held: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def path(self) -> Path:
        return self.run_dir / "manifest.json"

    @property
    def transcript_path(self) -> Path:
        return self.run_dir / "transcript.jsonl"

    @cached_property
    def transcript(self) -> TranscriptCache:
        """The run's one transcript cache, loaded at first use and kept for the command.

        Not a field: it is never written to manifest.json. Each phase closes it
        when done, which syncs and closes its append handle but keeps its index.
        """
        return TranscriptCache(self.transcript_path)

    @property
    def partition_path(self) -> Path:
        return self.run_dir / "partition.jsonl"

    def outcome_path(self, name: str) -> Path:
        return self.run_dir / f"outcomes_{name}.jsonl"

    def report_dir(self) -> Path:
        return self.run_dir / "reports"

    def settings(self, *sources: tuple[str, dict]) -> dict:
        """The settings to work on this run with. Each one its run id hashes is the
        stored one, set or not, with an input path joined to the run dir. Each other one
        (run_dir, seed, parallelism, how requests travel) comes from the first of
        `sources` that holds it, else the stored config and seed, else its default."""
        others = [(label, {dotted: value for dotted, value in _leaves(label, tree)
                           if dotted in _TRANSPORT or dotted.split(".")[0] not in _RUN})
                  for label, tree in sources]
        settings = parse_config(*others, (f"{self.path}: config", {**self.config, "seed": self.seed}))
        for dotted in filter(settings.get, INPUTS):
            settings[dotted] = str(self.run_dir / settings[dotted])
        return settings

    def hold(self, key: object, read: Callable[[], T], inputs: object = None) -> T:
        """The result held under `key`, a run file path or the name of a result
        derived from run files: the one held for equal `inputs`, else `read()`,
        held for them. A file's default inputs are the file as written; a phase
        calls this right after writing it, so a held value is what the file holds
        while its inputs are equal."""
        inputs = _file_identity(key) if inputs is None else inputs
        entry = self._held.get(key)
        if entry is None or entry[0] != inputs:
            entry = self._held[key] = (inputs, read())
        return entry[1]

    def reports(self) -> tuple[ConfidenceReport, ...]:
        """The partition's reports, held while its file is unchanged; the one read
        that decodes them also holds the file's digest."""
        path, identity = self.partition_path, _file_identity(self.partition_path)

        def read() -> tuple[ConfidenceReport, ...]:
            data = identity and path.read_bytes()
            self.digest(path, data, identity)
            return tuple(load_reports(path, data))

        return self.hold(path, read, identity)

    def digest(self, path: Path, data: Optional[bytes] = None,
               identity: Optional[tuple] = None) -> Optional[str]:
        """The sha256 of the file at `path`, held while the file is unchanged; None if
        missing. `data` is its bytes as just written, or as read from the file whose
        `_file_identity`, taken before the read, is `identity`."""
        identity = identity or _file_identity(path)
        return identity and self.hold(("sha256", path), lambda: hashlib.sha256(
            path.read_bytes() if data is None else data).hexdigest(), identity)

    @property
    def phases(self) -> dict:
        """Each phase run (`divide`, `conquer:<outcome name>`, `report`) -> the record of
        what its file was computed from, or None if it failed. A new manifest reads
        its run dir's earlier records: an equal partition keeps each outcome set current."""
        return self.hold(self.path, lambda: _phases(self.path))

    def record(self, phase: str, inputs: object) -> None:
        """Store `inputs`, as JSON reads them back, as `phase`'s record, and save."""
        self.phases[phase] = json.loads(json.dumps(inputs))
        self.save()

    def stale(self) -> dict[str, str]:
        """Each phase a report reads that is not current, `conquer` while none has run ->
        a note naming its missing file, else "". A phase is current when its file exists
        and its record matches its inputs now: the run id, or the partition's digest."""
        partition, phases = self.digest(self.partition_path), self.phases
        stale = {} if partition and phases.get("divide") == self.run_id else {"divide": ""}
        conquers = sorted(p for p in phases if p.startswith("conquer:"))
        for phase in conquers:
            path, record = self.outcome_path(phase.removeprefix("conquer:")), phases[phase]
            if not path.is_file():
                stale[phase] = f" ({path.name} missing)"
            elif not (partition and isinstance(record, dict)) or record.get("partition") != partition:
                stale[phase] = ""
        return stale if conquers else {**stale, "conquer": ""}

    def save(self) -> None:
        phases = self.phases
        d = {"config": self.config, "phases": phases, "run_id": self.run_id, "seed": self.seed}
        write_atomic(self.path, json.dumps(d, indent=2, sort_keys=True) + "\n")
        self.hold(self.path, lambda: phases)  # for the file as written

    @staticmethod
    def load(run_dir: str | Path) -> "RunManifest":
        run_dir = Path(run_dir)
        path = run_dir / "manifest.json"
        identity, d = _file_identity(path), read_json(path, ManifestError)
        try:
            manifest = RunManifest(d["run_id"], d["config"], int(d["seed"]), run_dir)
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"{path}: bad manifest: {exc!r}") from exc
        manifest.hold(path, lambda: _phases(path, d), identity)  # this read's records
        return manifest


def _phases(path: Path, d: Optional[dict] = None) -> dict:
    """manifest.json's phase records, or those of `d`, its tree as read; none if it is
    missing, unreadable or older than them."""
    try:
        phases = (read_json(path, ManifestError) if d is None else d).get("phases")
    except ManifestError:
        return {}
    return phases if isinstance(phases, dict) else {}


def _file_identity(path: Path) -> Optional[tuple[int, int, int]]:
    """A file's inode, size and mtime, which an atomic rewrite changes; None if missing."""
    try:
        st = path.stat()
    except FileNotFoundError:
        return None
    return st.st_ino, st.st_size, st.st_mtime_ns


def derive_run_id(config: dict, seed: int) -> str:
    """Stable run id from the computed configuration; no clock involved."""
    blob = json.dumps({"config": config, "seed": seed}, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def new_manifest(config: dict, seed: int, run_dir: str | Path,
                 inputs: Optional[dict[str, bytes]] = None) -> RunManifest:
    """A run of the config tree `config` (or its settings), which `parse_config` checks.
    It stores the tree's `stored_config`, each input path relative to `run_dir` if in it,
    else absolute; its run id hashes that less how requests travel, with each input
    file by content: its bytes in `inputs` under its dotted key, if its caller read
    them, else the file's. An unreadable input file raises `ConfigError` naming its key."""
    settings = parse_config(("config", config))
    settings["dataset.name"] = dataset_spec(settings).name  # before a path becomes its digest
    paths, computed = {}, dict.fromkeys(_TRANSPORT)
    root = Path(run_dir).resolve()
    for dotted in filter(settings.get, INPUTS):
        path = Path(settings[dotted]).resolve()
        try:
            data = (inputs or {}).get(dotted)
            data = path.read_bytes() if data is None else data
            computed[dotted] = hashlib.sha256(data).hexdigest()
        except OSError as exc:
            raise ConfigError(f"config {dotted} is unreadable: {exc}") from None
        paths[dotted] = str(path.relative_to(root) if path.is_relative_to(root) else path)
    run_id = derive_run_id(stored_config({**settings, **computed}), seed)
    return RunManifest(run_id, stored_config({**settings, **paths}), seed, Path(run_dir))
