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
    "assertions.subset_ordering": (bool, None, "true or false", False),
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


def stored_config(settings: dict, leave_out: tuple[str, ...] = ()) -> dict:
    """The canonical config tree of `settings`: each dataset and backend setting
    that is set and not in `leave_out`, with the dataset name filled in,
    fractions as `[n, d]` and input paths absolute."""
    settings = {**settings, "dataset.name": dataset_spec(settings).name}
    tree: dict = {}
    for dotted, value in settings.items():
        section, _, key = dotted.partition(".")
        if section not in ("dataset", "backend") or dotted in leave_out or value is None:
            continue
        if isinstance(value, Fraction):
            value = [value.numerator, value.denominator]
        elif dotted in ("dataset.path", "backend.profiles") and value:
            value = str(Path(value).resolve())
        tree.setdefault(section, {})[key] = value
    return tree


@dataclass
class RunManifest:
    """A run's identity and phase status, and the results this process holds:
    the partition's reports, each outcome set, the divide records and the
    conquer prior (see `hold`). Status and outcome names are held for
    manifest.json, so another writer's are read. A loaded manifest holds
    nothing else, so a CLI command reads each file.
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

    def _state(self) -> dict:
        return self.hold(self.path, lambda: _read(self.path))

    @property
    def status(self) -> dict:  # phase -> state
        return self._state().setdefault("status", {})

    @property
    def outcomes(self) -> list[str]:  # conquered outcome names, sorted
        return self._state()["outcomes"]

    def mark(self, phase: str, state: str) -> None:
        self.status[phase] = state

    def save(self) -> None:
        state = {"outcomes": self.outcomes, "status": self.status}
        d = {"config": self.config, "run_id": self.run_id, "seed": self.seed, **state}
        write_atomic(self.path, json.dumps(d, indent=2, sort_keys=True) + "\n")
        self.hold(self.path, lambda: state)  # for the file as written

    @staticmethod
    def load(run_dir: str | Path) -> "RunManifest":
        run_dir = Path(run_dir)
        path = run_dir / "manifest.json"
        d = _read(path)
        try:
            return RunManifest(
                run_id=d["run_id"], config=d["config"], seed=int(d["seed"]), run_dir=run_dir
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"{path}: bad manifest: {exc!r}") from exc


def _read(path: Path) -> dict:
    d = read_json(path, ManifestError)
    outcomes = d.get("outcomes")
    if not isinstance(outcomes, list) or not all(isinstance(n, str) for n in outcomes):
        raise ManifestError(
            f"{path}: no 'outcomes' list; written before run directories named"
            " their own files; rerun divide and each conquer to rebuild it"
        )
    return d


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


def new_manifest(config: dict, seed: int, run_dir: str | Path) -> RunManifest:
    """A pending run of the config tree `config`, which `parse_config` checks;
    it stores the tree's `stored_config`."""
    settings = parse_config(("config", config))
    run_id = derive_run_id(stored_config(settings, leave_out=_TRANSPORT), seed)
    manifest = RunManifest(run_id, stored_config(settings), seed, Path(run_dir))
    status = {"divide": "pending", "conquer": "pending", "report": "pending"}
    manifest.hold(manifest.path, lambda: {"outcomes": [], "status": status})  # not an old run's
    return manifest
