"""Run manifest: the single file that makes a run archivable and replayable.

This module alone knows the layout of a run directory. Every run file is
named relative to the directory the manifest was created in or loaded from,
so `manifest.json` stores no run file path and a run directory can be moved.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional, TypeVar

from .backend import TranscriptCache
from .model import QtriageError, read_json, write_atomic


T = TypeVar("T")


class ManifestError(QtriageError, ValueError):
    pass


@dataclass
class RunManifest:
    """A run's identity and phase status, and the results this process holds:
    the partition's reports, each outcome set, the divide records and the
    conquer prior (see `hold`). A loaded manifest holds nothing, so a CLI
    command reads each file.
    """

    run_id: str
    config: dict  # credentials are never stored here
    seed: int
    run_dir: Path  # where manifest.json lives; never written to it
    outcomes: list[str] = field(default_factory=list)  # conquered outcome names, sorted
    status: dict = field(default_factory=dict)
    # run file path or result name -> (inputs, value held for them); never written
    _held: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def mark(self, phase: str, state: str) -> None:
        self.status[phase] = state

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "outcomes": self.outcomes,
            "run_id": self.run_id,
            "seed": self.seed,
            "status": self.status,
        }

    def save(self) -> None:
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        write_atomic(self.run_dir / "manifest.json", text)

    @staticmethod
    def load(run_dir: str | Path) -> "RunManifest":
        run_dir = Path(run_dir)
        path = run_dir / "manifest.json"
        d = read_json(path, ManifestError)
        outcomes = d.get("outcomes")
        if not isinstance(outcomes, list) or not all(isinstance(n, str) for n in outcomes):
            raise ManifestError(
                f"{path}: no 'outcomes' list; written before run directories named"
                " their own files; rerun divide and each conquer to rebuild it"
            )
        try:
            return RunManifest(
                run_id=d["run_id"],
                config=d["config"],
                seed=int(d["seed"]),
                run_dir=run_dir,
                outcomes=outcomes,
                status=d.get("status", {}),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"{path}: bad manifest: {exc!r}") from exc


def _file_identity(path: Path) -> Optional[tuple[int, int, int]]:
    """A file's inode, size and mtime, which an atomic rewrite changes; None if missing."""
    try:
        st = path.stat()
    except FileNotFoundError:
        return None
    return st.st_ino, st.st_size, st.st_mtime_ns


def derive_run_id(config: dict, seed: int) -> str:
    """Stable run id from the effective configuration; no clock involved."""
    blob = json.dumps({"config": config, "seed": seed}, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def _without_credentials(node):
    """Copy of a config tree without credential-like keys, at any depth."""
    if not isinstance(node, dict):
        return node
    return {
        k: _without_credentials(v) for k, v in node.items()
        if "key" not in k.lower() and "credential" not in k.lower()
    }


def new_manifest(config: dict, seed: int, run_dir: str | Path) -> RunManifest:
    # the stored config keeps neither credentials nor where the run was written
    safe_config = {k: v for k, v in _without_credentials(config).items() if k != "run_dir"}
    # run_id reflects what was computed, not how fast
    semantic = {k: v for k, v in safe_config.items() if k != "parallelism"}
    return RunManifest(
        run_id=derive_run_id(semantic, seed),
        config=safe_config,
        seed=seed,
        run_dir=Path(run_dir),
        status={"divide": "pending", "conquer": "pending", "report": "pending"},
    )
