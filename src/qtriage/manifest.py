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
from typing import Optional

from .backend import TranscriptCache
from .model import QtriageError, read_json, write_atomic


class ManifestError(QtriageError, ValueError):
    pass


@dataclass
class RunManifest:
    run_id: str
    config: dict  # credentials are never stored here
    seed: int
    run_dir: Path  # where manifest.json lives; never written to it
    outcomes: list[str] = field(default_factory=list)  # conquered outcome names, sorted
    status: dict = field(default_factory=dict)
    # (basis, records): the divide records last folded for this run, and the
    # (question, total_samples) per report they were folded for. Held for the
    # command so later phases need not rebuild them; never written.
    divide_records: Optional[tuple] = field(default=None, repr=False, compare=False)

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
