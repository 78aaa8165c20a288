"""Run manifest: the single file that makes a run archivable and replayable."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .model import QtriageError, read_json


class ManifestError(QtriageError, ValueError):
    pass


@dataclass
class RunManifest:
    run_id: str
    config: dict  # credentials are never stored here
    seed: int
    run_dir: str
    paths: dict = field(default_factory=dict)
    status: dict = field(default_factory=dict)

    @property
    def transcript_path(self) -> Path:
        return Path(self.paths.get("transcript", Path(self.run_dir) / "transcript.jsonl"))

    @property
    def partition_path(self) -> Path:
        return Path(self.paths.get("partition", Path(self.run_dir) / "partition.jsonl"))

    def outcome_path(self, name: str) -> Path:
        return Path(self.paths.get("outcomes", {}).get(
            name, str(Path(self.run_dir) / f"outcomes_{name}.jsonl")
        ))

    def report_dir(self) -> Path:
        return Path(self.paths.get("reports", Path(self.run_dir) / "reports"))

    def mark(self, phase: str, state: str) -> None:
        self.status[phase] = state

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "config": self.config,
            "seed": self.seed,
            "run_dir": self.run_dir,
            "paths": self.paths,
            "status": self.status,
        }

    def save(self, path: Optional[str | Path] = None) -> Path:
        path = Path(path) if path else Path(self.run_dir) / "manifest.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        data = json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix="manifest", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
        return path

    @staticmethod
    def load(path: str | Path) -> "RunManifest":
        path = Path(path)
        if path.is_dir():
            path = path / "manifest.json"
        d = read_json(path, ManifestError)
        try:
            return RunManifest(
                run_id=d["run_id"],
                config=d["config"],
                seed=int(d["seed"]),
                run_dir=d["run_dir"],
                paths=d.get("paths", {}),
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
    run_dir = str(run_dir)
    safe_config = _without_credentials(config)
    # run_id reflects what was computed, not where it was written or how fast
    semantic = {k: v for k, v in safe_config.items() if k not in ("run_dir", "parallelism")}
    return RunManifest(
        run_id=derive_run_id(semantic, seed),
        config=safe_config,
        seed=seed,
        run_dir=run_dir,
        paths={
            "transcript": str(Path(run_dir) / "transcript.jsonl"),
            "partition": str(Path(run_dir) / "partition.jsonl"),
            "outcomes": {},
            "reports": str(Path(run_dir) / "reports"),
        },
        status={"divide": "pending", "conquer": "pending", "report": "pending"},
    )
