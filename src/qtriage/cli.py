"""Command line entry points: divide, conquer, simulate, report."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .backend import CacheMissError, ConfigError, TransportError
from .conquer import RATIONALE_SELECT_MODES, ConquerError
from .divide import SUBSETS, load_reports
from .manifest import ManifestError, RunManifest, new_manifest
from .model import DatasetError
from .pipeline import (
    ConfigurationError,
    build_backend,
    dataset_spec_from_config,
    load_config,
    load_questions_from_config,
    run_conquer_phase,
    run_divide_phase,
    run_report_phase,
)
from .prompts import STRATEGIES

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_TRANSPORT = 2
EXIT_ASSERTION = 3


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _merge_config(config_path, overrides: dict) -> dict:
    config = load_config(config_path)
    for dotted, value in overrides.items():
        if value is None:
            continue
        node = config
        *parents, leaf = dotted.split(".")
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = value
    return config


@click.group()
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="JSON configuration file; flags override its values.")
@click.option("--seed", type=int, default=None, help="Seed for all stochastic steps.")
@click.option("--parallelism", type=int, default=None, help="Max in-flight requests.")
@click.option("--cache-dir", type=click.Path(), default=None,
              help="Directory for the run transcript and outputs.")
@click.pass_context
def main(ctx, config_path, seed, parallelism, cache_dir):
    """Confidence-based triage for multiple-choice reasoning pipelines."""
    ctx.ensure_object(dict)
    ctx.obj["config_path"] = config_path
    ctx.obj["seed"] = seed
    ctx.obj["parallelism"] = parallelism
    ctx.obj["cache_dir"] = cache_dir


def _effective(ctx, key, config, default):
    if ctx.obj.get(key) is not None:
        return ctx.obj[key]
    return config.get(key, default)


def _prepare(ctx, extra_overrides=None):
    config = _merge_config(ctx.obj["config_path"], extra_overrides or {})
    seed = int(_effective(ctx, "seed", config, 0))
    parallelism = int(_effective(ctx, "parallelism", config, 1))
    run_dir = ctx.obj.get("cache_dir") or config.get("run_dir") or "run"
    return config, seed, parallelism, run_dir


def _validate_divide_config(config) -> list[str]:
    errors = []
    try:
        dataset_spec_from_config(config)
    except ConfigurationError as exc:
        errors.append(str(exc))
    ds = config.get("dataset", {})
    bc = config.get("backend", {})
    if not ds.get("path") and not (bc.get("kind", "mock") == "mock" and bc.get("profiles")):
        errors.append("dataset.path is required (or a mock backend with profiles)")
    elif ds.get("path") and not Path(ds["path"]).exists():
        errors.append(f"dataset file not found: {ds['path']}")
    kind = bc.get("kind", "mock")
    if kind == "mock" and not bc.get("profiles"):
        errors.append("mock backend requires backend.profiles")
    if kind == "http" and not bc.get("endpoint"):
        errors.append("http backend requires backend.endpoint")
    return errors


@main.command("divide")
@click.option("--mu", type=str, default=None, help="High/med threshold, e.g. 0.8 or 4/5.")
@click.option("--nu", type=str, default=None, help="Med/low threshold.")
@click.option("--divide-base", type=int, default=None, help="Samples per question.")
@click.pass_context
def cmd_divide(ctx, mu, nu, divide_base):
    """Sample each question and partition the dataset by confidence."""
    overrides = {}
    if mu is not None:
        overrides["dataset.mu"] = mu.replace("/", ",").split(",") if "/" in mu else mu
    if nu is not None:
        overrides["dataset.nu"] = nu.replace("/", ",").split(",") if "/" in nu else nu
    if divide_base is not None:
        overrides["dataset.divide_base"] = divide_base
    try:
        config, seed, parallelism, run_dir = _prepare(ctx, overrides)
    except ConfigurationError as exc:
        _fail(EXIT_VALIDATION, str(exc))

    errors = _validate_divide_config(config)
    if errors:
        _fail(EXIT_VALIDATION, "invalid configuration:\n  " + "\n  ".join(errors))

    try:
        spec = dataset_spec_from_config(config)
        questions = load_questions_from_config(config)
        backend = build_backend(config, seed)
    except (ConfigurationError, DatasetError, ConfigError) as exc:
        _fail(EXIT_VALIDATION, str(exc))

    manifest = new_manifest(config, seed, run_dir)
    Path(run_dir).mkdir(parents=True, exist_ok=True)
    try:
        reports, _ = run_divide_phase(
            questions, spec, backend, manifest,
            parallelism=parallelism, progress=click.echo,
        )
    except TransportError as exc:
        _fail(EXIT_TRANSPORT, f"transport failure (completed records persisted): {exc}")
    counts = {s: sum(1 for r in reports if r.subset == s) for s in SUBSETS}
    click.echo(f"partition written to {manifest.partition_path}: {counts}")


@main.command("conquer")
@click.option("--strategy", type=click.Choice([s.lower() for s in STRATEGIES]),
              default="fcr")
@click.option("--sc/--no-sc", default=False, help="Wrap in self-consistency voting.")
@click.option("--rationale-select", type=click.Choice(RATIONALE_SELECT_MODES),
              default="longest")
@click.option("--subsets", type=str, default="med,low",
              help="Comma-separated subsets/fine bins to conquer.")
@click.option("--tail", type=str, default=None, help="Override the prompt tail sentence.")
@click.pass_context
def cmd_conquer(ctx, strategy, sc, rationale_select, subsets, tail):
    """Re-solve the selected confidence subsets with one strategy."""
    try:
        config, seed, parallelism, run_dir = _prepare(ctx)
    except ConfigurationError as exc:
        _fail(EXIT_VALIDATION, str(exc))
    try:
        manifest = RunManifest.load(run_dir)
    except ManifestError as exc:
        _fail(EXIT_VALIDATION, str(exc))
    if not manifest.partition_path.exists():
        _fail(EXIT_VALIDATION, f"partition file missing; run divide first ({manifest.partition_path})")

    try:
        spec = dataset_spec_from_config(config or manifest.config)
        questions = load_questions_from_config(config or manifest.config)
        backend = build_backend(config or manifest.config, seed)
        reports = load_reports(manifest.partition_path)
        subset_list = tuple(s.strip() for s in subsets.split(",") if s.strip())
        outcomes = run_conquer_phase(
            questions, reports, strategy.upper(), backend, manifest,
            subsets=subset_list, self_consistency=sc,
            sc_samples=spec.divide_base, parallelism=parallelism,
            rationale_select=rationale_select, seed=seed, tail_override=tail,
        )
    except (ConfigurationError, DatasetError, ConfigError, ConquerError) as exc:
        _fail(EXIT_VALIDATION, str(exc))
    except CacheMissError as exc:
        _fail(EXIT_VALIDATION, f"divide transcript incomplete: {exc}")
    except TransportError as exc:
        _fail(EXIT_TRANSPORT, f"transport failure (partial transcript persisted): {exc}")
    solved = sum(1 for o in outcomes if o.final_answer is not None)
    click.echo(f"{len(outcomes)} outcomes ({solved} parsed) for subsets {subsets}")


@main.command("simulate")
@click.option("--profiles", "profiles_path", type=click.Path(), default=None,
              help="Profile JSONL; may embed an assertions record.")
@click.option("--family", type=str, default="uniform_correct")
@click.option("--n-questions", type=int, default=500)
@click.option("--divide-base", type=int, default=5)
@click.option("--noise-rate", type=float, default=0.0)
@click.pass_context
def cmd_simulate(ctx, profiles_path, family, n_questions, divide_base, noise_rate):
    """Run the full pipeline on the deterministic mock backend."""
    from .simulate import load_profile_file, run_simulation

    try:
        config, seed, parallelism, run_dir = _prepare(ctx)
    except ConfigurationError as exc:
        _fail(EXIT_VALIDATION, str(exc))

    profiles = None
    assertions = dict(config.get("assertions", {}))
    if profiles_path:
        try:
            profiles, file_assertions = load_profile_file(profiles_path)
        except ConfigError as exc:
            _fail(EXIT_VALIDATION, f"malformed profile file {profiles_path}: {exc}")
        assertions = {**file_assertions, **assertions}

    result = run_simulation(
        run_dir, seed,
        profiles=profiles,
        family=family,
        n_questions=n_questions,
        divide_base=divide_base,
        assertions=assertions,
        parallelism=parallelism,
        noise_rate=noise_rate,
    )
    for name, passed, detail in result.checks:
        click.echo(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    click.echo(f"simulation outputs in {result.run_dir}")
    if not result.ok:
        sys.exit(EXIT_ASSERTION)


@main.command("report")
@click.option("--compare", nargs=2, type=click.Path(), default=None,
              help="Diff two run directories strategy-by-strategy.")
@click.option("--partial/--no-partial", default=False,
              help="Emit a report flagged partial even if phases are incomplete.")
@click.pass_context
def cmd_report(ctx, compare, partial):
    """Emit report.json, summary.csv, and curves.csv for a completed run."""
    if compare:
        _compare_runs(*compare)
        return
    try:
        config, seed, parallelism, run_dir = _prepare(ctx)
        manifest = RunManifest.load(run_dir)
    except (ConfigurationError, ManifestError) as exc:
        _fail(EXIT_VALIDATION, str(exc))
    if not manifest.partition_path.exists():
        _fail(EXIT_VALIDATION, "phase 'divide' incomplete: partition file missing")
    incomplete = [p for p, s in manifest.status.items() if s != "done" and p != "report"]
    if incomplete and not partial:
        _fail(EXIT_VALIDATION,
              f"phases incomplete: {', '.join(sorted(incomplete))}; rerun or pass --partial")
    try:
        spec = dataset_spec_from_config(config or manifest.config)
        questions = load_questions_from_config(config or manifest.config)
        files = run_report_phase(questions, spec, manifest, partial=bool(incomplete))
    except (ConfigurationError, DatasetError, ConfigError) as exc:
        _fail(EXIT_VALIDATION, str(exc))
    except CacheMissError as exc:
        _fail(EXIT_VALIDATION, f"divide transcript incomplete: {exc}")
    for name, path in sorted(files.items()):
        click.echo(f"{name}: {path}")


def _compare_runs(dir_a: str, dir_b: str) -> None:
    rows = []
    trees = []
    for d in (dir_a, dir_b):
        path = Path(d) / "reports" / "report.json"
        if not path.exists():
            _fail(EXIT_VALIDATION, f"no report.json under {d}; run report first")
        trees.append(json.loads(path.read_text(encoding="utf-8")))
    a, b = trees
    strategies = sorted(set(a["strategies"]) | set(b["strategies"]))
    click.echo(f"{'strategy':<14}{'subset':<12}{'a':>8}{'b':>8}{'delta':>8}")
    for strat in strategies:
        subsets = sorted(
            set(a["strategies"].get(strat, {})) | set(b["strategies"].get(strat, {}))
        )
        for subset in subsets:
            acc_a = a["strategies"].get(strat, {}).get(subset, {}).get("accuracy")
            acc_b = b["strategies"].get(strat, {}).get(subset, {}).get("accuracy")
            fmt = lambda x: f"{x * 100:6.2f}" if x is not None else "     -"
            delta = (
                f"{(acc_b - acc_a) * 100:+6.2f}"
                if acc_a is not None and acc_b is not None else "     -"
            )
            rows.append((strat, subset))
            click.echo(f"{strat:<14}{subset:<12}{fmt(acc_a):>8}{fmt(acc_b):>8}{delta:>8}")
    if not rows:
        click.echo("no strategies to compare")


if __name__ == "__main__":
    main()
