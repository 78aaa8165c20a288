"""Command line entry points: divide, conquer, simulate, report."""

from __future__ import annotations

import sys
from pathlib import Path

import click

from .backend import TransportError
from .conquer import RATIONALE_SELECT_MODES
from .divide import SUBSETS, load_reports
from .manifest import RunManifest, new_manifest
from .model import QtriageError, read_json
from .pipeline import (
    build_backend,
    config_number,
    dataset_spec_from_config,
    load_config,
    load_questions_from_config,
    run_conquer_phase,
    run_divide_phase,
    run_report_phase,
)
from .prompts import STRATEGIES
from .report import ReportError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_TRANSPORT = 2
EXIT_ASSERTION = 3


class QtriageGroup(click.Group):
    """The one place a qtriage error becomes an `error:` line and an exit code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except TransportError as exc:
            code, message = EXIT_TRANSPORT, str(exc)
        except QtriageError as exc:
            code, message = EXIT_VALIDATION, str(exc)
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


@click.group(cls=QtriageGroup)
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="JSON configuration file; flags override its values.")
@click.option("--seed", type=int, default=None,
              help="Seed for all stochastic steps (conquer: defaults to the run's).")
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


def _setting(ctx, config, key, default):
    """An integer setting: the global flag, else the config's value, else `default`."""
    if ctx.obj.get(key) is not None:
        return ctx.obj[key]
    return config_number(config, key, default)


def _prepare(ctx, extra_overrides=None):
    config = _merge_config(ctx.obj["config_path"], extra_overrides or {})
    run_dir = ctx.obj.get("cache_dir") or config.get("run_dir") or "run"
    return config, run_dir


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
    config, run_dir = _prepare(ctx, overrides)
    seed = _setting(ctx, config, "seed", 0)
    parallelism = _setting(ctx, config, "parallelism", 1)
    spec = dataset_spec_from_config(config)
    questions = load_questions_from_config(config)
    backend = build_backend(config, seed)

    manifest = new_manifest(config, seed, run_dir)
    Path(run_dir).mkdir(parents=True, exist_ok=True)
    reports, _ = run_divide_phase(
        questions, spec, backend, manifest, parallelism=parallelism, progress=click.echo,
    )
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
    config, run_dir = _prepare(ctx)
    manifest = RunManifest.load(run_dir)
    reports = load_reports(manifest.partition_path)
    config = config or manifest.config
    seed = _setting(ctx, config, "seed", manifest.seed)
    parallelism = _setting(ctx, config, "parallelism", 1)
    spec = dataset_spec_from_config(config)
    questions = load_questions_from_config(config)
    backend = build_backend(config, seed)
    subset_list = tuple(s.strip() for s in subsets.split(",") if s.strip())
    outcomes = run_conquer_phase(
        questions, reports, strategy.upper(), backend, manifest,
        subsets=subset_list, self_consistency=sc,
        sc_samples=spec.divide_base, parallelism=parallelism,
        rationale_select=rationale_select, seed=seed, tail_override=tail,
    )
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

    config, run_dir = _prepare(ctx)
    profiles = None
    assertions = dict(config.get("assertions", {}))
    if profiles_path:
        profiles, file_assertions = load_profile_file(profiles_path)
        assertions = {**file_assertions, **assertions}

    result = run_simulation(
        run_dir, _setting(ctx, config, "seed", 0),
        profiles=profiles,
        family=family,
        n_questions=n_questions,
        divide_base=divide_base,
        assertions=assertions,
        parallelism=_setting(ctx, config, "parallelism", 1),
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
    config, run_dir = _prepare(ctx)
    manifest = RunManifest.load(run_dir)
    config = config or manifest.config
    spec = dataset_spec_from_config(config)
    questions = load_questions_from_config(config)
    files = run_report_phase(questions, spec, manifest, partial=partial)
    for name, path in sorted(files.items()):
        click.echo(f"{name}: {path}")


def _compare_runs(dir_a: str, dir_b: str) -> None:
    rows = []
    a, b = (read_json(Path(d) / "reports" / "report.json", ReportError) for d in (dir_a, dir_b))
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
