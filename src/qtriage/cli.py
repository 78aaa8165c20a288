"""Command line entry points: divide, conquer, simulate, report."""

from __future__ import annotations

import sys
from pathlib import Path

import click

from .backend import ConfigError, TransportError
from .conquer import RATIONALE_SELECT_MODES
from .divide import SUBSETS, load_reports
from .manifest import RunManifest, dataset_spec, new_manifest, parse_config, stored_config
from .model import QtriageError, read_json
from .pipeline import (
    load_inputs,
    load_questions,
    run_conquer_phase,
    run_divide_phase,
    run_report_phase,
)
from .prompts import STRATEGIES
from .report import ReportError
from .synth import load_profile_file

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
    ctx.obj["options"] = {"seed": seed, "parallelism": parallelism, "run_dir": cache_dir}


def _config(ctx) -> tuple[str, dict]:
    """The `--config` file as a source for `parse_config`; an empty tree without one."""
    path = ctx.obj["config_path"]
    return f"{path}: config", read_json(path, ConfigError) if path else {}


def _settings(ctx, *sources: tuple[str, dict], **options) -> dict:
    """The run settings: the global options and the command's `options` (a config
    tree), else the first of `sources` that holds each, else the defaults."""
    return parse_config(("option", {**ctx.obj["options"], **options}), *sources)


def _run(ctx) -> tuple[dict, RunManifest]:
    """The settings and manifest of the run `conquer` or `report` works on; a run
    without a `--config` that holds anything is read with the config it stored."""
    label, config = _config(ctx)
    settings = _settings(ctx, (label, config))
    manifest = RunManifest.load(settings["run_dir"])
    if not config:
        settings = _settings(ctx, (f"{manifest.run_dir}/manifest.json: config", manifest.config))
    return settings, manifest


@main.command("divide")
@click.option("--mu", type=str, default=None, help="High/med threshold, e.g. 0.8 or 4/5.")
@click.option("--nu", type=str, default=None, help="Med/low threshold.")
@click.option("--divide-base", type=int, default=None, help="Samples per question.")
@click.pass_context
def cmd_divide(ctx, mu, nu, divide_base):
    """Sample each question and partition the dataset by confidence."""
    settings = _settings(ctx, _config(ctx),
                         dataset={"mu": mu, "nu": nu, "divide_base": divide_base})
    seed = settings["seed"] or 0
    questions, backend = load_inputs(settings, seed)
    manifest = new_manifest(stored_config(settings), seed, settings["run_dir"])
    reports, _ = run_divide_phase(
        questions, dataset_spec(settings), backend, manifest,
        parallelism=settings["parallelism"], progress=click.echo,
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
    settings, manifest = _run(ctx)
    reports = load_reports(manifest.partition_path)
    seed = manifest.seed if settings["seed"] is None else settings["seed"]
    spec = dataset_spec(settings)
    questions, backend = load_inputs(settings, seed)
    subset_list = tuple(s.strip() for s in subsets.split(",") if s.strip())
    outcomes = run_conquer_phase(
        questions, reports, strategy.upper(), backend, manifest,
        subsets=subset_list, self_consistency=sc,
        sc_samples=spec.divide_base, parallelism=settings["parallelism"],
        rationale_select=rationale_select, seed=seed, tail_override=tail,
    )
    solved = sum(1 for o in outcomes if o.final_answer is not None)
    click.echo(f"{len(outcomes)} outcomes ({solved} parsed) for subsets {subsets}")


@main.command("simulate")
@click.option("--profiles", "profiles_path", type=click.Path(), default=None,
              help="Profile JSONL; may embed an assertions record.")
@click.option("--family", type=str, default="uniform_correct")
@click.option("--n-questions", type=int, default=500)
@click.option("--divide-base", type=int, default=None, help="Samples per question.")
@click.option("--noise-rate", type=float, default=None, help="Mock backend noise rate.")
@click.pass_context
def cmd_simulate(ctx, profiles_path, family, n_questions, divide_base, noise_rate):
    """Run the full pipeline on the deterministic mock backend."""
    from .simulate import run_simulation

    profiles, assertions = load_profile_file(profiles_path) if profiles_path else (None, {})
    settings = _settings(
        ctx, _config(ctx), (f"{profiles_path}:", {"assertions": assertions}),
        dataset={"divide_base": divide_base}, backend={"noise_rate": noise_rate},
    )
    result = run_simulation(settings["run_dir"], settings["seed"] or 0, settings,
                            profiles=profiles, family=family, n_questions=n_questions)
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
    settings, manifest = _run(ctx)
    files = run_report_phase(
        load_questions(settings), dataset_spec(settings), manifest, partial=partial
    )
    for name, path in sorted(files.items()):
        click.echo(f"{name}: {path}")


def _report_strategies(run_dir: str) -> dict:
    path = Path(run_dir) / "reports" / "report.json"
    strategies = read_json(path, ReportError).get("strategies")
    if not isinstance(strategies, dict):
        raise ReportError(f"{path}: key 'strategies' missing or not an object")
    for strat, subsets in strategies.items():
        if not isinstance(subsets, dict):
            raise ReportError(f"{path}: strategies.{strat} is not an object")
        for subset, entry in subsets.items():
            where = f"strategies.{strat}.{subset}"
            if not isinstance(entry, dict):
                raise ReportError(f"{path}: {where} is not an object")
            accuracy = entry.get("accuracy")
            if accuracy is not None and not isinstance(accuracy, (int, float)):
                raise ReportError(f"{path}: {where}.accuracy is not a number or null")
    return strategies


def _compare_runs(dir_a: str, dir_b: str) -> None:
    rows = []
    a, b = _report_strategies(dir_a), _report_strategies(dir_b)
    strategies = sorted(set(a) | set(b))
    click.echo(f"{'strategy':<14}{'subset':<12}{'a':>8}{'b':>8}{'delta':>8}")
    for strat in strategies:
        subsets = sorted(set(a.get(strat, {})) | set(b.get(strat, {})))
        for subset in subsets:
            acc_a = a.get(strat, {}).get(subset, {}).get("accuracy")
            acc_b = b.get(strat, {}).get(subset, {}).get("accuracy")
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
