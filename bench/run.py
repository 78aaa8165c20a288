"""Benchmark of the qtriage pipeline, driven in-process on the mock backend.

Run from the repository root:

    python3 bench/run.py --workload fresh-uniform --seed 1 --seconds 50 --trace 0

A run generates its inputs from ``--seed`` with ``qtriage.synth``, writes them
as JSONL and loads them back through ``model.load_dataset`` and
``backend.load_profiles``. It then repeats whole passes (divide, one conquer
per strategy, report; the order of ``simulate.run_simulation``) in a fresh run
directory until ``--seconds`` of passes have been measured, with at least two
passes. Every pass's output files are hashed and must match across passes.
``fresh-uniform`` ends with an untimed replay over a copy of the last pass's
transcript, which must reproduce the same files without an inner call.

The transcript's per-entry ``fsync`` is counted, not waited for: while a run
measures, ``qtriage.backend`` sees an ``os`` whose ``fsync`` only counts. Every
write still reaches the file; what is left out is the device flush, whose
latency on a shared disk drifts several-fold over minutes. It would double
the wall time of a pass, halve the passes a run measures and dominate every
span. ``backend.fsync_calls`` reports the count.

Times reported as end-to-end metrics are CPU time of this process
(``time.process_time``), not wall time: on a shared VM the hypervisor takes
the vCPUs away for seconds at a time, and that steal time moved the wall times
of unchanged code by over 25% between two sets of runs. Span times in traced
passes stay wall-clock.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of traced passes interleaved with untraced ones. A table goes to
stdout first; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Progress and failure
tracebacks go to stderr. Scratch files live in ``.bench_work/`` (removed at
exit) and span dumps of traced runs in ``.bench_trace/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time
from typing import Iterator, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(SRC))

from tracing import Tracer, self_times  # noqa: E402

MIN_PASSES = 2
SETUP_SAMPLES = 9


@dataclass(frozen=True)
class Workload:
    family: str
    n_questions: int
    strategies: tuple[tuple[str, bool], ...]  # (strategy, self-consistency)
    parallelism: int
    noise_rate: float
    divide_base: int = 5
    replay_check: bool = False  # end the run with an untimed replay of its transcript


WORKLOADS = {
    "fresh-uniform": Workload(
        family="uniform_correct", n_questions=1000,
        strategies=(("ZTCOT", False), ("FCR", True)), parallelism=2, noise_rate=0.0,
        replay_check=True,
    ),
    "rationale-reuse": Workload(
        family="second_gold", n_questions=1000,
        strategies=(("PKR", False), ("COM1", False), ("COM2", True)),
        parallelism=1, noise_rate=0.05,
    ),
}


class OutputMismatch(Exception):
    pass


class CountingOs:
    """``os`` as ``qtriage.backend`` sees it during a run: ``fsync`` only counts.

    ``TranscriptCache.put`` calls it under the cache's lock, so the count
    needs no lock of its own.
    """

    def __init__(self) -> None:
        self.fsync_calls = 0

    def fsync(self, fd: int) -> None:
        self.fsync_calls += 1

    def __getattr__(self, name: str):
        return getattr(os, name)


@contextlib.contextmanager
def fsync_counted() -> Iterator[CountingOs]:
    from qtriage import backend

    counting = CountingOs()
    backend.os = counting
    try:
        yield counting
    finally:
        backend.os = os


@dataclass
class Context:
    workload: Workload
    seed: int
    questions: list
    backend: object
    spec: object
    config: dict
    golds: dict
    os_seen: CountingOs
    reference_hashes: Optional[dict] = None
    replay_transcript: Optional[Path] = None


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float  # the phase times below and this are CPU time of the process
    divide_s: float
    conquer_s: float
    report_s: float
    inner_calls: int
    fsync_calls: int
    hashes: dict
    stats: dict


def write_inputs(workload: Workload, seed: int, work_dir: Path) -> tuple[Path, Path]:
    from qtriage.backend import save_profiles
    from qtriage.model import save_dataset
    from qtriage.synth import generate_synthetic

    questions, profiles = generate_synthetic(
        workload.n_questions, family=workload.family, seed=seed
    )
    dataset_path = work_dir / "questions.jsonl"
    profiles_path = work_dir / "profiles.jsonl"
    save_dataset(dataset_path, questions)
    save_profiles(profiles_path, profiles)
    return dataset_path, profiles_path


def probe_setup(src: str, dataset: str, profiles: str, seed: str, noise_rate: str) -> float:
    """CPU seconds to import qtriage, load both input files and build the backend.

    Meant to run in a fresh interpreter, so the import is really paid.
    """
    start = process_time()
    sys.path.insert(0, src)
    import qtriage  # noqa: F401
    from qtriage.backend import MockBackend, load_profiles
    from qtriage.model import load_dataset

    load_dataset(dataset)
    MockBackend(load_profiles(profiles), seed=int(seed), noise_rate=float(noise_rate))
    return process_time() - start


def setup_sample(dataset: Path, profiles: Path, seed: int, noise_rate: float) -> float:
    """``probe_setup`` in a fresh interpreter; the child has ended on return."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import run; "
        "print(run.probe_setup(*sys.argv[2:]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(BENCH_DIR), str(SRC), str(dataset),
         str(profiles), str(seed), str(noise_rate)],
        check=True, capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    return float(out.stdout.strip().splitlines()[-1])


def build_context(workload: Workload, seed: int, dataset: Path, profiles: Path,
                  tracer: Optional[Tracer], os_seen: CountingOs) -> Context:
    from qtriage.backend import MockBackend, load_profiles
    from qtriage.model import DatasetSpec, load_dataset

    span = tracer.span if tracer else contextlib.nullcontext
    with span("model.load_dataset"):
        questions = load_dataset(dataset)
    with span("backend.load_profiles"):
        loaded_profiles = load_profiles(profiles)
    backend = MockBackend(loaded_profiles, seed=seed, noise_rate=workload.noise_rate)
    spec = DatasetSpec(name=f"bench-{workload.family}", divide_base=workload.divide_base)
    config = {
        "dataset": {"name": spec.name, "divide_base": spec.divide_base,
                    "mu": [spec.mu.numerator, spec.mu.denominator],
                    "nu": [spec.nu.numerator, spec.nu.denominator]},
        "backend": {"kind": "mock", "noise_rate": workload.noise_rate},
    }
    return Context(workload, seed, questions, backend, spec, config,
                   golds={q.id: q.gold for q in questions}, os_seen=os_seen)


def output_hashes(run_dir: Path) -> dict[str, str]:
    """SHA-256 of every deterministic output file of a pass."""
    rels = ["reports/report.json", "reports/summary.csv", "reports/curves.csv",
            "partition.jsonl"]
    rels += sorted(p.name for p in run_dir.glob("outcomes_*.jsonl"))
    return {rel: hashlib.sha256((run_dir / rel).read_bytes()).hexdigest() for rel in rels}


def check_outputs(hashes: dict[str, str], reference: dict[str, str]) -> None:
    differing = sorted(k for k in hashes.keys() | reference.keys()
                       if hashes.get(k) != reference.get(k))
    if differing:
        raise OutputMismatch(f"outputs differ from the reference pass: {differing}")


def run_pass(ctx: Context, run_dir: Path, tracer: Optional[Tracer] = None) -> PassResult:
    """One timed divide/conquer/report pass in a fresh run directory."""
    from qtriage.manifest import new_manifest
    from qtriage.pipeline import run_conquer_phase, run_divide_phase, run_report_phase

    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    gc.collect()  # every pass starts from the same heap, not the last pass's garbage
    if ctx.replay_transcript is not None:
        shutil.copyfile(ctx.replay_transcript, run_dir / "transcript.jsonl")
    w = ctx.workload
    span = tracer.span if tracer else contextlib.nullcontext
    calls_before, fsyncs_before = ctx.backend.calls, ctx.os_seen.fsync_calls

    t0, c0 = perf_counter(), process_time()
    manifest = new_manifest(ctx.config, ctx.seed, run_dir)
    with span("pipeline.divide_phase"):
        reports, _ = run_divide_phase(
            ctx.questions, ctx.spec, ctx.backend, manifest, parallelism=w.parallelism
        )
    c1 = process_time()
    for strategy, sc in w.strategies:
        with span("pipeline.conquer_phase"):
            run_conquer_phase(
                ctx.questions, reports, strategy, ctx.backend, manifest,
                self_consistency=sc, sc_samples=w.divide_base,
                parallelism=w.parallelism, seed=ctx.seed,
            )
    c2 = process_time()
    with span("pipeline.report_phase"):
        run_report_phase(ctx.questions, ctx.spec, manifest)
    c3, t3 = process_time(), perf_counter()

    return PassResult(
        wall_s=t3 - t0, cpu_s=c3 - c0, divide_s=c1 - c0, conquer_s=c2 - c1, report_s=c3 - c2,
        inner_calls=ctx.backend.calls - calls_before,
        fsync_calls=ctx.os_seen.fsync_calls - fsyncs_before, hashes=output_hashes(run_dir),
        stats=pass_stats(ctx, run_dir),
    )


def pass_stats(ctx: Context, run_dir: Path) -> dict:
    """Exact figures read back from a pass's output files."""
    from qtriage.conquer import load_outcomes
    from qtriage.divide import load_reports, majority_answer

    # A fresh pass's transcript holds exactly the calls it issued.
    tokens = 0
    with (run_dir / "transcript.jsonl").open(encoding="utf-8") as fh:
        for line in fh:
            completion = json.loads(line)["completion"]
            tokens += completion["prompt_tokens"] + completion["output_tokens"]

    reports = load_reports(run_dir / "partition.jsonl")
    strategy, sc = ctx.workload.strategies[-1]
    last = run_dir / f"outcomes_{strategy.lower()}{'+sc' if sc else ''}.jsonl"
    final = {o["question_id"]: o["final_answer"] for o in load_outcomes(last)}
    correct = 0
    for r in reports:
        if r.subset == "high":
            pred = majority_answer(r.histogram)
        else:
            pred = final.get(r.question_id)
        correct += pred is not None and pred == ctx.golds[r.question_id]
    n = len(ctx.questions)
    return {
        "tokens_per_question": tokens / n,
        "final_accuracy": correct / n,
        "high_share": sum(r.subset == "high" for r in reports) / n,
        "transcript_mb": (run_dir / "transcript.jsonl").stat().st_size / 2**20,
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans: list, result: PassResult) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    self_of = self_times(spans)
    durations: dict[str, list[float]] = {}
    selfs: dict[str, float] = {}
    tags: dict[str, list] = {}
    for sid, name, start, end, _parent, _pass, tag in spans:
        durations.setdefault(name, []).append(end - start)
        selfs[name] = selfs.get(name, 0.0) + self_of[sid]
        tags.setdefault(name, []).append(tag)

    def count(name: str) -> int:
        return len(durations.get(name, ()))

    def busy(name: str) -> float:
        return sum(durations.get(name, ()))

    inner = count("backend.complete")
    served = count("backend.cached_complete")
    puts = durations.get("backend.transcript_put", [])
    items = durations.get("conquer.item", [])
    chars = tags.get("prompts.build", [])
    rules = tags.get("extraction.extract", [])
    return {
        "backend.inner_calls": inner,
        "backend.cache_hits": served - inner,
        "backend.cache_hit_ratio": (served - inner) / served if served else 0.0,
        "backend.complete_s": busy("backend.complete"),
        "backend.fsync_calls": result.fsync_calls,
        "backend.transcript_put_s": busy("backend.transcript_put"),
        "backend.transcript_put_p50_us": percentile(puts, 0.50) * 1e6,
        "backend.transcript_put_p99_us": percentile(puts, 0.99) * 1e6,
        "backend.transcript_loads": count("backend.transcript_load"),
        "backend.transcript_load_s": busy("backend.transcript_load"),
        "prompts.build_calls": count("prompts.build"),
        "prompts.build_s": busy("prompts.build"),
        "prompts.mean_chars": sum(chars) / len(chars) if chars else 0.0,
        "extraction.calls": len(rules),
        "extraction.s": busy("extraction.extract"),
        "extraction.unparsed_ratio": rules.count("unparsed") / len(rules) if rules else 0.0,
        "extraction.rule.answer-phrase": rules.count("answer-phrase"),
        "extraction.rule.paren-label": rules.count("paren-label"),
        "extraction.rule.bare-label": rules.count("bare-label"),
        "divide.run_s": busy("divide.run"),
        "divide.self_s": selfs.get("divide.run", 0.0),
        "divide.retranscribe_calls": count("divide.retranscribe"),
        "divide.retranscribe_s": busy("divide.retranscribe"),
        "divide.high_share": result.stats["high_share"],
        "conquer.items": len(items),
        "conquer.self_s": selfs.get("conquer.item", 0.0),
        "conquer.item_p50_us": percentile(items, 0.50) * 1e6,
        "conquer.item_p99_us": percentile(items, 0.99) * 1e6,
        "conquer.no_call_items": sum(1 for t in tags.get("conquer.item", ()) if t),
        "report.metrics_s": busy("report.metrics"),
        "report.curves_s": busy("report.curves"),
        "report.emit_s": busy("report.emit"),
        "pipeline.divide_phase_self_s": selfs.get("pipeline.divide_phase", 0.0),
        "pipeline.conquer_phase_self_s": selfs.get("pipeline.conquer_phase", 0.0),
        "pipeline.report_phase_self_s": selfs.get("pipeline.report_phase", 0.0),
    }


UNITS = {
    "setup_s": "s", "questions_per_s": "1/s", "divide_s": "s", "conquer_s": "s",
    "report_s": "s", "calls_per_question": "count", "tokens_per_question": "count",
    "final_accuracy": "ratio", "peak_rss_mb": "MB", "transcript_mb": "MB",
    "pass_ok_rate": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith("_chars"):
        return "chars"
    return "count"


def run_workload(name: str, workload: Workload, seed: int, seconds: float, trace: bool,
                 work_dir: Path, trace_dir: Optional[Path] = None) -> dict:
    """Set up, run passes for `seconds`, check outputs; return the result object."""
    with fsync_counted() as os_seen:
        return measure(name, workload, seed, seconds, trace, work_dir, trace_dir, os_seen)


def measure(name: str, workload: Workload, seed: int, seconds: float, trace: bool,
            work_dir: Path, trace_dir: Optional[Path], os_seen: CountingOs) -> dict:
    if work_dir.exists():
        shutil.rmtree(work_dir)
    work_dir.mkdir(parents=True)
    dataset, profiles = write_inputs(workload, seed, work_dir)
    setup: list[float] = []

    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.pass_id = "setup"
    ctx = build_context(workload, seed, dataset, profiles, tracer, os_seen)

    traced: list[PassResult] = []
    untraced: list[PassResult] = []
    layer_samples: list[dict] = []
    attempted = failed = 0

    def attempt(label: str, body) -> Optional[PassResult]:
        nonlocal attempted, failed
        attempted += 1
        try:
            result = body()
            if ctx.reference_hashes is None:
                ctx.reference_hashes = result.hashes
            check_outputs(result.hashes, ctx.reference_hashes)
            return result
        except Exception:
            failed += 1
            print(f"{label} failed:", file=sys.stderr)
            traceback.print_exc()
            return None

    def traced_pass() -> PassResult:
        tracer.pass_id = attempted
        first_span = len(tracer.spans)
        with tracer.installed():
            result = run_pass(ctx, work_dir / "run", tracer)
        layer_samples.append(layer_metrics(tracer.spans[first_span:], result))
        return result

    start, last_pass_s = perf_counter(), 0.0
    # Stop before a pass that would end past `seconds`, but run at least
    # MIN_PASSES so outputs are compared across passes. Set-up probes are
    # spread over the run, one before each untraced pass, so that they see
    # the same mix of fast and slow moments of the host as the passes do.
    while attempted < MIN_PASSES or (perf_counter() - start) + last_pass_s <= seconds:
        pass_start = perf_counter()
        use_trace = tracer is not None and attempted % 2 == 1
        if not trace:
            setup.append(setup_sample(dataset, profiles, seed, workload.noise_rate))
        result = attempt(f"pass {attempted + 1}",
                         traced_pass if use_trace else lambda: run_pass(ctx, work_dir / "run"))
        last_pass_s = perf_counter() - pass_start
        if result is None:
            continue
        (traced if use_trace else untraced).append(result)
        print(f"pass {attempted}: cpu {result.cpu_s:.3f} s (divide {result.divide_s:.3f}, "
              f"conquer {result.conquer_s:.3f}, report {result.report_s:.3f}), "
              f"wall {result.wall_s:.3f} s",
              file=sys.stderr)
    while not trace and len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(dataset, profiles, seed, workload.noise_rate))

    last_transcript = work_dir / "run" / "transcript.jsonl"
    if workload.replay_check and last_transcript.is_file():
        # Untimed: rerun over a copy of the last pass's complete transcript;
        # it must reproduce the same files without one inner backend call.
        ctx.replay_transcript = work_dir / "replayed-transcript.jsonl"
        shutil.move(last_transcript, ctx.replay_transcript)

        def replay_pass() -> PassResult:
            result = run_pass(ctx, work_dir / "run")
            if result.inner_calls != 0:
                raise OutputMismatch(f"replay issued {result.inner_calls} backend calls")
            return result

        if attempt("replay check", replay_pass) is not None:
            print("replay check: outputs equal, 0 inner calls", file=sys.stderr)

    if not untraced or (trace and not traced):
        raise RuntimeError(f"{failed} of {attempted} passes failed; no metrics to report")

    n = workload.n_questions
    if trace:
        samples = {k: [m[k] for m in layer_samples] for k in layer_samples[0]}
        setup_spans = [s for s in tracer.spans if s[5] == "setup"]
        for span_name, metric in (("model.load_dataset", "model.load_dataset_s"),
                                  ("backend.load_profiles", "backend.load_profiles_s")):
            samples[metric] = [s[3] - s[2] for s in setup_spans if s[1] == span_name]
        # Untraced and traced passes alternate; differencing each traced pass
        # with the untraced pass just before it cancels most of the host's drift.
        samples["trace.overhead_s"] = [
            t.cpu_s - u.cpu_s for u, t in zip(untraced, traced)
        ]
        units = {k: layer_unit(k) for k in samples}
        if trace_dir is not None:
            trace_dir.mkdir(parents=True, exist_ok=True)
            tracer.write(trace_dir / f"{name}-seed{seed}.tsv.gz")
    else:
        last = untraced[-1].stats
        samples = {
            "setup_s": setup,
            "questions_per_s": [n / r.cpu_s for r in untraced],
            "divide_s": [r.divide_s for r in untraced],
            "conquer_s": [r.conquer_s for r in untraced],
            "report_s": [r.report_s for r in untraced],
            "calls_per_question": [untraced[-1].inner_calls / n],
            "tokens_per_question": [last["tokens_per_question"]],
            "final_accuracy": [last["final_accuracy"]],
            "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024],
            "transcript_mb": [r.stats["transcript_mb"] for r in untraced],
            "pass_ok_rate": [(attempted - failed) / attempted],
        }
        units = UNITS

    metrics = {}
    for key, values in samples.items():
        value = statistics.median(values)
        metrics[key] = {"value": value, "unit": units[key]}
        print(f"{key:34s} {value:14.6f} {units[key]:6s} "
              f"median of {len(values)} (min {min(values):.6g}, max {max(values):.6g})")
    if not trace:
        print(f"wall time of a pass: median {statistics.median(r.wall_s for r in untraced):.6f} s "
              f"(CPU time {statistics.median(r.cpu_s for r in untraced):.6f} s)")
    print(f"passes attempted {attempted}, failed {failed}, "
          f"error_rate {failed / attempted:.4f}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qtriage" / "__init__.py").is_file():
        print(f"qtriage sources not found under {SRC}", file=sys.stderr)
        return 2
    work_dir = ROOT / ".bench_work"
    try:
        result = run_workload(
            args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace), work_dir, trace_dir=ROOT / ".bench_trace",
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
