"""The fault model of the CLI pipeline.

The toy20 sequence `divide`; `conquer --strategy pkr`; `conquer --strategy fcr
--sc`; `report` runs with one fault: the mock raises `TransportError` at one
call, or `os.replace` fails at one write. After it, the failing command has
exited non-zero with one `error:` line; `report` either refuses or writes what
an uninterrupted run of the commands that had finished writes; and rerunning
from the failed command issues exactly the calls still missing and ends on the
bytes of an uninterrupted run.
"""

import errno
import json
import os
import tempfile
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from qtriage.backend import TransportError
from qtriage.cli import main
from qtriage.synth import MockBackend, bundled_data_path

SEQUENCE = (["divide"], ["conquer", "--strategy", "pkr"],
            ["conquer", "--strategy", "fcr", "--sc"], ["report"])
OUTPUTS = ("partition.jsonl", "outcomes_pkr.jsonl", "outcomes_fcr+sc.jsonl",
           "reports/report.json", "reports/summary.csv", "reports/curves.csv",
           "transcript.jsonl")
REPORTS = ("reports/report.json", "reports/summary.csv", "reports/curves.csv")


class Faults:
    """Counts mock calls and file replaces, and fails the one `kind` names at index `at`."""

    def __init__(self, kind=None, at=None):
        self.kind, self.at = kind, at
        self.seen = {"call": 0, "write": 0}
        self.issued = []  # the key of every call that went through

    def hit(self, kind):
        index, self.seen[kind] = self.seen[kind], self.seen[kind] + 1
        return (kind, index) == (self.kind, self.at)


@contextmanager
def injected(faults):
    complete, replace = MockBackend.complete, os.replace

    def flaky_complete(self, req):
        if faults.hit("call"):
            raise TransportError("injected outage")
        faults.issued.append(req.key())
        return complete(self, req)

    def flaky_replace(src, dst):
        if faults.hit("write"):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        replace(src, dst)

    MockBackend.complete, os.replace = flaky_complete, flaky_replace
    try:
        yield faults
    finally:
        MockBackend.complete, os.replace = complete, replace


def cli_args(tmp, parallelism):
    run_dir = Path(tmp) / "run"
    config = Path(tmp) / "config.json"
    config.write_text(json.dumps({
        "dataset": {"path": str(bundled_data_path("toy20.jsonl")), "name": "toy20",
                    "divide_base": 5},
        "backend": {"kind": "mock", "profiles": str(bundled_data_path("toy20_profiles.jsonl"))},
        "run_dir": str(run_dir),
    }))
    return ["--config", str(config), "--seed", "42", "--parallelism", str(parallelism)], run_dir


def read(run_dir, names):
    return {name: (run_dir / name).read_bytes() for name in names}


def keys(run_dir):
    path = run_dir / "transcript.jsonl"
    lines = path.read_text().splitlines() if path.exists() else []
    return [json.loads(line)["key"] for line in lines]


@lru_cache(maxsize=None)
def uninterrupted():
    """The counts, final bytes and transcript keys of a clean run, and the report
    bytes after each prefix of the sequence, or None where `report` refuses it."""
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        base, run_dir = cli_args(tmp, 1)
        faults = Faults()
        prefix_reports = []
        with injected(faults):
            for command in SEQUENCE:
                result = runner.invoke(main, base + command)
                assert result.exit_code == 0, result.output
                prefix_reports.append(None)
                seen = dict(faults.seen)
                if runner.invoke(main, base + ["report"]).exit_code == 0:
                    prefix_reports[-1] = read(run_dir, REPORTS)
                faults.seen = seen  # the check's own writes are not the sequence's
        return faults.seen, read(run_dir, OUTPUTS), keys(run_dir), prefix_reports


@settings(max_examples=14, deadline=None)
@given(parallelism=st.sampled_from([1, 4]), kind=st.sampled_from(["call", "write"]),
       where=st.floats(0, 1, exclude_max=True))
@example(parallelism=4, kind="call", where=0.95)  # an SC round after the first
@example(parallelism=1, kind="write", where=0.99)  # the report's last write
def test_a_fault_leaves_honest_files_and_a_rerun_converges(parallelism, kind, where):
    counts, final, final_keys, prefix_reports = uninterrupted()
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        base, run_dir = cli_args(tmp, parallelism)
        with injected(Faults(kind, int(where * counts[kind]))):
            for failed, command in enumerate(SEQUENCE):
                result = runner.invoke(main, base + command)
                if result.exit_code != 0:
                    break
        assert result.exit_code != 0, "the fault never landed"
        assert isinstance(result.exception, SystemExit), repr(result.exception)
        errors = [line for line in result.output.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1, result.output

        report = runner.invoke(main, base + ["report"])
        if report.exit_code != 0:
            assert report.exit_code == 1, report.output
        else:
            finished = prefix_reports[failed - 1] if failed else None
            assert finished is not None and read(run_dir, REPORTS) == finished

        missing = sorted(set(final_keys) - set(keys(run_dir)))
        with injected(Faults()) as rerun:
            for command in SEQUENCE[failed:]:
                result = runner.invoke(main, base + command)
                assert result.exit_code == 0, result.output
        assert sorted(rerun.issued) == missing
        assert read(run_dir, OUTPUTS) == final
