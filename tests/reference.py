"""A second, independent computation of a finished run's divide partition.

`reference_partition(run_dir)` reads only the run's own files: `manifest.json`
for t (`divide_base`), mu, nu and the dataset path, the dataset, and
`transcript.jsonl`. Of qtriage it uses answer extraction and dataset loading
alone, so a fault in divide's histogram, score, subset or vote code cannot
hide in it.

For each question, in dataset order, it takes the divide completions of
sample indices 0..t-1 from the transcript, which may also hold conquer lines
and the samples of an earlier, larger divide, and folds their answers in
sample order:

- an unparsed sample counts for no answer but stays in the denominator;
- cs = (count of the most frequent answer) / t;
- the subset is `high` above mu, `med` above nu, else `low`, all by strict `>`;
- the low subset splits into `low_top` above 2/5, else `low_bottom`;
- the majority is the most frequent answer, a tie going to the one seen first.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Optional

from qtriage.extraction import extract_choice_answer, extract_numeric_answer
from qtriage.model import load_dataset

FINE_SPLIT = Fraction(2, 5)


def _divide_texts(transcript: Path, t: int) -> dict[str, dict[int, str]]:
    """question id -> sample index -> text of each divide completion below `t`."""
    texts: dict[str, dict[int, str]] = {}
    for line in transcript.read_text(encoding="utf-8").splitlines():
        entry = json.loads(line)
        qid, phase, index, _ = entry["key"].rsplit("|", 3)
        if phase != "divide" or int(index) >= t:
            continue
        own = texts.setdefault(qid, {})
        assert int(index) not in own, f"two divide prompts for {qid} sample {index}"
        own[int(index)] = entry["completion"]["text"]
    return texts


def _answer(question, text: str) -> Optional[str]:
    if question.kind == "cloze" or not question.choices:
        found = extract_numeric_answer(text)
    else:
        found = extract_choice_answer(text, set(question.labels()))
    return found.value if found.is_parsed else None


def _bin(cs: Fraction, mu: Fraction, nu: Fraction) -> tuple[str, str]:
    subset = "high" if cs > mu else "med" if cs > nu else "low"
    if subset != "low":
        return subset, subset
    return subset, "low_top" if cs > FINE_SPLIT else "low_bottom"


def reference_partition(run_dir: str | Path) -> tuple[list[dict], dict[str, Optional[str]]]:
    """The lines `partition.jsonl` should hold, as dicts, and each question's
    divide majority (None when no sample parsed)."""
    run_dir = Path(run_dir)
    config = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))["config"]
    dataset = config["dataset"]
    t = dataset["divide_base"]
    mu, nu = Fraction(*dataset["mu"]), Fraction(*dataset["nu"])
    questions = load_dataset(run_dir / dataset["path"], schema=dataset["schema"])
    texts = _divide_texts(run_dir / "transcript.jsonl", t)

    lines, majorities = [], {}
    for q in questions:
        own = texts.get(q.id, {})
        assert sorted(own) == list(range(t)), f"{q.id}: divide samples {sorted(own)} of {t}"
        counts: dict[str, int] = {}  # insertion order is first-seen order
        first_seen: dict[str, int] = {}
        for index in range(t):
            answer = _answer(q, own[index])
            if answer is not None:
                counts[answer] = counts.get(answer, 0) + 1
                first_seen.setdefault(answer, index)
        top = max(counts.values(), default=0)
        cs = Fraction(top, t)
        subset, fine_bin = _bin(cs, mu, nu)
        lines.append({
            "question_id": q.id,
            "counts": dict(sorted(counts.items())),
            "first_seen": dict(sorted(first_seen.items())),
            "total_samples": t,
            "unparsed_count": t - sum(counts.values()),
            "cs": [cs.numerator, cs.denominator],
            "subset": subset,
            "fine_bin": fine_bin,
        })
        majorities[q.id] = next((a for a, c in counts.items() if c == top), None)
    return lines, majorities
