"""The simulator: question profiles and their file, the synthetic families, and
`MockBackend`, which plays the model in every simulation, test and benchmark.

`MockBackend` draws each completion from its question's profile. These are all
the assumptions it makes about a model:
- A completion is a pure function of (seed, question id, phase, sample index,
  prompt), so reruns and replays are bit-exact whatever the scheduling.
- Temperature 0 takes the argmax, a tie going to the first label in sorted
  order; above 0 it samples the raw distribution.
- A request's `label_map`, the `(new, original)` pairs of FCR's `LabelMapping`,
  restricts the support to the kept choices and renames them.
- `gold_uplift` scales the gold's probability for a request built for a strategy
  in `UPLIFTED`, which is every conquer strategy but the plain re-query: reusing
  rationales lets longer reasoning paths avoid harmful shortcuts (PKR), and
  a shorter choice list focuses the model on the plausible answers (FCR).
- `noise_rate` is the share of completions that drop the answer sentinel.
- Rationale lengths are exponential with the profile's mean, with a minimum of 20.
- Tokens are counted as len/4, at least 1, for prompt and output.

The samples of a plan differ only in their sample index, so `MockBackend`
derives once per plan what they share: the draw table (sorted support,
cumulative probabilities, answer lines) and the prompt's digest. It keeps the
last of each beside what it was derived from (profile, `label_map` and uplift;
prompt), so neither ever changes a completion, and a request that matches
neither derives it afresh.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import random
import threading
from dataclasses import asdict, dataclass
from importlib import resources
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple, Optional

from .backend import Backend, Completion, CompletionRequest, ConfigError, _short_hash
from .model import LABELS, DatasetError, Question, parse_as, read_jsonl, write_atomic

PROFILE_FAMILIES = ("uniform_correct", "second_gold", "certain")
UPLIFTED = frozenset({"PKR", "FCR", "COM1", "COM2"})  # the strategies `gold_uplift` applies to


@dataclass(frozen=True)
class QuestionProfile:
    """Simulated answer behaviour for one question, checked when it is made."""

    question_id: str
    answer_distribution: dict[str, float]
    rationale_length_mean: int = 200
    gold: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.answer_distribution:
            raise ConfigError(f"profile {self.question_id}: empty distribution")
        total = sum(self.answer_distribution.values())
        if not all(0 <= p <= 1 for p in self.answer_distribution.values()):
            raise ConfigError(f"profile {self.question_id}: probability outside [0, 1]")
        if not abs(total - 1.0) <= 1e-9:
            raise ConfigError(f"profile {self.question_id}: probabilities sum to {total}")
        if self.rationale_length_mean <= 0:
            raise ConfigError(f"profile {self.question_id}: non-positive rationale length")


def load_profiles(path: str | Path) -> dict[str, QuestionProfile]:
    """Read a profile JSONL's profiles; its assertions records are checked and skipped."""
    return load_profile_file(path)[0]


def load_profile_file(
    path: str | Path, data: Optional[bytes] = None
) -> tuple[dict[str, QuestionProfile], dict]:
    """Read a profile JSONL or its `data`; a record with an 'assertions' key configures
    simulator checks."""
    profiles: dict[str, QuestionProfile] = {}
    assertions: dict = {}
    for lineno, rec in read_jsonl(path, ConfigError, data):
        where = f"{path} line {lineno}"
        if "assertions" in rec and "question_id" not in rec:
            if not isinstance(rec["assertions"], dict):
                raise ConfigError(f"{where}: assertions must be an object")
            assertions.update(rec["assertions"])
            continue
        missing = [k for k in ("question_id", "answer_distribution") if k not in rec]
        if missing:
            raise ConfigError(f"{where}: missing {', '.join(missing)}")
        qid, dist = rec["question_id"], rec["answer_distribution"]
        if not isinstance(qid, str) or not qid:
            raise ConfigError(f"{where}: question_id must be a non-empty string")
        if qid in profiles:
            raise ConfigError(f"{where}: duplicate question_id {qid!r}")
        if not isinstance(dist, dict):
            raise ConfigError(f"{where}: answer_distribution must be an object")
        try:
            dist = {k: parse_as(float, v) for k, v in dist.items()}
            length = parse_as(int, rec.get("rationale_length_mean", 200))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(
                f"{where}: answer_distribution values must be numbers and "
                f"rationale_length_mean an integer: {exc}"
            ) from exc
        gold = rec.get("gold")
        if gold is not None and not isinstance(gold, str):
            raise ConfigError(f"{where}: gold must be a string or null, not {gold!r}")
        try:
            profiles[qid] = QuestionProfile(qid, dist, rationale_length_mean=length, gold=gold)
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    return profiles, assertions


def save_profiles(path: str | Path, profiles: dict[str, QuestionProfile]) -> None:
    """Write profiles as `load_profile_file` reads them, in question id order,
    replacing `path` atomically."""
    records = ({k: v for k, v in asdict(profiles[qid]).items() if v is not None}
               for qid in sorted(profiles))
    write_atomic(path, "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records))


_FILLER_WORDS = (
    "consider the given information and work through each part carefully "
    "then compare the remaining possibilities before settling on one"
).split()

_NOISE_ENDING = "\ni cannot settle on a single option here."


def _rotation(start: int) -> tuple[str, list[int]]:
    """The filler words read from word `start` round the cycle, each followed by
    a space, and the offset just past each word's space, after a leading 0."""
    words = _FILLER_WORDS[start:] + _FILLER_WORDS[:start]
    ends = [0]
    for word in words:
        ends.append(ends[-1] + len(word) + 1)
    return " ".join(words) + " ", ends


_ROTATIONS = tuple(_rotation(start) for start in range(len(_FILLER_WORDS)))
_CYCLE = len(_ROTATIONS[0][0])  # characters in one pass over the words, spaces included


def _filler(start: int, target: int) -> str:
    """The fewest filler words, cycling from word `start`, whose lengths plus one
    each sum to at least `target`, joined by spaces."""
    text, ends = _ROTATIONS[start]
    cycles, rest = divmod(target, _CYCLE)
    size = cycles * _CYCLE + ends[bisect.bisect_left(ends, rest)]
    return (text * (cycles + 1))[:size - 1] if size else ""


def _answer_line(value: str) -> str:
    """The line a completion that emits `value` ends with; a label goes in parentheses."""
    if len(value) == 1 and value.isupper():
        return f"\nSo the answer is ({value})."
    return f"\nSo the answer is {value}."


class _DrawTable(NamedTuple):
    """What the samples of one plan share: its emitted values in sorted order."""

    cumulative: list[float]  # each value's cumulative probability, summed in that order
    endings: list[str]  # each value's answer line
    greedy: str  # the answer line of the argmax, a tie going to the first value


class MockBackend(Backend):
    """Deterministic simulator: draws answers from per-question profiles, under
    the assumptions the module docstring lists."""

    waits = False

    def __init__(
        self,
        profiles: dict[str, QuestionProfile],
        seed: int,
        noise_rate: float = 0.0,
        gold_uplift: float = 1.0,
    ) -> None:
        self.profiles = profiles
        self.seed = seed
        self.noise_rate = noise_rate
        self.gold_uplift = gold_uplift
        self.calls = 0
        self._lock = threading.Lock()
        # The last request's shared work, each one tuple so a thread swaps it whole:
        # (prompt, its digest) and (profile, label_map, uplifted, draw table).
        self._digest: tuple = (None, "")
        self._table: tuple = (None, None, None, None)

    def _rng(self, req: CompletionRequest) -> random.Random:
        prompt, digest = self._digest
        if prompt != req.prompt:
            prompt, digest = self._digest = (req.prompt, _short_hash(req.prompt))
        material = (
            f"{self.seed}|{req.question_id}|{req.phase}|{req.sample_index}|{digest}"
        ).encode("utf-8")
        return random.Random(int.from_bytes(hashlib.sha256(material).digest()[:8], "big"))

    def _draw_table(self, profile: QuestionProfile, label_map, uplifted: bool) -> _DrawTable:
        """The draw table of the distribution over emitted values after `label_map`
        and the strategy's effect."""
        dist = dict(profile.answer_distribution)
        rename = {}  # a value the label map renames -> the label it is emitted as
        if label_map:
            rename = {orig: new for new, orig in label_map}
            dist = {k: v for k, v in dist.items() if k in rename}
            if not dist:
                raise ConfigError(
                    f"profile {profile.question_id}: no probability mass on labels {sorted(rename)}"
                )

        if uplifted and profile.gold in dist:
            dist[profile.gold] *= self.gold_uplift

        total = sum(dist.values())
        items = sorted((k, v / total) for k, v in dist.items())
        endings = [_answer_line(rename.get(k, k)) for k, _ in items]
        greedy = endings[items.index(max(items, key=lambda kv: kv[1]))]
        return _DrawTable(list(accumulate(p for _, p in items)), endings, greedy)

    def _rationale(self, mean_len: int, rng: random.Random) -> str:
        target = max(20, int(-mean_len * math.log(1.0 - rng.random())))
        return _filler(rng.randrange(len(_FILLER_WORDS)), target)

    def complete(self, req: CompletionRequest) -> Completion:
        profile = self.profiles.get(req.question_id)
        if profile is None:
            raise ConfigError(f"no simulator profile for question {req.question_id!r}")
        with self._lock:
            self.calls += 1
        rng = self._rng(req)
        label_map = req.metadata.get("label_map")
        label_map = tuple(map(tuple, label_map)) if label_map else ()
        uplifted = req.metadata.get("strategy") in UPLIFTED
        known, known_map, known_uplifted, table = self._table
        if not (known is profile and known_map == label_map and known_uplifted is uplifted):
            table = self._draw_table(profile, label_map, uplifted)
            self._table = (profile, label_map, uplifted, table)
        if req.temperature == 0:
            ending = table.greedy
        else:  # the first value whose cumulative probability exceeds a uniform draw
            cumulative = table.cumulative
            ending = table.endings[min(bisect.bisect_right(cumulative, rng.random()),
                                       len(cumulative) - 1)]

        body = self._rationale(profile.rationale_length_mean, rng)
        if self.noise_rate > 0 and rng.random() < self.noise_rate:
            ending = _NOISE_ENDING
        text = body + ending

        return Completion(
            text=text,
            prompt_tokens=max(1, len(req.prompt) // 4),
            output_tokens=max(1, len(text) // 4),
        )


def bundled_data_path(name: str) -> Path:
    """Path to a data file shipped with the package (e.g. the toy dataset)."""
    path = resources.files("qtriage").joinpath("data", name)
    return Path(str(path))


def questions_from_profiles(profiles: dict[str, QuestionProfile]) -> list[Question]:
    """Synthesize question shells for profiles that lack a dataset file, each
    checked as a dataset question is."""
    questions = []
    for qid in sorted(profiles):
        p = profiles[qid]
        for answer in p.answer_distribution:
            if len(answer) != 1 or answer not in LABELS:
                raise ConfigError(
                    f"profile {qid}: answer {answer!r} is not a choice label to derive "
                    "a question from"
                )
        n_choices = max(LABELS.index(lab) for lab in p.answer_distribution) + 1
        number = qid.lstrip("q")
        i = int(number) if number.isdecimal() else 0
        try:
            questions.append(Question(
                id=qid,
                text=f"Synthetic reasoning item number {i}: which candidate fits best?",
                choices=tuple((lab, f"candidate {lab.lower()}{i}") for lab in LABELS[:n_choices]),
                gold=p.gold,
                source="profile",
            ))
        except DatasetError as exc:
            raise ConfigError(f"profile {qid}: {exc}") from exc
    return questions


def generate_synthetic(
    n: int,
    family: str = "uniform_correct",
    seed: int = 0,
) -> tuple[list[Question], dict[str, QuestionProfile]]:
    """Build n questions of five choices plus matching simulator profiles, each
    with a mean rationale length of 160.

    Families:
      uniform_correct - gold probability drawn uniformly from [0.1, 1.0],
        remainder spread over the other options; spans easy to hard items.
      second_gold - a distractor gets 0.45, gold 0.35, the rest share 0.2;
        greedy decoding always picks the distractor, so choice filtering
        has headroom to recover the gold answer.
      certain - all mass on gold; every item lands in the high subset.
    """
    if n < 1:
        raise ConfigError(f"n_questions is not an integer >= 1: {n}")
    if family not in PROFILE_FAMILIES:
        raise ConfigError(
            f"unknown profile family {family!r}; known: {', '.join(PROFILE_FAMILIES)}"
        )
    rng = random.Random(seed)
    profiles: dict[str, QuestionProfile] = {}

    for i in range(n):
        labels = list(LABELS[:5])
        gold = rng.choice(labels)
        dist: dict[str, float]

        if family == "certain":  # the other labels at 0.0, so the question keeps five choices
            dist = {**dict.fromkeys(labels, 0.0), gold: 1.0}
        elif family == "second_gold":
            others = [lab for lab in labels if lab != gold]
            distractor = rng.choice(others)
            rest = [lab for lab in others if lab != distractor]
            dist = {distractor: 0.45, gold: 0.35}
            for lab in rest:
                dist[lab] = 0.2 / len(rest)
        else:  # uniform_correct
            p_gold = rng.uniform(0.1, 1.0)
            others = [lab for lab in labels if lab != gold]
            weights = [rng.random() for _ in others]
            wsum = sum(weights) or 1.0
            dist = {gold: p_gold}
            for lab, w in zip(others, weights):
                dist[lab] = (1.0 - p_gold) * w / wsum

        total = sum(dist.values())
        dist = {k: v / total for k, v in dist.items()}
        # Nudge the largest entry so floating error cannot break the sum invariant.
        drift = 1.0 - sum(dist.values())
        top = max(dist, key=lambda k: dist[k])
        dist[top] += drift

        qid = f"q{i:04d}"
        profiles[qid] = QuestionProfile(qid, dist, rationale_length_mean=160, gold=gold)
    return questions_from_profiles(profiles), profiles
