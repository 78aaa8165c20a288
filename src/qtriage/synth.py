"""Synthetic question/profile generators for simulator runs and tests."""

from __future__ import annotations

import random
from importlib import resources
from pathlib import Path

from .backend import ConfigError, QuestionProfile
from .model import LABELS, Question

PROFILE_FAMILIES = ("uniform_correct", "second_gold", "certain")


def bundled_data_path(name: str) -> Path:
    """Path to a data file shipped with the package (e.g. the toy dataset)."""
    path = resources.files("qtriage").joinpath("data", name)
    return Path(str(path))


def _make_question(i: int, n_choices: int, gold: str, source: str) -> Question:
    contents = tuple(
        (LABELS[c], f"candidate {LABELS[c].lower()}{i}") for c in range(n_choices)
    )
    return Question(
        id=f"q{i:04d}",
        text=f"Synthetic reasoning item number {i}: which candidate fits best?",
        choices=contents,
        gold=gold,
        source=source,
        kind="mcq",
    )


def generate_synthetic(
    n: int,
    family: str = "uniform_correct",
    seed: int = 0,
    n_choices: int = 5,
    rationale_length_mean: int = 160,
) -> tuple[list[Question], dict[str, QuestionProfile]]:
    """Build n questions plus matching simulator profiles.

    Families:
      uniform_correct - gold probability drawn uniformly from [0.1, 1.0],
        remainder spread over the other options; spans easy to hard items.
      second_gold - a distractor gets 0.45, gold 0.35, the rest share 0.2;
        greedy decoding always picks the distractor, so choice filtering
        has headroom to recover the gold answer.
      certain - all mass on gold; every item lands in the high subset.
    """
    if family not in PROFILE_FAMILIES:
        raise ConfigError(
            f"unknown profile family {family!r}; known: {', '.join(PROFILE_FAMILIES)}"
        )
    rng = random.Random(seed)
    questions: list[Question] = []
    profiles: dict[str, QuestionProfile] = {}

    for i in range(n):
        labels = list(LABELS[:n_choices])
        gold = rng.choice(labels)
        q = _make_question(i, n_choices, gold, source=f"synthetic-{family}")
        dist: dict[str, float]

        if family == "certain":
            dist = {gold: 1.0}
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

        profiles[q.id] = QuestionProfile(
            question_id=q.id,
            answer_distribution=dist,
            rationale_length_mean=rationale_length_mean,
            gold=gold,
        )
        questions.append(q)
    return questions, profiles

