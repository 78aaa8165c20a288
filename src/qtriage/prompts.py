"""Prompt construction for the divide and conquer phases.

Layout is fixed: question stem, then an "Answer Choices:" block, then an
optional "Prior reasoning:" block, then the strategy's tail instruction.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .model import QtriageError, Question

ZTCOT_TAIL = "Let's think step by step."
PKR_TAIL = "let's delve deeper into this question to arrive at the best answer"
FCR_TAIL = "Let's delve deeper into these {n} choices and select the best one"


class Strategy(NamedTuple):
    rationales: bool  # the prompt reuses the divide rationales (PKR)
    filtered: bool  # the choices are those the divide samples answered (FCR)
    tail: str  # the closing instruction; `{n}` is the number of choices


STRATEGIES = {
    "ZTCOT": Strategy(rationales=False, filtered=False, tail=ZTCOT_TAIL),
    "PKR": Strategy(rationales=True, filtered=False, tail=PKR_TAIL),
    "FCR": Strategy(rationales=False, filtered=True, tail=FCR_TAIL),
    "COM1": Strategy(rationales=True, filtered=True, tail=PKR_TAIL),
    "COM2": Strategy(rationales=True, filtered=True, tail=FCR_TAIL),
}


class PromptError(QtriageError, ValueError):
    """Raised for an unknown strategy, or one missing its required context."""


def strategy_row(name: str) -> Strategy:
    """The row of `STRATEGIES` for `name`; raises `PromptError` for an unknown one."""
    if name not in STRATEGIES:
        raise PromptError(f"unknown strategy {name!r}")
    return STRATEGIES[name]


def build_prompt(
    q: Question,
    strategy: str = "ZTCOT",
    rationales: Optional[Sequence[tuple[str, str]]] = None,
    tail_override: Optional[str] = None,
) -> str:
    """Assemble the full prompt for one question under one strategy.

    rationales is the ordered (answer label, rationale text) list produced
    by rationale selection; required for PKR/COM1/COM2.
    """
    row = strategy_row(strategy)
    if row.rationales and not rationales:
        raise PromptError(f"strategy {strategy} requires prior rationales")

    parts = [q.text]
    if q.choices:
        parts.append("Answer Choices:")
        parts.append("\n".join(f"({label}) {content}" for label, content in q.choices))
    if row.rationales:
        parts.append("\n".join(["Prior reasoning:", *(f"({a}) {text}" for a, text in rationales)]))
    parts.append(row.tail.format(n=len(q.choices)) if tail_override is None else tail_override)
    return "\n".join(parts)
