"""Prompt construction for the divide and conquer phases.

Layout is fixed: question stem, then an "Answer Choices:" block, then an
optional "Prior reasoning:" block, then the strategy's tail instruction.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .model import QtriageError, Question

ZTCOT_TAIL = "Let's think step by step."
PKR_TAIL = "let's delve deeper into this question to arrive at the best answer"
FCR_TAIL = "Let's delve deeper into these {n} choices and select the best one"

STRATEGIES = ("ZTCOT", "PKR", "FCR", "COM1", "COM2")
_NEEDS_RATIONALES = {"PKR", "COM1", "COM2"}
_NEEDS_FILTERED = {"FCR", "COM1", "COM2"}


class PromptError(QtriageError, ValueError):
    """Raised when a strategy is missing its required context."""


def strategy_needs_rationales(strategy: str) -> bool:
    return strategy in _NEEDS_RATIONALES


def strategy_needs_filtered(strategy: str) -> bool:
    return strategy in _NEEDS_FILTERED


def _choices_block(q: Question) -> str:
    return "\n".join(f"({label}) {content}" for label, content in q.choices)


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
    if strategy not in STRATEGIES:
        raise PromptError(f"unknown strategy {strategy!r}")
    if strategy in _NEEDS_RATIONALES and not rationales:
        raise PromptError(f"strategy {strategy} requires prior rationales")

    parts = [q.text]
    if q.choices:
        parts.append("Answer Choices:")
        parts.append(_choices_block(q))
    if strategy in _NEEDS_RATIONALES:
        assert rationales is not None
        lines = ["Prior reasoning:"]
        for label, text in rationales:
            lines.append(f"({label}) {text}")
        parts.append("\n".join(lines))

    if tail_override is not None:
        tail = tail_override
    elif strategy in ("FCR", "COM2"):
        tail = FCR_TAIL.format(n=len(q.choices))
    elif strategy in ("PKR", "COM1"):
        tail = PKR_TAIL
    else:
        tail = ZTCOT_TAIL
    parts.append(tail)
    return "\n".join(parts)
