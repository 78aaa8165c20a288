"""Turn raw completion text into a structured answer: a label or a number.

All extractors are total and pure: they never raise on arbitrary text, and
an unmatchable input yields an 'unparsed' result rather than an error.
Last-match semantics are used throughout because chain-of-thought text often
discusses rejected options before stating the final answer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .model import normalize_number


@dataclass(frozen=True)
class ExtractedAnswer:
    kind: str  # "label" | "number" | "unparsed"
    value: object = None
    rule_id: Optional[str] = None

    @property
    def is_parsed(self) -> bool:
        return self.kind != "unparsed"


UNPARSED = ExtractedAnswer(kind="unparsed")

# "the answer is (B)", "answer is B", "answer: B"; the label itself must be
# uppercase or "answer is a ..." prose would parse as label A.
_ANSWER_PHRASE = re.compile(
    r"(?i:answer)\s*(?i:is|:)\s*\(?([A-Z])\)?(?![A-Za-z])"
)
_PAREN_LABEL = re.compile(r"\(([A-Z])\)")
_BARE_LABEL = re.compile(r"(?<![A-Za-z])([A-Z])(?=[\s]*[.,;:!?)\]]|$)")

_ANSWER_NUM = re.compile(
    r"answer\s*(?:is|:)?[^0-9\-]*(-?[\d][\d,]*(?:\.\d+)?)", re.IGNORECASE
)
_NUM = re.compile(r"-?[\d][\d,]*(?:\.\d+)?")


def _last_nonempty_line(text: str) -> str:
    """Return the final non-blank line of text, without its line ending."""
    best = ""
    for line in text.splitlines():
        if line.strip():
            best = line
    return best


def extract_choice_answer(text: str, labels: set[str]) -> ExtractedAnswer:
    """Extract a choice label, trying answer phrases first, then the final line."""
    if not labels:
        return UNPARSED

    found = [m.group(1) for m in _ANSWER_PHRASE.finditer(text) if m.group(1) in labels]
    if found:
        return ExtractedAnswer(kind="label", value=found[-1], rule_id="answer-phrase")

    line = _last_nonempty_line(text)
    for rule_id, pattern in (("paren-label", _PAREN_LABEL), ("bare-label", _BARE_LABEL)):
        found = [m.group(1) for m in pattern.finditer(line) if m.group(1) in labels]
        if found:
            return ExtractedAnswer(kind="label", value=found[-1], rule_id=rule_id)
    return UNPARSED


def extract_numeric_answer(text: str) -> ExtractedAnswer:
    """Extract a normalized number, preferring one following an 'answer' cue."""
    matches = list(_ANSWER_NUM.finditer(text))
    if matches:
        m = matches[-1]
        value = normalize_number(m.group(1))
        if value is not None:
            return ExtractedAnswer(kind="number", value=value, rule_id="answer-cue")

    line = _last_nonempty_line(text)
    nums = list(_NUM.finditer(line))
    if nums:
        m = nums[-1]
        value = normalize_number(m.group(0))
        if value is not None:
            return ExtractedAnswer(kind="number", value=value, rule_id="last-number")
    return UNPARSED
