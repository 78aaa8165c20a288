"""Core domain types: questions, choice relabeling, dataset I/O, cloze conversion."""

from __future__ import annotations

import json
import os
import string
import tempfile
from dataclasses import dataclass, field, replace
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Optional, TypeVar

LABELS = string.ascii_uppercase
SCHEMAS = ("mcq-jsonl", "cloze-jsonl")
T = TypeVar("T")

_CURRENCY = "$€£¥"


class QtriageError(Exception):
    """Root of every error qtriage raises for bad input, bad state or a failed call."""


class DatasetError(QtriageError, ValueError):
    """Raised for malformed dataset files or invalid question structure."""


def normalize_number(raw: str) -> Optional[str]:
    """Canonicalize a numeric answer string.

    Strips commas, currency symbols and surrounding whitespace, drops a
    trailing ".0" style fractional part, and renders the value canonically
    so e.g. "1,000", "$1000" and "1000.0" all compare equal. Returns None
    if the string is not a finite number.
    """
    s = raw.strip().strip(_CURRENCY).strip()
    s = s.replace(",", "")
    s = s.rstrip(".")
    if not s:
        return None
    try:
        value = Decimal(s)
    except InvalidOperation:
        return None
    if not value.is_finite():
        return None
    value = value.normalize()
    # Decimal.normalize renders 1000 as 1E+3; force plain notation.
    text = format(value, "f")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    if text in ("", "-"):
        text = "0"
    if text == "-0":
        text = "0"
    return text


def _norm_ws(s: str) -> str:
    return " ".join(s.split())


@dataclass(frozen=True)
class Question:
    """One test item: a stem plus an ordered, labeled choice list.

    Cloze questions carry no choices and a normalized numeric gold string.
    """

    id: str
    text: str
    choices: tuple[tuple[str, str], ...] = ()
    gold: Optional[str] = None
    source: str = ""
    kind: str = "mcq"
    meta: dict = field(default_factory=dict, compare=False)

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.choices)

    def validate(self) -> None:
        if self.kind not in ("mcq", "cloze"):
            raise DatasetError(f"question {self.id}: unknown kind {self.kind!r}")
        if self.kind == "cloze":
            if self.choices:
                raise DatasetError(f"question {self.id}: cloze question must have no choices")
            if self.gold is not None and normalize_number(self.gold) != self.gold:
                raise DatasetError(
                    f"question {self.id}: cloze gold {self.gold!r} is not a normalized number"
                )
            return
        if not self.choices:
            raise DatasetError(f"question {self.id}: mcq question needs choices")
        expected = tuple(LABELS[: len(self.choices)])
        if self.labels() != expected:
            raise DatasetError(
                f"question {self.id}: labels {self.labels()} are not contiguous from 'A'"
            )
        seen = set()
        for _, content in self.choices:
            key = _norm_ws(content)
            if not key:
                raise DatasetError(f"question {self.id}: empty choice content")
            if key in seen:
                raise DatasetError(f"question {self.id}: duplicate choice content {content!r}")
            seen.add(key)
        if self.gold is not None and self.gold not in self.labels():
            raise DatasetError(f"question {self.id}: gold {self.gold!r} not among labels")


@dataclass(frozen=True)
class LabelMapping:
    """Maps relabeled choice letters back to the original label space."""

    forward: tuple[tuple[str, str], ...]  # (new label, original label), ordered
    origin: str = ""

    def to_original(self, new_label: str) -> str:
        for new, orig in self.forward:
            if new == new_label:
                return orig
        raise KeyError(f"label {new_label!r} not in mapping for {self.origin!r}")


@dataclass(frozen=True)
class DatasetSpec:
    """Per-dataset divide configuration: sample count and partition thresholds."""

    name: str
    divide_base: int
    mu: Fraction = Fraction(4, 5)
    nu: Fraction = Fraction(3, 5)

    def validate(self) -> None:
        if self.divide_base < 2:
            raise DatasetError(f"divide_base must be >= 2, got {self.divide_base}")
        if not (0 < self.mu <= 1):
            raise DatasetError(f"mu must be in (0, 1], got {self.mu}")
        if not (0 <= self.nu < self.mu):
            raise DatasetError(f"nu must be in [0, mu), got nu={self.nu} mu={self.mu}")


def relabel_choices(contents: list[str]) -> list[tuple[str, str]]:
    """Assign contiguous labels 'A', 'B', ... to contents in order."""
    if not contents:
        raise DatasetError("cannot relabel an empty choice list")
    if len(contents) > len(LABELS):
        raise DatasetError(f"cannot label {len(contents)} choices: more than 26 not supported")
    seen = set()
    for content in contents:
        key = _norm_ws(content)
        if key in seen:
            raise DatasetError(f"duplicate choice content {content!r}")
        seen.add(key)
    return [(LABELS[i], content) for i, content in enumerate(contents)]


def restrict_choices(q: Question, kept: list[tuple[str, str]]) -> tuple[Question, LabelMapping]:
    """`q` as an MCQ over the `(original key, content)` pairs in `kept`, in their order.

    The contents are relabeled from 'A', and the mapping records new label ->
    original key. The gold becomes the new label of the pair whose key is the
    old gold, or None when no kept pair has it.
    """
    choices = relabel_choices([content for _, content in kept])
    mapping = LabelMapping(
        forward=tuple((new, key) for (new, _), (key, _) in zip(choices, kept)), origin=q.id
    )
    gold = next((new for new, key in mapping.forward if key == q.gold), None)
    return replace(q, kind="mcq", choices=tuple(choices), gold=gold), mapping


def cloze_to_mcq(q: Question, prior_answers: list[str]) -> tuple[Question, LabelMapping]:
    """Build an MCQ from a cloze question using previously sampled answers.

    Choices are the deduplicated prior answers in first-appearance order.
    The gold label is set only when the gold value survives into the list.
    """
    if q.kind != "cloze":
        raise DatasetError(f"question {q.id} is not cloze")
    if not prior_answers:
        raise DatasetError(f"question {q.id}: no prior answers to build choices from")
    uniq: list[str] = []
    for ans in prior_answers:
        if ans not in uniq:
            uniq.append(ans)
    mcq, mapping = restrict_choices(q, [(ans, ans) for ans in uniq])
    mcq.validate()
    return mcq, mapping


def parse_as(kind: type, value):
    """`value` as a `kind`. A str or bool must be one. An int or float is cast,
    but not from a boolean, nor to an int from a float with a fractional part. A
    fraction is read from a number, a fraction string or an integer pair."""
    if kind in (str, bool):
        if not isinstance(value, kind):
            raise TypeError(value)
        return value
    if kind is Fraction:
        if isinstance(value, (list, tuple)) and len(value) == 2:
            return Fraction(*(parse_as(int, member) for member in value))
        return Fraction(str(value))
    number = kind(value)
    if isinstance(value, bool) or (isinstance(value, float) and number != value):
        raise ValueError(value)
    return number


def _read_text(path: Path, error: type[QtriageError]) -> str:
    if not path.is_file():
        raise error(f"file not found: {path}")
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from exc


def _json_object(text: str, error: type[QtriageError], path: Path, lineno: int = 0) -> dict:
    try:
        value = json.loads(text)
        problem = None if isinstance(value, dict) else "not a JSON object"
    except ValueError as exc:
        problem = f"invalid JSON: {exc}"
    if problem is not None:
        where = f"{path} line {lineno}" if lineno else str(path)
        raise error(f"{where}: {problem}")
    return value


def read_json(path: str | Path, error: type[QtriageError]) -> dict:
    """The JSON object a file holds; a missing file or anything else raises `error`."""
    path = Path(path)
    return _json_object(_read_text(path, error), error, path)


def write_atomic(path: str | Path, text: str) -> None:
    """Replace `path` with `text` in one rename, so a reader sees the old or the new bytes.

    The text goes to a temporary file beside `path`, which is removed if
    anything fails before the rename. The parent directory is created first.
    An OS error raises `QtriageError` naming the path.
    """
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise QtriageError(f"cannot write {path}: {exc}") from exc


def read_jsonl(path: str | Path, error: type[QtriageError]) -> list[tuple[int, dict]]:
    """(line number, record) for each non-blank line of a JSONL file of objects.

    A missing file, or a line that is not a JSON object, raises `error`
    naming the file and the line.
    """
    path = Path(path)
    lines = _read_text(path, error).split("\n")
    return [
        (lineno, _json_object(line, error, path, lineno))
        for lineno, line in enumerate(lines, start=1)
        if line.strip()
    ]


def encode_jsonl(path: str | Path, items: Iterable) -> None:
    """Replace `path` with one sorted-key JSON line per item's `to_dict()`."""
    write_atomic(path, "".join(json.dumps(i.to_dict(), sort_keys=True) + "\n" for i in items))


def decode_jsonl(
    path: str | Path, decode: Callable[[dict], T], error: type[QtriageError], what: str
) -> list[T]:
    """`decode` of each record of a JSONL file; one it rejects raises `error` naming its line."""
    out = []
    for lineno, rec in read_jsonl(path, error):
        try:
            out.append(decode(rec))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise error(f"{path} line {lineno}: bad {what} record: {exc!r}") from exc
    return out


def _question_from_record(rec: dict, schema: str, lineno: int) -> Question:
    def need(field_name: str) -> object:
        if field_name not in rec:
            raise DatasetError(f"line {lineno}: missing field {field_name!r}")
        return rec[field_name]

    qid = need("id")
    text = need("question")
    if not isinstance(qid, str) or not qid:
        raise DatasetError(f"line {lineno}: field 'id' must be a non-empty string")
    if not isinstance(text, str) or not text:
        raise DatasetError(f"line {lineno}: field 'question' must be a non-empty string")

    if schema == "cloze-jsonl":
        gold_raw = need("gold")
        gold = normalize_number(str(gold_raw))
        if gold is None:
            raise DatasetError(f"line {lineno}: field 'gold' is not numeric: {gold_raw!r}")
        return Question(
            id=qid, text=text, gold=gold, source=rec.get("source", ""),
            kind="cloze", meta=rec.get("meta", {}),
        )

    contents = need("choices")
    if not isinstance(contents, list) or not all(isinstance(c, str) for c in contents):
        raise DatasetError(f"line {lineno}: field 'choices' must be a list of strings")
    try:
        choices = relabel_choices(contents)
    except DatasetError as exc:
        raise DatasetError(f"line {lineno}: {exc}") from exc
    gold = rec.get("gold")
    q = Question(
        id=qid, text=text, choices=tuple(choices), gold=gold,
        source=rec.get("source", ""), kind="mcq", meta=rec.get("meta", {}),
    )
    return q


def load_dataset(path: str | Path, schema: str = "mcq-jsonl") -> list[Question]:
    """Load questions from a JSONL file, validating every invariant."""
    if schema not in SCHEMAS:
        raise DatasetError(f"unknown schema {schema!r}")
    questions: list[Question] = []
    seen_ids: set[str] = set()
    for lineno, rec in read_jsonl(path, DatasetError):
        q = _question_from_record(rec, schema, lineno)
        try:
            q.validate()
        except DatasetError as exc:
            raise DatasetError(f"line {lineno}: {exc}") from exc
        if q.id in seen_ids:
            raise DatasetError(f"line {lineno}: duplicate question id {q.id!r}")
        seen_ids.add(q.id)
        questions.append(q)
    return questions


def save_dataset(path: str | Path, questions: list[Question]) -> None:
    """Write questions as JSONL; inverse of load_dataset."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for q in questions:
            rec: dict = {"id": q.id, "question": q.text}
            if q.kind == "cloze":
                rec["gold"] = q.gold
            else:
                rec["choices"] = [content for _, content in q.choices]
                if q.gold is not None:
                    rec["gold"] = q.gold
            if q.source:
                rec["source"] = q.source
            if q.meta:
                rec["meta"] = q.meta
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
