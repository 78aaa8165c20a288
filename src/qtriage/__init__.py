"""Confidence-based triage for multiple-choice reasoning pipelines.

Sample each question several times, score confidence as the maximum answer
frequency, fix the high-confidence subset, and re-solve the rest with
rationale-reuse and choice-filtering strategies.

Each exported name loads its module at first use (PEP 562), so a bare
`import qtriage` compiles only this file.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {  # exported name -> its home module
    "CachingBackend": "backend", "Completion": "backend", "CompletionRequest": "backend",
    "HttpChatBackend": "backend", "TranscriptCache": "backend",
    "ConquerOutcome": "conquer", "conquer_item": "conquer", "filter_choices": "conquer",
    "select_rationales": "conquer",
    "AnswerHistogram": "divide", "ConfidenceReport": "divide", "confidence_score": "divide",
    "histogram_from_answers": "divide", "majority_answer": "divide", "partition": "divide",
    "run_divide": "divide",
    "ExtractedAnswer": "extraction", "extract_choice_answer": "extraction",
    "extract_numeric_answer": "extraction",
    "DatasetSpec": "model", "LabelMapping": "model", "Question": "model",
    "cloze_to_mcq": "model", "load_dataset": "model", "normalize_number": "model",
    "relabel_choices": "model", "save_dataset": "model",
    "cost_summary": "report", "em_accuracy": "report", "emit_report": "report",
    "weighted_average": "report",
    "MockBackend": "synth", "QuestionProfile": "synth",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
