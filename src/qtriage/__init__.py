"""Confidence-based triage for multiple-choice reasoning pipelines.

Sample each question several times, score confidence as the maximum answer
frequency, fix the high-confidence subset, and re-solve the rest with
rationale-reuse and choice-filtering strategies.
"""

from .backend import (
    CachingBackend,
    Completion,
    CompletionRequest,
    HttpChatBackend,
    NoFetchBackend,
    TranscriptCache,
)
from .conquer import (
    ConquerOutcome,
    RationaleCluster,
    conquer_item,
    filter_choices,
    select_rationales,
)
from .divide import (
    AnswerHistogram,
    ConfidenceReport,
    confidence_score,
    histogram_from_answers,
    majority_answer,
    partition,
    run_divide,
)
from .extraction import (
    ExtractedAnswer,
    extract_choice_answer,
    extract_numeric_answer,
)
from .model import (
    DatasetSpec,
    LabelMapping,
    Question,
    cloze_to_mcq,
    load_dataset,
    normalize_number,
    relabel_choices,
    save_dataset,
)
from .report import cost_summary, em_accuracy, emit_report, weighted_average
from .synth import MockBackend, QuestionProfile

__version__ = "0.1.0"

__all__ = [
    "AnswerHistogram",
    "CachingBackend",
    "Completion",
    "CompletionRequest",
    "ConfidenceReport",
    "ConquerOutcome",
    "DatasetSpec",
    "ExtractedAnswer",
    "HttpChatBackend",
    "LabelMapping",
    "MockBackend",
    "NoFetchBackend",
    "Question",
    "QuestionProfile",
    "RationaleCluster",
    "TranscriptCache",
    "cloze_to_mcq",
    "confidence_score",
    "conquer_item",
    "cost_summary",
    "em_accuracy",
    "emit_report",
    "extract_choice_answer",
    "extract_numeric_answer",
    "filter_choices",
    "histogram_from_answers",
    "load_dataset",
    "majority_answer",
    "normalize_number",
    "partition",
    "relabel_choices",
    "run_divide",
    "save_dataset",
    "select_rationales",
    "weighted_average",
]
