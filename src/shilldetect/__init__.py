"""Shill-bidder detection and feedback-graph ecosystem analytics."""

__version__ = "0.1.0"

from .records import (
    FeedbackTable,
    LabelSet,
    ProfileTable,
    TransactionTable,
    crc32_state,
    load_label_list,
    parse_feedback,
    parse_profiles,
    parse_transactions,
)

__all__ = [
    "TransactionTable",
    "FeedbackTable",
    "ProfileTable",
    "LabelSet",
    "crc32_state",
    "parse_transactions",
    "parse_feedback",
    "parse_profiles",
    "load_label_list",
    "__version__",
]
