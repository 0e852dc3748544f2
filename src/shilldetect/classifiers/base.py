"""Checks and helpers the learners share."""

from __future__ import annotations

import numpy as np

from ..features import FeatureMatrix

N_CLASSES = 2  # benign=0, shill=1


def require_trainable(matrix: FeatureMatrix) -> None:
    if not np.isfinite(matrix.values).all():
        raise ValueError("dataset contains missing or infinite values")
    counts = matrix.class_counts()
    if counts.min() == 0:
        raise ValueError("training data must contain both classes "
                         f"(counts: benign={counts[0]}, shill={counts[1]})")


def entropy(counts: np.ndarray) -> float:
    """Shannon entropy in bits of a count vector."""
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())
