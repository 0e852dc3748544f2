"""Shared training-data container and score-model plumbing."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..features import CATEGORICAL_FEATURES, FEATURE_NAMES, FeatureMatrix

N_CLASSES = 2  # benign=0, shill=1


@dataclass(frozen=True)
class Dataset:
    """Labeled rows ready for training; knows which columns are categorical.

    Rows keep their construction order, but learners canonicalize to
    sorted-by-user-id order before touching any randomness, so shuffling
    the input rows can never change a trained model.
    """

    X: np.ndarray                      # (n, F) float64
    y: np.ndarray                      # (n,) int8 in {0, 1}
    user_ids: tuple[str, ...]
    feature_names: tuple[str, ...] = FEATURE_NAMES
    categorical: tuple[str, ...] = CATEGORICAL_FEATURES
    schema_hash: str = ""

    def __post_init__(self):
        if self.X.ndim != 2 or not (len(self.X) == len(self.y) == len(self.user_ids)):
            raise ValueError("X, y, user_ids must agree on row count")
        if not np.isfinite(self.X).all():
            raise ValueError("dataset contains missing or infinite values")
        if not np.isin(self.y, (0, 1)).all():
            raise ValueError("labels must be binary 0/1")

    @classmethod
    def from_matrix(cls, matrix: FeatureMatrix) -> "Dataset":
        return cls(matrix.values, matrix.labels.astype(np.int8),
                   tuple(matrix.user_ids), matrix.feature_names,
                   CATEGORICAL_FEATURES, matrix.schema_hash())

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def categorical_mask(self) -> np.ndarray:
        return np.fromiter((name in self.categorical for name in self.feature_names),
                           dtype=bool, count=self.n_features)

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.y, minlength=N_CLASSES)

    def canonical(self) -> "Dataset":
        """Rows reordered by user id; the order every learner trains on."""
        order = sorted(range(self.n), key=lambda i: self.user_ids[i])
        idx = np.array(order, dtype=np.int64)
        return replace(self, X=self.X[idx], y=self.y[idx],
                       user_ids=tuple(self.user_ids[i] for i in order))

    def take(self, idx: np.ndarray) -> "Dataset":
        return replace(self, X=self.X[idx], y=self.y[idx],
                       user_ids=tuple(self.user_ids[i] for i in idx))


def require_trainable(dataset: Dataset) -> None:
    counts = dataset.class_counts()
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
