"""Shill-likelihood learners: training dispatch, scoring, serialization.

Every algorithm trains deterministically from (feature matrix,
hyperparameters, seed) and produces a model whose ``scores(X)`` returns a
shill likelihood in [0, 1] per row. Models pin the feature-manifest hash
they were trained on; scoring a mismatched matrix is refused.
"""

from __future__ import annotations

import json

import numpy as np

from ..features import FeatureMatrix
from .base import entropy, model_algorithm, model_to_dict, require_trainable
from .pca import pca_basis
from .simple import KNN3, NaiveBayes, OneR, train_knn3, train_naive_bayes, train_oner
from .tree import DecisionTree, train_decision_tree
from .ensembles import (
    RotationForest,
    TreeEnsemble,
    train_bagging,
    train_random_forest,
    train_rotation_forest,
)

# Each algorithm's trainer, the hyperparameters `train` takes for it with
# their defaults, and the class of its models, which reads their saved form.
_TRAINERS = {
    "OneR": (train_oner, {"min_bucket": 6}, OneR),
    "NaiveBayes": (train_naive_bayes, {}, NaiveBayes),
    "DecisionTree": (train_decision_tree, {"min_leaf": 2, "prune": True}, DecisionTree),
    "KNN3": (train_knn3, {"k": 3}, KNN3),
    "Bagging": (train_bagging, {"n_members": 100}, TreeEnsemble),
    "RandomForest": (train_random_forest, {"n_members": 100}, TreeEnsemble),
    "RotationForest": (train_rotation_forest, {"n_members": 10, "subset_size": 3},
                       RotationForest),
}
ALGORITHMS = tuple(_TRAINERS)


def check_hyperparameters(algorithm: str, hyperparameters: dict | None) -> dict:
    """The algorithm's hyperparameters: its defaults overlaid by `hyperparameters`.

    An unknown algorithm, a key the algorithm does not take, or a value
    that is not of its default's type raises ValueError; an int (never a
    bool) must be positive.
    """
    if algorithm not in _TRAINERS:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    defaults = _TRAINERS[algorithm][1]
    hp = hyperparameters or {}
    unknown = [repr(key) for key in hp if key not in defaults]
    if unknown:
        accepted = ", ".join(map(repr, defaults)) or "none"
        raise ValueError(f"unknown hyperparameter(s) {', '.join(unknown)} for "
                         f"{algorithm}; it accepts {accepted}")
    for key, value in hp.items():
        kind = type(defaults[key])
        if type(value) is not kind or (kind is int and value < 1):
            wanted = "a bool" if kind is bool else "a positive int"
            raise ValueError(f"{algorithm} hyperparameter {key!r} must be {wanted}, "
                             f"not {value!r}")
    return {**defaults, **hp}


def train(algorithm: str, matrix: FeatureMatrix, hyperparameters: dict | None = None,
          seed: int = 0):
    """Train one of the supported algorithms with its default configuration.

    hyperparameters may override the documented defaults (e.g. n_members);
    `check_hyperparameters` refuses unknown keys and bad values.
    """
    hp = check_hyperparameters(algorithm, hyperparameters)
    return _TRAINERS[algorithm][0](matrix, seed=seed, **hp)


def predict_score(model, features):
    """Shill likelihood(s) in [0, 1].

    Accepts a FeatureMatrix (manifest-checked), a 2-D array (row per
    user), or a single 1-D feature vector (returns a float). A row holding
    NaN or infinity raises ValueError.
    """
    if isinstance(features, FeatureMatrix):
        trained, schema_hash = model.schema_hash, features.schema_hash()
        if trained != schema_hash:
            raise ValueError("feature manifest mismatch: model was trained on "
                             f"{trained[:12]}..., input has {schema_hash[:12]}...")
        X = features.values
    else:
        X = np.asarray(features, dtype=np.float64)
        if X.ndim == 1:
            return float(predict_score(model, X[None, :])[0])
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if len(bad):
        raise ValueError(f"{len(bad)} row(s) hold NaN or infinity, the first is row "
                         f"{bad[0]}; feature values must be finite")
    return model.scores(X)


# ---------------------------------------------------------------------------
# JSON serialization


def model_from_dict(d: dict):
    return _TRAINERS[model_algorithm(d, ALGORITHMS)][2].from_dict(d)


def save_model(model, path) -> None:
    """Write the model's JSON and a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(model_to_dict(model)) + "\n")


def load_model(path, expected_schema_hash: str | None = None):
    with open(path, encoding="utf-8") as fh:
        model = model_from_dict(json.loads(fh.read()))
    if expected_schema_hash is not None and model.schema_hash != expected_schema_hash:
        raise ValueError("refusing model with mismatched feature manifest hash")
    return model


__all__ = [
    "ALGORITHMS", "check_hyperparameters", "train", "predict_score",
    "pca_basis",
    "train_oner", "train_naive_bayes", "train_knn3", "train_decision_tree",
    "train_bagging", "train_random_forest", "train_rotation_forest",
    "OneR", "NaiveBayes", "KNN3", "DecisionTree", "TreeEnsemble",
    "RotationForest", "entropy", "require_trainable",
    "model_to_dict", "model_from_dict", "save_model", "load_model",
]
