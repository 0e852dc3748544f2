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
from .base import entropy, require_trainable
from .pca import pca_basis
from .simple import KNN3, NaiveBayes, OneR, train_knn3, train_naive_bayes, train_oner
from .tree import DecisionTree, Node, train_decision_tree
from .ensembles import (
    RotationForest,
    RotationMember,
    TreeEnsemble,
    train_bagging,
    train_random_forest,
    train_rotation_forest,
)

# Each algorithm's trainer and the hyperparameters `train` takes for it,
# with their defaults.
_TRAINERS = {
    "OneR": (train_oner, {"min_bucket": 6}),
    "NaiveBayes": (train_naive_bayes, {}),
    "DecisionTree": (train_decision_tree, {"min_leaf": 2, "prune": True}),
    "KNN3": (train_knn3, {"k": 3}),
    "Bagging": (train_bagging, {"n_members": 100}),
    "RandomForest": (train_random_forest, {"n_members": 100}),
    "RotationForest": (train_rotation_forest, {"n_members": 10, "subset_size": 3}),
}
ALGORITHMS = tuple(_TRAINERS)

MODEL_FORMAT = "shilldetect-model"
MODEL_FORMAT_VERSION = 2


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
        trained, schema_hash = getattr(model, "schema_hash", ""), features.schema_hash()
        if trained and trained != schema_hash:
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


def _arr(a) -> list:
    return np.asarray(a).tolist()


def model_to_dict(model) -> dict:
    head = {"format": MODEL_FORMAT, "format_version": MODEL_FORMAT_VERSION,
            "algorithm": model.algorithm, "seed": model.seed,
            "schema_hash": model.schema_hash, "params": dict(model.params)}
    if isinstance(model, OneR):
        head["rule"] = {
            "feature": model.feature, "is_categorical": model.is_categorical,
            "edges": None if model.edges is None else _arr(model.edges),
            "bucket_counts": None if model.bucket_counts is None else _arr(model.bucket_counts),
            "value_counts": None if model.value_counts is None else
                {repr(v): _arr(c) for v, c in model.value_counts.items()},
            "overall_counts": _arr(model.overall_counts),
        }
    elif isinstance(model, NaiveBayes):
        head["bayes"] = {
            "priors": _arr(model.priors), "means": _arr(model.means),
            "variances": _arr(model.variances), "numeric_mask": _arr(model.numeric_mask),
            "cat_tables": {str(f): {repr(v): _arr(c) for v, c in t.items()}
                           for f, t in model.cat_tables.items()},
            "cat_class_totals": {str(f): _arr(c) for f, c in model.cat_class_totals.items()},
        }
    elif isinstance(model, KNN3):
        head["knn"] = {
            "train_X": _arr(model.train_X), "train_y": _arr(model.train_y),
            "mean": _arr(model.mean), "scale": _arr(model.scale),
            "numeric_mask": _arr(model.numeric_mask), "k": model.k,
        }
    elif isinstance(model, DecisionTree):
        head["tree"] = {"root": model.root.to_dict(),
                        "categorical_mask": _arr(model.categorical_mask)}
    elif isinstance(model, TreeEnsemble):
        head["members"] = [model_to_dict(t) for t in model.members]
    elif isinstance(model, RotationForest):
        head["members"] = [{
            "groups": [_arr(g) for g in m.groups],
            "bases": [_arr(b) for b in m.bases],
            "tree": model_to_dict(m.tree),
        } for m in model.members]
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    return head


def model_from_dict(d: dict):
    if d.get("format") != MODEL_FORMAT:
        raise ValueError("not a model container")
    if d.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {d.get('format_version')}")
    algo, seed = d["algorithm"], d["seed"]
    schema_hash, params = d["schema_hash"], d["params"]
    if algo == "OneR":
        r = d["rule"]
        return OneR(r["feature"], r["is_categorical"],
                    None if r["edges"] is None else np.array(r["edges"]),
                    None if r["bucket_counts"] is None else np.array(r["bucket_counts"], np.int64),
                    None if r["value_counts"] is None else
                        {float(v): np.array(c, np.int64) for v, c in r["value_counts"].items()},
                    np.array(r["overall_counts"], np.int64), schema_hash, seed,
                    params=params)
    if algo == "NaiveBayes":
        b = d["bayes"]
        return NaiveBayes(np.array(b["priors"]), np.array(b["means"]),
                          np.array(b["variances"]), np.array(b["numeric_mask"], bool),
                          {int(f): {float(v): np.array(c, np.int64) for v, c in t.items()}
                           for f, t in b["cat_tables"].items()},
                          {int(f): np.array(c, np.int64)
                           for f, c in b["cat_class_totals"].items()},
                          schema_hash, seed, params=params)
    if algo == "KNN3":
        return _knn_from_dict(d["knn"], schema_hash, seed, params)
    if algo == "DecisionTree":
        t = d["tree"]
        root, mask = Node.from_dict(t["root"]), np.array(t["categorical_mask"], bool)
        for i, feature in enumerate(t["root"]["feature"]):
            if type(feature) is not int or feature >= len(mask):
                raise ValueError(f"tree node {i} splits on feature {feature!r}; the model "
                                 f"has {len(mask)} features")
        return DecisionTree(root, mask, schema_hash, seed, params=params)
    if algo in ("Bagging", "RandomForest"):
        members = [model_from_dict(m) for m in d["members"]]
        return TreeEnsemble(members, algo, schema_hash, seed, params=params)
    if algo == "RotationForest":
        members = [RotationMember([np.array(g, np.int64) for g in m["groups"]],
                                  [np.array(b) for b in m["bases"]],
                                  model_from_dict(m["tree"]))
                   for m in d["members"]]
        return RotationForest(members, algo, schema_hash, seed, params=params)
    raise ValueError(f"unknown algorithm {algo!r} in model container")


def _knn_from_dict(d: dict, schema_hash: str, seed: int, params: dict) -> KNN3:
    """The KNN3 `model_to_dict` wrote. ValueError unless train_X is a non-empty
    table, k an int in [1, rows], train_y one 0 or 1 per row, numeric_mask one
    bool per column with mean and scale one value per numeric column, and
    every value finite with scale positive."""
    train_X, train_y = np.array(d["train_X"], np.float64), np.array(d["train_y"], np.float64)
    mean, scale = np.array(d["mean"], np.float64), np.array(d["scale"], np.float64)
    mask, k = d["numeric_mask"], d["k"]
    if train_X.ndim != 2 or not train_X.size:
        raise ValueError("KNN3 train_X must be a non-empty table of rows")
    rows, cols = train_X.shape
    if type(k) is not int or not 1 <= k <= rows:
        raise ValueError(f"KNN3 k is {k!r}; it must be an int in [1, {rows}]")
    if train_y.shape != (rows,) or not np.isin(train_y, (0, 1)).all():
        raise ValueError(f"KNN3 train_y must hold a 0 or 1 for each of the {rows} rows")
    if not (isinstance(mask, list) and len(mask) == cols
            and all(type(v) is bool for v in mask)
            and mean.shape == scale.shape == (sum(mask),)):
        raise ValueError(f"KNN3 numeric_mask must hold a bool for each of the {cols} "
                         f"columns, and mean and scale a value for each numeric one")
    if not (np.isfinite(train_X).all() and np.isfinite(mean).all()
            and np.isfinite(scale).all() and (scale > 0).all()):
        raise ValueError("KNN3 train_X, mean and scale must be finite, and scale positive")
    return KNN3(train_X, train_y, mean, scale, np.array(mask, bool), k, schema_hash, seed,
                params=params)


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
