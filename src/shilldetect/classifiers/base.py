"""Checks and helpers the learners share."""

from __future__ import annotations

import numpy as np

from ..features import FEATURE_NAMES, FeatureMatrix

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


# A saved model is a header, then the body its class writes (`to_dict`).
MODEL_FORMAT = "shilldetect-model"
MODEL_FORMAT_VERSION = 2
_HEADER = ("format", "format_version", "algorithm", "seed", "schema_hash", "params")


# The standard manifest's hash; a model saved with it reads its 31 columns.
_STANDARD_HASH = FeatureMatrix([], np.empty((0, len(FEATURE_NAMES))), np.empty(0)).schema_hash()


def manifest_columns(schema_hash: str) -> float:
    """The column count of a model's manifest: known for the standard
    manifest, else infinite."""
    return len(FEATURE_NAMES) if schema_hash == _STANDARD_HASH else np.inf


def model_to_dict(model) -> dict:
    return dict(zip(_HEADER, (MODEL_FORMAT, MODEL_FORMAT_VERSION, model.algorithm, model.seed,
                              model.schema_hash, dict(model.params)))) | model.to_dict()


def model_algorithm(d: dict, algorithms) -> str:
    """The algorithm of saved model `d`, a container of this format holding one of `algorithms`."""
    if not isinstance(d, dict) or d.get("format") != MODEL_FORMAT:
        raise ValueError("not a model container")
    if d.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {d.get('format_version')}")
    if d.get("algorithm") not in algorithms:
        raise ValueError(f"algorithm {d.get('algorithm')!r} is not {' or '.join(algorithms)}")
    return d["algorithm"]


def read_header(d: dict, key: str, algorithms) -> tuple[object, dict]:
    """Saved model `d`'s body, under `key`, and its header as its class's keywords."""
    algorithm = model_algorithm(d, algorithms)
    *_, seed, schema_hash, params, body = unpack(d, (*_HEADER, key), "model")
    if type(seed) is not int:
        raise ValueError(f"model seed {seed!r} is not an int")
    if not (type(schema_hash) is str and len(schema_hash) == 64
            and not schema_hash.strip("0123456789abcdef")):
        raise ValueError(f"model schema_hash {schema_hash!r} is not 64 lowercase hex digits")
    return body, dict(algorithm=algorithm, seed=seed, schema_hash=schema_hash, params=params)


def unpack(d: dict, keys: tuple, what: str) -> list:
    """The values of object `d` at `keys`; ValueError naming a key it lacks or has extra."""
    d = d if isinstance(d, dict) else {}
    for key in (*keys, *d):
        if (key in keys) != (key in d):
            raise ValueError(f"{what} {'lacks' if key in keys else 'has extra'} key {key!r}")
    return [d[key] for key in keys]


def class_counts(counts, what: str) -> np.ndarray:
    """`counts` as an array; ValueError unless N_CLASSES non-negative ints, sum positive."""
    if not (isinstance(counts, list) and len(counts) == N_CLASSES
            and all(type(c) is int and c >= 0 for c in counts) and sum(counts) > 0):
        raise ValueError(f"{what} has counts {counts!r}; they must be {N_CLASSES} "
                         "non-negative ints with a positive sum")
    return np.array(counts, np.int64)
