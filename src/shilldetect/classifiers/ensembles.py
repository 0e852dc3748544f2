"""Vote ensembles over the gain-ratio tree.

All resampling happens on the canonical (sorted-by-user-id) row order with
one numpy Generator per member seeded at seed + member_index, so training
is reproducible and row-shuffle invariant, and members can be built in
parallel without sharing RNG state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ..features import FeatureMatrix
from .base import N_CLASSES, model_to_dict, read_header, require_trainable, unpack
from .pca import pca_basis
from .tree import DecisionTree, leaf_tree, train_decision_tree


@dataclass
class TreeEnsemble:
    """Bagged trees; the score is the fraction of members voting shill."""

    members: list                     # DecisionTrees; RotationMembers in a RotationForest
    algorithm: str
    schema_hash: str
    seed: int
    params: dict = field(default_factory=dict)
    _member, _algorithms = DecisionTree, ("Bagging", "RandomForest")

    def scores(self, X: np.ndarray) -> np.ndarray:
        votes = np.zeros(len(X), np.float64)
        for member in self.members:
            votes += member.votes(X)
        return votes / len(self.members)

    def to_dict(self) -> dict:
        return {"members": [model_to_dict(tree) for tree in self.members]}

    @classmethod
    def from_dict(cls, d: dict) -> "TreeEnsemble":
        members, head = read_header(d, "members", cls._algorithms)
        if not (isinstance(members, list) and members):
            raise ValueError(f"{head['algorithm']} members must be a non-empty list")
        return cls([cls._member.from_dict(m, head["schema_hash"]) for m in members], **head)


def _bagged_trees(matrix: FeatureMatrix, n_members: int, seed: int, algorithm: str,
                  params: dict, **tree_params) -> TreeEnsemble:
    """`n_members` trees, each grown with `tree_params` on its own bootstrap."""
    require_trainable(matrix)
    ds = matrix.canonical()
    members = []
    for i in range(n_members):
        rng = np.random.default_rng(seed + i)
        boot = ds.take(rng.integers(0, ds.n_users, ds.n_users))
        if boot.class_counts().min() == 0:    # one class: a constant tree, not an error
            members.append(DecisionTree(leaf_tree(boot.class_counts()), boot.categorical_mask(),
                                        boot.schema_hash(), seed + i, params=tree_params))
        else:
            members.append(train_decision_tree(boot, seed=seed + i, rng=rng, **tree_params))
    return TreeEnsemble(members, algorithm, ds.schema_hash(), seed, params=params)


def train_bagging(matrix: FeatureMatrix, n_members: int = 100, seed: int = 0) -> TreeEnsemble:
    return _bagged_trees(matrix, n_members, seed, "Bagging", {"n_members": n_members},
                         min_leaf=2, prune=True, subset_size=None)


def train_random_forest(matrix: FeatureMatrix, n_members: int = 100,
                        seed: int = 0) -> TreeEnsemble:
    subset = int(math.log2(matrix.n_features)) + 1
    return _bagged_trees(matrix, n_members, seed, "RandomForest",
                         {"n_members": n_members, "subset_size": subset},
                         min_leaf=1, prune=False, subset_size=subset)


# ---------------------------------------------------------------------------
# Rotation forest


@dataclass
class RotationMember:
    groups: list[np.ndarray]          # numeric column indices, disjoint
    bases: list[np.ndarray]           # per-group orthonormal basis
    tree: DecisionTree

    def rotate(self, X: np.ndarray) -> np.ndarray:
        out = np.array(X, np.float64, copy=True)
        for g, B in zip(self.groups, self.bases):
            out[:, g] = X[:, g] @ B
        return out

    def votes(self, X: np.ndarray) -> np.ndarray:
        return self.tree.votes(self.rotate(X))

    @classmethod
    def from_dict(cls, d: dict, schema_hash: str) -> "RotationMember":
        groups, bases, tree = unpack(d, ("groups", "bases", "tree"), "RotationForest member")
        tree = DecisionTree.from_dict(tree, schema_hash)
        flat, bases = [c for g in groups for c in g], [np.array(b, np.float64) for b in bases]
        if not (all(type(c) is int for c in flat) and len(set(flat)) == len(flat)
                and set(flat) <= set(np.flatnonzero(~tree.categorical_mask).tolist())
                and len(bases) == len(groups) and all(b.shape == (len(g),) * 2
                                                      and np.isfinite(b).all()
                                                      for g, b in zip(groups, bases))):
            raise ValueError("RotationForest groups must be disjoint lists of the member tree's "
                             "numeric columns, each with a finite square basis of its size")
        return cls([np.array(g, np.int64) for g in groups], bases, tree)


class RotationForest(TreeEnsemble):
    """Per-member PCA rotations of random numeric-feature subsets.

    Each member permutes the numeric columns, partitions them into groups
    of `subset_size`, fits a PCA basis per group on a 50% class-stratified
    bootstrap, trains a pruned tree on the rotated data, and votes. The
    categorical State column is never rotated; it passes through raw.
    """

    _member, _algorithms = RotationMember, ("RotationForest",)

    def to_dict(self) -> dict:
        return {"members": [{"groups": [g.tolist() for g in m.groups],
                             "bases": [b.tolist() for b in m.bases],
                             "tree": model_to_dict(m.tree)} for m in self.members]}


def _stratified_half_bootstrap(class_rows: list[np.ndarray],
                               rng: np.random.Generator) -> np.ndarray:
    """50% of each class's rows `class_rows[c]`, drawn with replacement, sorted."""
    parts = [rng.choice(rows, size=max(1, len(rows) // 2), replace=True)
             for rows in class_rows if len(rows)]
    return np.sort(np.concatenate(parts))


def train_rotation_forest(matrix: FeatureMatrix, n_members: int = 10,
                          subset_size: int = 3, seed: int = 0) -> RotationForest:
    require_trainable(matrix)
    ds = matrix.canonical()
    numeric = np.nonzero(~ds.categorical_mask())[0]
    class_rows = [np.flatnonzero(ds.labels == c) for c in range(N_CLASSES)]
    members = []
    for i in range(n_members):
        rng = np.random.default_rng(seed + i)
        perm = rng.permutation(numeric)
        groups = [perm[j:j + subset_size] for j in range(0, len(perm), subset_size)]
        bases = []
        for g in groups:
            rows = _stratified_half_bootstrap(class_rows, rng)
            sample = ds.values[rows][:, g]
            if len(sample) < 2:
                sample = ds.values[:, g]
            bases.append(pca_basis(sample))
        member = RotationMember([np.asarray(g) for g in groups], bases, None)
        rotated = replace(ds, values=member.rotate(ds.values))
        member.tree = train_decision_tree(rotated, min_leaf=2, prune=True,
                                          seed=seed + i, rng=rng)
        members.append(member)
    return RotationForest(members, "RotationForest", ds.schema_hash(), seed,
                          params={"n_members": n_members, "subset_size": subset_size})
