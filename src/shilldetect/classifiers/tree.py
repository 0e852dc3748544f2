"""Gain-ratio decision tree with pessimistic pruning.

Numeric features get binary <= threshold splits (thresholds at midpoints
between consecutive distinct values); the hashed categorical feature gets
binary equality splits. Pruning is bottom-up subtree replacement using the
one-sided binomial upper confidence bound at CF=0.25, the classic
pessimistic-error recipe.

Growth sorts each column once per tree, SLIQ-style (Mehta, Agrawal &
Rissanen, EDBT 1996): the root holds an (F, n) matrix of row indices whose
line f is a stable argsort of column f, and a split keeps the surviving
entries of every line in order. So each node sees its rows sorted by
(value, row), exactly as a fresh stable argsort would. A node lays out all
candidates of its feature pool in one array -- the cut between each pair of
adjacent distinct values of a numeric feature, and each distinct value of
a categorical one -- and scores them in one pass.

Tie-breaking is fixed everywhere: candidates are ordered by feature index,
then by threshold (categorical value), and the first maximal gain ratio
wins, so the lower feature index wins and within a feature the lowest
threshold wins; leaf majorities tie toward class 0. Growth, pruning,
scoring and (de)serialization walk the tree with explicit stacks, so tree
depth is not bounded by the recursion limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .base import Dataset, N_CLASSES, entropy, require_trainable

_GAIN_TOL = 1e-12
_CHUNK = 4096          # candidate splits scored per pass

# Phi^-1(0.75): normal deviate for the CF=0.25 one-sided bound.
Z_CF25 = 0.6744897501960817


@dataclass
class Node:
    counts: np.ndarray                # class counts reaching this node
    feature: int = -1                 # -1 marks a leaf
    threshold: float = 0.0            # numeric: x <= threshold goes left
    equal: bool = False               # categorical: x == threshold goes left
    left: "Node | None" = None
    right: "Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0

    def walk(self):
        """Every node of the subtree, each parent before its children."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack += (node.right, node.left)

    def to_dict(self) -> dict:
        out = {"counts": self.counts.tolist()}
        stack = [(self, out)]
        while stack:
            node, d = stack.pop()
            if not node.is_leaf:
                left = {"counts": node.left.counts.tolist()}
                right = {"counts": node.right.counts.tolist()}
                d.update(feature=node.feature, threshold=node.threshold,
                         equal=node.equal, left=left, right=right)
                stack += ((node.left, left), (node.right, right))
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "Node":
        root = cls(np.array(d["counts"], dtype=np.int64))
        stack = [(root, d)]
        while stack:
            node, d = stack.pop()
            if "feature" in d:
                node.feature = d["feature"]
                node.threshold = d["threshold"]
                node.equal = d["equal"]
                node.left = cls(np.array(d["left"]["counts"], dtype=np.int64))
                node.right = cls(np.array(d["right"]["counts"], dtype=np.int64))
                stack += ((node.left, d["left"]), (node.right, d["right"]))
        return root


def _binary_entropy(pos: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Entropy in bits of `pos` positives among `n` rows (0 where pure or empty).

    -(p log2 p + q log2 q), computed in place to spare temporaries.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        p = pos / n
        q = 1.0 - p
        h = np.log2(p)
        h *= p
        hq = np.log2(q)
        hq *= q
        h += hq
    np.negative(h, out=h)
    h[~((p > 0) & (p < 1))] = 0.0
    return h


def _evaluate_partition(nl, pos_l, n, pos, parent_h, min_leaf):
    """Gain ratio of each binary split of a node's `n` rows, `pos` of them
    positive, from each split's left size `nl` (int) and left positives
    `pos_l` (float); -inf where a split is not allowed or gains nothing.

    Scores `_CHUNK` splits at a time: whole-node temporaries run to MBs,
    and freeing that much at every node lets the allocator hand the memory
    back to the system and fault it in again at the next node.
    """
    pl = np.arange(n + 1) / n                 # every left share a node can have
    split_info = -(pl * np.log2(np.maximum(pl, 1e-300))
                   + (1 - pl) * np.log2(np.maximum(1 - pl, 1e-300)))
    ratio = np.empty(len(nl))
    for lo in range(0, len(nl), _CHUNK):
        k, pos_k = nl[lo:lo + _CHUNK], pos_l[lo:lo + _CHUNK]
        left = k.astype(float)
        right = n - left
        gain = (parent_h - (left / n) * _binary_entropy(pos_k, left)
                - (right / n) * _binary_entropy(pos - pos_k, right))
        info = split_info[k]
        valid = ((k >= min_leaf) & (k <= n - min_leaf)
                 & (gain > _GAIN_TOL) & (info > _GAIN_TOL))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio[lo:lo + _CHUNK] = np.where(valid, gain / info, -np.inf)
    return ratio


def _best_split(columns, y, S, pool, cat_mask, counts, min_leaf):
    """Best (feature, threshold, equal, left rows) of a node, or None.

    `columns` is the training matrix column after column, flattened. S[pool]
    holds the node's rows once per pool feature, each line sorted by its
    feature. Candidates are the last positions of runs of equal values, in
    line-major order: a numeric one sends its line's prefix left, a
    categorical one only its own run. `y` is float, so the running positive
    counts need no conversion.
    """
    rows = S[pool]
    xs = columns[rows + (pool * len(y))[:, None]]
    cum = np.cumsum(y[rows], axis=1)
    n = rows.shape[1]
    run_end = np.empty(rows.shape, bool)
    np.not_equal(xs[:, :-1], xs[:, 1:], out=run_end[:, :-1])
    run_end[:, -1] = cat_mask[pool]           # a categorical run may end its line
    flat = np.flatnonzero(run_end)
    if not len(flat):
        return None
    nl, pos_l = flat % n + 1, cum.ravel()[flat]
    for i in np.flatnonzero(cat_mask[pool]):
        lo, hi = np.searchsorted(flat, (i * n, (i + 1) * n))
        nl[lo:hi] = np.diff(nl[lo:hi], prepend=0)
        pos_l[lo:hi] = np.diff(pos_l[lo:hi], prepend=0.0)
    ratio = _evaluate_partition(nl, pos_l, n, counts[1], entropy(counts), min_leaf)
    best = int(np.argmax(ratio))
    if not np.isfinite(ratio[best]):
        return None
    i, c = divmod(int(flat[best]), n)
    f, equal = int(pool[i]), bool(cat_mask[pool[i]])
    threshold = float(xs[i, c] if equal else (xs[i, c] + xs[i, c + 1]) / 2.0)
    go_left = (xs[i] == threshold) if equal else (xs[i] <= threshold)
    return f, threshold, equal, rows[i][go_left]


def _grow(X, y, cat_mask, min_leaf, rng, subset_size):
    n_features = X.shape[1]
    columns, y_float = X.T.ravel(), y.astype(np.float64)
    in_left = np.zeros(len(y), bool)          # marks one split's left rows
    root = Node(np.bincount(y, minlength=N_CLASSES))
    stack = [(root, np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T))]
    while stack:
        node, S = stack.pop()
        n = S.shape[1]
        if node.counts.max() == n or n < 2 * min_leaf:
            continue
        if subset_size is not None:
            pool = np.sort(rng.choice(n_features, size=min(subset_size, n_features),
                                      replace=False))
        else:
            pool = np.arange(n_features)
        found = _best_split(columns, y_float, S, pool, cat_mask, node.counts, min_leaf)
        if found is None:
            continue
        f, threshold, equal, left_rows = found
        if len(left_rows) == n:
            continue   # the midpoint of two adjacent floats rounded onto the larger
        node.feature, node.threshold, node.equal = f, threshold, equal
        left_counts = np.bincount(y[left_rows], minlength=N_CLASSES)
        node.left, node.right = Node(left_counts), Node(node.counts - left_counts)
        in_left[left_rows] = True
        mask = in_left[S]
        in_left[left_rows] = False
        # Right below left on the stack: nodes are visited (and draw) in pre-order.
        stack += ((node.right, S[~mask].reshape(S.shape[0], -1)),
                  (node.left, S[mask].reshape(S.shape[0], -1)))
    return root


# ---------------------------------------------------------------------------
# Pessimistic pruning


def added_errors(n: float, e: float, cf: float = 0.25) -> float:
    """Extra errors charged by the one-sided binomial upper bound (CF=0.25)."""
    if n == 0:
        return 0.0
    if e == 0:
        return n * (1.0 - cf ** (1.0 / n))
    if e < 1:
        base = n * (1.0 - cf ** (1.0 / n))
        return base + e * (added_errors(n, 1.0, cf) - base)
    if e + 0.5 >= n:
        return max(n - e, 0.0)
    z = Z_CF25
    f = (e + 0.5) / n
    r = (f + z * z / (2 * n)
         + z * math.sqrt(f / n - f * f / n + z * z / (4 * n * n))) / (1 + z * z / n)
    return r * n - e


def _pessimistic(counts: np.ndarray) -> float:
    n = float(counts.sum())
    e = n - float(counts.max())
    return e + added_errors(n, e)


def _prune(root: Node) -> None:
    """Bottom-up subtree replacement; mutates the tree in place."""
    error = {}                      # id(node) -> its pruned subtree's error
    for node in reversed(list(root.walk())):
        leaf_err = _pessimistic(node.counts)
        if node.is_leaf:
            error[id(node)] = leaf_err
            continue
        subtree_err = error.pop(id(node.left)) + error.pop(id(node.right))
        # Small tolerance so near-ties collapse to the simpler tree.
        if leaf_err <= subtree_err + 0.1:
            node.feature, node.left, node.right = -1, None, None
            subtree_err = leaf_err
        error[id(node)] = subtree_err


# ---------------------------------------------------------------------------


@dataclass
class DecisionTree:
    """Trained tree; scores are shill fractions at the reached leaf."""

    root: Node
    categorical_mask: np.ndarray
    schema_hash: str = ""
    seed: int = 0
    algorithm: str = "DecisionTree"
    params: dict = field(default_factory=dict)

    def scores(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(len(X), np.float64)
        stack = [(self.root, np.arange(len(X)))]
        while stack:
            node, idx = stack.pop()
            if node.is_leaf:
                total = node.counts.sum()
                out[idx] = node.counts[1] / total if total else 0.0
                continue
            col = X[idx, node.feature]
            go_left = (col == node.threshold) if node.equal else (col <= node.threshold)
            stack += ((node.left, idx[go_left]), (node.right, idx[~go_left]))
        return out

    def votes(self, X: np.ndarray) -> np.ndarray:
        """Hard class votes; score ties resolve to class 0 (benign)."""
        return (self.scores(X) > 0.5).astype(np.int8)

    def node_count(self) -> int:
        return sum(1 for _ in self.root.walk())


def train_decision_tree(dataset: Dataset, min_leaf: int = 2, prune: bool = True,
                        subset_size: int | None = None, seed: int = 0,
                        rng: np.random.Generator | None = None,
                        canonicalize: bool = True) -> DecisionTree:
    require_trainable(dataset)
    if canonicalize:
        dataset = dataset.canonical()
    if rng is None:
        rng = np.random.default_rng(seed)
    cat_mask = dataset.categorical_mask()
    root = _grow(dataset.X, dataset.y.astype(np.int64), cat_mask, min_leaf,
                 rng, subset_size)
    if prune:
        _prune(root)
    return DecisionTree(root, cat_mask, dataset.schema_hash, seed,
                        params={"min_leaf": min_leaf, "prune": prune,
                                "subset_size": subset_size})
