"""Gain-ratio decision tree with pessimistic pruning.

Numeric features get binary <= threshold splits (thresholds at midpoints
between consecutive distinct values, halved before adding where the sum
would overflow, and the lower value where the midpoint rounds onto the
higher); the hashed categorical feature gets
binary equality splits. Pruning is bottom-up subtree replacement using the
one-sided binomial upper confidence bound at CF=0.25, the classic
pessimistic-error recipe.

Growth sorts each column once per tree, SLIQ-style (Mehta, Agrawal &
Rissanen, EDBT 1996): the root holds an (F, n) matrix of row indices whose
line f orders column f's rows by (value, row), and a split keeps the
surviving entries of every line in order. So each node sees its rows
sorted by (value, row), exactly as a fresh stable argsort would. The root
order comes from numpy's unstable argsort, which is faster than its stable
one, plus one repair of ties, which every rotated column has (see
`_presort`). A node lays out all
candidates of its feature pool in one array -- the cut between each pair of
adjacent distinct values of a numeric feature, and each distinct value of
a categorical one -- and scores them in one pass.

Only boundary cuts are scored. Take a stretch of a numeric line whose runs
are one row long and of one class. Moving the cut along it moves one row
of that class at a time, so gain is strictly convex there (Fayyad & Irani,
Machine Learning 8, 1992: the weighted child entropy is strictly concave
while the node holds both classes), and split information is concave and
positive. For any ratio t > 0, gain - t * split_info is then strictly
convex, so each interior cut has a lower gain ratio than one of the
stretch's ends, the quasi-convexity that Elomaa & Rousu (Machine Learning
36, 1999) use for a family of evaluation functions. The interior cuts are
dropped before scoring; categorical run ends all stay. A stretch that
reaches a line's first or last row ends in no split at all (gain and
split information 0), which the argument allows. Sizes under min_leaf
weigh NaN, which cuts a stretch short at positions min_leaf - 1 and
n - min_leaf - 1, so those two cuts are always kept. The gap is strict,
and at these node sizes far above rounding (gain's curvature along a
stretch is of order 1/n^2 for n rows), so the first maximum of the kept
cuts is the first maximum of all. _GAIN_TOL is the one catch: a cut whose
gain is at most _GAIN_TOL scores -inf, so an end can lose to an interior
cut that it beats. That end's ratio is at most _GAIN_TOL / split_info <=
_GAIN_TOL * n (split information is at least 1/n), and the interior cut's
is lower still; so a node whose best kept ratio is under _GAIN_TOL * n is
scored again on every run end. On the standard features that happens
only where no split is allowed at all. The filter keeps about a fifth of
the run ends of RotationForest's rotated lines; Bagging and RandomForest
bootstraps repeat rows, so fewer runs are one row long, and it keeps
about four fifths.

A side's entropy is a function of two integers, its positives and its
negatives, so split scoring gathers both sides' entropies from one table
of `_binary_entropy` values instead of computing them per candidate. The
table is memoized for the process: it covers the largest class counts
grown so far, every tree shares it, and it never exceeds
ENTROPY_TABLE_BYTES; a training set whose class counts need more scores
without it. On one machine, numpy's elementwise log2 gives the same bits
wherever an element sits in an array, so each entry, and so each gain
ratio, equals the direct computation to the bit. Across machines the bits
can differ, with the SIMD code that numpy dispatches to for the CPU.

Tie-breaking is fixed everywhere: candidates are ordered by feature index,
then by threshold (categorical value), and the first maximal gain ratio
wins, so the lower feature index wins and within a feature the lowest
threshold wins; leaf majorities tie toward class 0. Growth, pruning and
scoring walk the tree with explicit stacks over its flat lists (see
`DecisionTree`), so tree depth is not bounded by the recursion limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..features import FeatureMatrix
from .base import (N_CLASSES, class_counts, manifest_columns, read_header, require_trainable,
                   unpack)

_GAIN_TOL = 1e-12
_CHUNK = 4096          # candidate splits scored per pass

# Bytes the memoized entropy table may take (see `_entropy_table`); a
# training set whose class counts need more scores without one.
ENTROPY_TABLE_BYTES = 16 << 20
_FILL_ENTRIES = 1 << 16        # table entries computed per pass
_entropy = np.empty((0, 0))    # the memo; empty until a tree is grown

# Phi^-1(0.75): normal deviate for the CF=0.25 one-sided bound.
Z_CF25 = 0.6744897501960817

# The lists of a tree, in its saved order, and a leaf's entries in all but "counts".
_LISTS = ("feature", "threshold", "equal", "left", "right", "counts")
_LEAF = (-1, 0.0, False, -1, -1)


def leaf_tree(counts: np.ndarray) -> dict:
    """The lists of a tree that is one leaf, with class `counts`."""
    return {key: [value] for key, value in zip(_LISTS, (*_LEAF, counts.tolist()))}


def _copied(nodes: dict) -> dict:
    """A tree's lists copied, each node's counts too, so that no list is shared."""
    return {key: [list(c) for c in nodes[key]] if key == "counts" else list(nodes[key])
            for key in _LISTS}


def _read_nodes(d: dict, mask: list) -> dict:
    """Copies of the lists `DecisionTree.to_dict` wrote; ValueError naming a
    list or node unless they are one pre-order tree that a trainer could
    have grown (see `DecisionTree`), its splits' counts their children's
    sums and each split's `equal` the categorical `mask` at its feature."""
    n_features = len(mask)
    lists = unpack(d, _LISTS, "tree root")
    for key, values in zip(_LISTS, lists):
        if type(values) is not list:
            raise ValueError(f"tree {key} is {values!r}, not a list")
    n = len(lists[-1])
    if n == 0 or any(len(values) != n for values in lists):
        raise ValueError("tree lists must be non-empty and of one length")
    features, rights, counts = lists[0], lists[4], lists[5]
    waiting = []                              # splits still to meet their right child
    for i, row in enumerate(zip(*lists)):
        feature, threshold, equal, left, _, _ = row
        class_counts(counts[i], f"tree node {i}")
        if type(feature) is not int or feature >= n_features:
            raise ValueError(f"tree node {i} splits on feature {feature!r}; the model "
                             f"has {n_features} features")
        if type(equal) is not bool:
            raise ValueError(f"tree node {i} has equal {equal!r}; it must be true or false")
        if i and features[i - 1] < 0:         # node i - 1 ends a left subtree
            if not waiting:
                raise ValueError(f"tree node {i} comes after the tree's last leaf, node {i - 1}")
            p = waiting.pop()
            if rights[p] != i or type(rights[p]) is not int:
                raise ValueError(f"tree node {p} has right child {rights[p]!r}; it must be "
                                 f"node {i}, the first after its left subtree")
            total = [a + b for a, b in zip(counts[p + 1], counts[i])]
            if counts[p] != total:
                raise ValueError(f"tree node {p} has counts {counts[p]}; a split's are its "
                                 f"children's summed, {total}")
        if feature < 0:
            if repr(row[:5]) != repr(_LEAF):  # tells 0 from 0.0 and -0.0, False from 0
                raise ValueError(f"tree node {i} is a leaf with (feature, threshold, equal, "
                                 f"left, right) {row[:5]!r}; a leaf's are {_LEAF!r}")
        elif not (type(threshold) is float and math.isfinite(threshold)):
            raise ValueError(f"tree node {i} has threshold {threshold!r}; a split's must be "
                             "a finite float")
        elif equal is not mask[feature]:
            raise ValueError(f"tree node {i} has equal {equal!r}; a split on feature {feature} "
                             f"has its categorical_mask entry, {mask[feature]!r}")
        elif left != i + 1 or type(left) is not int:
            raise ValueError(f"tree node {i} has left child {left!r}; a split's is the next "
                             f"node, {i + 1}")
        else:
            waiting.append(i)
    if waiting:
        raise ValueError(f"tree lists end inside the subtree of node {waiting[-1]}")
    return _copied(dict(zip(_LISTS, lists)))


class _NodeView:
    """Node `i` of a tree's lists, read-only: whether it is a leaf, and its children."""

    __slots__ = ("_nodes", "_i")

    def __init__(self, nodes: dict, i: int):
        self._nodes, self._i = nodes, i

    is_leaf = property(lambda self: self._nodes["feature"][self._i] < 0)
    left = property(lambda self: _NodeView(self._nodes, self._nodes["left"][self._i]))
    right = property(lambda self: _NodeView(self._nodes, self._nodes["right"][self._i]))


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


def _entropy_table(pos: int, neg: int) -> np.ndarray | None:
    """The memoized `_binary_entropy` table covering `pos` positives and `neg`
    negatives, or None when that would take more than ENTROPY_TABLE_BYTES.

    Entry [a, b] is the entropy of a positives among a + b rows. The table
    grows to the largest class counts asked for so far while that fits the
    budget; past it, the table is rebuilt to fit this request alone. It is
    filled _FILL_ENTRIES at a time, so no temporary is the size of the table.
    """
    global _entropy
    if (pos + 1) * (neg + 1) * 8 > ENTROPY_TABLE_BYTES:
        return None
    rows, cols = _entropy.shape
    if pos < rows and neg < cols:
        return _entropy
    rows, cols = max(pos + 1, rows), max(neg + 1, cols)
    if rows * cols * 8 > ENTROPY_TABLE_BYTES:
        rows, cols = pos + 1, neg + 1
    _entropy = np.empty((0, 0))               # free the old table first
    table = np.empty((rows, cols))
    b = np.arange(cols)
    step = max(1, _FILL_ENTRIES // cols)
    for lo in range(0, rows, step):
        a = np.arange(lo, min(lo + step, rows))[:, None]
        table[lo:lo + step] = _binary_entropy(a, a + b)
    _entropy = table
    return table


def _evaluate_partition(nl, pos_l, counts, min_leaf, table):
    """Gain ratio of each binary split of a node with class `counts`, from
    each split's left size `nl` and left positives `pos_l` (both int);
    -inf where a split is not allowed or gains nothing.

    Each side's entropy comes from `table` (see `_entropy_table`): the left
    side's entry [pos_l, nl - pos_l] sits at flat index pos_l * (w - 1) + nl
    for a table w entries wide, and the right side's, [pos - pos_l,
    neg - nl + pos_l], at the node's corner pos * w + neg minus that index.
    `table` is None when the tree's class counts would need a table of more
    than ENTROPY_TABLE_BYTES (16 MiB, about 1,450 rows of each class); the
    entropies are then computed directly, to the same bits on one machine.

    Scores `_CHUNK` splits at a time: whole-node temporaries run to MBs,
    and freeing that much at every node lets the allocator hand the memory
    back to the system and fault it in again at the next node. That still
    holds with the table: scoring whole nodes made a 10-fold RotationForest
    CV of 1,800-row folds take 3.5-3.8 s of CPU, against 2.9-3.0 s.
    """
    neg, pos = int(counts[0]), int(counts[1])
    n = neg + pos
    # entropy(counts), to the bit on one machine, without its array
    # temporaries; a node that is searched holds both classes
    parent_h = -(neg / n * float(np.log2(neg / n)) + pos / n * float(np.log2(pos / n)))
    sizes = np.arange(n + 1)                  # every left size a node can have
    pl = sizes / n
    split_info = -(pl * np.log2(np.maximum(pl, 1e-300))
                   + (1 - pl) * np.log2(np.maximum(1 - pl, 1e-300)))
    # Each side's weight in the gain, by left size. A size that leaves a side
    # under min_leaf rows, or whose split information is nil, weighs NaN, so
    # its gain is NaN and fails the gain test.
    w_left, w_right = pl, (n - sizes) / n
    w_left[:min_leaf] = w_left[n - min_leaf + 1:] = np.nan
    w_left[split_info <= _GAIN_TOL] = np.nan
    if table is not None:
        flat, stride = table.ravel(), table.shape[1] - 1
        corner = pos * table.shape[1] + neg
    ratio = np.full(len(nl), -np.inf)
    for lo in range(0, len(nl), _CHUNK):
        k, pos_k = nl[lo:lo + _CHUNK], pos_l[lo:lo + _CHUNK]
        if table is None:
            h_left, h_right = _binary_entropy(pos_k, k), _binary_entropy(pos - pos_k, n - k)
        else:
            idx = pos_k * stride
            idx += k
            h_left = flat[idx]
            np.subtract(corner, idx, out=idx)
            h_right = flat[idx]
        h_left *= w_left[k]
        gain = parent_h - h_left
        h_right *= w_right[k]
        gain -= h_right
        np.divide(gain, split_info[k], out=ratio[lo:lo + _CHUNK], where=gain > _GAIN_TOL)
    return ratio


def _best_split(columns, y, S, pool, cat_mask, counts, min_leaf, table):
    """Best (feature, threshold, equal, left rows) of a node, or None.

    `columns` is the training matrix column after column, flattened. S[pool]
    holds the node's rows once per pool feature, each line sorted by its
    feature. Candidates are the last positions of runs of equal values, in
    line-major order: a numeric one sends its line's prefix left, a
    categorical one only its own run. Only the boundary candidates are
    scored (see the module docstring); if the best of them is under
    _GAIN_TOL * n for a node of n rows, every candidate is scored instead.
    `y` is int64, so the running positive counts index `table` as they are.
    """
    rows = S if len(pool) == len(S) else S[pool]
    xs = columns[rows + (pool * len(y))[:, None]]
    labels = y[rows]
    n = rows.shape[1]
    cat_pool = cat_mask[pool]
    cat_lines = np.flatnonzero(cat_pool)
    run_end = np.empty(rows.shape, bool)
    np.not_equal(xs[:, :-1], xs[:, 1:], out=run_end[:, :-1])
    run_end[:, -1] = cat_pool                 # a categorical run may end its line
    kept = _boundary_cuts(run_end, labels, min_leaf, cat_lines)
    # In place: a fresh array of a large node's size is faulted in anew.
    cum = np.cumsum(labels, axis=1, out=labels).ravel()
    flat = np.flatnonzero(kept)
    if not len(flat):
        return None                           # a line with a run end keeps one
    ratio = _ratios(flat, n, cum, cat_lines, counts, min_leaf, table)
    best = int(np.argmax(ratio))
    if not ratio[best] >= _GAIN_TOL * n:
        flat = np.flatnonzero(run_end)
        ratio = _ratios(flat, n, cum, cat_lines, counts, min_leaf, table)
        best = int(np.argmax(ratio))
    if not np.isfinite(ratio[best]):
        return None
    i, c = divmod(int(flat[best]), n)
    f, equal = int(pool[i]), bool(cat_pool[i])
    threshold = float(xs[i, c]) if equal else _midpoint(float(xs[i, c]), float(xs[i, c + 1]))
    go_left = (xs[i] == threshold) if equal else (xs[i] <= threshold)
    return f, threshold, equal, rows[i][go_left]


def _boundary_cuts(run_end, labels, min_leaf, cat_lines):
    """`run_end` (lines x rows) without each numeric cut between two one-row
    runs of one class, unless the cut is an edge of the min_leaf domain.

    Works on the flat array, so a line's first cut reads the previous
    line's last cell as its left neighbour, and its last cut reads the
    line's own last cell as its right one. A numeric line holds no run end
    there, so such a cut is kept, which is always sound; dropping one is
    sound too, since no split lies beyond a line's ends. `labels` are the
    lines' labels; categorical lines `cat_lines` keep every run end.
    """
    ends, labels = run_end.ravel(), labels.ravel()
    drop = np.empty(ends.shape, bool)
    np.equal(labels[:-1], labels[1:], out=drop[:-1])
    drop[-1] = False
    drop[1:] &= ends[:-1]
    drop[:-1] &= ends[1:]
    drop = drop.reshape(run_end.shape)
    drop[:, min_leaf - 1] = False
    drop[:, -min_leaf - 1] = False
    drop[cat_lines] = False
    return np.greater(run_end, drop, out=drop)


def _ratios(flat, n, cum, cat_lines, counts, min_leaf, table):
    """Gain ratios of the candidates at flat positions `flat` of a node's
    (lines x n) matrix, given the lines' running positive counts `cum`."""
    nl = flat // n                            # integer `%` is several times slower
    nl *= -n
    nl += flat
    nl += 1
    pos_l = cum[flat]
    for i in cat_lines:
        lo, hi = np.searchsorted(flat, (i * n, (i + 1) * n))
        nl[lo + 1:hi] -= nl[lo:hi - 1]        # run lengths and run positives
        pos_l[lo + 1:hi] -= pos_l[lo:hi - 1]
    return _evaluate_partition(nl, pos_l, counts, min_leaf, table)


def _midpoint(a: float, b: float) -> float:
    """(a + b) / 2, or a / 2 + b / 2 where a + b overflows, for a < b; a
    itself where that rounds onto b, as it can for adjacent floats."""
    total = a + b
    mid = total / 2.0 if math.isfinite(total) else a / 2.0 + b / 2.0
    return mid if mid < b else a


def _presort(lines):
    """Row indices that order each line of the finite (F, n) matrix `lines`
    (the training matrix's columns) by (value, row), as a stable argsort
    of each line does.

    The unstable argsort leaves each run of equal values in any order. The
    runs are numbered along each sorted line (by `!=`, so -0.0 and 0.0 share
    one) and the keys run * n + row sorted. A run's keys lie below the next
    run's, so each key stays at a position of its run, where it orders by
    row; the key minus run * n is the row.
    """
    n = lines.shape[1]
    order = np.argsort(lines)
    values = np.take_along_axis(lines, order, axis=1)
    offsets = np.empty(order.shape, np.int64)
    offsets[:, 0] = 0
    np.not_equal(values[:, 1:], values[:, :-1], out=offsets[:, 1:])
    np.cumsum(offsets, axis=1, out=offsets)
    offsets *= n                              # run * n at each sorted position
    order += offsets
    order.sort(axis=1)
    order -= offsets
    return order


def _splittable(counts, min_leaf):
    """Whether a node with class `counts` is searched for a split: it holds
    both classes and rows for two leaves."""
    neg, pos = counts.tolist()
    return neg > 0 and pos > 0 and neg + pos >= 2 * min_leaf


def _grow(X, y, cat_mask, min_leaf, rng, subset_size, prune):
    """The tree's lists (see `DecisionTree`), written in pre-order. With
    `prune`, each split is pruned as soon as both its subtrees are grown;
    its subtree is then the tail of the lists."""
    n_features = X.shape[1]
    pool = np.arange(n_features)
    columns = X.T.ravel()
    in_left = np.zeros(len(y), bool)          # marks one split's left rows
    lists = [[] for _ in _LISTS]
    feature, threshold, equal, left, right, node_counts = lists
    counts = np.bincount(y, minlength=N_CLASSES)
    table = _entropy_table(int(counts[1]), int(counts[0]))
    # (class counts, lines or None where not searched, the split whose right
    # child it is or -1); (None, None, i) comes up once split i's subtrees are
    # grown, and `errors` then ends in their pruned errors.
    stack = [(counts, _presort(columns.reshape(n_features, -1))
              if _splittable(counts, min_leaf) else None, -1)]
    errors = []
    while stack:
        counts, S, parent = stack.pop()
        if counts is None:
            subtree_err = errors.pop(-2) + errors.pop()
            leaf_err = _pessimistic(node_counts[parent])
            if leaf_err <= subtree_err + 0.1:     # near-ties collapse to the simpler tree
                for values, value in zip(lists, (*_LEAF, node_counts[parent])):
                    values[parent:] = [value]
                subtree_err = leaf_err
            errors.append(subtree_err)
            continue
        i = len(node_counts)
        if parent >= 0:
            right[parent] = i
        for values, value in zip(lists, (*_LEAF, counts.tolist())):
            values.append(value)
        if S is not None and subset_size is not None:
            pool = np.sort(rng.choice(n_features, min(subset_size, n_features), replace=False))
        found = S is not None and _best_split(columns, y, S, pool, cat_mask, counts,
                                              min_leaf, table)
        if not found:
            if prune:
                errors.append(_pessimistic(node_counts[i]))
            continue
        feature[i], threshold[i], equal[i], left_rows = found
        left[i] = i + 1
        left_counts = np.bincount(y[left_rows], minlength=N_CLASSES)
        right_counts = counts - left_counts
        if prune:
            stack.append((None, None, i))
        grow_left, grow_right = (_splittable(c, min_leaf) for c in (left_counts, right_counts))
        if grow_left or grow_right:
            in_left[left_rows] = True
            mask = in_left[S]
            in_left[left_rows] = False
        # Only a child that is searched gets its lines. Right below left on
        # the stack: nodes are visited (and draw) in pre-order.
        stack += ((right_counts, S[~mask].reshape(len(S), -1) if grow_right else None, i),
                  (left_counts, S[mask].reshape(len(S), -1) if grow_left else None, -1))
    return dict(zip(_LISTS, lists))


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


def _pessimistic(counts: list) -> float:
    neg, pos = counts
    e = float(min(neg, pos))
    return e + added_errors(float(neg + pos), e)


# ---------------------------------------------------------------------------


@dataclass
class DecisionTree:
    """Trained tree; scores are shill fractions at the reached leaf.

    `nodes` holds the lists `to_dict` saves, in pre-order: split i sends a
    row x to left[i] = i + 1 where x[feature[i]] == threshold[i] (<= where
    not equal[i]), to right[i] elsewhere; a leaf's entries are _LEAF."""

    nodes: dict
    categorical_mask: np.ndarray
    schema_hash: str
    seed: int
    algorithm: str = "DecisionTree"
    params: dict = field(default_factory=dict)

    root = property(lambda self: _NodeView(self.nodes, 0))

    def scores(self, X: np.ndarray) -> np.ndarray:
        feature, threshold, equal, left, right, counts = (self.nodes[key] for key in _LISTS)
        out = np.empty(len(X), np.float64)
        stack = [(0, np.arange(len(X)))]
        while stack:
            i, idx = stack.pop()
            if feature[i] < 0:  # counts have a positive sum (see _read_nodes)
                neg, pos = counts[i]
                out[idx] = pos / (neg + pos)
                continue
            col = X[idx, feature[i]]
            go_left = (col == threshold[i]) if equal[i] else (col <= threshold[i])
            stack += ((left[i], idx[go_left]), (right[i], idx[~go_left]))
        return out

    def to_dict(self) -> dict:
        return {"tree": {"root": _copied(self.nodes),
                         "categorical_mask": self.categorical_mask.tolist()}}

    @classmethod
    def from_dict(cls, d: dict, schema_hash: str | None = None) -> "DecisionTree":
        """The tree `to_dict` wrote, which must have `schema_hash` if one is given."""
        t, head = read_header(d, "tree", ("DecisionTree",))
        if schema_hash not in (None, head["schema_hash"]):
            raise ValueError(f"member schema_hash {head['schema_hash']!r} is not the ensemble's")
        root, mask = unpack(t, ("root", "categorical_mask"), "DecisionTree tree")
        ok = type(mask) is list and len(mask) > 0 and all(type(m) is bool for m in mask)
        if not ok or manifest_columns(head["schema_hash"]) not in (len(mask), np.inf):
            raise ValueError("DecisionTree categorical_mask must be a non-empty list of bools, "
                             "one per column")
        return cls(_read_nodes(root, mask), np.array(mask, bool), **head)

    def votes(self, X: np.ndarray) -> np.ndarray:
        """Hard class votes; score ties resolve to class 0 (benign)."""
        return (self.scores(X) > 0.5).astype(np.int8)

    def node_count(self) -> int:
        return len(self.nodes["counts"])


def train_decision_tree(matrix: FeatureMatrix, min_leaf: int = 2, prune: bool = True,
                        subset_size: int | None = None, seed: int = 0,
                        rng: np.random.Generator | None = None) -> DecisionTree:
    require_trainable(matrix)
    if rng is None:
        rng = np.random.default_rng(seed)
    cat_mask = matrix.categorical_mask()
    nodes = _grow(matrix.values, matrix.labels.astype(np.int64), cat_mask, min_leaf,
                  rng, subset_size, prune)
    return DecisionTree(nodes, cat_mask, matrix.schema_hash(), seed,
                        params={"min_leaf": min_leaf, "prune": prune,
                                "subset_size": subset_size})
