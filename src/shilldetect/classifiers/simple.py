"""Single-rule, Bayes, and nearest-neighbor baselines."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..features import FeatureMatrix
from ..graphs import run_starts
from .base import N_CLASSES, class_counts, manifest_columns, read_header, require_trainable, unpack

_VAR_FLOOR = 1e-9

# Bytes of the distance estimates KNN3 holds for one chunk of query rows,
# 8 per (query, training row) pair; query rows are scored in chunks that fit
# them. The keep test's two boolean masks add a quarter of this again.
KNN_BUFFER_BYTES = 1 << 20
# Blocks of training rows (fewer if rows are fewer, k if k is more); the
# k-th smallest of a query row's block minima bounds its k-th estimate.
KNN_BLOCKS = 128

# ---------------------------------------------------------------------------
# OneR: the best single-feature rule.


@dataclass
class OneR:
    """One feature, bucketed; prediction is the bucket's majority class.

    Numeric features are discretized by scanning values in ascending order
    and closing a bucket once its majority class has at least `min_bucket`
    members; buckets only close at value changes, a trailing partial bucket
    merges into its predecessor, and adjacent buckets predicting the same
    class are merged. The score is the bucket's empirical shill frequency.
    """

    feature: int
    is_categorical: bool
    # numeric rule: ascending upper edges (last = +inf) with bucket counts
    edges: np.ndarray | None
    bucket_counts: np.ndarray | None      # (n_buckets, 2)
    # categorical rule: value -> counts; fallback = overall counts
    value_counts: dict | None
    overall_counts: np.ndarray
    schema_hash: str
    seed: int
    algorithm: str = "OneR"
    params: dict = field(default_factory=dict)

    def scores(self, X: np.ndarray) -> np.ndarray:
        col = X[:, self.feature]
        if self.is_categorical:
            counts = [self.value_counts.get(float(v), self.overall_counts) for v in col]
            return np.array([c[1] / c.sum() for c in counts], np.float64)
        idx = np.searchsorted(self.edges, col, side="left")
        counts = self.bucket_counts[idx]
        return counts[:, 1] / counts.sum(axis=1)

    def to_dict(self) -> dict:
        return {"rule": {
            "feature": self.feature, "is_categorical": self.is_categorical,
            "edges": None if self.edges is None else self.edges.tolist(),
            "bucket_counts": None if self.bucket_counts is None else self.bucket_counts.tolist(),
            "value_counts": None if self.value_counts is None else
                {repr(v): c.tolist() for v, c in self.value_counts.items()},
            "overall_counts": self.overall_counts.tolist()}}

    @classmethod
    def from_dict(cls, d: dict) -> "OneR":
        r, head = read_header(d, "rule", ("OneR",))
        feature, categorical, edges, buckets, values, overall = unpack(r, (
            "feature", "is_categorical", "edges", "bucket_counts", "value_counts",
            "overall_counts"), "OneR rule")
        columns = manifest_columns(head["schema_hash"])
        if type(feature) is not int or not 0 <= feature < columns:
            raise ValueError(f"OneR feature {feature!r} is not an int in [0, {columns})")
        ok = False
        if categorical is True and edges is None and buckets is None and values:
            values = {float(v): class_counts(c, f"OneR value {v}") for v, c in values.items()}
            ok = np.isfinite(list(values)).all()
        elif categorical is False and values is None and buckets:
            edges = np.array(edges, np.float64)
            buckets = np.array([class_counts(c, f"OneR bucket {i}")
                                for i, c in enumerate(buckets)])
            ok = (edges.shape == (len(buckets),) and edges[-1] == np.inf
                  and np.isfinite(edges[:-1]).all() and (np.diff(edges) > 0).all())
        if not ok:
            raise ValueError("OneR needs finite value_counts, or edges rising to Infinity, "
                             "one per bucket_counts row, as its is_categorical says")
        return cls(feature, categorical, edges, buckets, values,
                   class_counts(overall, "OneR overall_counts"), **head)

    def training_errors(self) -> int:
        if self.is_categorical:
            return int(sum(c.sum() - c.max() for c in self.value_counts.values()))
        return int((self.bucket_counts.sum(axis=1) - self.bucket_counts.max(axis=1)).sum())


def _numeric_rule(x: np.ndarray, y: np.ndarray, min_bucket: int):
    """Bucket edges + per-bucket class counts for one numeric feature."""
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    starts = run_starts(xs)
    values, bounds = xs[starts], np.append(starts, len(xs))
    edges: list[float] = []
    buckets: list[np.ndarray] = []
    current = np.zeros(N_CLASSES, np.int64)
    for g in range(len(values)):
        current += np.bincount(ys[bounds[g]:bounds[g + 1]], minlength=N_CLASSES)
        if current.max() >= min_bucket and g + 1 < len(values):
            edges.append((values[g] + values[g + 1]) / 2.0)
            buckets.append(current)
            current = np.zeros(N_CLASSES, np.int64)
    # The scan never closes on the final value group, so `current` is nonempty:
    # keep it if it qualifies on its own, otherwise fold it into its neighbor.
    if current.max() >= min_bucket or not buckets:
        buckets.append(current)
    else:
        buckets[-1] = buckets[-1] + current
        edges.pop()
    # Merge adjacent buckets that predict the same class (ties -> class 0).
    merged_edges: list[float] = []
    merged: list[np.ndarray] = [buckets[0]]
    for i in range(1, len(buckets)):
        if int(np.argmax(merged[-1])) == int(np.argmax(buckets[i])):
            merged[-1] = merged[-1] + buckets[i]
        else:
            merged_edges.append(edges[i - 1])
            merged.append(buckets[i])
    edge_arr = np.array(merged_edges + [np.inf])
    return edge_arr, np.vstack(merged)


def _value_counts(col: np.ndarray, y: np.ndarray) -> dict:
    """Class counts `y` of the rows holding each distinct value of `col`."""
    return {float(v): np.bincount(y[col == v], minlength=N_CLASSES) for v in np.unique(col)}


def train_oner(matrix: FeatureMatrix, min_bucket: int = 6, seed: int = 0) -> OneR:
    require_trainable(matrix)
    cat_mask = matrix.categorical_mask()
    y = matrix.labels.astype(np.int64)
    overall, schema_hash = np.bincount(y, minlength=N_CLASSES), matrix.schema_hash()
    best = None
    for f in range(matrix.n_features):
        col = matrix.values[:, f]
        if cat_mask[f]:
            rule = (None, None, _value_counts(col, y))
        else:
            rule = (*_numeric_rule(col, y, min_bucket), None)
        rule = OneR(f, bool(cat_mask[f]), *rule, overall, schema_hash, seed,
                    params={"min_bucket": min_bucket})
        if best is None or rule.training_errors() < best.training_errors():
            best = rule
    return best


# ---------------------------------------------------------------------------
# Gaussian / frequency-table Naive Bayes.


@dataclass
class NaiveBayes:
    """Gaussian likelihoods for numeric columns, Laplace tables for State.

    Numeric variance is floored at 1e-9 so constant columns stay finite.
    Categorical tables reserve one extra Laplace slot for unseen values.
    """

    priors: np.ndarray                 # (2,)
    means: np.ndarray                  # (2, F) numeric columns only meaningful
    variances: np.ndarray              # (2, F)
    numeric_mask: np.ndarray
    cat_tables: dict                   # feature -> {value: (2,) counts}
    cat_class_totals: dict             # feature -> (2,) row counts
    schema_hash: str
    seed: int
    algorithm: str = "NaiveBayes"
    params: dict = field(default_factory=dict)

    def scores(self, X: np.ndarray) -> np.ndarray:
        n = len(X)
        log_post = np.tile(np.log(self.priors), (n, 1))    # (n, 2)
        Xn = X[:, self.numeric_mask]
        for c in range(N_CLASSES):
            mu = self.means[c, self.numeric_mask]
            var = self.variances[c, self.numeric_mask]
            terms = -0.5 * (np.log(2 * np.pi * var) + (Xn - mu) ** 2 / var)
            # Added column by column, in column order, so a row's score does
            # not depend on the rows scored with it: `sum(axis=1)` adds the
            # columns of a many-row block in order but a lone row pairwise.
            log_lik = np.zeros(n)
            for term in terms.T:
                log_lik += term
            log_post[:, c] += log_lik
        for f, table in self.cat_tables.items():
            totals = self.cat_class_totals[f]
            n_values = len(table)
            col = X[:, f]
            for c in range(N_CLASSES):
                denom = totals[c] + n_values + 1
                probs = np.array([
                    (table[float(v)][c] + 1) / denom if float(v) in table else 1.0 / denom
                    for v in col])
                log_post[:, c] += np.log(probs)
        log_post -= log_post.max(axis=1, keepdims=True)
        post = np.exp(log_post)
        return post[:, 1] / post.sum(axis=1)

    def to_dict(self) -> dict:
        return {"bayes": {
            "priors": self.priors.tolist(), "means": self.means.tolist(),
            "variances": self.variances.tolist(), "numeric_mask": self.numeric_mask.tolist(),
            "cat_tables": {str(f): {repr(v): c.tolist() for v, c in t.items()}
                           for f, t in self.cat_tables.items()},
            "cat_class_totals": {str(f): c.tolist() for f, c in self.cat_class_totals.items()}}}

    @classmethod
    def from_dict(cls, d: dict) -> "NaiveBayes":
        b, head = read_header(d, "bayes", ("NaiveBayes",))
        *moments, mask, tables, totals = unpack(b, (
            "priors", "means", "variances", "numeric_mask", "cat_tables", "cat_class_totals"),
            "NaiveBayes bayes")
        priors, means, variances = (np.array(v, np.float64) for v in moments)
        mask = np.array(mask, bool)
        if priors.shape != (N_CLASSES,) or not ((priors > 0) & (priors <= 1)).all():
            raise ValueError(f"NaiveBayes priors {priors.tolist()} are not each in (0, 1]")
        if not (means.shape == variances.shape == (N_CLASSES, len(mask)) and np.isfinite(
                means).all() and np.isfinite(variances).all() and (variances > 0).all()):
            raise ValueError("NaiveBayes means and variances must be finite, variances positive, "
                             "one per class and numeric_mask column")
        tables = {int(f): {float(v): class_counts(c, f"NaiveBayes column {f} value {v}")
                           for v, c in t.items()} for f, t in tables.items()}
        totals = {int(f): class_counts(c, f"NaiveBayes column {f}") for f, c in totals.items()}
        if not (list(tables) == list(totals) == np.flatnonzero(~mask).tolist()
                and np.isfinite([v for t in tables.values() for v in t]).all()):
            raise ValueError("NaiveBayes cat_tables and cat_class_totals must hold finite "
                             "values for each categorical column")
        return cls(priors, means, variances, mask, tables, totals, **head)


def train_naive_bayes(matrix: FeatureMatrix, seed: int = 0) -> NaiveBayes:
    require_trainable(matrix)
    matrix = matrix.canonical()
    cat_mask = matrix.categorical_mask()
    priors = matrix.class_counts() / matrix.n_users
    rows = [matrix.values[matrix.labels == c] for c in range(N_CLASSES)]
    means = np.array([r.mean(axis=0) for r in rows])
    variances = np.array([np.maximum(r.var(axis=0), _VAR_FLOOR) for r in rows])
    y, categorical = matrix.labels.astype(np.int64), np.flatnonzero(cat_mask).tolist()
    cat_tables = {f: _value_counts(matrix.values[:, f], y) for f in categorical}
    cat_totals = {f: matrix.class_counts() for f in categorical}
    return NaiveBayes(priors, means, variances, ~cat_mask, cat_tables,
                      cat_totals, matrix.schema_hash(), seed)


# ---------------------------------------------------------------------------
# 3-nearest-neighbor voting.


@dataclass
class KNN3:
    """Distance: Euclidean over z-scored numerics + 0/1 categorical mismatch.

    Standardization statistics are frozen from the training set. Equal
    distances break toward the lower user id, so scores are reproducible;
    they take values in {0, 1/3, 2/3, 1}.

    A distance d2 adds the squared numeric differences one column at a
    time, in column order, then the count of categorical mismatches.
    Scoring computes d2 only for candidate pairs, picked per chunk of query
    rows from an estimate: est = ||q||^2 + ||t||^2 - 2 q.t, one matrix
    product per chunk, plus the mismatches. A pair stays a candidate unless
    est - margin is above its row's bound + margin. The bound is the k-th
    smallest of the row's b block minima, b = max(min(KNN_BLOCKS, training
    rows), k): at least k, and at most the training rows, as k is.
    Training row i falls in block i mod b unless it is in the last
    (rows mod b), which fall in none, and a block's minimum is its least
    est. The k smallest minima are the ests of k different training rows,
    so the bound is at or above the row's k-th smallest est; a higher
    bound only keeps more pairs.

    The margin bounds |est - d2|. Take u = 2^-53, m numeric and c
    categorical columns, Q = ||q||^2, T = ||t||^2, S = Q + T + c, D the
    exact squared distance and C the mismatch count, with no overflow:
    - d2: each term is within 3u of (q_j - t_j)^2, the m-term sum and the
      count add (m - 1)u and u: |d2 - D - C| <= (m + 3)u (D + C), and
      D <= 2(Q + T), so this is at most 2(m + 3)u S.
    - est is one dot product, [q, Q, 1] . [-2t, 1, T], whose m + 2 terms
      have magnitudes summing to at most 2(Q + T). In any summation order,
      fused or not, it errs by at most (m + 2)u times that (Higham,
      Accuracy and Stability of Numerical Algorithms, 3.1); the computed Q
      and T are within m u Q and m u T, and each of the c additions of a
      mismatch column rounds by at most u (2(Q + T) + c): |est - D - C| <=
      (3m + 2c + 4)u S.
    - With the rounding of the bound plus the margin, at most
      5(m + c + 3)u S separates a pruned pair from the k-th distance.
    The margin is 128(m + c + 3)u (Q + max T + c), over 25 times that, plus
    the smallest normal float, which covers the 2^-1075 each product can
    lose to underflow. So every pair nearer than or tied with the k-th
    distance is a candidate, and the vote sees the distances a full
    computation gives. A row whose margin is not finite keeps every pair,
    and so does one with fewer than k finite block minima: a block's
    minimum is nan if any of its ests is, and the partition puts nan last,
    so the bound is nan. A nan est keeps its pair. The product's last bits
    may vary with the BLAS build and its threads; only the filter reads
    them.
    """

    train_X: np.ndarray               # standardized numerics + raw categoricals
    train_y: np.ndarray
    mean: np.ndarray
    scale: np.ndarray
    numeric_mask: np.ndarray
    k: int
    schema_hash: str
    seed: int
    algorithm: str = "KNN3"
    params: dict = field(default_factory=dict)

    def scores(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, np.float64)
        out = np.empty(len(X))
        for lo, d2, y in self._candidates(X):
            out[lo:lo + len(d2)] = self._vote(d2, y)
        return out

    def to_dict(self) -> dict:
        return {"knn": {
            "train_X": self.train_X.tolist(), "train_y": self.train_y.tolist(),
            "mean": self.mean.tolist(), "scale": self.scale.tolist(),
            "numeric_mask": self.numeric_mask.tolist(), "k": self.k}}

    @classmethod
    def from_dict(cls, d: dict) -> "KNN3":
        b, head = read_header(d, "knn", ("KNN3",))
        *arrays, mask, k = unpack(b, ("train_X", "train_y", "mean", "scale", "numeric_mask", "k"),
                                  "KNN3 knn")
        train_X, train_y, mean, scale = (np.array(v, np.float64) for v in arrays)
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
        return cls(train_X, train_y, mean, scale, np.array(mask, bool), k, **head)

    def _candidates(self, X: np.ndarray):
        """Yield (first row, d2, y) for each chunk of query rows.

        Row i of d2 holds the exact distances of query row lo + i to its
        candidates in training-row order, padded with +inf; y holds their
        labels.
        """
        num, cat = np.flatnonzero(self.numeric_mask), np.flatnonzero(~self.numeric_mask)
        n_train, m, c = len(self.train_X), len(num), len(cat)
        train_num = np.ascontiguousarray(self.train_X[:, num])
        train_cat, query_cat = self.train_X[:, cat], X[:, cat]
        # [z-scored numerics, squared norm, 1], one row per query.
        query = np.ones((len(X), m + 2))
        np.subtract(X[:, num], self.mean, out=query[:, :m])
        query[:, :m] /= self.scale
        with np.errstate(over="ignore", invalid="ignore"):
            query[:, m] = np.einsum("ij,ij->i", query[:, :m], query[:, :m])
            train_sq = np.einsum("ij,ij->i", train_num, train_num)
        train = np.vstack([-2.0 * train_num.T, np.ones(n_train), train_sq])
        rel, t_max = 128 * (m + c + 3) * 2.0 ** -53, train_sq.max()
        blocks = max(min(KNN_BLOCKS, n_train), self.k)
        per = n_train // blocks
        rows = max(1, KNN_BUFFER_BYTES // (8 * n_train))
        est_buf = np.empty((min(rows, len(X)), n_train))
        for lo in range(0, len(X), rows):
            zq, zc = query[lo:lo + rows], query_cat[lo:lo + rows]
            est = est_buf[:len(zq)]
            with np.errstate(over="ignore", invalid="ignore"):
                np.matmul(zq, train, out=est)
                for j in range(c):
                    est += zc[:, j, None] != train_cat[:, j]
                mins = est[:, :per * blocks].reshape(len(zq), per, blocks).min(axis=1)
                kth = np.partition(mins, self.k - 1, axis=1)[:, self.k - 1]
                margin = rel * (zq[:, m] + t_max + c) + np.finfo(np.float64).tiny
                # Written so that a nan or inf estimate or margin keeps the pair.
                keep = ~(est > (kth + 2 * margin)[:, None])
            qi, ti = divmod(np.flatnonzero(keep), n_train)
            # Exact distances: the operations and column order of a full
            # computation, so each is the value it would give.
            with np.errstate(over="ignore", invalid="ignore"):
                terms = zq[qi, :m] - train_num[ti]
                np.square(terms, out=terms)
                exact = np.zeros(len(qi))
                for term in terms.T:
                    exact += term
            if c:
                exact += (zc[qi] != train_cat[ti]).sum(axis=1)
            counts = np.bincount(qi, minlength=len(zq))
            col = np.arange(len(qi)) - (np.cumsum(counts) - counts)[qi]
            d2 = np.full((len(zq), counts.max()), np.inf)
            y = np.zeros(d2.shape)
            d2[qi, col] = exact
            y[qi, col] = self.train_y[ti]
            yield lo, d2, y

    def _vote(self, d2: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Shill share of the k nearest of each row's candidates.

        Each row lists candidates in user-id order, with labels `y`. The
        neighbours are every candidate strictly nearer than the k-th
        distance, then the ones tied at it in order: the first k of a
        stable argsort of each row of `d2`. Only rows with more than k
        candidates within the k-th distance need the running count of ties
        that cuts them.
        """
        kth = np.partition(d2, self.k - 1, axis=1)[:, self.k - 1:self.k]
        chosen = d2 <= kth
        over = np.flatnonzero(chosen.sum(axis=1) > self.k)
        d2, kth = d2[over], kth[over]
        nearer = d2 < kth
        tied = d2 == kth
        room = self.k - nearer.sum(axis=1, keepdims=True)
        chosen[over] = nearer | (tied & (np.cumsum(tied, axis=1) <= room))
        return (chosen * y).sum(axis=1) / self.k


def train_knn3(matrix: FeatureMatrix, k: int = 3, seed: int = 0) -> KNN3:
    require_trainable(matrix)
    if matrix.n_users < k:
        raise ValueError(f"k-NN needs at least {k} training rows, got {matrix.n_users}")
    matrix = matrix.canonical()
    numeric_mask = ~matrix.categorical_mask()
    mean = matrix.values[:, numeric_mask].mean(axis=0)
    scale = matrix.values[:, numeric_mask].std(axis=0)
    scale[scale == 0] = 1.0
    Z = matrix.values.copy()
    Z[:, numeric_mask] = (matrix.values[:, numeric_mask] - mean) / scale
    return KNN3(Z, matrix.labels.astype(np.float64), mean, scale, numeric_mask, k,
                matrix.schema_hash(), seed, params={"k": k})
