"""Single-rule, Bayes, and nearest-neighbor baselines."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .base import Dataset, N_CLASSES, require_trainable

_VAR_FLOOR = 1e-9

# Bytes of the two scratch arrays KNN3 estimates distances in (the estimates
# and their partitioned copy); query rows are scored in chunks that fit them.
KNN_BUFFER_BYTES = 2 << 20


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
    schema_hash: str = ""
    seed: int = 0
    algorithm: str = "OneR"
    params: dict = field(default_factory=dict)

    def scores(self, X: np.ndarray) -> np.ndarray:
        col = X[:, self.feature]
        if self.is_categorical:
            fallback = self.overall_counts
            out = np.empty(len(col))
            for i, v in enumerate(col):
                counts = self.value_counts.get(float(v), fallback)
                out[i] = counts[1] / counts.sum()
            return out
        idx = np.searchsorted(self.edges, col, side="left")
        counts = self.bucket_counts[idx]
        return counts[:, 1] / counts.sum(axis=1)

    def training_errors(self) -> int:
        if self.is_categorical:
            return int(sum(c.sum() - c.max() for c in self.value_counts.values()))
        return int((self.bucket_counts.sum(axis=1) - self.bucket_counts.max(axis=1)).sum())


def _numeric_rule(x: np.ndarray, y: np.ndarray, min_bucket: int):
    """Bucket edges + per-bucket class counts for one numeric feature."""
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    values, starts = np.unique(xs, return_index=True)
    bounds = np.append(starts, len(xs))
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


def train_oner(dataset: Dataset, min_bucket: int = 6, seed: int = 0) -> OneR:
    require_trainable(dataset)
    dataset = dataset.canonical()
    cat_mask = dataset.categorical_mask()
    y = dataset.y.astype(np.int64)
    overall = np.bincount(y, minlength=N_CLASSES)
    best = None   # (errors, feature, payload)
    for f in range(dataset.n_features):
        col = dataset.X[:, f]
        if cat_mask[f]:
            values = np.unique(col)
            vc = {}
            for v in values:
                vc[float(v)] = np.bincount(y[col == v], minlength=N_CLASSES)
            errors = int(sum(c.sum() - c.max() for c in vc.values()))
            payload = ("cat", vc)
        else:
            edges, buckets = _numeric_rule(col, y, min_bucket)
            errors = int((buckets.sum(axis=1) - buckets.max(axis=1)).sum())
            payload = ("num", (edges, buckets))
        if best is None or errors < best[0]:
            best = (errors, f, payload)
    _, feature, payload = best
    if payload[0] == "cat":
        return OneR(feature, True, None, None, payload[1], overall,
                    dataset.schema_hash, seed, params={"min_bucket": min_bucket})
    edges, buckets = payload[1]
    return OneR(feature, False, edges, buckets, None, overall,
                dataset.schema_hash, seed, params={"min_bucket": min_bucket})


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
    schema_hash: str = ""
    seed: int = 0
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


def train_naive_bayes(dataset: Dataset, seed: int = 0) -> NaiveBayes:
    require_trainable(dataset)
    dataset = dataset.canonical()
    cat_mask = dataset.categorical_mask()
    numeric_mask = ~cat_mask
    F = dataset.n_features
    priors = dataset.class_counts() / dataset.n
    means = np.zeros((N_CLASSES, F))
    variances = np.ones((N_CLASSES, F))
    for c in range(N_CLASSES):
        rows = dataset.X[dataset.y == c]
        means[c] = rows.mean(axis=0)
        variances[c] = np.maximum(rows.var(axis=0), _VAR_FLOOR)
    cat_tables, cat_totals = {}, {}
    for f in np.nonzero(cat_mask)[0]:
        col = dataset.X[:, f]
        table = {}
        for v in np.unique(col):
            counts = np.bincount(dataset.y[col == v].astype(np.int64),
                                 minlength=N_CLASSES)
            table[float(v)] = counts
        cat_tables[int(f)] = table
        cat_totals[int(f)] = dataset.class_counts()
    return NaiveBayes(priors, means, variances, numeric_mask, cat_tables,
                      cat_totals, dataset.schema_hash, seed)


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
    est - margin is above the k-th smallest est + margin of its row.

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
    - With the rounding of the k-th est plus the margin, at most
      5(m + c + 3)u S separates a pruned pair from the k-th distance.
    The margin is 128(m + c + 3)u (Q + max T + c), over 25 times that, plus
    the smallest normal float, which covers the 2^-1075 each product can
    lose to underflow. So every pair nearer than or tied with the k-th
    distance is a candidate, and the vote sees the distances a full
    computation gives. A row whose estimate or margin is not finite keeps
    every pair. The product's last bits may vary with the BLAS build and
    its threads; only the filter reads them.
    """

    train_X: np.ndarray               # standardized numerics + raw categoricals
    train_y: np.ndarray
    mean: np.ndarray
    scale: np.ndarray
    numeric_mask: np.ndarray
    k: int = 3
    schema_hash: str = ""
    seed: int = 0
    algorithm: str = "KNN3"
    params: dict = field(default_factory=dict)

    def _standardize(self, X: np.ndarray) -> np.ndarray:
        Z = X.copy()
        Z[:, self.numeric_mask] = ((X[:, self.numeric_mask] - self.mean)
                                   / self.scale)
        return Z

    def scores(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, np.float64)
        out = np.empty(len(X))
        for lo, d2, y in self._candidates(X):
            out[lo:lo + len(d2)] = self._vote(d2, y)
        return out

    def _candidates(self, X: np.ndarray):
        """Yield (first row, d2, y) for each chunk of query rows.

        Row i of d2 holds the exact distances of query row lo + i to its
        candidates in training-row order, padded with +inf; y holds their
        labels.
        """
        Z = self._standardize(X)
        num, cat = self.numeric_mask, ~self.numeric_mask
        train_num = np.ascontiguousarray(self.train_X[:, num])
        train_cat = self.train_X[:, cat]
        n_train, m = train_num.shape
        c = train_cat.shape[1]
        query = np.column_stack([Z[:, num], np.zeros(len(Z)), np.ones(len(Z))])
        with np.errstate(over="ignore", invalid="ignore"):
            query[:, m] = np.einsum("ij,ij->i", query[:, :m], query[:, :m])
            train_sq = np.einsum("ij,ij->i", train_num, train_num)
        train = np.vstack([-2.0 * train_num.T, np.ones(n_train), train_sq])
        rel, t_max = 128 * (m + c + 3) * 2.0 ** -53, train_sq.max()
        rows = max(1, KNN_BUFFER_BYTES // (2 * 8 * n_train))
        est_buf = np.empty((min(rows, len(Z)), n_train))
        for lo in range(0, len(Z), rows):
            zq, zc = query[lo:lo + rows], Z[lo:lo + rows, cat]
            est = est_buf[:len(zq)]
            with np.errstate(over="ignore", invalid="ignore"):
                np.matmul(zq, train, out=est)
                for j in range(c):
                    est += zc[:, j, None] != train_cat[:, j]
                kth = np.partition(est, self.k - 1, axis=1)[:, self.k - 1]
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


def train_knn3(dataset: Dataset, k: int = 3, seed: int = 0) -> KNN3:
    require_trainable(dataset)
    if dataset.n < k:
        raise ValueError(f"k-NN needs at least {k} training rows, got {dataset.n}")
    dataset = dataset.canonical()
    numeric_mask = ~dataset.categorical_mask()
    mean = dataset.X[:, numeric_mask].mean(axis=0)
    scale = dataset.X[:, numeric_mask].std(axis=0)
    scale[scale == 0] = 1.0
    Z = dataset.X.copy()
    Z[:, numeric_mask] = (dataset.X[:, numeric_mask] - mean) / scale
    return KNN3(Z, dataset.y.astype(np.float64), mean, scale, numeric_mask, k,
                dataset.schema_hash, seed, params={"k": k})
