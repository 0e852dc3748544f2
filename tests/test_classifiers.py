import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

from shilldetect.classifiers import (
    ALGORITHMS,
    check_hyperparameters,
    load_model,
    model_from_dict,
    model_to_dict,
    predict_score,
    save_model,
    train,
)
from shilldetect.classifiers.ensembles import (
    TreeEnsemble,
    train_bagging,
    train_random_forest,
    train_rotation_forest,
)
from shilldetect.classifiers.pca import pca_basis
from shilldetect.classifiers.simple import (
    train_knn3,
    train_naive_bayes,
    train_oner,
)
from shilldetect.classifiers.tree import Z_CF25, added_errors, train_decision_tree
from shilldetect.evaluation import balanced_training_sample, auc
from shilldetect.features import FeatureMatrix
from shilldetect.graphs import stable_argsort

import shilldetect.classifiers.simple as simple
import shilldetect.classifiers.tree as tree

from oracles import flat_tree, grow_tree_reference, jacobi_eigh, knn_scores_reference


def mk_ds(X, y, categorical=None):
    """A matrix of columns f0, f1, ...; column `categorical`, if given, is
    the categorical State-Hash."""
    X = np.asarray(X, np.float64)
    if X.ndim == 1:
        X = X[:, None]
    names = [f"f{j}" for j in range(X.shape[1])]
    if categorical is not None:
        names[categorical] = "State-Hash"
    return FeatureMatrix([f"u{i:03d}" for i in range(len(y))], X, np.asarray(y, np.int8),
                         tuple(names))


@pytest.fixture(scope="module")
def train_ds(small_matrix):
    return balanced_training_sample(small_matrix, seed=0)


# ---------------------------------------------------------------------------
# dataset container


def test_dataset_validation():
    with pytest.raises(ValueError, match="missing"):
        train_oner(mk_ds([[np.nan]], [0]))
    for value in (np.inf, -np.inf):
        with pytest.raises(ValueError, match="infinite"):
            train_oner(mk_ds([[0.0], [value]], [0, 1]))
    with pytest.raises(ValueError, match="binary"):
        mk_ds([[1.0]], [2])
    with pytest.raises(ValueError, match="does not match 1 users"):
        FeatureMatrix(["u1"], np.zeros((2, 1)), np.zeros(2, np.int8), ("f0",))


def test_dataset_canonical_sorts_by_user_id():
    ds = FeatureMatrix(["c", "a", "b"], np.array([[3.0], [1.0], [2.0]]),
                       np.array([1, 0, 0], np.int8), ("f0",))
    assert ds.id_order().tolist() == [1, 2, 0]
    c = ds.canonical()
    assert c.user_ids == ["a", "b", "c"]
    assert list(c.values[:, 0]) == [1.0, 2.0, 3.0]
    with pytest.raises(ValueError, match="user id 'c' is on more than one row"):
        ds.take([0, 1, 0]).id_order()


@pytest.mark.parametrize("algorithm", ["KNN3", "NaiveBayes"])
def test_learners_reading_id_order_refuse_a_repeated_id(train_ds, algorithm):
    ids = list(train_ds.user_ids)
    ids[1] = ids[0]
    with pytest.raises(ValueError, match="user ids must be unique"):
        train(algorithm, FeatureMatrix(ids, train_ds.values, train_ds.labels))


def test_single_class_refused():
    with pytest.raises(ValueError, match="both classes"):
        train_oner(mk_ds([[1.0], [2.0]], [1, 1]))


# ---------------------------------------------------------------------------
# OneR


def test_oner_perfect_split():
    x = np.arange(1, 13, dtype=float)
    y = np.array([0] * 6 + [1] * 6)
    model = train_oner(mk_ds(x, y), min_bucket=6)
    assert model.feature == 0 and not model.is_categorical
    assert model.edges[0] == pytest.approx(6.5)
    assert model.edges[-1] == np.inf
    s = model.scores(x[:, None])
    assert list(s[:6]) == [0.0] * 6 and list(s[6:]) == [1.0] * 6
    assert model.training_errors() == 0


def test_oner_trailing_partial_bucket_merges():
    x = np.arange(1, 10, dtype=float)
    y = np.array([0] * 6 + [1] * 3)
    model = train_oner(mk_ds(x, y), min_bucket=6)
    # trailing [0,3] cannot stand alone; it folds into the first bucket
    assert len(model.edges) == 1 and model.edges[0] == np.inf
    assert model.training_errors() == 3
    assert model.scores(np.array([[2.0]]))[0] == pytest.approx(3 / 9)


def test_oner_picks_lowest_errors_then_lowest_index():
    x_perfect = np.array([0.0] * 6 + [1.0] * 6)
    x_noise = np.array([0, 1] * 6, dtype=float)
    y = np.array([0] * 6 + [1] * 6)
    model = train_oner(mk_ds(np.c_[x_noise, x_perfect], y), min_bucket=6)
    assert model.feature == 1
    tie = train_oner(mk_ds(np.c_[x_perfect, x_perfect], y), min_bucket=6)
    assert tie.feature == 0            # equal errors -> lower feature index


def test_oner_categorical_rule():
    x = np.array([10.0] * 8 + [20.0] * 8)
    y = np.array([1] * 6 + [0] * 2 + [0] * 8)
    ds = mk_ds(x, y, categorical=0)
    model = train_oner(ds, min_bucket=6)
    assert model.is_categorical
    s = model.scores(np.array([[10.0], [20.0], [999.0]]))
    assert s[0] == pytest.approx(6 / 8)
    assert s[1] == pytest.approx(0.0)
    assert s[2] == pytest.approx(6 / 16)    # unseen value -> overall frequency


def test_oner_row_order_invariance(train_ds):
    rng = np.random.default_rng(3)
    perm = rng.permutation(train_ds.n_users)
    m1 = train_oner(train_ds)
    m2 = train_oner(train_ds.take(perm))
    assert model_to_dict(m1) == model_to_dict(m2)


# ---------------------------------------------------------------------------
# Naive Bayes


def test_naive_bayes_matches_direct_gaussian():
    x = np.array([1.0, 2.0, 3.0, 8.0, 9.0, 10.0])
    y = np.array([0, 0, 0, 1, 1, 1])
    model = train_naive_bayes(mk_ds(x, y))
    q = np.array([[2.5], [7.5], [5.5]])
    got = model.scores(q)
    # independent route: explicit Gaussian likelihoods, ML variance (ddof=0)
    like = []
    for c in (0, 1):
        rows = x[y == c]
        like.append(norm.pdf(q[:, 0], rows.mean(), rows.std()) * 0.5)
    want = like[1] / (like[0] + like[1])
    assert got == pytest.approx(want, abs=1e-9)


def test_naive_bayes_constant_column_finite():
    X = np.c_[np.array([1.0, 1.0, 1.0, 1.0]), np.array([0.0, 0.0, 5.0, 5.0])]
    model = train_naive_bayes(mk_ds(X, [0, 0, 1, 1]))
    s = model.scores(X)
    assert np.isfinite(s).all()
    assert s[0] < 0.5 < s[2]


def test_naive_bayes_laplace_categorical():
    x = np.array([1.0] * 4 + [2.0] * 4)
    y = np.array([1, 1, 1, 0, 0, 0, 0, 1])
    ds = mk_ds(x, y, categorical=0)
    model = train_naive_bayes(ds)
    # class totals 4/4, two seen values + one unseen slot -> denominator 7
    s_seen = model.scores(np.array([[1.0]]))[0]
    p1 = 0.5 * (3 + 1) / 7    # P(v=1|shill) with Laplace
    p0 = 0.5 * (1 + 1) / 7
    assert s_seen == pytest.approx(p1 / (p1 + p0), abs=1e-12)
    s_unseen = model.scores(np.array([[42.0]]))[0]
    assert s_unseen == pytest.approx(0.5, abs=1e-12)   # symmetric fallback


# ---------------------------------------------------------------------------
# k-NN


def test_knn_votes_and_tie_break():
    # three identical points at 0 (labels 1,0,0) and two at 1 (labels 1,1)
    ds = FeatureMatrix(["a", "b", "c", "d", "e"],
                       np.array([[0.0], [0.0], [0.0], [1.0], [1.0]]),
                       np.array([1, 0, 0, 1, 1], np.int8), ("f0",))
    model = train_knn3(ds)
    s = model.scores(np.array([[0.0]]))
    assert s[0] == pytest.approx(1 / 3)     # ties resolved toward a, b, c
    # query at 1: neighbors d, e, then the tie among a/b/c goes to a (y=1)
    assert model.scores(np.array([[1.0]]))[0] == pytest.approx(1.0)


def test_knn_row_order_invariance(train_ds):
    perm = np.random.default_rng(1).permutation(train_ds.n_users)
    s1 = train_knn3(train_ds).scores(train_ds.values[:10])
    s2 = train_knn3(train_ds.take(perm)).scores(train_ds.values[:10])
    assert np.array_equal(s1, s2)


def test_knn_needs_k_rows():
    with pytest.raises(ValueError, match="at least"):
        train_knn3(mk_ds([[0.0], [1.0]], [0, 1]))


def test_knn_score_domain(train_ds):
    s = train_knn3(train_ds).scores(train_ds.values)
    assert set(np.round(s * 3).astype(int)) <= {0, 1, 2, 3}


def _knn_oracle_scores(model, ds, Q):
    cat = [j for j in range(ds.n_features) if not model.numeric_mask[j]]
    return knn_scores_reference(ds.values.tolist(), ds.labels.tolist(), ds.user_ids,
                                np.asarray(Q).tolist(), cat,
                                model.mean.tolist(), model.scale.tolist())


def _tie_heavy_knn_data():
    """Rows from a small grid with repeats, plus a categorical column."""
    rng = np.random.default_rng(5)
    n = 90
    X = np.column_stack([rng.integers(0, 3, n), rng.integers(0, 2, n),
                         rng.integers(0, 4, n) * 0.5,
                         rng.choice([7.0, 11.0, 13.0], n)]).astype(np.float64)
    X[30:45] = X[:15]                                   # exact duplicate rows
    y = rng.integers(0, 2, n).astype(np.int8)
    ids = [f"u{v:03d}" for v in rng.permutation(n)]        # ids not in row order
    ds = FeatureMatrix(ids, X, y, ("a", "b", "c", "State-Hash"))
    Q = np.vstack([X[::2], rng.integers(0, 3, (40, 4)).astype(np.float64)])
    return ds, Q


@pytest.mark.parametrize("rows_per_chunk", [1, 7, None])
def test_knn_matches_brute_force_oracle(monkeypatch, rows_per_chunk):
    ds, Q = _tie_heavy_knn_data()
    if rows_per_chunk is not None:   # a budget that fits this many query rows
        monkeypatch.setattr(simple, "KNN_BUFFER_BYTES", 8 * ds.n_users * rows_per_chunk)
    model = train_knn3(ds)
    scores = model.scores(Q)
    assert scores.tolist() == _knn_oracle_scores(model, ds, Q)


def test_knn_matches_oracle_on_features(monkeypatch, train_ds, small_matrix):
    monkeypatch.setattr(simple, "KNN_BUFFER_BYTES", 8 * train_ds.n_users * 13)
    model = train_knn3(train_ds)
    Q = small_matrix.values
    assert model.scores(Q).tolist() == _knn_oracle_scores(model, train_ds.canonical(), Q)


def _standardized_knn(train_X, train_y, categorical, k=3):
    """A KNN3 built directly in standardized units (mean 0, scale 1).

    `train_knn3` z-scores its rows, which bounds every training value by
    sqrt(n); building the model by hand lets a test put training rows at
    any norm. Rows are in user-id order, as `train_knn3` leaves them.
    """
    train_X = np.asarray(train_X, np.float64)
    numeric = np.ones(train_X.shape[1], bool)
    numeric[list(categorical)] = False
    model = simple.KNN3(train_X, np.asarray(train_y, np.float64),
                        np.zeros(numeric.sum()), np.ones(numeric.sum()), numeric, k,
                        mk_ds(train_X, train_y).schema_hash(), 0)
    ids = tuple(f"u{i:03d}" for i in range(len(train_X)))
    return model, ids


def _near_tie_knn_data():
    """Clusters of training rows a few ulps apart, far from the origin.

    Offsets are integers / 2^26 from integer centres near 1e4, so every
    difference, square and sum is exact: a distance is (sum of k^2) / 2^52,
    plus 1 for a category mismatch, and moving (a, a) to (a + s, a - s)
    adds 2 s^2 / 2^52. ||q||^2 + ||t||^2 is about 1e9, against distances
    between 0.2 and 1.3.
    """
    rng = np.random.default_rng(11)
    m, cat = 6, 2                                   # column 2 is categorical
    X, y, Q = [], [], []
    for _ in range(6):
        centre = rng.integers(9_000, 11_000, m).astype(np.float64)
        centre[cat] = 1.0
        a = int(rng.integers(20_000_000, 24_000_000))
        rest = rng.integers(5_000_000, 10_000_000, m - 3)
        offsets = [[a + s, a - s, *rest] for s in (0, 1, 2, 3)]    # +0, 2, 8, 18 / 2^52
        offsets += [[a, a, *rng.permutation(rest)] for _ in range(2)]  # exact ties
        offsets += [[a + 1, a - 1, *rest]] * 5      # > k duplicates at one distance
        offsets += [[-a, a, *(-rest)]]              # a mirror: an exact tie
        for offset in offsets:
            row = centre.copy()
            row[[j for j in range(m) if j != cat]] += np.array(offset) / 2.0 ** 26
            row[cat] = rng.choice([1.0, 2.0])       # a mismatch adds exactly 1
            X.append(row)
        Q.append(centre)
        y += rng.integers(0, 2, len(offsets)).tolist()
    Q = np.array(Q)
    huge = Q[:2].copy()
    huge[:, 0] = 1e200                              # ||q||^2 overflows to inf
    return np.array(X), y, np.vstack([Q, huge]), (cat,)


def _overflow_knn_data():
    """Training rows near 1e155, where ||q||^2 and ||t||^2 are inf.

    Differences and their squares stay finite, so the exact distances
    order the rows while the estimate Q + T - 2 q.t is inf - inf = nan.
    """
    rng = np.random.default_rng(12)
    n = 40
    steps = rng.integers(0, 4, n)                   # ulps above 1e155
    steps[:3] = 3                                   # the first k rows are far
    big = np.full(n, 1e155)
    for i in range(3):
        big[steps > i] = np.nextafter(big[steps > i], np.inf)
    X = np.column_stack([big, rng.integers(0, 3, n) * 0.25, rng.integers(0, 2, n)])
    y = rng.integers(0, 2, n)
    y[:3] = 0
    Q = np.column_stack([np.full(6, 1e155), rng.integers(0, 3, 6) * 0.25,
                         rng.integers(0, 2, 6)])
    return X, y, Q, (2,)


def _assert_standardized_knn_matches_oracle(monkeypatch, X, y, Q, categorical,
                                            rows_per_chunk, k=3):
    model, ids = _standardized_knn(X, y, categorical, k)
    if rows_per_chunk is not None:   # a budget that fits this many query rows
        monkeypatch.setattr(simple, "KNN_BUFFER_BYTES", 8 * len(X) * rows_per_chunk)
    m = int(model.numeric_mask.sum())
    expected = knn_scores_reference(X.tolist(), list(y), ids, Q.tolist(),
                                    list(categorical), [0.0] * m, [1.0] * m, k)
    assert model.scores(Q).tolist() == expected


@pytest.mark.parametrize("rows_per_chunk", [1, 7, None])
@pytest.mark.parametrize("data", [_near_tie_knn_data, _overflow_knn_data])
def test_knn_exact_at_large_norm_and_overflow(monkeypatch, data, rows_per_chunk):
    _assert_standardized_knn_matches_oracle(monkeypatch, *data(), rows_per_chunk)


def _category_knn_data(n_train, n_cat):
    """Tie-heavy grid rows with `n_cat` categorical columns, in standardized units.

    The first 20 query rows share one categorical value in every column, so
    they fill whole chunks of 7 and run on across chunks; the others draw
    their values from those of training plus 9.0, which no training row
    holds. Ten queries repeat training rows.
    """
    rng = np.random.default_rng(100 + n_train + n_cat)
    categorical = (1, 3)[:n_cat]
    X = rng.integers(0, 3, (n_train, 3 + n_cat)) * 0.5
    X[:, categorical] = rng.choice([1.0, 2.0, 3.0], (n_train, n_cat))
    X[n_train // 2:n_train // 2 + n_train // 4] = X[:n_train // 4]   # duplicate rows
    y = rng.integers(0, 2, n_train)
    Q = rng.integers(0, 3, (60, 3 + n_cat)) * 0.5
    Q[:, categorical] = rng.choice([1.0, 2.0, 3.0, 9.0], (60, n_cat))
    Q[:20, categorical] = 2.0
    Q[40:50] = X[rng.integers(0, n_train, 10)]
    return X, y, Q, categorical


# Training sizes: k, either side of simple.KNN_BLOCKS (128) and a multiple
# of it, and 300, which is none.
@pytest.mark.parametrize("rows_per_chunk", [1, 7, None])
@pytest.mark.parametrize("n_cat", [0, 1, 2])
@pytest.mark.parametrize("n_train", [3, 100, 256, 300])
def test_knn_matches_oracle_across_sizes_and_categories(monkeypatch, n_train, n_cat,
                                                        rows_per_chunk):
    _assert_standardized_knn_matches_oracle(
        monkeypatch, *_category_knn_data(n_train, n_cat), rows_per_chunk)


# k above simple.KNN_BLOCKS (128), up to every training row.
@pytest.mark.parametrize("rows_per_chunk", [1, 7, None])
@pytest.mark.parametrize("k", [130, 300])
def test_knn_matches_oracle_with_k_above_the_block_count(monkeypatch, k, rows_per_chunk):
    _assert_standardized_knn_matches_oracle(
        monkeypatch, *_category_knn_data(300, 1), rows_per_chunk, k)


def test_knn_query_order_invariance(monkeypatch, train_ds, small_matrix):
    monkeypatch.setattr(simple, "KNN_BUFFER_BYTES", 8 * train_ds.n_users * 13)
    model = train_knn3(train_ds)
    Q = small_matrix.values
    perm = np.random.default_rng(4).permutation(len(Q))
    assert np.array_equal(model.scores(Q[perm]), model.scores(Q)[perm])


def test_knn_filter_prunes(train_ds, small_matrix):
    # The exactness tests pass even if the filter keeps every pair. On the
    # standard features it keeps about k pairs per query row; 2k is the bound.
    model = train_knn3(train_ds)
    kept = np.concatenate([np.isfinite(d2).sum(axis=1)
                           for _, d2, _ in model._candidates(small_matrix.values)])
    assert kept.mean() < 2 * model.k
    assert kept.min() >= model.k


def test_knn_scoring_memory_is_bounded():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(2000, 31))
    X[:, 30] = rng.integers(0, 50, 2000)
    ds = mk_ds(X, rng.integers(0, 2, 2000), categorical=30)
    model = train_knn3(ds)
    Q = rng.normal(size=(4000, 31))
    tracemalloc.start()
    try:
        model.scores(Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


# ---------------------------------------------------------------------------
# decision tree


def test_tree_unsplittable_data_single_leaf():
    # both classes present but the feature is constant: no valid split
    model = train_decision_tree(mk_ds([[1.0], [1.0], [1.0]], [0, 0, 1]),
                                prune=False)
    assert model.nodes["feature"] == [-1]
    assert model.scores(np.array([[9.0]]))[0] == pytest.approx(1 / 3)
    assert model.votes(np.array([[9.0]]))[0] == 0.0


def test_tree_perfect_split_and_midpoint_threshold():
    x = np.array([1.0, 2.0, 3.0, 10.0, 11.0, 12.0])
    y = np.array([0, 0, 0, 1, 1, 1])
    model = train_decision_tree(mk_ds(x, y), prune=False)
    assert model.nodes["feature"][0] == 0
    assert model.nodes["threshold"][0] == pytest.approx(6.5)
    assert np.array_equal(model.scores(x[:, None]), y.astype(float))


def test_tree_categorical_equality_split():
    x = np.array([10.0] * 5 + [20.0] * 5)
    y = np.array([1] * 5 + [0] * 5)
    ds = mk_ds(x, y, categorical=0)
    model = train_decision_tree(ds, prune=False)
    assert model.nodes["equal"][0]            # categorical split is v == c
    s = model.scores(np.array([[10.0], [20.0], [30.0]]))
    assert s[0] == 1.0 and s[1] == 0.0 and s[2] == 0.0


def test_tree_min_leaf_respected():
    x = np.arange(10, dtype=float)
    y = np.array([0, 0, 0, 0, 0, 0, 0, 0, 0, 1])
    model = train_decision_tree(mk_ds(x, y), min_leaf=2, prune=False)
    nodes = model.nodes
    assert min(sum(c) for f, c in zip(nodes["feature"], nodes["counts"]) if f < 0) >= 2


def test_pruning_collapses_noise():
    rng = np.random.default_rng(0)
    x = rng.normal(size=40)
    y = np.zeros(40, np.int8)
    y[7] = 1                                 # single mislabeled point
    full = train_decision_tree(mk_ds(x, y), min_leaf=1, prune=False)
    pruned = train_decision_tree(mk_ds(x, y), min_leaf=1, prune=True)
    assert pruned.node_count() < full.node_count()
    assert pruned.nodes["feature"] == [-1]


def test_tree_vote_threshold():
    # a leaf scoring exactly 0.5 votes benign (strict majority wins)
    x = np.array([1.0, 1.0])
    y = np.array([0, 1])
    model = train_decision_tree(mk_ds(x, y), prune=False)
    assert model.votes(np.array([[1.0]]))[0] == 0.0


def _tie_heavy_random_sets(rng, n_sets):
    """Small matrices of few distinct values, many duplicate rows and a
    categorical column, both classes present."""
    for _ in range(n_sets):
        n = int(rng.integers(20, 120))
        X = rng.integers(0, 4, (n, 8)) * 0.5
        X[:, 2] = rng.choice([3.0, 5.0, 8.0], n)
        y = (rng.random(n) < 0.4).astype(np.int8)
        y[:2] = (0, 1)
        yield mk_ds(X, y, categorical=2)


def test_tree_row_order_invariance(train_ds):
    # The tree reads counts of rows, never their order: no setting grows a
    # different model from shuffled rows.
    rng = np.random.default_rng(2)
    for ds in (train_ds, *_tie_heavy_random_sets(rng, 20)):
        perm = rng.permutation(ds.n_users)
        for params in ({}, {"prune": False, "min_leaf": 1}, {"subset_size": 5}):
            t1 = train_decision_tree(ds, seed=4, **params)
            t2 = train_decision_tree(ds.take(perm), seed=4, **params)
            assert model_to_dict(t1) == model_to_dict(t2), params


def test_added_errors_branches():
    assert Z_CF25 == pytest.approx(norm.ppf(0.75), abs=1e-12)
    # e == 0: closed form n (1 - CF^(1/n))
    assert added_errors(10, 0) == pytest.approx(10 * (1 - 0.25 ** 0.1), abs=1e-12)
    # e just below 1 interpolates between the e=0 form and the e=1 bound
    a0, a_half, a1 = added_errors(20, 0), added_errors(20, 0.5), added_errors(20, 1)
    assert a0 < a_half + 0.5 and a_half < a1 + 0.5
    # e + 0.5 >= n degenerates to n - e
    assert added_errors(4, 4) == pytest.approx(0.0)
    # normal-approximation branch: monotone in e, bounded by n - e
    prev = 0.0
    for e in range(1, 90):
        a = added_errors(100, e)
        assert 0 <= a <= 100 - e
        assert a + e >= prev - 1e-9
        prev = a + e
    # against the exact binomial tail: the bound should be loose-but-close
    from scipy.stats import binom
    for n, e in ((100, 10), (50, 5), (200, 40)):
        upper = (e + added_errors(n, e)) / n
        # exact 25% upper confidence limit on the error rate
        lo, hi = e / n, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2
            if binom.cdf(e, n, mid) > 0.25:
                lo = mid
            else:
                hi = mid
        assert upper == pytest.approx(lo, abs=0.03)


def test_tree_json_roundtrip(train_ds):
    model = train_decision_tree(train_ds)
    d = json.loads(json.dumps(model_to_dict(model)))
    back = model_from_dict(d)
    assert np.array_equal(back.scores(train_ds.values), model.scores(train_ds.values))


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_deep_tree_needs_no_recursion(tmp_path):
    # x = row index with alternating labels: each split peels off one row,
    # so the unpruned min_leaf=1 tree is n - 1 levels deep.
    n = 300
    ds = mk_ds(np.arange(n, dtype=float), np.arange(n) % 2)
    path = tmp_path / "deep.json"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        model = train_decision_tree(ds, min_leaf=1, prune=False)
        scores = model.scores(ds.values)
        count = model.node_count()
        save_model(model, path)
        back = load_model(path)
        back_scores = back.scores(ds.values)
        pruned_count = train_decision_tree(ds, min_leaf=1, prune=True).node_count()
    finally:
        sys.setrecursionlimit(limit)
    assert count == 2 * n - 1
    assert np.array_equal(scores, ds.labels)                # every leaf is pure
    assert np.array_equal(back_scores, scores)
    assert back.nodes == model.nodes
    assert pruned_count < count


_HUGE_VALUES_CHILD = """
import json, sys
import numpy as np
from shilldetect.classifiers.tree import train_decision_tree
from shilldetect.features import FeatureMatrix
x = json.loads(sys.argv[1])
ds = FeatureMatrix(["a", "b", "c", "d"], np.array(x)[:, None], np.array([0, 0, 1, 1], np.int8),
                   ("f0",))
print(json.dumps(train_decision_tree(ds, min_leaf=1, prune=False).nodes))
"""


@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_split_between_huge_values(sign):
    # The midpoint of -1.2e308 and -1.5e308 overflowed to -inf, which sent
    # no row left, and growth then split the same rows for ever; with the
    # signs flipped it became inf and the node a leaf. A regression must
    # fail here, not hang the suite, so the tree grows in a child process.
    x = [sign * v for v in (1e308, 1.2e308, 1.5e308, 1.7e308)]
    src = str(Path(tree.__file__).resolve().parents[2])
    rest = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + rest if rest else "")}
    proc = subprocess.run([sys.executable, "-c", _HUGE_VALUES_CHILD, json.dumps(x)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    model = json.loads(proc.stdout)
    assert model["threshold"][0] == sign * (1.2e308 / 2 + 1.5e308 / 2)
    counts = model["counts"]
    assert counts[model["left"][0]] != [0, 0] and counts[model["right"][0]] != [0, 0]
    assert model == flat_tree(grow_tree_reference(np.array(x)[:, None], [0, 0, 1, 1], set(),
                                                  min_leaf=1, prune=False))


def test_split_between_adjacent_floats():
    # (a + b) / 2 rounds onto b here, which sent every row left: the node
    # stayed a leaf, and the reference recursed without end.
    a = np.nextafter(1.0, 2.0)
    b = np.nextafter(a, 2.0)
    assert (a + b) / 2 == b
    ds = mk_ds([a, b], [0, 1])
    model = train_decision_tree(ds, min_leaf=1, prune=False)
    assert model.nodes["threshold"][0] == a
    assert model.nodes["counts"] == [[1, 1], [1, 0], [0, 1]]
    assert model.nodes == flat_tree(grow_tree_reference(ds.values, ds.labels, (),
                                                        min_leaf=1, prune=False))


def _tie_heavy_tree_data():
    """Duplicate rows, a constant and a repeated column, few distinct values,
    and a categorical column that wins the root split."""
    rng = np.random.default_rng(11)
    n = 48
    state = rng.choice([3.0, 5.0, 8.0], n)
    y = ((state == 5.0) ^ (rng.random(n) < 0.1)).astype(np.int8)
    half = rng.integers(0, 3, n) * 0.5
    X = np.column_stack([np.full(n, 2.0), half, state,
                         rng.integers(0, 2, n).astype(float), half])
    X, y = np.vstack([X, X[:16]]), np.concatenate([y, y[:16]])
    return FeatureMatrix([f"u{i:03d}" for i in range(len(y))], X, y,
                         ("const", "half", "State-Hash", "bit", "half-copy"))


@pytest.fixture(scope="module", params=["small_matrix", "tie_heavy"])
def tree_ds(request):
    if request.param == "tie_heavy":
        ds = _tie_heavy_tree_data()
        assert train_decision_tree(ds).nodes["equal"][0]     # categorical root split
        return ds
    return request.getfixturevalue("small_matrix").canonical()


def _categorical_columns(ds):
    return set(np.nonzero(ds.categorical_mask())[0].tolist())


@pytest.mark.parametrize("min_leaf", [1, 2])
@pytest.mark.parametrize("prune", [False, True])
def test_tree_matches_grow_reference(tree_ds, min_leaf, prune):
    model = train_decision_tree(tree_ds, min_leaf=min_leaf, prune=prune)
    expected = grow_tree_reference(tree_ds.values, tree_ds.labels, _categorical_columns(tree_ds),
                                   min_leaf=min_leaf, prune=prune)
    assert model.nodes == flat_tree(expected)


def test_random_forest_matches_grow_reference(tree_ds):
    seed, subset = 3, int(np.log2(tree_ds.n_features)) + 1
    model = train_random_forest(tree_ds, n_members=4, seed=seed)
    for i, member in enumerate(model.members):
        rng = np.random.default_rng(seed + i)
        boot = tree_ds.take(rng.integers(0, tree_ds.n_users, tree_ds.n_users))
        expected = grow_tree_reference(boot.values, boot.labels, _categorical_columns(tree_ds),
                                       min_leaf=1, prune=False, rng=rng,
                                       subset_size=subset)
        assert member.nodes == flat_tree(expected)


def _random_tree_datasets(count, seed):
    """Small datasets with many repeated values: a continuous column (from
    all-distinct to two values), a coarse copy of it, a categorical column,
    labels that follow the continuous column with some noise, and both
    classes. Long single-class stretches of one-row runs are common, so
    split search meets every shape of class boundary. Every column holds
    negative values and zeros of both signs, which compare equal."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(4, 48))
        m = int(rng.integers(2, 2 * n))
        x = (rng.integers(0, m, n) - m // 2) * 0.25
        cut = rng.choice(x)
        y = ((x > cut) ^ (rng.random(n) < rng.choice([0.0, 0.1, 0.3]))).astype(np.int8)
        y[:2] = 0, 1
        X = np.column_stack([x, np.floor(x), rng.integers(-1, 3, n).astype(float)])
        X[(X == 0) & (rng.random(X.shape) < 0.5)] = -0.0
        yield mk_ds(X, y, categorical=2)


def test_tree_matches_grow_reference_on_random_data():
    rng = np.random.default_rng(5)
    for ds in _random_tree_datasets(300, seed=1):
        min_leaf, prune = int(rng.integers(1, 6)), bool(rng.integers(0, 2))
        model = train_decision_tree(ds, min_leaf=min_leaf, prune=prune)
        expected = grow_tree_reference(ds.values, ds.labels, {2}, min_leaf=min_leaf, prune=prune)
        assert model.nodes == flat_tree(expected), (
            ds.values.tolist(), ds.labels.tolist(), min_leaf)


def test_random_forest_matches_grow_reference_on_random_data():
    for seed, ds in enumerate(_random_tree_datasets(100, seed=2)):
        model = train_random_forest(ds, n_members=2, seed=seed)
        for i, member in enumerate(model.members):
            rng = np.random.default_rng(seed + i)
            boot = ds.take(rng.integers(0, ds.n_users, ds.n_users))
            expected = grow_tree_reference(boot.values, boot.labels, {2}, min_leaf=1, prune=False,
                                           rng=rng, subset_size=2)
            assert member.nodes == flat_tree(expected), (
                ds.values.tolist(), ds.labels.tolist())


def test_presort_is_the_stable_argsort():
    """The root presort (`stable_argsort` of the columns) orders each column
    by (value, row). Its columns are tie-heavy, one is constant, zeros come
    in both signs, and 40 of the 240 matrices have one or two rows. A column
    of each matrix is also sorted as a 1-D array, and so are empty arrays,
    one element and mixed zeros."""
    rng = np.random.default_rng(8)
    for i in range(240):
        n = 1 if i < 20 else 2 if i < 40 else int(rng.integers(3, 600))
        levels = int(rng.integers(1, n + 2))
        X = (rng.integers(0, levels, (n, int(rng.integers(1, 7)))) - levels // 2) * 0.5
        X[:, 0] = X[0, 0]
        X[(X == 0) & (rng.random(X.shape) < 0.5)] = -0.0
        expected = np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)
        assert np.array_equal(stable_argsort(np.ascontiguousarray(X.T)), expected), (i, X.shape)
        column = np.ascontiguousarray(X[:, 1 % X.shape[1]])
        assert np.array_equal(stable_argsort(column), np.argsort(column, kind="stable")), i
    for keys in (np.zeros(0), np.zeros((3, 0)), np.array([2.5]),
                 np.array([0.0, -0.0, 1.0, -0.0, 0.0, -1.0, -0.0, 0.0, 1.0, 0.0])):
        got = stable_argsort(keys)
        assert got.shape == keys.shape and got.dtype == np.intp
        assert np.array_equal(got, np.argsort(keys, kind="stable")), keys


def test_split_filter_prunes(big_matrix, monkeypatch):
    # The exactness tests pass even if split search scores every run end. On
    # the standard 2,000-row sample RotationForest scores about a fifth of
    # them; a third is the bound.
    ds = balanced_training_sample(big_matrix, seed=0)
    search, evaluate = tree._best_split, tree._evaluate_partition
    run_ends = scored = 0

    def counting_search(columns, y, S, pool, cat_mask, *rest):
        nonlocal run_ends
        xs = columns[S[pool] + (pool * len(y))[:, None]]
        run_ends += np.count_nonzero(xs[:, :-1] != xs[:, 1:]) + np.count_nonzero(cat_mask[pool])
        return search(columns, y, S, pool, cat_mask, *rest)

    def counting_evaluate(nl, *rest):
        nonlocal scored
        scored += len(nl)
        return evaluate(nl, *rest)

    monkeypatch.setattr(tree, "_best_split", counting_search)
    monkeypatch.setattr(tree, "_evaluate_partition", counting_evaluate)
    train_rotation_forest(ds, seed=0)
    assert ds.n_users == 2000 and run_ends > 1_000_000
    assert scored < 0.35 * run_ends, (scored, run_ends)


# Entropy table: split scoring gathers side entropies from a memoized table.


@pytest.mark.parametrize("length", [1, 7, 8, 9, 4097, 100_003])
def test_entropy_table_entries_equal_direct_computation(length):
    """The table is exact only if numpy's log2 gives the same bits wherever
    an element sits in an array, whatever the array's length."""
    table = tree._entropy_table(400, 300)
    rng = np.random.default_rng(length)
    a, b = rng.integers(0, 401, length), rng.integers(0, 301, length)
    a[-1] = b[-1] = 0                                 # 0 positives of 0 rows
    direct = tree._binary_entropy(a, a + b)
    bad = np.flatnonzero(table[a, b] != direct)
    assert not len(bad), (
        f"numpy {np.__version__}: table entry [a, b] differs from _binary_entropy"
        f" at {len(bad)} of {length} positions, first (a, b) = "
        f"({a[bad[0]]}, {b[bad[0]]}); split scoring would change trees")


def _tree_learner_models(ds):
    """Model dicts of every tree learner on `ds`."""
    models = {(min_leaf, prune): train_decision_tree(ds, min_leaf=min_leaf,
                                                     prune=prune).nodes
              for min_leaf in (1, 2) for prune in (False, True)}
    models["Bagging"] = model_to_dict(train_bagging(ds, n_members=4, seed=3))
    models["RandomForest"] = model_to_dict(train_random_forest(ds, n_members=4, seed=3))
    models["RotationForest"] = model_to_dict(train_rotation_forest(ds, n_members=3,
                                                                   seed=3))
    return models


def test_trees_same_with_and_without_entropy_table(tree_ds, monkeypatch):
    with_table = _tree_learner_models(tree_ds)
    monkeypatch.setattr(tree, "ENTROPY_TABLE_BYTES", 0)
    monkeypatch.setattr(tree, "_entropy", np.empty((0, 0)))
    without_table = _tree_learner_models(tree_ds)
    assert tree._entropy.size == 0                    # no table was built
    for min_leaf in (1, 2):
        for prune in (False, True):
            expected = grow_tree_reference(tree_ds.values, tree_ds.labels,
                                           _categorical_columns(tree_ds),
                                           min_leaf=min_leaf, prune=prune)
            assert without_table[min_leaf, prune] == flat_tree(expected)
    assert without_table == with_table


def test_grown_entropy_table_gives_same_model(tree_ds, monkeypatch):
    monkeypatch.setattr(tree, "_entropy", np.empty((0, 0)))
    first = json.dumps(model_to_dict(train_rotation_forest(tree_ds, n_members=3, seed=3)))
    neg, pos = tree_ds.class_counts()
    assert tree._entropy.shape == (pos + 1, neg + 1)
    rng = np.random.default_rng(5)
    y = np.r_[np.zeros(neg + 7), np.ones(pos + 5)]
    train_decision_tree(mk_ds(rng.random((len(y), 2)), y))
    assert tree._entropy.shape == (pos + 6, neg + 8)
    again = json.dumps(model_to_dict(train_rotation_forest(tree_ds, n_members=3, seed=3)))
    assert again == first


def test_entropy_table_stays_within_budget(monkeypatch, train_ds):
    monkeypatch.setattr(tree, "_entropy", np.empty((0, 0)))
    # 1,500 rows of each class need a 1,501 x 1,501 table, 18 MB, over 16 MiB.
    rng = np.random.default_rng(8)
    y = np.repeat([0, 1], 1500)
    X = np.column_stack([y + rng.normal(0, 0.3, len(y)), rng.random(len(y))])
    assert 1501 * 1501 * 8 > tree.ENTROPY_TABLE_BYTES
    tracemalloc.start()
    try:
        model = train_decision_tree(mk_ds(X, y))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.node_count() > 1
    assert tree._entropy.size == 0
    assert peak < tree.ENTROPY_TABLE_BYTES / 8, peak
    # A table that fits is sized to the class counts, not to the budget.
    train_decision_tree(train_ds)
    neg, pos = train_ds.class_counts()
    assert tree._entropy.shape == (pos + 1, neg + 1)
    # The memo grows to cover every request while that fits the budget, and
    # is rebuilt to fit one request alone when it would not.
    monkeypatch.setattr(tree, "_entropy", np.empty((0, 0)))
    monkeypatch.setattr(tree, "ENTROPY_TABLE_BYTES", 8 * 30 * 40)
    assert tree._entropy_table(29, 9).shape == (30, 10)
    assert tree._entropy_table(9, 29).shape == (30, 30)
    assert tree._entropy_table(19, 39).shape == (30, 40)
    assert tree._entropy_table(29, 39) is tree._entropy
    assert tree._entropy_table(39, 9).shape == (40, 10)
    assert tree._entropy_table(40, 29) is None
    assert tree._entropy.shape == (40, 10)


# ---------------------------------------------------------------------------
# PCA


def test_pca_matches_jacobi_oracle():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 3)) @ np.array([[2.0, 0.3, 0.0],
                                             [0.0, 1.0, 0.5],
                                             [0.0, 0.0, 0.4]])
    B = pca_basis(X)
    cov = np.cov(X, rowvar=False, ddof=1)
    vals, vecs = jacobi_eigh([list(r) for r in cov])
    got_vals = np.diag(B.T @ cov @ B)
    assert got_vals == pytest.approx(vals, rel=1e-9)
    for j in range(3):
        ref = np.array(vecs[j])
        dot = abs(float(ref @ B[:, j]))
        assert dot == pytest.approx(1.0, abs=1e-9)     # same direction +/- sign


def test_pca_sign_convention():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(30, 4))
    B = pca_basis(X)
    for j in range(B.shape[1]):
        assert B[np.argmax(np.abs(B[:, j])), j] > 0


def test_pca_zero_covariance_warns_identity():
    X = np.ones((5, 3))
    with pytest.warns(UserWarning):
        B = pca_basis(X)
    assert np.array_equal(B, np.eye(3))


def test_pca_needs_two_rows():
    with pytest.raises(ValueError):
        pca_basis(np.ones((1, 3)))


def test_pca_basis_ignores_memory_layout():
    # np.cov gives different bits for C- and F-ordered copies of one sample,
    # so a layout change in how a sample is cut out would change the model.
    rng = np.random.default_rng(10)
    wide = rng.normal(size=(900, 7))
    sample = wide[:, 1:7:2]
    expected = pca_basis(np.asfortranarray(sample))
    for layout in (np.ascontiguousarray(sample), sample, wide[:, [1, 3, 5]]):
        assert np.array_equal(pca_basis(layout), expected)


# ---------------------------------------------------------------------------
# ensembles


def test_bagging_deterministic_and_sane(train_ds):
    m1 = train_bagging(train_ds, n_members=15, seed=5)
    m2 = train_bagging(train_ds, n_members=15, seed=5)
    s1, s2 = m1.scores(train_ds.values), m2.scores(train_ds.values)
    assert np.array_equal(s1, s2)
    assert (0 <= s1).all() and (s1 <= 1).all()
    assert auc(s1, train_ds.labels) > 0.9
    m3 = train_bagging(train_ds, n_members=15, seed=6)
    assert not np.array_equal(s1, m3.scores(train_ds.values))


def test_random_forest_subset_size(train_ds):
    model = train_random_forest(train_ds, n_members=10, seed=0)
    assert model.params["subset_size"] == int(np.log2(train_ds.n_features)) + 1
    assert model.params["subset_size"] == 5        # floor(log2(31)) + 1
    s = model.scores(train_ds.values)
    assert auc(s, train_ds.labels) > 0.9


def test_rotation_forest_structure(train_ds):
    model = train_rotation_forest(train_ds, seed=1)
    assert len(model.members) == 10
    state_col = train_ds.feature_names.index("State-Hash")
    for member in model.members:
        covered = np.concatenate(member.groups)
        assert state_col not in covered
        assert sorted(covered) == sorted(set(covered))     # disjoint groups
        assert len(covered) == train_ds.n_features - 1     # all numerics
        for g, B in zip(member.groups, member.bases):
            assert B.shape == (len(g), len(g))
            assert np.allclose(B.T @ B, np.eye(len(g)), atol=1e-8)
    rotated = model.members[0].rotate(train_ds.values)
    assert np.array_equal(rotated[:, state_col], train_ds.values[:, state_col])


def test_rotation_forest_beats_chance(train_ds):
    s = train_rotation_forest(train_ds, seed=0).scores(train_ds.values)
    assert auc(s, train_ds.labels) > 0.9
    assert set(np.round(s * 10).astype(int)) <= set(range(11))


def test_ensemble_row_order_invariance(train_ds):
    perm = np.random.default_rng(7).permutation(train_ds.n_users)
    s1 = train_rotation_forest(train_ds, seed=3).scores(train_ds.values)
    s2 = train_rotation_forest(train_ds.take(perm), seed=3).scores(train_ds.values)
    assert np.array_equal(s1, s2)


# ---------------------------------------------------------------------------
# registry / persistence


def test_algorithm_registry():
    assert ALGORITHMS == ("OneR", "NaiveBayes", "DecisionTree", "KNN3",
                          "Bagging", "RandomForest", "RotationForest")
    with pytest.raises(ValueError, match="unknown algorithm"):
        train("SVM", mk_ds([[0.0], [1.0]], [0, 1]))


@pytest.mark.parametrize("algorithm, hyper, unknown, accepted", [
    ("RotationForest", {"n_member": 2}, "'n_member'", "'n_members', 'subset_size'"),
    ("DecisionTree", {"min_leaf": 1, "subset_size": 3}, "'subset_size'",
     "'min_leaf', 'prune'"),
    ("NaiveBayes", {"k": 3}, "'k'", "none"),
])
def test_train_refuses_unknown_hyperparameters(algorithm, hyper, unknown, accepted):
    ds = mk_ds([[0.0], [1.0], [2.0], [3.0]], [0, 0, 1, 1])
    with pytest.raises(ValueError) as exc:
        train(algorithm, ds, hyper)
    assert str(exc.value) == (f"unknown hyperparameter(s) {unknown} for {algorithm};"
                              f" it accepts {accepted}")
    assert len(train("RotationForest", ds, {"n_members": 2}).members) == 2


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_row_score_does_not_depend_on_batch(algorithm, train_ds, small_matrix):
    # The protocol scores its largest test set once and reads the nested
    # smaller sets off it, so a row must score the same in any batch and at
    # any position in it.
    hyper = {"n_members": 8} if algorithm in ("Bagging", "RandomForest") else None
    model = train(algorithm, train_ds, hyper, seed=1)
    X = small_matrix.values
    whole = predict_score(model, X)
    order = np.random.default_rng(4).permutation(len(X))
    for size in (len(X), len(X) // 2, len(X) // 7, 3):
        idx = order[:size]
        assert np.array_equal(predict_score(model, X[idx]), whole[idx]), size
    for i in order[:25]:
        assert predict_score(model, X[i:i + 1])[0] == whole[i], i
        assert predict_score(model, X[i]) == whole[i], i


@pytest.mark.parametrize("algorithm, hyper, message", [
    ("Bagging", {"n_members": 0},
     "Bagging hyperparameter 'n_members' must be a positive int, not 0"),
    ("RotationForest", {"subset_size": 0},
     "RotationForest hyperparameter 'subset_size' must be a positive int, not 0"),
    ("KNN3", {"k": 0}, "KNN3 hyperparameter 'k' must be a positive int, not 0"),
    ("OneR", {"min_bucket": True},
     "OneR hyperparameter 'min_bucket' must be a positive int, not True"),
    ("DecisionTree", {"min_leaf": 2.0},
     "DecisionTree hyperparameter 'min_leaf' must be a positive int, not 2.0"),
    ("DecisionTree", {"prune": 1},
     "DecisionTree hyperparameter 'prune' must be a bool, not 1"),
])
def test_train_refuses_bad_hyperparameter_values(algorithm, hyper, message):
    ds = mk_ds([[0.0], [1.0], [2.0], [3.0]], [0, 0, 1, 1])
    with pytest.raises(ValueError) as exc:
        train(algorithm, ds, hyper)
    assert str(exc.value) == message
    assert check_hyperparameters("RotationForest", {"n_members": 2}) == {
        "n_members": 2, "subset_size": 3}


def test_save_load_schema_guard(tmp_path, train_ds):
    model = train("DecisionTree", train_ds, seed=0)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path, expected_schema_hash=train_ds.schema_hash())
    assert np.array_equal(back.scores(train_ds.values), model.scores(train_ds.values))
    with pytest.raises(ValueError, match="mismatched"):
        load_model(path, expected_schema_hash="0" * 64)


# The lists of the saved DecisionTree that the next two tests edit: in
# pre-order, node 0 -> (1, 4) and node 1 -> (2, 3).
_FIVE_NODES = {"feature": [0, 0, -1, -1, -1], "threshold": [2.5, 0.5, 0.0, 0.0, 0.0],
               "equal": [False] * 5, "left": [1, 2, -1, -1, -1], "right": [4, 3, -1, -1, -1],
               "counts": [[2, 4], [2, 1], [0, 1], [2, 0], [0, 3]]}
_RIGHT_RULE = "the first after its left subtree"


def _five_node_tree():
    return train_decision_tree(mk_ds(np.arange(6.0), [1, 0, 0, 1, 1, 1]), min_leaf=1,
                               prune=False)


# Each edit replaces one field of the saved five-node tree, in its header or
# its tree lists. Were they loaded, a sixth node would be unreachable and
# would make the next save differ; a list that is not one would fail with a
# bare TypeError.
@pytest.mark.parametrize("edit, message", [
    ({"format_version": 1}, "unsupported model format version 1"),
    ({"threshold": [2.5, 0.5, 0.0, 0.0]},
     "tree lists must be non-empty and of one length"),
    (dict.fromkeys(["feature", "threshold", "equal", "left", "right", "counts"], []),
     "tree lists must be non-empty and of one length"),
    ({"left": [1, 0, -1, -1, -1]},
     "tree node 1 has left child 0; a split's is the next node, 2"),
    ({"right": [4, 1, -1, -1, -1]},
     f"tree node 1 has right child 1; it must be node 3, {_RIGHT_RULE}"),
    ({"right": [5, 3, -1, -1, -1]},
     f"tree node 0 has right child 5; it must be node 4, {_RIGHT_RULE}"),
    ({key: values + [value] for (key, values), value
      in zip(_FIVE_NODES.items(), (-1, 0.0, False, -1, -1, [1, 1]))},
     "tree node 5 comes after the tree's last leaf, node 4"),
    ({key: values[:4] for key, values in _FIVE_NODES.items()},
     "tree lists end inside the subtree of node 0"),
    ({"feature": 5}, "tree feature is 5, not a list"),
    ({"left": None}, "tree left is None, not a list"),
    ({"counts": {"0": [2, 4]}}, "tree counts is {'0': [2, 4]}, not a list"),
], ids=["version-1", "unequal-lengths", "empty", "child-before-parent", "child-is-parent",
        "child-past-end", "unreachable-node", "truncated", "feature-not-list",
        "left-not-list", "counts-not-list"])
def test_model_from_dict_refuses(edit, message):
    d = model_to_dict(_five_node_tree())
    root = d["tree"]["root"]
    assert root == _FIVE_NODES
    for key, value in edit.items():
        (root if key in root else d)[key] = value
    with pytest.raises(ValueError) as exc:
        model_from_dict(d)
    assert str(exc.value) == message


_COUNTS_RULE = "they must be 2 non-negative ints with a positive sum"
_LEAF_RULE = "a leaf's are (-1, 0.0, False, -1, -1)"
_LEAF_IS = "is a leaf with (feature, threshold, equal, left, right)"
_THRESHOLD_RULE = "a split's must be a finite float"
_EQUAL_RULE = "a split on feature 0 has its categorical_mask entry, False"


# Each edit sets one node's entry in one list of the five-node tree. Were
# they loaded, counts [] would score its rows 0.0, counts [-5, 3] would score
# -1.5, and feature 40 would fail only at scoring, with an IndexError; so
# would a threshold None or "x", with a TypeError, while NaN and true would
# score silently. A right child that is the left one would leave node 4
# unreachable, and the other leaf and structure edits would load and then
# save a different file. A categorical split on a numeric feature (equal
# true) is one no trainer makes.
@pytest.mark.parametrize("key, node, value, message", [
    ("counts", 4, [], f"tree node 4 has counts []; {_COUNTS_RULE}"),
    ("counts", 4, [-5, 3], f"tree node 4 has counts [-5, 3]; {_COUNTS_RULE}"),
    ("counts", 2, [0, 0], f"tree node 2 has counts [0, 0]; {_COUNTS_RULE}"),
    ("counts", 3, [1.0, 2], f"tree node 3 has counts [1.0, 2]; {_COUNTS_RULE}"),
    ("counts", 3, [1, 2, 3], f"tree node 3 has counts [1, 2, 3]; {_COUNTS_RULE}"),
    ("feature", 0, 40, "tree node 0 splits on feature 40; the model has 1 features"),
    ("feature", 1, 1, "tree node 1 splits on feature 1; the model has 1 features"),
    ("feature", 1, 0.0, "tree node 1 splits on feature 0.0; the model has 1 features"),
    ("equal", 1, 1, "tree node 1 has equal 1; it must be true or false"),
    ("equal", 4, None, "tree node 4 has equal None; it must be true or false"),
    ("threshold", 0, None, f"tree node 0 has threshold None; {_THRESHOLD_RULE}"),
    ("threshold", 0, "x", f"tree node 0 has threshold 'x'; {_THRESHOLD_RULE}"),
    ("threshold", 1, float("nan"), f"tree node 1 has threshold nan; {_THRESHOLD_RULE}"),
    ("threshold", 1, float("inf"), f"tree node 1 has threshold inf; {_THRESHOLD_RULE}"),
    ("threshold", 1, True, f"tree node 1 has threshold True; {_THRESHOLD_RULE}"),
    ("feature", 2, -5, f"tree node 2 {_LEAF_IS} (-5, 0.0, False, -1, -1); {_LEAF_RULE}"),
    ("left", 3, 7, f"tree node 3 {_LEAF_IS} (-1, 0.0, False, 7, -1); {_LEAF_RULE}"),
    ("right", 4, 0, f"tree node 4 {_LEAF_IS} (-1, 0.0, False, -1, 0); {_LEAF_RULE}"),
    ("threshold", 4, 0, f"tree node 4 {_LEAF_IS} (-1, 0, False, -1, -1); {_LEAF_RULE}"),
    ("threshold", 2, 1.5, f"tree node 2 {_LEAF_IS} (-1, 1.5, False, -1, -1); {_LEAF_RULE}"),
    ("equal", 3, True, f"tree node 3 {_LEAF_IS} (-1, 0.0, True, -1, -1); {_LEAF_RULE}"),
    ("left", 0, True, "tree node 0 has left child True; a split's is the next node, 1"),
    ("right", 0, 1, f"tree node 0 has right child 1; it must be node 4, {_RIGHT_RULE}"),
    ("right", 1, 3.0, f"tree node 1 has right child 3.0; it must be node 3, {_RIGHT_RULE}"),
    ("counts", 0, [3, 4],
     "tree node 0 has counts [3, 4]; a split's are its children's summed, [2, 4]"),
    ("counts", 4, [0, 4],
     "tree node 0 has counts [2, 4]; a split's are its children's summed, [2, 5]"),
    ("counts", 1, [2, 2],
     "tree node 1 has counts [2, 2]; a split's are its children's summed, [2, 1]"),
    ("equal", 0, True, f"tree node 0 has equal True; {_EQUAL_RULE}"),
    ("equal", 1, True, f"tree node 1 has equal True; {_EQUAL_RULE}"),
])
def test_model_from_dict_refuses_bad_values(key, node, value, message):
    tree = _five_node_tree()
    d = model_to_dict(tree)
    d["tree"]["root"][key][node] = value
    with pytest.raises(ValueError) as exc:
        model_from_dict(d)
    assert str(exc.value) == message
    # the same tree inside an ensemble
    ensemble = model_to_dict(TreeEnsemble([tree], "Bagging", tree.schema_hash, 0))
    ensemble["members"][0]["tree"]["root"][key][node] = value
    with pytest.raises(ValueError) as exc:
        model_from_dict(ensemble)
    assert str(exc.value) == message


def _edit_every_list(obj):
    """Reverse every list in `obj`, and in what it holds, in place, and then
    add one more entry to each."""
    for value in obj.values() if isinstance(obj, dict) else obj:
        if isinstance(value, (dict, list)):
            _edit_every_list(value)
    if isinstance(obj, list):
        obj.reverse()
        obj.append(None)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_model_shares_no_list_with_its_dicts(train_ds, algorithm):
    # Editing the dict that model_to_dict returns, or the dict a model was
    # read from, changes neither that model's scores nor its next dict.
    hyper = {"n_members": 4} if algorithm in ("Bagging", "RandomForest") else None
    model = train(algorithm, train_ds, hyper, seed=2)
    text, scores = json.dumps(model_to_dict(model)), model.scores(train_ds.values)
    _edit_every_list(model_to_dict(model))
    saved = json.loads(text)
    back = model_from_dict(saved)
    _edit_every_list(saved)
    for m in (model, back):
        assert json.dumps(model_to_dict(m)) == text
        assert np.array_equal(m.scores(train_ds.values), scores)


_KNN_MASK_RULE = ("KNN3 numeric_mask must hold a bool for each of the 2 columns, and "
                  "mean and scale a value for each numeric one")
_KNN_FINITE_RULE = "KNN3 train_X, mean and scale must be finite, and scale positive"


# Each edit replaces one field of a saved KNN3 with 6 rows and 2 columns, the
# second categorical. Were they loaded, k -1 would score below 0 and k true
# as k = 1; a label of 5 would score above 1 wherever its row is a neighbour,
# and a short train_y would fail there; k 0, k 7 and k 3.0 would fail at
# scoring, with bare numpy errors.
@pytest.mark.parametrize("key, value, message", [
    ("k", -1, "KNN3 k is -1; it must be an int in [1, 6]"),
    ("k", 0, "KNN3 k is 0; it must be an int in [1, 6]"),
    ("k", 7, "KNN3 k is 7; it must be an int in [1, 6]"),
    ("k", True, "KNN3 k is True; it must be an int in [1, 6]"),
    ("k", 3.0, "KNN3 k is 3.0; it must be an int in [1, 6]"),
    ("train_y", [1.0, 0.0, 0.0, 1.0, 1.0, 5.0],
     "KNN3 train_y must hold a 0 or 1 for each of the 6 rows"),
    ("train_y", [1.0, 0.0, 0.0, 1.0, 1.0],
     "KNN3 train_y must hold a 0 or 1 for each of the 6 rows"),
    ("train_X", [], "KNN3 train_X must be a non-empty table of rows"),
    ("numeric_mask", [True], _KNN_MASK_RULE),
    ("numeric_mask", [1, 0], _KNN_MASK_RULE),
    ("numeric_mask", [True, True], _KNN_MASK_RULE),
    ("mean", [], _KNN_MASK_RULE),
    ("scale", [1.0, 1.0], _KNN_MASK_RULE),
    ("mean", [float("nan")], _KNN_FINITE_RULE),
    ("scale", [float("inf")], _KNN_FINITE_RULE),
    ("scale", [0.0], _KNN_FINITE_RULE),
    ("train_X", [[0.0, 1.0]] * 5 + [[float("inf"), 1.0]], _KNN_FINITE_RULE),
])
def test_model_from_dict_refuses_bad_knn3(key, value, message):
    model = train_knn3(mk_ds([[0.0, 1], [1, 2], [2, 1], [3, 2], [4, 1], [5, 2]],
                             [1, 0, 0, 1, 1, 1], categorical=1))
    d = model_to_dict(model)
    assert model_from_dict(json.loads(json.dumps(d))).scores(model.train_X).tolist() == \
        model.scores(model.train_X).tolist()
    d["knn"][key] = value
    with pytest.raises(ValueError) as exc:
        model_from_dict(d)
    assert str(exc.value) == message


def test_predict_score_checks_matrix_schema(small_matrix, train_ds):
    model = train("NaiveBayes", train_ds, seed=0)
    s = predict_score(model, small_matrix)
    assert len(s) == small_matrix.n_users
    assert predict_score(model, small_matrix.values[0]) == pytest.approx(s[0])


@pytest.mark.parametrize("algorithm", ["KNN3", "DecisionTree"])
def test_predict_score_refuses_non_finite_rows(algorithm, small_matrix, train_ds):
    model = train(algorithm, train_ds, seed=0)
    for value in (np.nan, np.inf, -np.inf):
        values = small_matrix.values[:4].copy()
        values[2, 0] = value
        # raw 2-D array, single 1-D row, and an in-memory matrix
        with pytest.raises(ValueError, match="finite"):
            predict_score(model, values)
        with pytest.raises(ValueError, match="finite"):
            predict_score(model, values[2])
        matrix = FeatureMatrix(small_matrix.user_ids[:4], values, small_matrix.labels[:4])
        with pytest.raises(ValueError, match="finite"):
            predict_score(model, matrix)
    # finite rows still score, and the same way through every input kind
    scores = predict_score(model, small_matrix.values[:4])
    assert predict_score(model, small_matrix.values[1]) == scores[1]


def test_all_algorithms_roundtrip_via_dict(train_ds):
    for algo in ALGORITHMS:
        hyper = {"n_members": 8} if algo in ("Bagging", "RandomForest") else None
        model = train(algo, train_ds, hyper, seed=2)
        back = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
        assert np.array_equal(predict_score(back, train_ds.values),
                              predict_score(model, train_ds.values)), algo


def test_model_json_roundtrips_byte_for_byte(train_ds):
    # model_to_dict -> JSON -> model_from_dict -> model_to_dict gives the
    # same bytes for every algorithm, and for a categorical OneR rule.
    models = [train(algo, train_ds, {"n_members": 8} if algo in ("Bagging", "RandomForest")
                    else None, seed=2) for algo in ALGORITHMS]
    models.append(train_oner(mk_ds([[0.1, 5], [0.1, 6], [7, 5], [7, 6]], [0, 0, 1, 1],
                                   categorical=0)))
    assert models[-1].is_categorical and not models[0].is_categorical
    for model in models:
        text = json.dumps(model_to_dict(model))
        assert json.dumps(model_to_dict(model_from_dict(json.loads(text)))) == text, \
            model.algorithm


def _edited(d: dict, path: tuple, value):
    """A deep copy of saved model `d` with the entry at `path` set to `value`,
    or deleted where `value` is _DELETE."""
    d = json.loads(json.dumps(d))
    *parents, last = path
    target = d
    for key in parents:
        target = target[key]
    if value is _DELETE:
        del target[last]
    else:
        target[last] = value
    return d


_DELETE = object()
_HASH_RULE = "is not 64 lowercase hex digits"
_MASK_RULE = "DecisionTree categorical_mask must be a non-empty list of bools, one per column"


# Each edit changes one key of a saved DecisionTree's header or body. Were
# they loaded, an empty schema_hash would let `predict_score` take any
# matrix, and an extra key would be dropped unseen; a mask of 5, "x" or {}
# would load as true or false and save back as that, a bare 5 would fail
# with a TypeError, and a mask true where the split says false would load
# a tree no trainer makes.
@pytest.mark.parametrize("path, value, message", [
    (("params",), _DELETE, "model lacks key 'params'"),
    (("note",), "hello", "model has extra key 'note'"),
    (("tree",), _DELETE, "model lacks key 'tree'"),
    (("tree", "depth"), 3, "DecisionTree tree has extra key 'depth'"),
    (("tree", "root", "counts"), _DELETE, "tree root lacks key 'counts'"),
    (("seed",), True, "model seed True is not an int"),
    (("seed",), 2.0, "model seed 2.0 is not an int"),
    (("schema_hash",), "", f"model schema_hash '' {_HASH_RULE}"),
    (("schema_hash",), "A" * 64, f"model schema_hash '{'A' * 64}' {_HASH_RULE}"),
    (("schema_hash",), "0" * 63, f"model schema_hash '{'0' * 63}' {_HASH_RULE}"),
    (("algorithm",), "C4.5", "algorithm 'C4.5' is not OneR or NaiveBayes or DecisionTree or "
                             "KNN3 or Bagging or RandomForest or RotationForest"),
    (("tree", "categorical_mask"), [5], _MASK_RULE),
    (("tree", "categorical_mask"), ["x"], _MASK_RULE),
    (("tree", "categorical_mask"), [{}], _MASK_RULE),
    (("tree", "categorical_mask"), [0], _MASK_RULE),
    (("tree", "categorical_mask"), [], _MASK_RULE),
    (("tree", "categorical_mask"), 5, _MASK_RULE),
    (("tree", "categorical_mask"), None, _MASK_RULE),
    (("tree", "categorical_mask"), [True],
     "tree node 0 has equal False; a split on feature 0 has its categorical_mask entry, True"),
])
def test_model_from_dict_refuses_bad_header(path, value, message):
    d = model_to_dict(train_decision_tree(mk_ds(np.arange(6.0), [1, 0, 0, 1, 1, 1])))
    with pytest.raises(ValueError) as exc:
        model_from_dict(_edited(d, path, value))
    assert str(exc.value) == message


_ONER_RULE = ("OneR needs finite value_counts, or edges rising to Infinity, one per "
              "bucket_counts row, as its is_categorical says")
_COUNTS = "they must be 2 non-negative ints with a positive sum"


# Each edit changes one field of the numeric OneR rule of the standard
# 31-column sample (two buckets). Were they
# loaded, feature 99 would fail at scoring with an IndexError, overall
# counts [-3, 1] would score 1.5 for values no rule covers, and edges out of
# order or short of Infinity would put values in the wrong bucket or none.
@pytest.mark.parametrize("path, value, message", [
    (("rule", "feature"), 99, "OneR feature 99 is not an int in [0, 31)"),
    (("rule", "feature"), -1, "OneR feature -1 is not an int in [0, 31)"),
    (("rule", "feature"), True, "OneR feature True is not an int in [0, 31)"),
    (("rule", "overall_counts"), [-3, 1], f"OneR overall_counts has counts [-3, 1]; {_COUNTS}"),
    (("rule", "bucket_counts", 1), [0, 0], f"OneR bucket 1 has counts [0, 0]; {_COUNTS}"),
    (("rule", "edges", 0), float("nan"), _ONER_RULE),
    (("rule", "edges", 0), float("-inf"), _ONER_RULE),
    (("rule", "edges", 1), 1e300, _ONER_RULE),
    (("rule", "edges"), [float("inf"), float("inf")], _ONER_RULE),
    (("rule", "edges"), [float("inf")], _ONER_RULE),
    (("rule", "is_categorical"), True, _ONER_RULE),
    (("rule", "is_categorical"), 0, _ONER_RULE),
    (("rule", "value_counts"), {"1.0": [1, 2]}, _ONER_RULE),
    (("rule", "bucket_counts"), [], _ONER_RULE),
    (("rule", "edges"), _DELETE, "OneR rule lacks key 'edges'"),
])
def test_model_from_dict_refuses_bad_oner(train_ds, path, value, message):
    d = model_to_dict(train_oner(train_ds))
    assert len(d["rule"]["edges"]) == 2 and d["rule"]["edges"][-1] == float("inf")
    assert model_to_dict(model_from_dict(json.loads(json.dumps(d)))) == d
    with pytest.raises(ValueError) as exc:
        model_from_dict(_edited(d, path, value))
    assert str(exc.value) == message


@pytest.mark.parametrize("edges", [[3.5, 1.5, 5.5, np.inf], [1.5, 1.5, 5.5, np.inf],
                                   [1.5, 3.5, 5.5, 7.5]])
def test_model_from_dict_refuses_unsorted_oner_edges(edges):
    # Were they loaded, values would fall in the wrong bucket, or in none.
    d = model_to_dict(train_oner(mk_ds(np.arange(8.0), [0, 0, 1, 1, 0, 0, 1, 1]), min_bucket=2))
    assert d["rule"]["edges"] == [1.5, 3.5, 5.5, np.inf]
    with pytest.raises(ValueError) as exc:
        model_from_dict(_edited(d, ("rule", "edges"), edges))
    assert str(exc.value) == _ONER_RULE


@pytest.mark.parametrize("path, value, message", [
    (("rule", "value_counts", "1.0"), [1, -1], f"OneR value 1.0 has counts [1, -1]; {_COUNTS}"),
    (("rule", "value_counts", "nan"), [1, 1], _ONER_RULE),
    (("rule", "value_counts"), {}, _ONER_RULE),
    (("rule", "edges"), [float("inf")], _ONER_RULE),
    (("rule", "is_categorical"), False, _ONER_RULE),
])
def test_model_from_dict_refuses_bad_categorical_oner(path, value, message):
    model = train_oner(mk_ds([[1.0, 5], [1, 6], [2, 5], [2, 6]], [0, 0, 1, 1], categorical=0))
    d = model_to_dict(model)
    assert d["rule"]["value_counts"] == {"1.0": [2, 0], "2.0": [0, 2]}
    with pytest.raises(ValueError) as exc:
        model_from_dict(_edited(d, path, value))
    assert str(exc.value) == message


_NB_MOMENTS = ("NaiveBayes means and variances must be finite, variances positive, one per "
               "class and numeric_mask column")
_NB_TABLES = ("NaiveBayes cat_tables and cat_class_totals must hold finite values for each "
              "categorical column")


# Each edit changes one field of the NaiveBayes of the standard 31-column
# sample, whose column 29 (State-Hash) is categorical. Were they loaded, a
# variance of -1 would score NaN for every row, a prior of 5 would skew every
# score, and short means would fail at scoring with an IndexError.
@pytest.mark.parametrize("path, value, message", [
    (("bayes", "variances", 1, 0), -1.0, _NB_MOMENTS),
    (("bayes", "variances", 0, 3), 0.0, _NB_MOMENTS),
    (("bayes", "means", 0, 2), float("nan"), _NB_MOMENTS),
    (("bayes", "means"), [[0.0] * 30] * 2, _NB_MOMENTS),
    (("bayes", "numeric_mask"), [True] * 30, _NB_MOMENTS),
    (("bayes", "priors", 1), 5.0, "NaiveBayes priors [0.5, 5.0] are not each in (0, 1]"),
    (("bayes", "priors", 0), 0.0, "NaiveBayes priors [0.0, 0.5] are not each in (0, 1]"),
    (("bayes", "priors"), [1.0], "NaiveBayes priors [1.0] are not each in (0, 1]"),
    (("bayes", "cat_tables", "29", "nan"), [1, 1], _NB_TABLES),
    (("bayes", "cat_tables", "5"), {"1.0": [1, 1]}, _NB_TABLES),
    (("bayes", "cat_tables", "29", "first"), [0, 0],
     f"NaiveBayes column 29 value {{first}} has counts [0, 0]; {_COUNTS}"),
    (("bayes", "cat_class_totals", "29"), [-1, 3],
     f"NaiveBayes column 29 has counts [-1, 3]; {_COUNTS}"),
    (("bayes", "priors"), _DELETE, "NaiveBayes bayes lacks key 'priors'"),
])
def test_model_from_dict_refuses_bad_naive_bayes(train_ds, path, value, message):
    d = model_to_dict(train_naive_bayes(train_ds))
    assert d["bayes"]["priors"] == [0.5, 0.5] and list(d["bayes"]["cat_tables"]) == ["29"]
    if path[-1] == "first":                       # the table's first value
        first = next(iter(d["bayes"]["cat_tables"]["29"]))
        path, message = path[:-1] + (first,), message.format(first=first)
    with pytest.raises(ValueError) as exc:
        model_from_dict(_edited(d, path, value))
    assert str(exc.value) == message


@pytest.fixture(scope="module")
def saved_models(train_ds):
    return {"Bagging": model_to_dict(train_bagging(train_ds, n_members=2, seed=1)),
            "RotationForest": model_to_dict(train_rotation_forest(train_ds, n_members=2,
                                                                  seed=1)),
            "KNN3": model_to_dict(train_knn3(train_ds))}


# Each edit changes one member tree, at the same place in a Bagging member
# and in a RotationForest member's "tree". Were they loaded, a KNN3 member
# would fail at scoring with an AttributeError (it has no `votes`), and an
# empty member list would score NaN for every row. The members read the
# standard 31 columns: a 40-entry mask would let splits on columns 31-39
# load and fail at scoring, and a mask of 5, "x" or {} would load as true
# or false.
@pytest.mark.parametrize("algorithm", ["Bagging", "RotationForest"])
@pytest.mark.parametrize("path, value, message", [
    ((), "KNN3", "algorithm 'KNN3' is not DecisionTree"),
    (("schema_hash",), "0" * 64, f"member schema_hash '{'0' * 64}' is not the ensemble's"),
    (("schema_hash",), "", f"model schema_hash '' {_HASH_RULE}"),
    (("note",), 1, "model has extra key 'note'"),
    (("tree", "categorical_mask"), [False] * 40, _MASK_RULE),
    (("tree", "categorical_mask"), [False] * 30, _MASK_RULE),
    (("tree", "categorical_mask"), [5] * 31, _MASK_RULE),
    (("tree", "categorical_mask"), ["x"] * 31, _MASK_RULE),
    (("tree", "categorical_mask"), [{}] * 31, _MASK_RULE),
    (("tree", "categorical_mask"), 5, _MASK_RULE),
])
def test_model_from_dict_refuses_bad_ensemble_member(saved_models, algorithm, path, value,
                                                     message):
    d = saved_models[algorithm]
    member = ("members", 0) + (("tree",) if algorithm == "RotationForest" else ())
    if value == "KNN3":
        value = saved_models["KNN3"]
    with pytest.raises(ValueError) as exc:
        model_from_dict(_edited(d, member + path, value))
    assert str(exc.value) == message


_ROTATION_RULE = ("RotationForest groups must be disjoint lists of the member tree's numeric "
                  "columns, each with a finite square basis of its size")


# Each edit changes the first member of a saved RotationForest, whose 30
# numeric columns fall in ten groups of three; column 29 (State-Hash) is
# categorical. Were they loaded, overlapping groups or a NaN basis entry
# would score, a 2x2 basis for a 3-column group would fail at scoring with a
# matmul ValueError, and a group holding column 99 with an IndexError.
@pytest.mark.parametrize("path, value, message", [
    (("groups", 1, 0), "first", _ROTATION_RULE),
    (("groups", 0, 0), 29, _ROTATION_RULE),
    (("groups", 0, 0), 99, _ROTATION_RULE),
    (("groups", 0, 0), -1, _ROTATION_RULE),
    (("groups", 0, 0), True, _ROTATION_RULE),
    (("groups", 0, 0), 1.0, _ROTATION_RULE),
    (("bases", 0), [[1.0, 0.0], [0.0, 1.0]], _ROTATION_RULE),
    (("bases", 0, 1, 2), float("nan"), _ROTATION_RULE),
    (("bases", 0, 1, 2), float("inf"), _ROTATION_RULE),
    (("bases",), [], _ROTATION_RULE),
    (("groups",), [], _ROTATION_RULE),
    (("bases",), _DELETE, "RotationForest member lacks key 'bases'"),
])
def test_model_from_dict_refuses_bad_rotation(saved_models, path, value, message):
    d = saved_models["RotationForest"]
    groups = d["members"][0]["groups"]
    assert len(groups) == 10 and all(len(g) == 3 for g in groups) and 29 not in sum(groups, [])
    if value == "first":
        value = groups[0][0]
    with pytest.raises(ValueError) as exc:
        model_from_dict(_edited(d, ("members", 0) + path, value))
    assert str(exc.value) == message


@pytest.mark.parametrize("algorithm", ["Bagging", "RotationForest"])
def test_model_from_dict_refuses_empty_ensemble(saved_models, algorithm):
    with pytest.raises(ValueError) as exc:
        model_from_dict(_edited(saved_models[algorithm], ("members",), []))
    assert str(exc.value) == f"{algorithm} members must be a non-empty list"
