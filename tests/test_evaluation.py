import io
import json
import math
import multiprocessing
import os
import signal
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import shilldetect.evaluation as evaluation
from shilldetect.features import FeatureMatrix
from shilldetect.evaluation import (
    DEFAULT_RATIOS,
    POOLED_ALGORITHMS,
    auc,
    balanced_training_sample,
    confusion_metrics,
    cross_validate,
    imbalanced_protocol,
    information_gain,
    information_gain_ranking,
    mdl_discretize,
    precision_at_k,
    precision_curve,
    protocol_plan,
    rank_users,
    stratified_kfold,
    write_precision_csv,
    write_precision_svg,
    write_report_json,
)

from oracles import (
    auc_pair_count,
    entropy_reference,
    info_gain_categorical,
    info_gain_with_cuts,
    mdl_cuts_recursive,
    precision_at_k_reference,
)


# ---------------------------------------------------------------------------
# sampling


def test_balanced_sample_composition(small_matrix):
    ds = balanced_training_sample(small_matrix, seed=0)
    counts = ds.class_counts()
    n_shills = int(small_matrix.labels.sum())
    assert counts[0] == counts[1] == n_shills
    # every shill included, benign drawn without replacement
    shills = {u for u, y in zip(small_matrix.user_ids, small_matrix.labels) if y}
    assert shills <= set(ds.user_ids)
    assert len(set(ds.user_ids)) == ds.n_users


def test_balanced_sample_deterministic(small_matrix):
    a = balanced_training_sample(small_matrix, seed=5)
    b = balanced_training_sample(small_matrix, seed=5)
    c = balanced_training_sample(small_matrix, seed=6)
    assert a.user_ids == b.user_ids
    assert a.user_ids != c.user_ids


def test_balanced_sample_row_order_invariant(small_matrix):
    perm = np.random.default_rng(4).permutation(small_matrix.n_users)
    a = balanced_training_sample(small_matrix, seed=3)
    b = balanced_training_sample(small_matrix.take(perm), seed=3)
    assert a.user_ids == b.user_ids
    assert np.array_equal(a.values, b.values) and np.array_equal(a.labels, b.labels)


def _one_column(labels):
    return FeatureMatrix([f"u{i}" for i in range(len(labels))],
                         np.zeros((len(labels), 1)), np.array(labels, np.int8), ("f0",))


def test_balanced_sample_error_paths():
    with pytest.raises(ValueError, match="no shill"):
        balanced_training_sample(_one_column([0, 0, 0]))
    with pytest.raises(ValueError, match=r"benign pool \(1\) smaller than shill count \(2\)"):
        balanced_training_sample(_one_column([1, 0, 1]))


def test_stratified_kfold_properties(small_matrix):
    ds = balanced_training_sample(small_matrix, seed=1)
    folds = stratified_kfold(ds, k=5, seed=2)
    all_rows = np.concatenate(folds)
    assert len(all_rows) == ds.n_users and len(set(all_rows.tolist())) == ds.n_users
    per_class = np.array([[int((ds.labels[f] == c).sum()) for c in (0, 1)]
                          for f in folds])
    assert (per_class.max(axis=0) - per_class.min(axis=0) <= 1).all()


def test_stratified_kfold_order_invariant(small_matrix):
    ds = balanced_training_sample(small_matrix, seed=1)
    perm = np.random.default_rng(0).permutation(ds.n_users)
    shuffled = ds.take(perm)
    f1 = stratified_kfold(ds, k=4, seed=9)
    f2 = stratified_kfold(shuffled, k=4, seed=9)
    ids1 = [sorted(ds.user_ids[i] for i in f) for f in f1]
    ids2 = [sorted(shuffled.user_ids[i] for i in f) for f in f2]
    assert ids1 == ids2


@pytest.mark.parametrize("evaluate", [balanced_training_sample, stratified_kfold])
def test_sampling_refuses_a_repeated_id(small_matrix, evaluate):
    # test_imbalanced_protocol_rejects_train_test_overlap checks imbalanced_protocol
    ids = list(small_matrix.user_ids)
    ids[-1] = ids[0]
    with pytest.raises(ValueError, match="user ids must be unique"):
        evaluate(FeatureMatrix(ids, small_matrix.values, small_matrix.labels))


def test_stratified_kfold_requires_rows():
    ds = _one_column([0, 0, 1, 1])
    with pytest.raises(ValueError, match="needs"):
        stratified_kfold(ds, k=3)
    with pytest.raises(ValueError, match="at least 2 folds, not 1"):
        stratified_kfold(ds, k=1)


# ---------------------------------------------------------------------------
# metrics


def test_confusion_metrics_hand_case():
    scores = np.array([0.9, 0.8, 0.6, 0.4, 0.3, 0.1])
    labels = np.array([1, 1, 0, 1, 0, 0])
    m = confusion_metrics(scores, labels)
    assert m["tp"] == 2 and m["fp"] == 1 and m["fn"] == 1 and m["tn"] == 2
    assert m["tp_rate"] == pytest.approx(2 / 3)
    assert m["fp_rate"] == pytest.approx(1 / 3)
    p, r = 2 / 3, 2 / 3
    assert m["f_measure"] == pytest.approx(2 * p * r / (p + r))


def test_confusion_metrics_threshold_inclusive():
    m = confusion_metrics(np.array([0.5]), np.array([1]))
    assert m["tp"] == 1                      # score == threshold predicts shill
    assert m["fp_rate"] == 0.0               # no negatives -> 0.0, not NaN


def test_auc_matches_pair_count_oracle():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(4, 40))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        # quantized scores force plenty of ties
        scores = np.round(rng.random(n) * 4) / 4
        assert auc(scores, labels) == pytest.approx(
            auc_pair_count(scores.tolist(), labels.tolist()), abs=1e-12)


def test_auc_equals_rankdata_reference():
    # Average ranks are half-integers, so the rank sum is exact: auc must
    # equal the scipy-ranked value bit for bit, not within a tolerance.
    from scipy.stats import rankdata
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(2, 300))
        labels = rng.integers(0, 2, n)
        labels[:2] = (0, 1)
        scores = np.round(rng.random(n) * int(rng.integers(1, 9))) / 8
        n_pos, n_neg = int(labels.sum()), int((labels == 0).sum())
        rank_sum = float(rankdata(scores, method="average")[labels == 1].sum())
        assert auc(scores, labels) == (rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def test_auc_extremes():
    assert auc([0.1, 0.9], [0, 1]) == 1.0
    assert auc([0.9, 0.1], [0, 1]) == 0.0
    assert auc([0.5, 0.5], [0, 1]) == 0.5
    with pytest.raises(ValueError):
        auc([0.5, 0.6], [1, 1])
    with pytest.raises(ValueError, match="NaN"):
        auc([0.5, float("nan")], [0, 1])


def test_rank_users_tie_by_user_id():
    scores = np.array([0.5, 0.9, 0.5])
    uids = ("zeta", "mid", "alpha")
    order = rank_users(scores, uids)
    assert [uids[i] for i in order] == ["mid", "alpha", "zeta"]


def test_precision_at_k_hand_and_oracle():
    scores = [0.9, 0.9, 0.3, 0.2]
    labels = [0, 1, 1, 0]
    uids = ["b", "a", "c", "d"]
    # top-2: tie at 0.9 -> "a" (shill) then "b" (benign)
    assert precision_at_k(scores, labels, 1, uids) == 1.0
    assert precision_at_k(scores, labels, 2, uids) == 0.5
    for k in (1, 2, 3, 4, 99):
        assert precision_at_k(scores, labels, k, uids) == pytest.approx(
            precision_at_k_reference(scores, labels, uids, k))
    with pytest.raises(ValueError):
        precision_at_k(scores, labels, 0, uids)


@pytest.mark.parametrize("with_ids", [True, False])
def test_precision_curve_equals_per_k_oracle(with_ids):
    rng = np.random.default_rng(11)
    n = 257
    scores = rng.integers(0, 4, n) / 3            # four values: ties everywhere
    labels = rng.integers(0, 2, n)
    uids = [f"u{v:04d}" for v in rng.permutation(n)]
    ks = list(range(1, n + 40))                   # k past n saturates
    curve = precision_curve(scores, labels, ks, uids if with_ids else None)
    ref_ids = uids if with_ids else list(range(n))
    s, y = scores.tolist(), labels.tolist()
    assert curve == [precision_at_k_reference(s, y, ref_ids, k) for k in ks]
    assert [precision_at_k(scores, labels, k, uids if with_ids else None)
            for k in ks] == curve


def test_precision_curve_ranks_id_ranks_as_their_ids():
    # Tie-heavy scores over non-ASCII ids, some a prefix of another: the
    # ranks of the ids in sorted order break ties as the ids themselves do.
    rng = np.random.default_rng(23)
    alphabet = ["a", "b", "z", "é", "ß", "日", "\U0001f600", "A", "_"]
    for _ in range(30):
        ids = sorted({"".join(rng.choice(alphabet, int(rng.integers(1, 4))))
                      for _ in range(int(rng.integers(2, 120)))})
        uids = [ids[i] for i in rng.permutation(len(ids))]
        ranks = np.array([ids.index(u) for u in uids], np.int32)
        scores = rng.integers(0, 4, len(uids)) / 3
        labels = rng.integers(0, 2, len(uids))
        ks = list(range(1, len(uids) + 3))
        curve = precision_curve(scores, labels, ks, uids)
        assert precision_curve(scores, labels, ks, ranks) == curve
        s, y = scores.tolist(), labels.tolist()
        assert curve == [precision_at_k_reference(s, y, uids, k) for k in ks]


def test_precision_curve_rejects_bad_input():
    with pytest.raises(ValueError, match="k must be"):
        precision_curve([0.5, 0.2], [1, 0], [1, 0, 2])
    with pytest.raises(ValueError, match="at least one"):
        precision_curve([], [], [1])


def test_cross_validate_structure(small_matrix):
    ds = balanced_training_sample(small_matrix, seed=3)
    out = cross_validate("NaiveBayes", ds, k=4, seed=3)
    m = out["metrics"]
    assert set(("tp_rate", "fp_rate", "f_measure", "auc")) <= set(m)
    assert len(out["scores"]) == ds.n_users
    out2 = cross_validate("NaiveBayes", ds, k=4, seed=3)
    assert np.array_equal(out["scores"], out2["scores"])


# ---------------------------------------------------------------------------
# the worker pool of CV folds and protocol repetitions

# Small ensembles keep the pooled runs quick.
_TREE_HYPER = {"DecisionTree": None, "Bagging": {"n_members": 3},
               "RandomForest": {"n_members": 3}, "RotationForest": {"n_members": 2}}


def _use_workers(monkeypatch, workers):
    monkeypatch.setattr(evaluation, "_worker_count", lambda n_tasks: min(workers, n_tasks))


def test_worker_count_follows_the_affinity_mask():
    assert evaluation._worker_count(1) == 1
    assert evaluation._worker_count(10_000) == len(os.sched_getaffinity(0))


def test_map_in_order_pools_only_tree_learners(monkeypatch):
    _use_workers(monkeypatch, 2)
    parent = os.getpid()
    got = evaluation._map_in_order(lambda i: (i, os.getpid()), 6, "RotationForest", (3, 3))
    assert [i for i, _ in got] == list(range(6))           # submission order
    assert parent not in {pid for _, pid in got}
    for algorithm in ("KNN3", "OneR", "NaiveBayes"):
        got = evaluation._map_in_order(lambda i: os.getpid(), 3, algorithm, (3, 3))
        assert got == [parent] * 3, algorithm
    assert multiprocessing.active_children() == []


def _tree_task_pids():
    return os.getpid(), evaluation._map_in_order(lambda i: os.getpid(), 2,
                                                 "DecisionTree", (3, 3))


def test_map_in_order_stays_in_process_in_a_daemon(monkeypatch):
    # A pool's workers are daemons, and a daemon may not start children.
    _use_workers(monkeypatch, 2)
    pool = multiprocessing.get_context("fork").Pool(1)
    try:
        pid, task_pids = pool.apply(_tree_task_pids)
    finally:
        pool.close()
        pool.join()
    assert task_pids == [pid, pid]


@pytest.mark.parametrize("algorithm", sorted(POOLED_ALGORITHMS))
def test_cross_validate_does_not_depend_on_workers(small_matrix, monkeypatch, algorithm):
    ds = balanced_training_sample(small_matrix, seed=3)
    runs = []
    for workers in (1, 2):
        _use_workers(monkeypatch, workers)
        runs.append(cross_validate(algorithm, ds, k=4, seed=3,
                                   hyperparameters=_TREE_HYPER[algorithm]))
    assert runs[0]["scores"].tobytes() == runs[1]["scores"].tobytes()
    assert runs[0]["metrics"] == runs[1]["metrics"]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("algorithm", sorted(POOLED_ALGORITHMS))
def test_imbalanced_protocol_does_not_depend_on_workers(small_matrix, monkeypatch,
                                                       algorithm):
    reports = []
    for workers in (1, 2):
        _use_workers(monkeypatch, workers)
        reports.append(imbalanced_protocol(
            small_matrix, algorithm, ratios=(2, 5), repetitions=3, seed=4,
            k_grid=range(1, 40), hyperparameters=_TREE_HYPER[algorithm]).to_dict())
    assert reports[0] == reports[1]
    assert multiprocessing.active_children() == []


def test_pooled_fold_error_reaches_the_caller(small_matrix, monkeypatch):
    # The patched trainer is in place before the fork, so the children run it.
    ds = balanced_training_sample(small_matrix, seed=3)
    first = min(ds.user_ids)
    real_train = evaluation.train

    def train_but_one_fold(algorithm, matrix, *args, **kwargs):
        if first not in matrix.user_ids:       # the fold that holds `first` out
            raise ValueError(f"no row for {first}")
        return real_train(algorithm, matrix, *args, **kwargs)

    monkeypatch.setattr(evaluation, "train", train_but_one_fold)
    _use_workers(monkeypatch, 2)
    with pytest.raises(ValueError) as raised:
        cross_validate("DecisionTree", ds, k=4, seed=3)
    assert type(raised.value) is ValueError and str(raised.value) == f"no row for {first}"
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(evaluation, "train", real_train)
    cross_validate("DecisionTree", ds, k=4, seed=3)
    assert multiprocessing.active_children() == []
    assert evaluation._task is None


def test_killed_child_fails_the_call(monkeypatch):
    # A child the kernel kills (say, out of memory) must not hang the call.
    _use_workers(monkeypatch, 2)
    parent = os.getpid()

    def task(i):
        if i == 1 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return i

    with pytest.raises(BrokenProcessPool):
        evaluation._map_in_order(task, 4, "DecisionTree", (3, 3))
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# protocol


def test_protocol_plan_math():
    plan = protocol_plan(100, 5000, ratios=(2, 10))
    assert plan.n_train_shills == 90 and plan.n_test_shills == 10
    assert plan.test_benign_per_ratio == {2: 20, 10: 100}


def test_protocol_plan_refuses_no_ratios():
    with pytest.raises(ValueError, match="ratios is empty"):
        protocol_plan(100, 5000, ratios=())


def test_imbalanced_protocol_refuses_empty_k_grid(small_matrix):
    with pytest.raises(ValueError, match="k_grid is empty"):
        imbalanced_protocol(small_matrix, "OneR", ratios=(2,), repetitions=1, k_grid=[])


def test_protocol_plan_infeasible_ratio_named():
    with pytest.raises(ValueError, match="1:100"):
        protocol_plan(100, 500, ratios=(2, 100))


def test_imbalanced_protocol_structure(small_matrix):
    rep = imbalanced_protocol(small_matrix, "DecisionTree", ratios=(2, 5),
                              repetitions=2, seed=4, k_grid=range(1, 13))
    assert rep.ratios == [2, 5] and rep.k_grid == list(range(1, 13))
    n_test = int(small_matrix.labels.sum()) - int(small_matrix.labels.sum() * 0.9)
    assert rep.test_sizes == {"1:2": n_test * 3, "1:5": n_test * 6}
    for label in ("1:2", "1:5"):
        assert len(rep.per_repetition[label]) == 2
        mean = np.mean(np.array(rep.per_repetition[label]), axis=0)
        assert mean == pytest.approx(rep.curves[label])
    assert (0 <= np.array(rep.curves["1:2"])).all()
    assert (np.array(rep.curves["1:2"]) <= 1).all()


def test_imbalanced_protocol_needs_a_repetition(small_matrix):
    with pytest.raises(ValueError, match="at least 1 repetition, not 0"):
        imbalanced_protocol(small_matrix, "OneR", repetitions=0)


def test_imbalanced_protocol_deterministic(small_matrix):
    a = imbalanced_protocol(small_matrix, "OneR", ratios=(2,), repetitions=2,
                            seed=7, k_grid=range(1, 6))
    b = imbalanced_protocol(small_matrix, "OneR", ratios=(2,), repetitions=2,
                            seed=7, k_grid=range(1, 6))
    assert a.to_dict() == b.to_dict()


@pytest.mark.parametrize("algorithm", ["OneR", "KNN3"])
def test_imbalanced_protocol_row_order_invariant(small_matrix, algorithm):
    perm = np.random.default_rng(5).permutation(small_matrix.n_users)
    kwargs = dict(ratios=(2, 100), repetitions=2, seed=1, k_grid=range(1, 201))
    a = imbalanced_protocol(small_matrix, algorithm, **kwargs)
    b = imbalanced_protocol(small_matrix.take(perm), algorithm, **kwargs)
    assert a.to_dict() == b.to_dict()


def _protocol_test_sets(matrix, seed, ratios):
    """Each ratio's sorted test ids, drawn as the protocol documents."""
    shills = sorted(u for u, y in zip(matrix.user_ids, matrix.labels) if y == 1)
    benign = sorted(u for u, y in zip(matrix.user_ids, matrix.labels) if y == 0)
    n_train = int(len(shills) * 0.9)
    n_test = len(shills) - n_train
    rng = np.random.default_rng(seed)
    train_shills = {shills[i] for i in rng.choice(len(shills), n_train, replace=False)}
    test_shills = [u for u in shills if u not in train_shills]
    train_benign = {benign[i] for i in rng.choice(len(benign), n_train, replace=False)}
    pool = [u for u in benign if u not in train_benign]
    test_pool = [pool[i] for i in rng.choice(len(pool), max(ratios) * n_test,
                                             replace=False)]
    return {r: sorted(test_shills + test_pool[:r * n_test]) for r in ratios}


@pytest.mark.parametrize("algorithm", ["KNN3", "OneR"])
def test_imbalanced_protocol_curves_equal_reference(small_matrix, monkeypatch,
                                                    algorithm):
    # The protocol scores each repetition's largest test set once. Score every
    # ratio's test set on its own with the same model, then rebuild each curve
    # with the per-k sort oracle; the report must hold exactly those floats.
    import shilldetect.evaluation as evaluation

    scored = []
    real_predict = evaluation.predict_score

    def spy(model, features):
        scored.append((model, features.user_ids))
        return real_predict(model, features)

    monkeypatch.setattr(evaluation, "predict_score", spy)
    k_grid = list(range(1, 301))
    ratios = (2, 10, 100)
    rep = imbalanced_protocol(small_matrix, algorithm, ratios=ratios,
                              repetitions=2, seed=3, k_grid=k_grid)
    assert len(scored) == 2
    for r, (model, scored_ids) in enumerate(scored):
        test_sets = _protocol_test_sets(small_matrix, 3 + r, ratios)
        assert sorted(scored_ids) == test_sets[max(ratios)]
        for ratio in ratios:
            sub = small_matrix.select(test_sets[ratio])
            assert len(sub.user_ids) == rep.test_sizes[f"1:{ratio}"]
            s = real_predict(model, sub).tolist()
            y = [int(v) for v in sub.labels]
            expected = [precision_at_k_reference(s, y, sub.user_ids, k) for k in k_grid]
            assert rep.per_repetition[f"1:{ratio}"][r] == expected


def test_imbalanced_protocol_rejects_train_test_overlap(small_matrix):
    # Give every shill's id to a benign row as well: the benign test pool
    # then reaches ids the shill training sample holds.
    shill_ids = [u for u, y in zip(small_matrix.user_ids, small_matrix.labels) if y]
    benign_rows = [i for i, y in enumerate(small_matrix.labels) if not y]
    ids = list(small_matrix.user_ids)
    for i, u in zip(benign_rows, shill_ids):
        ids[i] = u
    clash = FeatureMatrix(ids, small_matrix.values, small_matrix.labels)
    with pytest.raises(ValueError, match="user ids must be unique"):
        imbalanced_protocol(clash, "OneR", ratios=(100,), repetitions=1,
                            k_grid=[1])


def test_imbalanced_protocol_saturation(small_matrix):
    rep = imbalanced_protocol(small_matrix, "OneR", ratios=(2,), repetitions=1,
                              seed=0, k_grid=[1, 10_000])
    size = rep.test_sizes["1:2"]
    n_test_shills = size // 3
    # k beyond the test size saturates: precision = shills / test size
    assert rep.precision_at(2, 10_000) == pytest.approx(n_test_shills / size)


# ---------------------------------------------------------------------------
# information gain


def test_mdl_perfect_split_one_bit():
    x = np.array([1.0, 2.0, 3.0, 10.0, 11.0, 12.0] * 3)
    y = np.array([0, 0, 0, 1, 1, 1] * 3)
    cuts = mdl_discretize(x, y)
    assert cuts == [6.5]
    assert information_gain(x, y) == pytest.approx(1.0, abs=1e-12)


def test_mdl_rejects_uninformative_feature():
    rng = np.random.default_rng(2)
    x = rng.random(60)
    y = np.array([0, 1] * 30)
    assert mdl_discretize(x, y) == []
    assert information_gain(x, y) == 0.0


@pytest.mark.parametrize("levels", [None, 4, 12])
def test_mdl_matches_recursive_reference(levels):
    # None: continuous values; 4 and 12: few distinct values, many ties.
    rng = np.random.default_rng(23)
    most_cuts = 0
    for _ in range(40):
        n = int(rng.integers(2, 300))
        x = rng.normal(size=n) if levels is None else rng.integers(0, levels, n).astype(float)
        y = (np.sin(3 * x) + rng.normal(scale=0.5, size=n) > 0).astype(np.int64)
        cuts = mdl_discretize(x, y)
        assert cuts == mdl_cuts_recursive(x.tolist(), y.tolist())
        most_cuts = max(most_cuts, len(cuts))
    assert most_cuts >= 2         # nested cuts, not just single splits
    x = np.arange(400.0)
    y = (x // 20 % 2).astype(np.int64)
    assert mdl_discretize(x, y) == mdl_cuts_recursive(x.tolist(), y.tolist())


def test_information_gain_matches_direct_recompute(small_matrix):
    ds = balanced_training_sample(small_matrix, seed=2)
    y = ds.labels.astype(np.int64)
    checked = 0
    for f, name in enumerate(ds.feature_names):
        if name == "State-Hash":
            continue
        x = ds.values[:, f]
        cuts = mdl_discretize(x, y)
        got = information_gain(x, y)
        if cuts:
            want = info_gain_with_cuts(x.tolist(), y.tolist(), cuts)
            assert got == pytest.approx(want, abs=1e-9), name
            checked += 1
        else:
            assert got == 0.0, name
    assert checked >= 5           # the corpus has informative features


def test_information_gain_categorical_route(small_matrix):
    ds = balanced_training_sample(small_matrix, seed=2)
    f = ds.feature_names.index("State-Hash")
    got = information_gain(ds.values[:, f], ds.labels, categorical=True)
    want = info_gain_categorical(ds.values[:, f].tolist(), ds.labels.tolist())
    assert got == pytest.approx(want, abs=1e-12)


def test_information_gain_ranking_order(small_matrix):
    ds = balanced_training_sample(small_matrix, seed=0)
    ranked = information_gain_ranking(ds)
    gains = [g for _, g in ranked]
    assert gains == sorted(gains, reverse=True)
    assert len(ranked) == 31
    # ties (e.g. several zero-gain features) keep declaration order
    names = [n for n, g in ranked if g == 0.0]
    declared = [n for n in ds.feature_names if n in set(names)]
    assert names == declared


# ---------------------------------------------------------------------------
# report writers


@pytest.fixture(scope="module")
def tiny_report(small_matrix):
    return imbalanced_protocol(small_matrix, "NaiveBayes", ratios=(2, 5),
                               repetitions=2, seed=1, k_grid=range(1, 9))


def test_report_json_roundtrip(tiny_report):
    buf = io.StringIO()
    write_report_json(tiny_report, buf)
    data = json.loads(buf.getvalue())
    assert data["curves"]["1:2"] == tiny_report.curves["1:2"]
    assert data["rep_seeds"] == [1, 2]


def test_precision_csv_layout(tiny_report):
    buf = io.StringIO()
    write_precision_csv(tiny_report, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0].split(",") == ["ratio", "k", "mean_precision", "rep0", "rep1"]
    assert len(lines) == 1 + 2 * len(tiny_report.k_grid)
    first = lines[1].split(",")
    assert first[0] == "1:2" and int(first[1]) == 1
    assert float(first[2]) == pytest.approx(tiny_report.curves["1:2"][0], abs=1e-6)
    reps = [float(v) for v in first[3:]]
    assert np.mean(reps) == pytest.approx(float(first[2]), abs=1e-5)


def test_precision_svg_deterministic(tiny_report):
    a, b = io.StringIO(), io.StringIO()
    write_precision_svg(tiny_report, a)
    write_precision_svg(tiny_report, b)
    assert a.getvalue() == b.getvalue()
    svg = a.getvalue()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 2
    assert "1:5" in svg
