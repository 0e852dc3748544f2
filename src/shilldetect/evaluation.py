"""Sampling, cross-validation, ranking metrics, and the imbalanced protocol.

The headline experiment: train on a balanced sample (all training shills +
equally many random benign users), then measure precision at the top k of
the score ranking on test sets rebuilt at increasing benign:shill ratios.
Test sets are nested across ratios within a repetition (the benign pool is
drawn once and sliced by prefix), which keeps the ratio curves comparable.

Everything stochastic draws from numpy Generators seeded explicitly, over
ranks in `FeatureMatrix.id_order()`, and score ties break toward the lower
rank, so shuffling input rows never changes a result; a user id on more
than one row is refused.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .classifiers import predict_score, train
from .classifiers.base import entropy
from .classifiers.tree import _binary_entropy, _entropy_table
from .features import FeatureMatrix
from .graphs import run_starts
from .records import write_json

DEFAULT_RATIOS = (2, 5, 10, 20, 100)


# ---------------------------------------------------------------------------
# Sampling


def _id_ranks(matrix: FeatureMatrix):
    """`matrix.id_order()` and the shill and benign rows' ranks in it, as int32:
    the protocol holds all three through its repetitions, and int64 raised its peak RSS."""
    order = matrix.id_order().astype(np.int32)
    shills, benign = (np.flatnonzero(matrix.labels[order] == c).astype(np.int32) for c in (1, 0))
    return order, shills, benign


def balanced_training_sample(matrix: FeatureMatrix, seed: int = 0) -> FeatureMatrix:
    """All shills + equally many benign users drawn uniformly without
    replacement, in user-id order."""
    order, shills, benign = _id_ranks(matrix)
    if not len(shills):
        raise ValueError("no shill users available for the training sample")
    if len(benign) < len(shills):
        raise ValueError(f"benign pool ({len(benign)}) smaller than shill count "
                         f"({len(shills)})")
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(benign), size=len(shills), replace=False)
    return matrix.take(order[np.sort(np.concatenate([shills, benign[chosen]]))])


def stratified_kfold(matrix: FeatureMatrix, k: int = 10, seed: int = 0) -> list[np.ndarray]:
    """Disjoint folds covering the matrix; per-fold class counts differ <= 1.

    Returns row-index arrays into `matrix`. The partition depends only on
    (user ids, labels, k, seed), not on row order.
    """
    if k < 2:
        raise ValueError(f"cross-validation needs at least 2 folds, not {k}")
    counts = matrix.class_counts()
    if counts.min() < k:
        raise ValueError(f"every class needs >= {k} rows for {k}-fold CV "
                         f"(counts: {counts.tolist()})")
    order, shills, benign = _id_ranks(matrix)
    rng = np.random.default_rng(seed)
    folds: list[list[np.ndarray]] = [[] for _ in range(k)]
    for ranks in (benign, shills):
        rows = order[ranks][rng.permutation(len(ranks))]
        for fold_i, part in enumerate(np.array_split(rows, k)):
            folds[fold_i].append(part)
    return [np.sort(np.concatenate(f)) for f in folds]


# ---------------------------------------------------------------------------
# Metrics


def confusion_metrics(scores, labels) -> dict:
    """TP rate, FP rate, F-measure for the shill class.

    A score >= 0.5 predicts shill. Degenerate denominators yield 0.0.
    """
    scores = np.asarray(scores, np.float64)
    labels = np.asarray(labels)
    pred = scores >= 0.5
    pos, neg = labels == 1, labels == 0
    tp = int((pred & pos).sum())
    fp = int((pred & neg).sum())
    fn = int((~pred & pos).sum())
    tn = int((~pred & neg).sum())
    tp_rate = tp / (tp + fn) if tp + fn else 0.0
    fp_rate = fp / (fp + tn) if fp + tn else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    f_measure = (2 * precision * tp_rate / (precision + tp_rate)
                 if precision + tp_rate else 0.0)
    return {"tp_rate": tp_rate, "fp_rate": fp_rate, "f_measure": f_measure,
            "precision": precision, "tp": tp, "fp": fp, "tn": tn, "fn": fn}


def auc(scores, labels) -> float:
    """Rank-statistic AUC; tied scores contribute 1/2 per positive-negative pair."""
    scores = np.asarray(scores, np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs at least one positive and one negative")
    if np.isnan(scores).any():
        raise ValueError("AUC needs scores that are not NaN")
    # Tied scores share the mean of their 1-based ranks start+1..end, a
    # half-integer, so every rank and their sum are exact in float64.
    order = np.argsort(scores, kind="stable")
    starts = run_starts(scores[order])
    ends = np.r_[starts[1:], len(scores)]
    ranks = np.empty(len(scores), np.float64)
    ranks[order] = np.repeat((starts + 1 + ends) / 2, ends - starts)
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def rank_users(scores, keys):
    """Indices sorted by score descending, score ties by ascending key: the
    user ids, or any keys that sort as the ids do, such as id ranks."""
    return np.lexsort((np.asarray(keys), -np.asarray(scores, np.float64)))


def precision_curve(scores, labels, k_grid, keys) -> list[float]:
    """Fraction of true shills in the top k of the ranking, for every k.

    The rows are ranked once; precision at k is read off the running count
    of shills down the ranking. k larger than the row count saturates to the
    row count. Score ties break toward the lower key: the user ids, or any
    keys that sort as the ids do, such as id ranks (stable, never optimistic).
    """
    scores = np.asarray(scores, np.float64)
    labels = np.asarray(labels)
    ks = np.asarray(k_grid, np.int64)
    if (ks < 1).any():
        raise ValueError("k must be >= 1")
    if len(scores) == 0:
        raise ValueError("precision@k needs at least one scored row")
    order = rank_users(scores, keys)
    hits = np.cumsum(labels[order], dtype=np.int64)
    ks = np.minimum(ks, len(scores))
    return (hits[ks - 1] / ks).tolist()


def precision_at_k(scores, labels, k: int, keys) -> float:
    """Precision at one k; see `precision_curve`."""
    return precision_curve(scores, labels, [k], keys)[0]


# ---------------------------------------------------------------------------
# Independent tasks on every CPU

# The learners whose CV folds and protocol repetitions `_map_in_order` runs
# on a fork pool. KNN3 stays in process, where pooled children oversubscribed
# OpenBLAS's threads. Its scoring does not use every core: in a 10,100-row
# `KNN3.scores` call the BLAS product takes about 20 of 120-160 ms, the rest
# runs on one core, and splitting the chunks over two threads was no faster.
# OneR and NaiveBayes train in less time than the pool costs.
POOLED_ALGORITHMS = frozenset({"DecisionTree", "Bagging", "RandomForest", "RotationForest"})

_task = None    # the task `_map_in_order` runs; its pool's children inherit it


def _worker_count(n_tasks: int) -> int:
    """Processes for `n_tasks` tasks: at most one per CPU this process may use."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return min(cpus, n_tasks)


def _run_task(i: int):
    return _task(i)


def _map_in_order(task, n_tasks: int, algorithm: str, class_counts) -> list:
    """[task(i) for i in range(n_tasks)]; a tree learner's tasks run on a fork pool.

    The children inherit `task`, and all it reads, through fork: only an
    index goes to a child and only its task's result comes back, and the
    results are gathered in submission order, so they do not depend on the
    worker count. The entropy table for the training data's largest
    `class_counts` (benign, shill) is built first, so the children inherit
    it too. A task's exception reaches the caller with its type and
    message, a child killed mid-task (say, out of memory) raises
    BrokenProcessPool where a `multiprocessing.Pool` would wait for ever,
    and no child outlives the call.
    """
    global _task
    workers = _worker_count(n_tasks) if algorithm in POOLED_ALGORITHMS else 1
    if workers > 1:
        import multiprocessing   # only here: a serial run does not pay its import
        if ("fork" not in multiprocessing.get_all_start_methods()
                or multiprocessing.current_process().daemon):   # a daemon cannot fork
            workers = 1
    if workers <= 1:
        return [task(i) for i in range(n_tasks)]
    from concurrent.futures import ProcessPoolExecutor

    _entropy_table(int(class_counts[1]), int(class_counts[0]))
    _task = task
    try:
        # A raising task cancels those not started; leaving the block joins every child.
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=fork) as pool:
            return list(pool.map(_run_task, range(n_tasks)))
    finally:
        _task = None


# ---------------------------------------------------------------------------
# Cross-validation


def cross_validate(algorithm: str, matrix: FeatureMatrix, k: int = 10, seed: int = 0,
                   hyperparameters: dict | None = None) -> dict:
    """k-fold CV; metrics computed over the pooled out-of-fold scores."""
    folds = stratified_kfold(matrix, k, seed)
    all_idx = np.arange(matrix.n_users)

    def out_of_fold(i: int) -> np.ndarray:
        model = train(algorithm, matrix.take(np.setdiff1d(all_idx, folds[i])),
                      hyperparameters, seed)
        return model.scores(matrix.values[folds[i]])

    scores = np.empty(matrix.n_users, np.float64)
    for fold, fold_scores in zip(folds, _map_in_order(out_of_fold, k, algorithm,
                                                      matrix.class_counts())):
        scores[fold] = fold_scores
    metrics = confusion_metrics(scores, matrix.labels)
    metrics["auc"] = auc(scores, matrix.labels)
    metrics["algorithm"] = algorithm
    metrics["folds"] = k
    metrics["seed"] = seed
    return {"scores": scores, "metrics": metrics}


# ---------------------------------------------------------------------------
# Imbalanced precision@k protocol


@dataclass(frozen=True)
class ProtocolPlan:
    """Resolved sample sizes for one repetition of the protocol."""

    n_train_shills: int
    n_test_shills: int
    test_benign_per_ratio: dict[int, int]


def protocol_plan(n_shills: int, n_benign: int, ratios=DEFAULT_RATIOS) -> ProtocolPlan:
    if not ratios:
        raise ValueError("ratios is empty: the protocol needs at least one benign:shill ratio")
    n_train = int(n_shills * 0.9)
    n_test = n_shills - n_train
    if n_train < 1 or n_test < 1:
        raise ValueError(f"{n_shills} shills cannot be split 90%/10%")
    per_ratio = {r: r * n_test for r in ratios}
    plan = ProtocolPlan(n_train, n_test, per_ratio)
    for r in ratios:
        if n_benign < n_train + per_ratio[r]:
            raise ValueError(
                f"ratio 1:{r} needs {n_train + per_ratio[r]} benign users "
                f"({n_train} train + {per_ratio[r]} test); only {n_benign} exist")
    return plan


@dataclass
class EvaluationReport:
    """Averaged precision@k curves per ratio, plus run provenance."""

    algorithm: str
    seed: int
    repetitions: int
    rep_seeds: list[int]
    ratios: list[int]
    k_grid: list[int]
    curves: dict[str, list[float]]                  # "1:10" -> mean precision per k
    per_repetition: dict[str, list[list[float]]]    # "1:10" -> [rep][k index]
    test_sizes: dict[str, int]

    def precision_at(self, ratio: int, k: int) -> float:
        return self.curves[f"1:{ratio}"][self.k_grid.index(k)]

    def to_dict(self) -> dict:
        """The fields by name; the curve lists are shared, not copied."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def imbalanced_protocol(matrix: FeatureMatrix, algorithm: str = "RotationForest",
                        ratios=DEFAULT_RATIOS, repetitions: int = 3, seed: int = 0,
                        k_grid=None, hyperparameters: dict | None = None) -> EvaluationReport:
    """The seven-step protocol, averaged over `repetitions`.

    Per repetition r (seed+r): hold out 10% of shills; train on the other
    90% plus equally many benign; draw one benign test pool disjoint from
    training; test set at ratio 1:R = held-out shills + first R*|held-out|
    of the pool; report precision at each k (k past the test size saturates
    to the test size). Each repetition scores one set, the largest test set;
    the smaller sets are prefixes of it and take their rows' scores from it.
    """
    if repetitions < 1:
        raise ValueError(f"the protocol needs at least 1 repetition, not {repetitions}")
    if k_grid is None:
        k_grid = list(range(1, 1001))
    k_grid = sorted(set(int(k) for k in k_grid))
    if not k_grid:
        raise ValueError("k_grid is empty: the protocol needs at least one k")
    ratios = tuple(sorted(ratios))
    order, shills, benign = _id_ranks(matrix)
    plan = protocol_plan(len(shills), len(benign), ratios)

    rep_seeds = [seed + r for r in range(repetitions)]
    test_sizes = {f"1:{r}": plan.n_test_shills + plan.test_benign_per_ratio[r]
                  for r in ratios}

    def repetition(r: int) -> list[list[float]]:
        """Repetition r's precision curve at each ratio."""
        rep_seed = rep_seeds[r]
        rng = np.random.default_rng(rep_seed)
        shill_pick = rng.choice(len(shills), size=plan.n_train_shills, replace=False)
        benign_pick = rng.choice(len(benign), size=plan.n_train_shills, replace=False)
        pool = np.delete(benign, benign_pick)
        pool_pick = rng.choice(len(pool), size=max(plan.test_benign_per_ratio.values()),
                               replace=False)
        train_rows = order[np.sort(np.concatenate([shills[shill_pick], benign[benign_pick]]))]
        # Test sets nest by prefix, so the largest one covers every ratio:
        # the held-out shills, then the pool in draw order.
        test_ranks = np.concatenate([np.delete(shills, shill_pick), pool[pool_pick]])

        model = train(algorithm, matrix.take(train_rows), hyperparameters, seed=rep_seed)
        # Score the largest test set once. A row's score does not depend on
        # the rows scored with it, and the ranking breaks ties by id rank, not
        # row order, so each ratio's test set is a prefix of the scored rows.
        largest = matrix.take(order[test_ranks])
        scores = predict_score(model, largest)
        return [precision_curve(scores[:n], largest.labels[:n], k_grid, test_ranks[:n])
                for n in test_sizes.values()]

    per_rep: dict[str, list[list[float]]] = {label: [] for label in test_sizes}
    n_train = plan.n_train_shills
    for rep_curves in _map_in_order(repetition, repetitions, algorithm, (n_train, n_train)):
        for label, curve in zip(per_rep, rep_curves):
            per_rep[label].append(curve)

    curves = {label: np.mean(np.array(reps), axis=0).tolist()
              for label, reps in per_rep.items()}
    return EvaluationReport(algorithm, seed, repetitions, rep_seeds, list(ratios),
                            list(k_grid), curves, per_rep, test_sizes)


# ---------------------------------------------------------------------------
# Information gain with MDL discretization


def _mdl_accepts(y_sorted: np.ndarray, lo: int, hi: int, cut: int,
                 gain: float, h_all: float, h_l: float, h_r: float) -> bool:
    n = hi - lo
    k = len(np.unique(y_sorted[lo:hi]))
    k1 = len(np.unique(y_sorted[lo:cut]))
    k2 = len(np.unique(y_sorted[cut:hi]))
    delta = math.log2(3 ** k - 2) - (k * h_all - k1 * h_l - k2 * h_r)
    return gain > (math.log2(n - 1) + delta) / n


def _entropy_slice(y: np.ndarray, lo: int, hi: int) -> float:
    return entropy(np.bincount(y[lo:hi], minlength=2))


def _best_cut(x: np.ndarray, y: np.ndarray, lo: int, hi: int):
    """Best entropy cut position in [lo, hi); only at value boundaries."""
    n = hi - lo
    xs = x[lo:hi]
    boundaries = run_starts(xs)[1:]                     # cut before this offset
    if len(boundaries) == 0:
        return None
    ys = y[lo:hi]
    cum_pos = np.cumsum(ys)
    pos_total = cum_pos[-1]
    nl = boundaries
    pos_l = cum_pos[boundaries - 1]
    nr = n - nl
    pos_r = pos_total - pos_l

    h_l = _binary_entropy(pos_l.astype(float), nl.astype(float))
    h_r = _binary_entropy(pos_r.astype(float), nr.astype(float))
    h_all = _entropy_slice(y, lo, hi)
    infos = (nl / n) * h_l + (nr / n) * h_r
    best = int(np.argmin(infos))
    gain = h_all - infos[best]
    return (lo + int(boundaries[best]), gain, h_all,
            float(h_l[best]), float(h_r[best]))


def mdl_discretize(values: np.ndarray, labels: np.ndarray) -> list[float]:
    """Fayyad-Irani entropy cuts with the MDL stopping rule.

    Each accepted cut splits its interval in two, and both halves are tried
    again; an explicit stack holds the pending intervals, so Python's
    recursion limit does not bound how deeply cuts nest.

    Returns ascending cut thresholds (midpoints); empty if no cut survives.
    """
    order = np.argsort(values, kind="stable")
    x, y = values[order], labels[order].astype(np.int64)
    cut_positions: list[int] = []
    stack = [(0, len(x))]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        found = _best_cut(x, y, lo, hi)
        if found is None:
            continue
        cut, gain, h_all, h_l, h_r = found
        if gain <= 0 or not _mdl_accepts(y, lo, hi, cut, gain, h_all, h_l, h_r):
            continue
        cut_positions.append(cut)
        stack += ((lo, cut), (cut, hi))
    return sorted((x[c - 1] + x[c]) / 2.0 for c in cut_positions)


def information_gain(values: np.ndarray, labels: np.ndarray,
                     categorical: bool = False) -> float:
    """IG in bits: H(label) - H(label | binned feature)."""
    labels = np.asarray(labels, np.int64)
    h_label = entropy(np.bincount(labels, minlength=2))
    if categorical:
        _, bin_idx = np.unique(values, return_inverse=True)
    else:
        cuts = mdl_discretize(np.asarray(values, np.float64), labels)
        if not cuts:
            return 0.0
        bin_idx = np.searchsorted(np.array(cuts), values, side="left")
    n = len(labels)
    cond = 0.0
    for b in np.unique(bin_idx):
        mask = bin_idx == b
        cond += (mask.sum() / n) * entropy(np.bincount(labels[mask], minlength=2))
    return max(h_label - cond, 0.0)


def information_gain_ranking(matrix: FeatureMatrix) -> list[tuple[str, float]]:
    """(feature, IG) sorted by IG descending; ties keep feature order."""
    cat_mask = matrix.categorical_mask()
    scored = []
    for f, name in enumerate(matrix.feature_names):
        ig = information_gain(matrix.values[:, f], matrix.labels, bool(cat_mask[f]))
        scored.append((name, ig))
    order = sorted(range(len(scored)), key=lambda i: (-scored[i][1], i))
    return [scored[i] for i in order]


# ---------------------------------------------------------------------------
# Report writers


def write_report_json(report: EvaluationReport, stream) -> None:
    write_json(report.to_dict(), stream)


def write_precision_csv(report: EvaluationReport, stream) -> None:
    stream.write("ratio,k,mean_precision," +
                 ",".join(f"rep{r}" for r in range(report.repetitions)) + "\n")
    for label in (f"1:{r}" for r in report.ratios):
        reps = report.per_repetition[label]
        for j, k in enumerate(report.k_grid):
            per = ",".join(f"{reps[r][j]:.6f}" for r in range(report.repetitions))
            stream.write(f"{label},{k},{report.curves[label][j]:.6f},{per}\n")


_SVG_COLORS = ("#1b6ca8", "#d1495b", "#3a7d44", "#8e5fa8", "#c77d1e", "#4f5d75")
_SVG_WIDTH, _SVG_HEIGHT = 840, 520


def write_precision_svg(report: EvaluationReport, stream) -> None:
    """Deterministic line plot of precision@k per ratio (no plotting deps)."""
    left, right, top, bottom = 70, 190, 40, 60
    plot_w, plot_h = _SVG_WIDTH - left - right, _SVG_HEIGHT - top - bottom
    k_max = max(report.k_grid)

    def sx(k: float) -> float:
        return left + plot_w * (k - 1) / max(k_max - 1, 1)

    def sy(p: float) -> float:
        return top + plot_h * (1.0 - p)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" '
           f'viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
           f'<rect width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
           f'<text x="{left + plot_w / 2:.1f}" y="24" text-anchor="middle" '
           f'font-family="sans-serif" font-size="15">precision@k by benign:shill '
           f'ratio — {report.algorithm}</text>']
    # Axes + grid
    for i in range(11):
        p = i / 10
        y = sy(p)
        out.append(f'<line x1="{left}" y1="{y:.1f}" x2="{left + plot_w}" y2="{y:.1f}" '
                   'stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{left - 8}" y="{y + 4:.1f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{p:.1f}</text>')
    n_xticks = 5
    for i in range(n_xticks + 1):
        k = 1 + (k_max - 1) * i / n_xticks
        x = sx(k)
        out.append(f'<line x1="{x:.1f}" y1="{top + plot_h}" x2="{x:.1f}" '
                   f'y2="{top + plot_h + 5}" stroke="#333333" stroke-width="1"/>')
        out.append(f'<text x="{x:.1f}" y="{top + plot_h + 20}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{int(round(k))}</text>')
    out.append(f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
               'fill="none" stroke="#333333" stroke-width="1"/>')
    out.append(f'<text x="{left + plot_w / 2:.1f}" y="{_SVG_HEIGHT - 18}" text-anchor="middle" '
               'font-family="sans-serif" font-size="13">k</text>')
    # Curves + legend
    for i, r in enumerate(report.ratios):
        label = f"1:{r}"
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        pts = " ".join(f"{sx(k):.2f},{sy(p):.2f}"
                       for k, p in zip(report.k_grid, report.curves[label]))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   'stroke-width="1.8"/>')
        ly = top + 16 + i * 20
        out.append(f'<line x1="{left + plot_w + 14}" y1="{ly - 4}" '
                   f'x2="{left + plot_w + 44}" y2="{ly - 4}" stroke="{color}" '
                   'stroke-width="3"/>')
        out.append(f'<text x="{left + plot_w + 50}" y="{ly}" font-family="sans-serif" '
                   f'font-size="12">{label} (n={report.test_sizes[label]})</text>')
    out.append("</svg>")
    stream.write("\n".join(out) + "\n")
