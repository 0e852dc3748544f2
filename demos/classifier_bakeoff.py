"""Cross-validated comparison of all seven learners on one corpus.

Each algorithm gets the same balanced sample and the same fold split, so
the table isolates the modeling differences: the single-rule baseline,
the probabilistic and instance-based learners, a single pruned tree, and
the three tree ensembles.
"""

import time
from argparse import ArgumentParser

from shilldetect.classifiers import ALGORITHMS
from shilldetect.evaluation import balanced_training_sample, cross_validate
from shilldetect.features import extract_all
from shilldetect.graphs import build_graphs
from shilldetect.synth import MarketConfig, generate


def main():
    p = ArgumentParser()
    p.add_argument("--users", type=int, default=4000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--folds", type=int, default=10)
    args = p.parse_args()

    corpus = generate(MarketConfig(n_users=args.users, shill_fraction=0.05), seed=args.seed)
    tg, fg = build_graphs(corpus.transactions, corpus.feedback, corpus.profiles)
    matrix = extract_all(tg.users.ids, tg, fg, corpus.profiles, corpus.labels)
    sample = balanced_training_sample(matrix, seed=args.seed)
    print(f"{sample.n_users} balanced rows, {args.folds}-fold cross-validation\n")

    print(f"{'algorithm':<16} {'tp_rate':>8} {'fp_rate':>8} {'f1':>7} "
          f"{'auc':>7} {'secs':>6}")
    rows = []
    for algorithm in ALGORITHMS:
        t0 = time.perf_counter()
        m = cross_validate(algorithm, sample, k=args.folds,
                           seed=args.seed)["metrics"]
        secs = time.perf_counter() - t0
        rows.append((algorithm, m["auc"]))
        print(f"{algorithm:<16} {m['tp_rate']:>8.3f} {m['fp_rate']:>8.3f} "
              f"{m['f_measure']:>7.3f} {m['auc']:>7.3f} {secs:>6.1f}")

    best = max(rows, key=lambda r: r[1])
    base = dict(rows)["OneR"]
    print(f"\nbest: {best[0]} (AUC {best[1]:.3f}, "
          f"+{best[1] - base:.3f} over the one-rule baseline)")


if __name__ == "__main__":
    main()
