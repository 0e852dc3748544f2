"""End-to-end tour on a small synthetic market.

Generates a labeled marketplace, extracts the 31 per-user features, trains
a Rotation Forest on a balanced sample, then ranks every user by shill
likelihood and checks the top of the list against the planted ground truth.
Everything is seeded, so two runs print the same numbers.
"""

from argparse import ArgumentParser

from shilldetect.classifiers import predict_score, train
from shilldetect.evaluation import balanced_training_sample, precision_at_k, rank_users
from shilldetect.features import extract_all
from shilldetect.graphs import build_graphs
from shilldetect.synth import MarketConfig, generate


def main():
    p = ArgumentParser()
    p.add_argument("--users", type=int, default=2000)
    p.add_argument("--shill-fraction", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--top", type=int, default=15)
    args = p.parse_args()

    config = MarketConfig(n_users=args.users, shill_fraction=args.shill_fraction,
                          seed=args.seed)
    corpus = generate(config)
    print(f"market: {len(corpus.profiles)} users, "
          f"{len(corpus.transactions)} transactions, "
          f"{len(corpus.feedback)} feedback records, "
          f"{len(corpus.labels)} shills in {len(corpus.rings)} rings")

    tg, fg = build_graphs(corpus.transactions, corpus.feedback, corpus.profiles)
    matrix = extract_all(tg.users.ids, tg, fg, corpus.profiles, corpus.labels)
    print(f"features: {matrix.n_users} x {len(matrix.feature_names)}")

    sample = balanced_training_sample(matrix, seed=args.seed)
    model = train("RotationForest", sample, seed=args.seed)
    scores = predict_score(model, matrix)

    order = rank_users(scores, matrix.user_ids)
    print("\nrank  user       score  truth")
    for rank, pos in enumerate(order[:args.top], 1):
        uid = matrix.user_ids[pos]
        truth = "SHILL" if matrix.labels[pos] else "-"
        print(f"{rank:>4}  {uid:<9}  {scores[pos]:.3f}  {truth}")

    k = min(50, len(corpus.labels))
    p_at_k = precision_at_k(scores, matrix.labels, k, matrix.user_ids)
    print(f"\nprecision@{k}: {p_at_k:.3f} "
          f"(baseline if guessing: {len(corpus.labels) / matrix.n_users:.3f})")


if __name__ == "__main__":
    main()
