"""What actually separates ring members from ordinary traders?

Prints the shill/benign ratio of each numeric feature's cohort mean and
median, then the information-gain ranking computed on a balanced sample.
Ratios near 1 mean the feature is camouflaged; the discriminative signal
lives in the features whose ratios stray far from 1 and in their joint
structure.
"""

from argparse import ArgumentParser

from shilldetect.evaluation import balanced_training_sample, information_gain_ranking
from shilldetect.features import cohort_feature_ratios, extract_all
from shilldetect.graphs import build_graphs
from shilldetect.synth import MarketConfig, generate


def fmt(x):
    if x != x:
        return "nan"
    if x in (float("inf"), float("-inf")):
        return "inf" if x > 0 else "-inf"
    return f"{x:6.2f}"


def main():
    p = ArgumentParser()
    p.add_argument("--users", type=int, default=4000)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()

    corpus = generate(MarketConfig(n_users=args.users, shill_fraction=0.05,
                                   seed=args.seed))
    tg, fg = build_graphs(corpus.transactions, corpus.feedback, corpus.profiles)
    matrix = extract_all(tg.users.ids, tg, fg, corpus.profiles, corpus.labels)

    print("shill/benign cohort ratios (1.00 = indistinguishable)\n")
    print(f"{'feature':<22} {'mean':>8} {'median':>8}")
    for name, r in cohort_feature_ratios(matrix).items():
        print(f"{name:<22} {fmt(r['mean_ratio']):>8} {fmt(r['median_ratio']):>8}")

    sample = balanced_training_sample(matrix, seed=args.seed)
    ranking = information_gain_ranking(sample)
    print("\ntop 10 features by information gain (balanced sample)\n")
    for name, gain in ranking[:10]:
        bar = "#" * int(round(gain * 40))
        print(f"{name:<22} {gain:.3f}  {bar}")
    zeros = sum(1 for _, g in ranking if g == 0.0)
    print(f"\n{zeros} of {len(ranking)} features carry no usable signal alone")


if __name__ == "__main__":
    main()
