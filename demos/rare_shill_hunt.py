"""Precision at the top of the queue when shills are genuinely rare.

Cross-validation on a balanced sample flatters every classifier. This demo
runs the imbalanced protocol instead: train on 90% of the shills plus an
equal benign draw, then score test pools where shills are outnumbered
1:2 up to 1:100, and report how pure the top of the ranked queue stays.
That is the number an investigation team actually cares about.
"""

from argparse import ArgumentParser
from pathlib import Path

from shilldetect.evaluation import (
    imbalanced_protocol,
    write_precision_csv,
    write_precision_svg,
    write_report_json,
)
from shilldetect.features import extract_all
from shilldetect.graphs import build_graphs
from shilldetect.synth import MarketConfig, generate


def main():
    p = ArgumentParser()
    p.add_argument("--users", type=int, default=8000)
    p.add_argument("--algorithm", default="RotationForest")
    p.add_argument("--ratios", default="2,5,10,20,100")
    p.add_argument("--repetitions", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="optional directory for json/csv/svg artifacts")
    args = p.parse_args()

    corpus = generate(MarketConfig(n_users=args.users, shill_fraction=0.05), seed=args.seed)
    tg, fg = build_graphs(corpus.transactions, corpus.feedback, corpus.profiles)
    matrix = extract_all(tg.users.ids, tg, fg, corpus.profiles, corpus.labels)

    ratios = tuple(int(r) for r in args.ratios.split(","))
    report = imbalanced_protocol(matrix, args.algorithm, ratios=ratios,
                                 repetitions=args.repetitions, seed=args.seed,
                                 k_grid=range(1, 201))

    ks = (1, 10, 50, 100, 200)
    print(f"{args.algorithm}, mean precision@k over "
          f"{args.repetitions} repetitions\n")
    print("ratio  " + "".join(f"  p@{k:<5}" for k in ks))
    for r in ratios:
        row = "".join(f"  {report.precision_at(r, k):<7.3f}" for k in ks)
        print(f"1:{r:<4} {row}")
    print(f"\ntest-pool sizes: "
          + ", ".join(f"1:{r}={report.test_sizes[f'1:{r}']}" for r in ratios))

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "report.json", "w") as fh:
            write_report_json(report, fh)
        with open(out / "precision.csv", "w") as fh:
            write_precision_csv(report, fh)
        with open(out / "precision.svg", "w") as fh:
            write_precision_svg(report, fh)
        print(f"artifacts -> {out}")


if __name__ == "__main__":
    main()
