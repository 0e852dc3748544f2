"""Structural fingerprint of a shill ring in the feedback graph.

Projects the feedback graph onto the labeled shill cohort and onto an
equal-size random benign cohort, then contrasts the two: density,
reciprocity, connected components, and the maximal-clique histogram.
Rings that rate each other up form near-cliques and weld into one big
component; random users form almost nothing.
"""

from argparse import ArgumentParser
from pathlib import Path

import numpy as np

from shilldetect.ecosystem import (
    compare_cohorts,
    ecosystem_report,
    maximal_cliques,
    write_dot,
)
from shilldetect.graphs import build_graphs, project_feedback_graph
from shilldetect.records import decode_ids
from shilldetect.synth import MarketConfig, generate


def main():
    p = ArgumentParser()
    p.add_argument("--users", type=int, default=6000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dot", help="write the shill subgraph as Graphviz DOT here")
    args = p.parse_args()

    corpus = generate(MarketConfig(n_users=args.users, shill_fraction=0.05,
                                   seed=args.seed))
    _, fg = build_graphs(corpus.transactions, corpus.feedback, corpus.profiles)

    shills = sorted(corpus.labels.shill_ids)
    benign_pool = sorted(set(decode_ids(fg.users.ids)) - corpus.labels.shill_ids)
    rng = np.random.default_rng(args.seed)
    benign = sorted(benign_pool[i] for i in
                    rng.choice(len(benign_pool), size=len(shills), replace=False))

    reports = {}
    for name, cohort in (("shill", shills), ("benign", benign)):
        graph = project_feedback_graph(fg, cohort)
        cliques = maximal_cliques(graph)
        reports[name] = ecosystem_report(graph, cliques)
        if name == "shill" and args.dot:
            path = Path(args.dot)
            with open(path, "w") as fh:
                write_dot(graph, fh)
            print(f"shill subgraph -> {path}")

    cmp_ = compare_cohorts(reports["shill"], reports["benign"])
    print(f"\n{'property':<28} {'shill':>12} {'benign':>12}")
    for field, a, b in cmp_.rows:
        fa = f"{a:.5f}" if isinstance(a, float) else str(a)
        fb = f"{b:.5f}" if isinstance(b, float) else str(b)
        print(f"{field:<28} {fa:>12} {fb:>12}")

    if cmp_.clique_table:
        print(f"\n{'clique size':<28} {'shill':>12} {'benign':>12}")
        for size, (a, b) in cmp_.clique_table.items():
            print(f"{size:<28} {a:>12} {b:>12}")
    else:
        print("\nno cliques of size >= 3 in either cohort")

    s, b = reports["shill"], reports["benign"]
    print(f"\nplanted rings: {len(corpus.rings)} "
          f"(sizes {sorted(len(r) for r in corpus.rings)})")
    print(f"verdict: max clique {s.max_clique_size} vs {b.max_clique_size}, "
          f"largest component holds {s.largest_component_fraction:.1%} of "
          f"shills vs {b.largest_component_fraction:.1%} of the benign sample")


if __name__ == "__main__":
    main()
