"""Feedback-graph ecosystem study: clique structure and cohort contrast.

Maximal cliques are enumerated on the undirected view of the projected
feedback graph (edge {u,v} iff feedback flowed either way) with the
Bron-Kerbosch algorithm, pivoted and driven by a degeneracy ordering so
million-link graphs stay tractable. Reports collect the structural
statistics that separate coordinated shill rings from organic trading:
density, component structure, reciprocity, and the clique-size histogram.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field

import numpy as np

from .records import decode_ids
from .graphs import (
    FeedbackMultigraph,
    UserIndex,
    WeightedFeedbackGraph,
    bidirectional_link_count,
    connected_components,
    graph_density,
)


class CliqueLimitError(RuntimeError):
    """Enumeration aborted: the graph has more maximal cliques than allowed."""


def _undirected_adjacency(graph: WeightedFeedbackGraph) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(graph.n_vertices)]
    for s, d in zip(graph.src.tolist(), graph.dst.tolist()):
        adj[s].add(d)
        adj[d].add(s)
    return adj


def _degeneracy_order(adj: list[set[int]]) -> list[int]:
    """Repeated min-degree removal; ties resolve to the lowest vertex index."""
    n = len(adj)
    degree = [len(a) for a in adj]
    heap = [(degree[v], v) for v in range(n)]
    heapq.heapify(heap)
    removed = [False] * n
    order = []
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != degree[v]:
            continue
        removed[v] = True
        order.append(v)
        for u in adj[v]:
            if not removed[u]:
                degree[u] -= 1
                heapq.heappush(heap, (degree[u], u))
    return order


def maximal_cliques(graph: WeightedFeedbackGraph,
                    limit: int = 10_000_000) -> list[frozenset[int]]:
    """All maximal cliques of the undirected view, singletons included.

    Raises CliqueLimitError past `limit` cliques (dense misconfigured inputs
    can explode combinatorially; 10^7 is far beyond any sane marketplace).
    """
    adj = _undirected_adjacency(graph)
    order = _degeneracy_order(adj)
    rank = {v: i for i, v in enumerate(order)}
    out: list[frozenset[int]] = []

    def report(clique: frozenset[int]) -> None:
        out.append(clique)
        if len(out) > limit:
            raise CliqueLimitError(f"more than {limit} maximal cliques; "
                                   "raise the limit only if this is intended")

    def expand(r: set[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            report(frozenset(r))
            return
        # Tomita pivot: the candidate covering most of P, lowest index on ties.
        pivot = min(p | x, key=lambda u: (-len(adj[u] & p), u))
        for v in sorted(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p.remove(v)
            x.add(v)

    for v in order:
        later = {u for u in adj[v] if rank[u] > rank[v]}
        earlier = adj[v] - later
        expand({v}, later, earlier)
    return out


def clique_size_histogram(cliques, min_size: int = 3) -> dict[int, int]:
    hist: dict[int, int] = {}
    for c in cliques:
        if len(c) >= min_size:
            hist[len(c)] = hist.get(len(c), 0) + 1
    return dict(sorted(hist.items()))


# ---------------------------------------------------------------------------


@dataclass
class EcosystemReport:
    """Structural statistics of one cohort's feedback graph."""

    cohort_size: int
    weight_mode: str
    total_feedback: int                 # feedback links inside the cohort
    positive_feedback: int
    negative_feedback: int
    non_isolated: int
    n_links: int
    avg_link_weight: float
    max_link_weight: int
    min_link_weight: int
    bidirectional_links: int
    self_loops: int
    density: float
    component_count: int
    largest_component_size: int
    largest_component_fraction: float   # denominator: full cohort incl. isolated
    max_clique_size: int
    clique_count: int                   # maximal cliques of size >= 3
    clique_histogram: dict[int, int]    # size -> count, sizes >= 3
    small_clique_counts: dict[int, int] = field(default_factory=dict)  # sizes 1-2

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        d["clique_histogram"] = {str(k): v for k, v in self.clique_histogram.items()}
        d["small_clique_counts"] = {str(k): v for k, v in self.small_clique_counts.items()}
        return d


def ecosystem_report(graph: WeightedFeedbackGraph, feedback: FeedbackMultigraph, cohort,
                     cliques: list[frozenset[int]] | None = None) -> EcosystemReport:
    """Populate the report for `cohort`, whose projection of `feedback` is `graph`.

    The total/positive/negative counts tally every feedback link with both
    endpoints in the cohort (self-feedback included there, though the
    projection drops it). Pass precomputed `cliques` to avoid re-enumeration.
    """
    cohort = decode_ids(UserIndex(cohort).ids)
    if not cohort:
        raise ValueError("cohort is empty")
    if graph.node_ids != cohort:
        raise ValueError("graph was not projected over this cohort")
    member = np.zeros(feedback.n_vertices, bool)
    member[feedback.users.positions(cohort)] = True
    ratings = feedback.rating[member[feedback.giver] & member[feedback.receiver]]
    total = len(ratings)
    pos = int(np.count_nonzero(ratings > 0))
    neg = int(np.count_nonzero(ratings < 0))

    comps = connected_components(graph)
    if cliques is None:
        cliques = maximal_cliques(graph)
    hist = clique_size_histogram(cliques)
    small = {s: sum(1 for c in cliques if len(c) == s) for s in (1, 2)}
    w = graph.weight
    return EcosystemReport(
        cohort_size=len(cohort),
        weight_mode=graph.weight_mode,
        total_feedback=total,
        positive_feedback=pos,
        negative_feedback=neg,
        non_isolated=graph.n_non_isolated,
        n_links=graph.n_links,
        avg_link_weight=float(w.mean()) if len(w) else 0.0,
        max_link_weight=int(w.max()) if len(w) else 0,
        min_link_weight=int(w.min()) if len(w) else 0,
        bidirectional_links=bidirectional_link_count(graph),
        self_loops=graph.self_loops,
        density=graph_density(graph),
        component_count=comps.count,
        largest_component_size=comps.largest,
        largest_component_fraction=comps.largest / len(cohort),
        max_clique_size=max((len(c) for c in cliques), default=0),
        clique_count=sum(hist.values()),
        clique_histogram=hist,
        small_clique_counts=small,
    )


# ---------------------------------------------------------------------------
# Cohort comparison


_COMPARE_FIELDS = (
    "cohort_size", "total_feedback", "positive_feedback", "negative_feedback",
    "non_isolated", "n_links", "avg_link_weight", "max_link_weight",
    "min_link_weight", "bidirectional_links", "self_loops", "density",
    "component_count", "largest_component_size", "largest_component_fraction",
    "max_clique_size", "clique_count",
)


@dataclass
class CohortComparison:
    name_a: str
    name_b: str
    rows: list[tuple[str, float, float]]
    clique_table: dict[int, tuple[int, int]]    # size -> (count_a, count_b)
    headline: dict[str, tuple[float, float]]

    def to_dict(self) -> dict:
        return {
            "cohorts": [self.name_a, self.name_b],
            "rows": [{"field": f, self.name_a: a, self.name_b: b}
                     for f, a, b in self.rows],
            "clique_table": {str(s): {self.name_a: a, self.name_b: b}
                             for s, (a, b) in self.clique_table.items()},
            "headline": {k: {self.name_a: a, self.name_b: b}
                         for k, (a, b) in self.headline.items()},
        }


def compare_cohorts(report_a: EcosystemReport, report_b: EcosystemReport,
                    name_a: str = "shill", name_b: str = "benign") -> CohortComparison:
    rows = [(f, getattr(report_a, f), getattr(report_b, f)) for f in _COMPARE_FIELDS]
    sizes = sorted(set(report_a.clique_histogram) | set(report_b.clique_histogram))
    clique_table = {s: (report_a.clique_histogram.get(s, 0),
                        report_b.clique_histogram.get(s, 0)) for s in sizes}
    headline = {
        "largest_component_fraction": (report_a.largest_component_fraction,
                                       report_b.largest_component_fraction),
        "max_clique_size": (report_a.max_clique_size, report_b.max_clique_size),
    }
    return CohortComparison(name_a, name_b, rows, clique_table, headline)


# ---------------------------------------------------------------------------
# Writers


def write_ecosystem_json(report: EcosystemReport, stream) -> None:
    json.dump(report.to_dict(), stream, indent=2, sort_keys=True)
    stream.write("\n")


def write_ecosystem_csv(report: EcosystemReport, stream) -> None:
    stream.write("field,value\n")
    for key, value in report.to_dict().items():
        if isinstance(value, dict):
            for k, v in value.items():
                stream.write(f"{key}[{k}],{v}\n")
        else:
            stream.write(f"{key},{value}\n")


def write_comparison_csv(cmp: CohortComparison, stream) -> None:
    stream.write(f"field,{cmp.name_a},{cmp.name_b}\n")
    for f, a, b in cmp.rows:
        stream.write(f"{f},{a},{b}\n")
    for s, (a, b) in cmp.clique_table.items():
        stream.write(f"cliques_size_{s},{a},{b}\n")


def write_clique_list(cliques, node_ids, stream, min_size: int = 3) -> None:
    """One clique per line, members space-separated; big cliques first."""
    named = sorted((sorted(node_ids[v] for v in c) for c in cliques
                    if len(c) >= min_size),
                   key=lambda ids: (-len(ids), ids))
    for ids in named:
        stream.write(" ".join(ids) + "\n")


def write_dot(graph: WeightedFeedbackGraph, stream) -> None:
    """Graphviz DOT of the weighted projection (external rendering)."""
    stream.write("digraph feedback {\n")
    for node in graph.node_ids:
        stream.write(f'  "{node}";\n')
    for s, d, w in zip(graph.src, graph.dst, graph.weight):
        stream.write(f'  "{graph.node_ids[s]}" -> "{graph.node_ids[d]}" '
                     f'[weight={w}, label={w}];\n')
    stream.write("}\n")
