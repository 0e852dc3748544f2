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
from dataclasses import dataclass, fields

from .graphs import (
    WeightedFeedbackGraph,
    bidirectional_link_count,
    connected_components,
    graph_density,
)
from .records import write_json


# Cliques below this size are left out of the histograms and the clique lists.
MIN_CLIQUE_SIZE = 3

# The two cohorts a comparison contrasts, in column order.
COHORTS = ("shill", "benign")


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
    for v in order:
        later = {u for u in adj[v] if rank[u] > rank[v]}
        # Bron-Kerbosch calls (R, P, X), depth first on an explicit stack, so
        # that Python's recursion limit does not bound the clique size.
        stack = [({v}, later, adj[v] - later)]
        while stack:
            r, p, x = stack.pop()
            if not p and not x:
                out.append(frozenset(r))
                if len(out) > limit:
                    raise CliqueLimitError(f"more than {limit} maximal cliques; "
                                           "raise the limit only if this is intended")
                continue
            # Tomita pivot: the candidate covering most of P, lowest index on ties.
            pivot = min(p | x, key=lambda u: (-len(adj[u] & p), u))
            calls = []
            for u in sorted(p - adj[pivot]):
                calls.append((r | {u}, p & adj[u], x & adj[u]))
                p.remove(u)
                x.add(u)
            stack += reversed(calls)           # the first call is taken first
    return out


def clique_size_histogram(cliques) -> dict[int, int]:
    hist: dict[int, int] = {}
    for c in cliques:
        if len(c) >= MIN_CLIQUE_SIZE:
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
    clique_count: int                   # maximal cliques of size >= MIN_CLIQUE_SIZE
    clique_histogram: dict[int, int]    # size -> count, sizes >= MIN_CLIQUE_SIZE
    small_clique_counts: dict[int, int]  # size -> count, smaller sizes from 1

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        d["clique_histogram"] = {str(k): v for k, v in self.clique_histogram.items()}
        d["small_clique_counts"] = {str(k): v for k, v in self.small_clique_counts.items()}
        return d


def ecosystem_report(graph: WeightedFeedbackGraph,
                     cliques: list[frozenset[int]]) -> EcosystemReport:
    """The report for the cohort `graph` was projected over, whose maximal
    cliques are `cliques`.

    The feedback tallies are the projection's: every rating with both ends
    in the cohort, self-feedback included, though the links drop it.
    """
    if not graph.n_vertices:
        raise ValueError("cohort is empty")
    comps = connected_components(graph)
    hist = clique_size_histogram(cliques)
    small = {s: sum(1 for c in cliques if len(c) == s) for s in range(1, MIN_CLIQUE_SIZE)}
    w = graph.weight
    return EcosystemReport(
        cohort_size=graph.n_vertices,
        weight_mode=graph.weight_mode,
        total_feedback=graph.total_feedback,
        positive_feedback=graph.positive_feedback,
        negative_feedback=graph.negative_feedback,
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
        largest_component_fraction=comps.largest / graph.n_vertices,
        max_clique_size=max((len(c) for c in cliques), default=0),
        clique_count=sum(hist.values()),
        clique_histogram=hist,
        small_clique_counts=small,
    )


# ---------------------------------------------------------------------------
# Cohort comparison


_COMPARE_FIELDS = tuple(f.name for f in fields(EcosystemReport) if f.type in ("int", "float"))


@dataclass
class CohortComparison:
    """Two reports side by side; every pair is (shill, benign), as in COHORTS."""

    rows: list[tuple[str, float, float]]
    clique_table: dict[int, tuple[int, int]]    # size -> (shill count, benign count)
    headline: dict[str, tuple[float, float]]

    def to_dict(self) -> dict:
        a, b = COHORTS
        return {
            "cohorts": list(COHORTS),
            "rows": [{"field": f, a: x, b: y} for f, x, y in self.rows],
            "clique_table": {str(s): {a: x, b: y}
                             for s, (x, y) in self.clique_table.items()},
            "headline": {k: {a: x, b: y} for k, (x, y) in self.headline.items()},
        }


def compare_cohorts(shill: EcosystemReport, benign: EcosystemReport) -> CohortComparison:
    rows = [(f, getattr(shill, f), getattr(benign, f)) for f in _COMPARE_FIELDS]
    sizes = sorted(set(shill.clique_histogram) | set(benign.clique_histogram))
    clique_table = {s: (shill.clique_histogram.get(s, 0), benign.clique_histogram.get(s, 0))
                    for s in sizes}
    headline = {
        "largest_component_fraction": (shill.largest_component_fraction,
                                       benign.largest_component_fraction),
        "max_clique_size": (shill.max_clique_size, benign.max_clique_size),
    }
    return CohortComparison(rows, clique_table, headline)


# ---------------------------------------------------------------------------
# Writers


def write_ecosystem_json(report: EcosystemReport, stream) -> None:
    write_json(report.to_dict(), stream)


def write_ecosystem_csv(report: EcosystemReport, stream) -> None:
    stream.write("field,value\n")
    for key, value in report.to_dict().items():
        if isinstance(value, dict):
            for k, v in value.items():
                stream.write(f"{key}[{k}],{v}\n")
        else:
            stream.write(f"{key},{value}\n")


def write_comparison_csv(cmp: CohortComparison, stream) -> None:
    stream.write(f"field,{','.join(COHORTS)}\n")
    for f, a, b in cmp.rows:
        stream.write(f"{f},{a},{b}\n")
    for s, (a, b) in cmp.clique_table.items():
        stream.write(f"cliques_size_{s},{a},{b}\n")


def write_clique_list(cliques, node_ids, stream) -> None:
    """One clique per line, members space-separated; big cliques first."""
    named = sorted((sorted(node_ids[v] for v in c) for c in cliques
                    if len(c) >= MIN_CLIQUE_SIZE),
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
