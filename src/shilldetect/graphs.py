"""Interaction graphs over marketplace users.

Two directed multigraphs are built from the corpus tables: the
transaction graph (links buyer -> seller, one per transaction) and the
feedback graph (links giver -> receiver, one per rating). Each is a set of
parallel numpy edge arrays (one entry per link) over a shared dense vertex
index, so per-vertex aggregates over million-link graphs are single
bincount or ufunc.at passes. Building them finds each table's distinct ids
among the sorted vertex ids by binary search and gathers the id codes into
vertex positions; no row is visited one at a time. A weighted
simple-graph projection of the feedback multigraph over a user subset
supports the ecosystem statistics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .records import (FeedbackTable, ProfileTable, TransactionTable, _decimal, _write_table,
                      decode_ids, encode_ids, sorted_find)


def run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal values in a sorted array."""
    new = np.ones(len(sorted_keys), bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new[1:])
    return np.flatnonzero(new)


def run_numbers(sorted_keys: np.ndarray) -> np.ndarray:
    """The number of the run of equal values that each position of a sorted
    array, or of each sorted line of a 2-D one, is in, counted from 0. Runs
    are found by `!=`, so -0.0 and 0.0 share one."""
    runs = np.empty(sorted_keys.shape, np.int64)
    runs[..., :1] = 0
    np.not_equal(sorted_keys[..., 1:], sorted_keys[..., :-1], out=runs[..., 1:])
    return np.cumsum(runs, axis=-1, out=runs)


def stable_argsort(keys: np.ndarray) -> np.ndarray:
    """np.argsort(keys, axis=-1, kind="stable") for keys without NaN, from
    numpy's unstable argsort, which is faster, plus one repair of ties.

    The unstable argsort leaves each run of equal keys in any order. The
    values run * n + position, n the line length, are sorted again: a run's
    values lie below the next run's, so each stays at a position of its run,
    where it orders by position; the value minus run * n is the position.
    """
    order = np.argsort(keys)
    offsets = run_numbers(np.take_along_axis(keys, order, axis=-1))
    offsets *= keys.shape[-1]
    order += offsets
    order.sort(axis=-1)
    order -= offsets
    return order


def reciprocated(sorted_keys: np.ndarray, n: int) -> np.ndarray:
    """Whether the reverse of each link key src * n + dst (ascending) is a
    key too. A key's reverse is a key exactly when the key is among the
    reverses, so the sorted keys are looked up, in order, among the sorted
    reverses."""
    return sorted_find(np.sort(sorted_keys % n * n + sorted_keys // n), sorted_keys)[1]


class UserIndex:
    """Dense vertex positions of user ids, from str ids or bytes arrays: ids
    holds each distinct id once as UTF-8 bytes (numpy `S`), sorted."""

    __slots__ = ("ids",)

    def __init__(self, ids):
        # A stable sort merges the sorted arrays a graph is built from in linear time.
        ids = np.sort(encode_ids(ids), kind="stable")
        self.ids: np.ndarray = ids[run_starts(ids)]

    def positions(self, user_ids) -> np.ndarray:
        """The position of each id; KeyError names the first unknown one."""
        keys = encode_ids(user_ids)
        pos, found = sorted_find(self.ids, keys)
        if not found.all():
            raise KeyError(f"unknown user id {keys[np.argmin(found)].decode()!r}")
        return pos

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class TransactionMultigraph:
    """Directed multigraph of buying transactions (buyer -> seller)."""

    users: UserIndex
    buyer: np.ndarray        # edge -> buyer position
    seller: np.ndarray       # edge -> seller position
    quantity: np.ndarray
    price_cents: np.ndarray  # unit price
    ts: np.ndarray           # epoch seconds, UTC

    @property
    def n_vertices(self) -> int:
        return len(self.users)

    @property
    def n_links(self) -> int:
        return len(self.buyer)

    def amount_cents(self) -> np.ndarray:
        # Transaction total q*p per link; derived on demand.
        return self.quantity * self.price_cents


@dataclass(frozen=True)
class FeedbackMultigraph:
    """Directed multigraph of ratings (giver -> receiver)."""

    users: UserIndex
    giver: np.ndarray
    receiver: np.ndarray
    rating: np.ndarray       # each in {-1, 0, +1}

    @property
    def n_vertices(self) -> int:
        return len(self.users)

    @property
    def n_links(self) -> int:
        return len(self.giver)


def _in_use(ids: np.ndarray, *codes: np.ndarray) -> np.ndarray:
    """The ids of `ids` that some code array uses."""
    used = np.zeros(len(ids), bool)
    for c in codes:
        used[c] = True
    return ids[used]


def _vertices(users: UserIndex, ids: np.ndarray, *codes: np.ndarray) -> list[np.ndarray]:
    """Each code array into `ids`, gathered into vertex positions."""
    pos, found = sorted_find(users.ids, ids)
    for c in codes:
        if not found[c].all():
            raise KeyError(f"unknown user id {ids[c[np.argmin(found[c])]].decode()!r}")
    return [pos[c] for c in codes]


def build_feedback_graph(table: FeedbackTable, users: UserIndex) -> FeedbackMultigraph:
    """The feedback multigraph over `users`, which must hold every id a row uses."""
    giver, receiver = _vertices(users, table.user_ids, table.giver, table.receiver)
    return FeedbackMultigraph(users, giver, receiver, table.rating)


def build_graphs(transactions: TransactionTable, feedback: FeedbackTable,
                 profiles: ProfileTable):
    """Both multigraphs over one shared vertex set: every id the tables use,
    plus every profiled user."""
    t = transactions
    users = UserIndex(np.concatenate([
        _in_use(t.user_ids, t.buyer, t.seller),
        _in_use(feedback.user_ids, feedback.giver, feedback.receiver),
        profiles.user_ids]))
    buyer, seller = _vertices(users, t.user_ids, t.buyer, t.seller)
    return (TransactionMultigraph(users, buyer, seller, t.quantity, t.price_cents, t.ts),
            build_feedback_graph(feedback, users))


# ---------------------------------------------------------------------------
# Weighted simple-graph projection of the feedback multigraph


@dataclass(frozen=True)
class WeightedFeedbackGraph:
    """Simple directed weighted graph over a user subset (the cohort).

    weight_mode "count": link weight = number of parallel feedback links.
    weight_mode "rating_sum": link weight = sum of ratings (can be negative).
    Self-loops are excluded from the links and counted separately. The
    feedback tallies count every rating with both ends in the cohort,
    self-loops included.
    """

    node_ids: list[str]      # sorted subset
    src: np.ndarray          # positions into node_ids, pair-unique
    dst: np.ndarray
    weight: np.ndarray       # int64
    weight_mode: str
    self_loops: int          # raw self-feedback records dropped
    total_feedback: int
    positive_feedback: int
    negative_feedback: int

    @property
    def n_vertices(self) -> int:
        return len(self.node_ids)

    @property
    def n_links(self) -> int:
        return len(self.src)

    def non_isolated_mask(self) -> np.ndarray:
        mask = np.zeros(self.n_vertices, dtype=bool)
        mask[self.src] = True
        mask[self.dst] = True
        return mask

    @property
    def n_non_isolated(self) -> int:
        return int(self.non_isolated_mask().sum())


def project_feedback_graph(graph: FeedbackMultigraph, subset,
                           weight_mode: str = "rating_sum") -> WeightedFeedbackGraph:
    """Collapse parallel feedback links within `subset` into weighted links."""
    if weight_mode not in ("count", "rating_sum"):
        raise ValueError(f"weight_mode must be 'count' or 'rating_sum', got {weight_mode!r}")
    subset = UserIndex(subset).ids
    pos, found = sorted_find(graph.users.ids, subset)
    if not found.all():
        raise KeyError(f"{np.count_nonzero(~found)} subset ids not in graph, "
                       f"e.g. {decode_ids(subset[~found][:5])}")
    node_ids = decode_ids(subset)
    remap = np.full(graph.n_vertices, -1, dtype=np.int64)
    remap[pos] = np.arange(len(node_ids), dtype=np.int64)

    g = remap[graph.giver]
    r = remap[graph.receiver]
    keep = (g >= 0) & (r >= 0)
    g, r = g[keep], r[keep]
    ratings = graph.rating[keep]
    tallies = (len(ratings), int(np.count_nonzero(ratings > 0)),
               int(np.count_nonzero(ratings < 0)))
    loops = g == r
    self_loops = int(loops.sum())
    if self_loops:
        g, r, ratings = g[~loops], r[~loops], ratings[~loops]

    k = max(len(node_ids), 1)
    pair_keys = g * k + r
    order = np.argsort(pair_keys)
    pair_keys = pair_keys[order]
    starts = run_starts(pair_keys)
    uniq = pair_keys[starts]
    if weight_mode == "count":
        weight = np.diff(starts, append=len(pair_keys))
    elif len(starts):
        weight = np.add.reduceat(ratings[order], starts)
    else:
        weight = np.zeros(0, dtype=np.int64)
    return WeightedFeedbackGraph(node_ids, uniq // k, uniq % k, weight,
                                 weight_mode, self_loops, *tallies)


def graph_density(graph: WeightedFeedbackGraph) -> float:
    """m / (n*(n-1)) with n the number of non-isolated vertices."""
    n = graph.n_non_isolated
    if n <= 1:
        return 0.0
    return graph.n_links / (n * (n - 1))


@dataclass(frozen=True)
class ComponentPartition:
    """Undirected components of the non-isolated vertices.

    labels[v] is the component id of vertex v, or -1 for isolated vertices.
    sizes is sorted descending, so sizes[0] is the largest component.
    """

    labels: np.ndarray
    sizes: np.ndarray
    isolated: int

    @property
    def count(self) -> int:
        return len(self.sizes)

    @property
    def largest(self) -> int:
        return int(self.sizes[0]) if len(self.sizes) else 0


def _lowest_vertex_labels(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Label every vertex with the lowest vertex id of its undirected component.

    Each round hooks the two roots of every link to the smaller of them, then
    pointer-jumps until every label is a root; a round that changes nothing
    leaves one root per component, and a root is its component's lowest vertex
    because labels only ever fall.
    """
    labels = np.arange(n, dtype=np.int64)
    while True:
        ra, rb = labels[a], labels[b]
        low = np.minimum(ra, rb)
        hooked = labels.copy()
        np.minimum.at(hooked, ra, low)
        np.minimum.at(hooked, rb, low)
        while True:
            jumped = hooked[hooked]
            if np.array_equal(jumped, hooked):
                break
            hooked = jumped
        if np.array_equal(hooked, labels):
            return labels
        labels = hooked


def connected_components(graph: WeightedFeedbackGraph) -> ComponentPartition:
    n = graph.n_vertices
    non_isolated = graph.non_isolated_mask()
    isolated = n - int(non_isolated.sum())
    if n == 0 or graph.n_links == 0:
        return ComponentPartition(np.full(n, -1, np.int64), np.zeros(0, np.int64), isolated)
    raw = _lowest_vertex_labels(n, graph.src, graph.dst)
    # Renumber so that only components containing links survive, sizes
    # descending with ties in lowest-vertex order; an isolated vertex is a
    # component of its own and maps to -1.
    used = np.sort(raw[non_isolated])
    starts = run_starts(used)
    used, counts = used[starts], np.diff(starts, append=len(used))
    order = np.argsort(-counts, kind="stable")
    rank = np.full(n, -1, dtype=np.int64)
    rank[used[order]] = np.arange(len(used), dtype=np.int64)
    return ComponentPartition(rank[raw], counts[order].astype(np.int64), isolated)


def bidirectional_link_count(graph: WeightedFeedbackGraph) -> int:
    """Ordered count of links whose reverse also exists; even, since no self-loops."""
    if graph.n_links == 0:
        return 0
    k = max(graph.n_vertices, 1)
    return int(np.count_nonzero(reciprocated(np.sort(graph.src * k + graph.dst), k)))


# ---------------------------------------------------------------------------
# Exports


def write_edgelist_csv(graph: WeightedFeedbackGraph, stream) -> None:
    """The links as `src,dst,weight` CSV, ids quoted as the corpus CSVs quote them."""
    _write_table(stream, "csv", ("src", "dst", "weight"), [
        (graph.node_ids, graph.src), (graph.node_ids, graph.dst), (_decimal, graph.weight)])


# Characters XML 1.0 cannot hold, even as references.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def write_graphml(graph: WeightedFeedbackGraph, stream) -> None:
    """Minimal GraphML (directed, integer `weight` attribute on edges).

    Tabs and line breaks in an id are written as character references,
    since an attribute value reads them back as spaces; an id holding a
    character XML 1.0 cannot hold raises ValueError before anything is
    written."""
    from xml.sax.saxutils import escape
    for node in graph.node_ids:
        if _NOT_XML.search(node):
            raise ValueError(f"GraphML cannot hold the id {node!r}")
    entities = {'"': "&quot;", "\t": "&#9;", "\n": "&#10;", "\r": "&#13;"}
    names = [escape(node, entities) for node in graph.node_ids]
    stream.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    stream.write('<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n')
    stream.write('  <key id="w" for="edge" attr.name="weight" attr.type="long"/>\n')
    stream.write('  <graph edgedefault="directed">\n')
    for name in names:
        stream.write(f'    <node id="{name}"/>\n')
    for s, d, w in zip(graph.src, graph.dst, graph.weight):
        stream.write(f'    <edge source="{names[s]}" '
                     f'target="{names[d]}"><data key="w">{w}</data></edge>\n')
    stream.write('  </graph>\n</graphml>\n')
