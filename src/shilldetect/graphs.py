"""Interaction graphs over marketplace users.

Two directed multigraphs are built from the raw corpora: the transaction
graph (links buyer -> seller, one per transaction) and the feedback graph
(links giver -> receiver, one per rating). Each is a set of parallel numpy
edge arrays (one entry per link) over a shared dense vertex index, so
per-vertex aggregates over million-link graphs are single bincount or
ufunc.at passes. A weighted simple-graph projection of the feedback
multigraph over a user subset supports the ecosystem statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse import csgraph


class UserIndex:
    """Bidirectional user_id <-> dense position map, sorted by id."""

    __slots__ = ("ids", "_pos")

    def __init__(self, ids):
        self.ids: list[str] = sorted(set(ids))
        self._pos = {u: i for i, u in enumerate(self.ids)}

    @classmethod
    def from_corpora(cls, transactions=(), feedback=(), profiles=()) -> "UserIndex":
        ids = set()
        for r in transactions:
            ids.add(r.buyer_id)
            ids.add(r.seller_id)
        for r in feedback:
            ids.add(r.giver_id)
            ids.add(r.receiver_id)
        for p in profiles:
            ids.add(p.user_id)
        return cls(ids)

    def position(self, user_id: str) -> int:
        return self._pos[user_id]

    def positions(self, user_ids) -> np.ndarray:
        try:
            return np.fromiter((self._pos[u] for u in user_ids), dtype=np.int64)
        except KeyError as exc:
            raise KeyError(f"unknown user id {exc.args[0]!r}") from None

    def __contains__(self, user_id: str) -> bool:
        return user_id in self._pos

    def __len__(self) -> int:
        return len(self.ids)


def _epoch_seconds(records) -> np.ndarray:
    return np.fromiter((int(r.timestamp.timestamp()) for r in records),
                       dtype=np.int64, count=len(records))


@dataclass(frozen=True)
class TransactionMultigraph:
    """Directed multigraph of buying transactions (buyer -> seller)."""

    users: UserIndex
    buyer: np.ndarray        # edge -> buyer position
    seller: np.ndarray       # edge -> seller position
    product: np.ndarray      # edge -> product code
    quantity: np.ndarray
    price_cents: np.ndarray  # unit price
    ts: np.ndarray           # epoch seconds, UTC
    product_ids: list[str]

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
    ts: np.ndarray

    @property
    def n_vertices(self) -> int:
        return len(self.users)

    @property
    def n_links(self) -> int:
        return len(self.giver)


def build_transaction_graph(records, users: UserIndex | None = None) -> TransactionMultigraph:
    """Vertices = all ids seen (plus any pre-indexed users); one link per record."""
    if users is None:
        users = UserIndex.from_corpora(transactions=records)
    m = len(records)
    pos = users._pos
    buyer = np.empty(m, np.int64)
    seller = np.empty(m, np.int64)
    product = np.empty(m, np.int64)
    quantity = np.empty(m, np.int64)
    price = np.empty(m, np.int64)
    prod_codes: dict[str, int] = {}
    for i, r in enumerate(records):
        buyer[i] = pos[r.buyer_id]
        seller[i] = pos[r.seller_id]
        product[i] = prod_codes.setdefault(r.product_id, len(prod_codes))
        quantity[i] = r.quantity
        price[i] = r.unit_price_cents
    return TransactionMultigraph(users, buyer, seller, product, quantity, price,
                                 _epoch_seconds(records), list(prod_codes))


def build_feedback_graph(records, users: UserIndex | None = None) -> FeedbackMultigraph:
    if users is None:
        users = UserIndex.from_corpora(feedback=records)
    m = len(records)
    pos = users._pos
    giver = np.empty(m, np.int64)
    receiver = np.empty(m, np.int64)
    rating = np.empty(m, np.int64)
    for i, r in enumerate(records):
        giver[i] = pos[r.giver_id]
        receiver[i] = pos[r.receiver_id]
        rating[i] = r.rating
    return FeedbackMultigraph(users, giver, receiver, rating, _epoch_seconds(records))


def build_graphs(transactions, feedback, profiles=()):
    """Both multigraphs over one shared vertex set (union of all corpora)."""
    users = UserIndex.from_corpora(transactions, feedback, profiles)
    return (build_transaction_graph(transactions, users),
            build_feedback_graph(feedback, users))


# ---------------------------------------------------------------------------
# Weighted simple-graph projection of the feedback multigraph


@dataclass(frozen=True)
class WeightedFeedbackGraph:
    """Simple directed weighted graph over a user subset.

    weight_mode "count": link weight = number of parallel feedback links.
    weight_mode "rating_sum": link weight = sum of ratings (can be negative).
    Self-loops are excluded from the links and counted separately.
    """

    node_ids: list[str]      # sorted subset
    src: np.ndarray          # positions into node_ids, pair-unique
    dst: np.ndarray
    weight: np.ndarray       # int64
    weight_mode: str
    self_loops: int = 0      # raw self-feedback records dropped

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
    node_ids = sorted(set(subset))
    missing = [u for u in node_ids if u not in graph.users]
    if missing:
        raise KeyError(f"{len(missing)} subset ids not in graph, e.g. {missing[:5]}")
    n_full = graph.n_vertices
    remap = np.full(n_full, -1, dtype=np.int64)
    remap[graph.users.positions(node_ids)] = np.arange(len(node_ids), dtype=np.int64)

    g = remap[graph.giver]
    r = remap[graph.receiver]
    keep = (g >= 0) & (r >= 0)
    g, r = g[keep], r[keep]
    ratings = graph.rating[keep]
    loops = g == r
    self_loops = int(loops.sum())
    if self_loops:
        g, r, ratings = g[~loops], r[~loops], ratings[~loops]

    k = max(len(node_ids), 1)
    pair_keys = g * k + r
    uniq, inverse = np.unique(pair_keys, return_inverse=True)
    if weight_mode == "count":
        weight = np.bincount(inverse, minlength=len(uniq)).astype(np.int64)
    else:
        weight = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(weight, inverse, ratings)
    return WeightedFeedbackGraph(node_ids, uniq // k, uniq % k, weight,
                                 weight_mode, self_loops)


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


def connected_components(graph: WeightedFeedbackGraph) -> ComponentPartition:
    n = graph.n_vertices
    non_isolated = graph.non_isolated_mask()
    isolated = n - int(non_isolated.sum())
    if n == 0 or graph.n_links == 0:
        return ComponentPartition(np.full(n, -1, np.int64), np.zeros(0, np.int64), isolated)
    adj = csr_matrix((np.ones(graph.n_links, dtype=np.int8), (graph.src, graph.dst)),
                     shape=(n, n))
    _, raw = csgraph.connected_components(adj, directed=False)
    # Renumber so that only components containing links survive, sizes
    # descending; an isolated vertex is a component of its own and maps to -1.
    used, counts = np.unique(raw[non_isolated], return_counts=True)
    order = np.argsort(-counts, kind="stable")
    rank = np.full(n, -1, dtype=np.int64)
    rank[used[order]] = np.arange(len(used), dtype=np.int64)
    return ComponentPartition(rank[raw], counts[order].astype(np.int64), isolated)


def bidirectional_link_count(graph: WeightedFeedbackGraph) -> int:
    """Ordered count of links whose reverse also exists; even, since no self-loops."""
    if graph.n_links == 0:
        return 0
    k = max(graph.n_vertices, 1)
    keys = graph.src * k + graph.dst
    reverse = graph.dst * k + graph.src
    return int(np.isin(keys, reverse).sum())


# ---------------------------------------------------------------------------
# Exports


def write_edgelist_csv(graph: WeightedFeedbackGraph, stream) -> None:
    stream.write("src,dst,weight\n")
    for s, d, w in zip(graph.src, graph.dst, graph.weight):
        stream.write(f"{graph.node_ids[s]},{graph.node_ids[d]},{w}\n")


def write_graphml(graph: WeightedFeedbackGraph, stream) -> None:
    """Minimal GraphML (directed, integer `weight` attribute on edges)."""
    from xml.sax.saxutils import escape
    stream.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    stream.write('<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n')
    stream.write('  <key id="w" for="edge" attr.name="weight" attr.type="long"/>\n')
    stream.write('  <graph edgedefault="directed">\n')
    for node in graph.node_ids:
        stream.write(f'    <node id="{escape(node)}"/>\n')
    for s, d, w in zip(graph.src, graph.dst, graph.weight):
        stream.write(f'    <edge source="{escape(graph.node_ids[s])}" '
                     f'target="{escape(graph.node_ids[d])}"><data key="w">{w}</data></edge>\n')
    stream.write('  </graph>\n</graphml>\n')
