import io
import json

import numpy as np
import pytest

from shilldetect.ecosystem import (
    CliqueLimitError,
    clique_size_histogram,
    compare_cohorts,
    ecosystem_report,
    maximal_cliques,
    write_clique_list,
    write_comparison_csv,
    write_dot,
    write_ecosystem_csv,
    write_ecosystem_json,
)
from shilldetect.graphs import WeightedFeedbackGraph, project_feedback_graph, build_graphs
from oracles import Feedback, feedback_table, maximal_cliques_bk_plain, maximal_cliques_subsets


def mk_graph(n, edges, weights=None):
    """Directed weighted graph on vertices u00..u{n-1} from an edge list."""
    node_ids = [f"u{i:02d}" for i in range(n)]
    src = np.array([a for a, b in edges], dtype=np.int64)
    dst = np.array([b for a, b in edges], dtype=np.int64)
    w = (np.asarray(weights, dtype=np.int64) if weights is not None
         else np.ones(len(edges), dtype=np.int64))
    return WeightedFeedbackGraph(node_ids, src, dst, w, "count", 0, 0, 0, 0)


def undirected(n, edges):
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


# ---------------------------------------------------------------------------
# clique enumeration


def test_cliques_known_shapes():
    # no links: every vertex is its own maximal clique
    assert set(maximal_cliques(mk_graph(3, []))) == {
        frozenset({0}), frozenset({1}), frozenset({2})}
    # complete K4
    k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    assert set(maximal_cliques(mk_graph(4, k4))) == {frozenset(range(4))}
    # 4-cycle: four maximal 2-cliques, no triangle
    cyc = [(0, 1), (1, 2), (2, 3), (3, 0)]
    assert set(maximal_cliques(mk_graph(4, cyc))) == {
        frozenset(p) for p in ((0, 1), (1, 2), (2, 3), (0, 3))}
    # triangle with a pendant vertex
    tri = [(0, 1), (1, 2), (0, 2), (2, 3)]
    assert set(maximal_cliques(mk_graph(4, tri))) == {
        frozenset({0, 1, 2}), frozenset({2, 3})}


def test_cliques_ignore_link_direction():
    # one directed link still makes the pair adjacent
    got = set(maximal_cliques(mk_graph(2, [(1, 0)])))
    assert got == {frozenset({0, 1})}


def test_cliques_match_exhaustive_oracle():
    rng = np.random.default_rng(17)
    for trial in range(25):
        n = int(rng.integers(1, 13))
        p = float(rng.uniform(0.1, 0.7))
        edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < p]
        # random orientations; a few duplicated reverse links for good measure
        directed = [((a, b) if rng.random() < 0.5 else (b, a)) for a, b in edges]
        directed += [(b, a) for a, b in edges if rng.random() < 0.2]
        got = set(maximal_cliques(mk_graph(n, directed)))
        adj = undirected(n, edges)
        assert got == maximal_cliques_subsets(n, adj), f"trial {trial}"
        assert got == maximal_cliques_bk_plain(
            {v: adj[v] for v in range(n)}), f"trial {trial}"


def test_clique_limit_enforced():
    # five disjoint pairs = five maximal cliques
    edges = [(2 * i, 2 * i + 1) for i in range(5)]
    with pytest.raises(CliqueLimitError):
        maximal_cliques(mk_graph(10, edges), limit=3)


def test_clique_histogram_threshold():
    cliques = [frozenset({0}), frozenset({1, 2}), frozenset({3, 4, 5}),
               frozenset({6, 7, 8}), frozenset({0, 1, 2, 3, 4})]
    assert clique_size_histogram(cliques) == {3: 2, 5: 1}


# ---------------------------------------------------------------------------
# cohort reports


def _feedback(rows):
    from datetime import datetime, timezone
    t0 = datetime(2011, 1, 1, tzinfo=timezone.utc)
    return feedback_table(Feedback(g, r, score, t0) for g, r, score in rows)


def test_ecosystem_report_hand_values(tiny_graphs):
    cohort = ["alice", "bob", "carol"]
    g = project_feedback_graph(tiny_graphs[1], cohort)
    rep = ecosystem_report(g, maximal_cliques(g))
    assert rep.cohort_size == 3
    assert rep.total_feedback == 5          # every record stays inside cohort
    assert rep.positive_feedback == 3       # zero ratings are neither pos nor neg
    assert rep.negative_feedback == 1
    assert rep.n_links == 4                 # a->b, b->a (merged x2), c->b, a->c
    assert rep.max_link_weight == 2 and rep.min_link_weight == -1
    assert rep.avg_link_weight == pytest.approx(0.5)
    assert rep.bidirectional_links == 2     # the a<->b pair, both directions
    assert rep.self_loops == 0
    assert rep.density == pytest.approx(4 / 6)
    assert rep.component_count == 1
    assert rep.largest_component_size == 3
    assert rep.largest_component_fraction == pytest.approx(1.0)
    # undirected view is the triangle a-b-c
    assert rep.max_clique_size == 3 and rep.clique_count == 1
    assert rep.clique_histogram == {3: 1}
    assert rep.small_clique_counts == {1: 0, 2: 0}


def test_ecosystem_report_counts_raw_self_feedback(tiny_graphs):
    feedback = _feedback([("dave", "dave", 1), ("dave", "eve", -1),
                          ("alice", "dave", 1)])   # alice outside cohort
    cohort = ["dave", "eve"]
    from shilldetect.graphs import UserIndex, build_feedback_graph
    mg = build_feedback_graph(feedback, UserIndex(["alice", "dave", "eve"]))
    g = project_feedback_graph(mg, cohort)
    rep = ecosystem_report(g, maximal_cliques(g))
    # the self-record counts in the tallies but is dropped from the projection
    assert rep.total_feedback == 2
    assert rep.positive_feedback == 1 and rep.negative_feedback == 1
    assert rep.self_loops == 1
    assert rep.n_links == 1
    assert rep.density == pytest.approx(1 / 2)


def test_ecosystem_report_rejects_empty_cohort(tiny_graphs):
    g = project_feedback_graph(tiny_graphs[1], [])
    with pytest.raises(ValueError, match="cohort is empty"):
        ecosystem_report(g, maximal_cliques(g))


def test_ecosystem_report_reuses_precomputed_cliques(tiny_graphs):
    cohort = ["alice", "bob", "carol"]
    g = project_feedback_graph(tiny_graphs[1], cohort)
    cliques = maximal_cliques(g)
    rep = ecosystem_report(g, cliques)
    assert rep.clique_histogram == {3: 1}


def test_small_corpus_ring_structure(small_corpus):
    c = small_corpus
    shills = sorted(c.labels.shill_ids)
    tg, fg = build_graphs(c.transactions, c.feedback, c.profiles)
    g = project_feedback_graph(fg, shills)
    rep = ecosystem_report(g, maximal_cliques(g))
    # rings are 3-7 members with near-complete reciprocal feedback
    assert rep.max_clique_size >= 3
    assert rep.largest_component_fraction > 0
    assert rep.bidirectional_links > 0


def test_compare_cohorts_layout():
    def stub(size, clique_hist, lcf, maxc):
        from shilldetect.ecosystem import EcosystemReport
        return EcosystemReport(
            cohort_size=size, weight_mode="rating_sum", total_feedback=10,
            positive_feedback=8, negative_feedback=1, non_isolated=size,
            n_links=5, avg_link_weight=1.0, max_link_weight=2,
            min_link_weight=-1, bidirectional_links=2, self_loops=0,
            density=0.1, component_count=1, largest_component_size=size,
            largest_component_fraction=lcf, max_clique_size=maxc,
            clique_count=sum(clique_hist.values()), clique_histogram=clique_hist,
            small_clique_counts={1: 0, 2: 0})

    a = stub(10, {3: 2, 5: 1}, 0.9, 5)
    b = stub(10, {3: 1}, 0.2, 3)
    cmp_ = compare_cohorts(a, b)
    fields = [f for f, _, _ in cmp_.rows]
    assert "density" in fields and "max_clique_size" in fields
    assert cmp_.clique_table == {3: (2, 1), 5: (1, 0)}
    assert cmp_.headline["largest_component_fraction"] == (0.9, 0.2)
    d = cmp_.to_dict()
    assert d["cohorts"] == ["shill", "benign"]
    assert d["clique_table"]["5"] == {"shill": 1, "benign": 0}


# ---------------------------------------------------------------------------
# writers


@pytest.fixture()
def demo_report(tiny_graphs):
    cohort = ["alice", "bob", "carol"]
    g = project_feedback_graph(tiny_graphs[1], cohort)
    return g, ecosystem_report(g, maximal_cliques(g))


def test_json_writer_roundtrip(demo_report):
    _, rep = demo_report
    buf = io.StringIO()
    write_ecosystem_json(rep, buf)
    data = json.loads(buf.getvalue())
    assert data["clique_histogram"] == {"3": 1}
    assert data["density"] == pytest.approx(4 / 6)


def test_csv_writer_flattens_histograms(demo_report):
    _, rep = demo_report
    buf = io.StringIO()
    write_ecosystem_csv(rep, buf)
    text = buf.getvalue()
    assert text.startswith("field,value\n")
    assert "clique_histogram[3],1\n" in text
    assert "small_clique_counts[2],0\n" in text


def test_comparison_csv(demo_report):
    _, rep = demo_report
    cmp_ = compare_cohorts(rep, rep)
    buf = io.StringIO()
    write_comparison_csv(cmp_, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "field,shill,benign"
    assert any(line.startswith("cliques_size_3,1,1") for line in lines)


def test_clique_list_ordering():
    node_ids = [f"u{i}" for i in range(8)]
    cliques = [frozenset({0, 1}),               # below MIN_CLIQUE_SIZE, dropped
               frozenset({5, 6, 7}),
               frozenset({0, 2, 3, 4}),
               frozenset({1, 2, 3})]
    buf = io.StringIO()
    write_clique_list(cliques, node_ids, buf)
    assert buf.getvalue().splitlines() == [
        "u0 u2 u3 u4",          # largest first
        "u1 u2 u3",             # then lexicographic among equals
        "u5 u6 u7",
    ]


def test_dot_writer(demo_report):
    g, _ = demo_report
    buf = io.StringIO()
    write_dot(g, buf)
    text = buf.getvalue()
    assert text.startswith("digraph feedback {")
    assert '"alice" -> "bob" [weight=1, label=1];' in text
    assert text.rstrip().endswith("}")
