import io
from datetime import datetime, timezone

import numpy as np
import pytest

from shilldetect.graphs import (
    UserIndex,
    WeightedFeedbackGraph,
    bidirectional_link_count,
    build_feedback_graph,
    build_graphs,
    build_transaction_graph,
    connected_components,
    graph_density,
    project_feedback_graph,
    write_edgelist_csv,
    write_graphml,
)
from shilldetect.records import FeedbackRecord, FeedbackTable, TransactionRecord

from oracles import components_flood_fill, density_reference


def _fb(giver, recv, rating=1, ts="2011-01-01T00:00:00Z"):
    return FeedbackRecord(giver, recv, rating,
                          datetime.fromisoformat(ts.replace("Z", "+00:00")))


def _table(records) -> FeedbackTable:
    return FeedbackTable.from_records(records)


# ---------------------------------------------------------------------------
# index and multigraphs


def test_user_index_sorted_and_positions(tiny_graphs):
    idx = tiny_graphs[0].users
    assert list(idx.ids) == sorted(idx.ids)
    assert "eve" in idx.ids          # profiled but inactive users are vertices
    for i, uid in enumerate(idx.ids):
        assert idx.position(uid) == i
    with pytest.raises(KeyError):
        idx.position("nobody")


def test_transaction_graph_slices(tiny_graphs):
    tg, _ = tiny_graphs
    a = tg.users.position("alice")
    out = np.flatnonzero(tg.buyer == a)
    assert len(out) == 2                       # alice buys from bob and carol
    sellers = sorted(tg.users.ids[tg.seller[e]] for e in out)
    assert sellers == ["bob", "carol"]
    inn = np.flatnonzero(tg.seller == a)
    assert [tg.users.ids[tg.buyer[e]] for e in inn] == ["bob"]
    # amounts are quantity * unit price, in cents
    amounts = sorted(int(tg.amount_cents()[e]) for e in out)
    assert amounts == [99, 300]


def test_multigraph_keeps_parallel_links():
    fb = [_fb("a", "b"), _fb("a", "b"), _fb("b", "a", -1)]
    g = build_feedback_graph(_table(fb), UserIndex(("a", "b")))
    assert g.n_links == 3
    assert np.count_nonzero(g.giver == 0) == 2


def test_graph_vertices_must_cover_the_ids_rows_use():
    # "x" is in the table's id list but no row uses it, so the index may lack it
    table = FeedbackTable(["a", "x", "b"], np.array([0, 2]), np.array([2, 0]),
                          np.array([1, -1]), np.array([0, 0]))
    g = build_feedback_graph(table, UserIndex(("a", "b")))
    assert g.giver.tolist() == [0, 1] and g.receiver.tolist() == [1, 0]
    with pytest.raises(KeyError, match="unknown user id 'b'"):
        build_feedback_graph(table, UserIndex(("a", "x")))


def test_self_loop_kept_in_multigraph(tiny_graphs):
    tg, _ = tiny_graphs
    d = tg.users.position("dave")
    assert np.count_nonzero(tg.buyer == d) == 1 and np.count_nonzero(tg.seller == d) == 1
    assert np.count_nonzero((tg.buyer == d) & (tg.seller == d)) == 1


def test_build_graphs_share_index(tiny_corpus):
    transactions, feedback, profiles, _ = tiny_corpus
    tg, fg = build_graphs(transactions, feedback, profiles)
    assert tg.users is fg.users


# ---------------------------------------------------------------------------
# weighted projection


def test_projection_rating_sum_and_count():
    fb = [_fb("a", "b", 1), _fb("a", "b", 1), _fb("a", "b", -1),
          _fb("b", "a", 1), _fb("a", "c", 0)]
    idx = UserIndex(("a", "b", "c"))
    g = build_feedback_graph(_table(fb), idx)
    h_sum = project_feedback_graph(g, ["a", "b", "c"], weight_mode="rating_sum")
    h_cnt = project_feedback_graph(g, ["a", "b", "c"], weight_mode="count")
    def weight(h, s, d):
        for i in range(len(h.src)):
            if h.node_ids[h.src[i]] == s and h.node_ids[h.dst[i]] == d:
                return int(h.weight[i])
        return None
    assert weight(h_sum, "a", "b") == 1       # +1 +1 -1
    assert weight(h_cnt, "a", "b") == 3
    assert weight(h_cnt, "a", "c") == 1
    assert weight(h_sum, "a", "c") == 0       # link exists, weight sums to 0


def test_projection_excludes_and_counts_self_loops():
    fb = [_fb("a", "a"), _fb("a", "b")]
    g = build_feedback_graph(_table(fb), UserIndex(("a", "b")))
    h = project_feedback_graph(g, ["a", "b"])
    assert h.self_loops == 1
    assert h.n_links == 1


def test_projection_restricted_to_cohort():
    fb = [_fb("a", "b"), _fb("b", "c"), _fb("c", "a")]
    g = build_feedback_graph(_table(fb), UserIndex(("a", "b", "c")))
    h = project_feedback_graph(g, ["a", "b"])
    assert h.n_links == 1                     # only a->b survives
    assert list(h.node_ids) == ["a", "b"]


def test_projection_non_isolated_mask():
    fb = [_fb("a", "b")]
    g = build_feedback_graph(_table(fb), UserIndex(("a", "b", "c")))
    h = project_feedback_graph(g, ["a", "b", "c"])
    assert h.n_non_isolated == 2
    assert not h.non_isolated_mask()[h.node_ids.index("c")]


# ---------------------------------------------------------------------------
# density / components / bidirectional links


def test_density_counts_only_non_isolated():
    fb = [_fb("a", "b"), _fb("b", "a")]
    g = build_feedback_graph(_table(fb), UserIndex(("a", "b", "z")))
    h = project_feedback_graph(g, ["a", "b", "z"])
    # n = 2 non-isolated, m = 2 directed links -> 2 / (2*1)
    assert graph_density(h) == pytest.approx(1.0)
    assert graph_density(h) == pytest.approx(
        density_reference(h.n_non_isolated, h.n_links))


def test_density_degenerate_cases():
    g = build_feedback_graph(_table([]), UserIndex(("a",)))
    h = project_feedback_graph(g, ["a"])
    assert graph_density(h) == 0.0


def test_components_match_flood_fill():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        m = int(rng.integers(0, 60))
        ids = [f"u{i}" for i in range(n)]
        fb = [_fb(ids[int(rng.integers(n))], ids[int(rng.integers(n))])
              for _ in range(m)]
        g = build_feedback_graph(_table(fb), UserIndex(tuple(sorted(ids))))
        h = project_feedback_graph(g, ids)
        part = connected_components(h)
        edges = [(int(s), int(d)) for s, d in zip(h.src, h.dst)]
        touched = {u for e in edges for u in e}
        ref = components_flood_fill(h.n_vertices, edges)
        ref_sizes = sorted((len(c) for c in ref if c & touched), reverse=True)
        assert list(part.sizes) == ref_sizes
        assert part.largest == (ref_sizes[0] if ref_sizes else 0)
        assert part.isolated == h.n_vertices - len(touched)
        # labels agree with the reference partition up to renaming
        for comp in ref:
            if comp & touched:
                assert len({int(part.labels[v]) for v in comp}) == 1
            else:
                assert all(part.labels[v] == -1 for v in comp)


def test_equal_size_components_numbered_by_lowest_vertex():
    # Components of one size keep the order of their lowest vertex; the
    # golden ecosystem digests depend on it.
    fb = [_fb("f", "e"), _fb("c", "d"), _fb("h", "a"), _fb("b", "g"), _fb("g", "i")]
    ids = list("abcdefghij")
    g = build_feedback_graph(_table(fb), UserIndex(tuple(ids)))
    part = connected_components(project_feedback_graph(g, ids))
    assert part.sizes.tolist() == [3, 2, 2, 2]
    #                               a  b  c  d  e  f  g  h  i   j
    assert part.labels.tolist() == [1, 0, 2, 2, 3, 3, 0, 1, 0, -1]


def test_long_shuffled_path_matches_flood_fill():
    # Long paths take label propagation the most rounds; shuffled ids put
    # each path's lowest vertex somewhere in its middle.
    n = 6000
    perm = np.random.default_rng(9).permutation(n)
    src = np.concatenate([perm[:3999], perm[4000:5998]])
    dst = np.concatenate([perm[1:4000], perm[4001:5999]])
    h = WeightedFeedbackGraph([f"u{i:04d}" for i in range(n)], src, dst,
                              np.ones(len(src), np.int64), "count")
    part = connected_components(h)
    assert part.sizes.tolist() == [4000, 1999]
    assert part.isolated == 1
    ref = components_flood_fill(n, zip(src.tolist(), dst.tolist()))
    want = np.full(n, -1)
    for comp in ref:
        if len(comp) > 1:
            want[sorted(comp)] = 0 if len(comp) == 4000 else 1
    assert np.array_equal(part.labels, want)


def test_component_partition_shape():
    fb = [_fb("a", "b"), _fb("c", "d"), _fb("d", "c"), _fb("e", "f")]
    ids = ["a", "b", "c", "d", "e", "f", "g"]
    g = build_feedback_graph(_table(fb), UserIndex(tuple(ids)))
    h = project_feedback_graph(g, ids)
    part = connected_components(h)
    assert sorted(part.sizes, reverse=True) == [2, 2, 2]
    assert part.isolated == 1
    assert part.largest == 2
    assert part.count == 3


def test_bidirectional_link_count():
    fb = [_fb("a", "b"), _fb("b", "a"), _fb("a", "c")]
    g = build_feedback_graph(_table(fb), UserIndex(("a", "b", "c")))
    h = project_feedback_graph(g, ["a", "b", "c"])
    assert bidirectional_link_count(h) == 2   # a<->b counts both directions


# ---------------------------------------------------------------------------
# exports


def test_edgelist_and_graphml_outputs():
    fb = [_fb("a", "b", 1), _fb("b", "a", -1)]
    g = build_feedback_graph(_table(fb), UserIndex(("a", "b")))
    h = project_feedback_graph(g, ["a", "b"])
    buf = io.StringIO()
    write_edgelist_csv(h, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "src,dst,weight"
    assert len(lines) == 3
    xml = io.StringIO()
    write_graphml(h, xml)
    text = xml.getvalue()
    assert text.startswith("<?xml") and "graphml" in text
    assert '"a"' in text or ">a<" in text or 'id="a"' in text
