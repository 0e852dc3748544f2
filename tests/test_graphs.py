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
    connected_components,
    graph_density,
    project_feedback_graph,
    reciprocated,
    write_edgelist_csv,
    write_graphml,
)
from shilldetect.records import FeedbackTable, decode_ids, encode_ids

from oracles import Feedback, components_flood_fill, density_reference, feedback_table


def _fb(giver, recv, rating=1, ts="2011-01-01T00:00:00Z"):
    return Feedback(giver, recv, rating,
                    datetime.fromisoformat(ts.replace("Z", "+00:00")))


# ---------------------------------------------------------------------------
# index and multigraphs


def test_user_index_sorted_and_positions(tiny_graphs):
    idx = tiny_graphs[0].users
    ids = decode_ids(idx.ids)
    assert ids == sorted(ids)
    assert "eve" in ids              # profiled but inactive users are vertices
    assert idx.positions(ids).tolist() == list(range(len(ids)))
    assert idx.positions(idx.ids).tolist() == list(range(len(ids)))
    with pytest.raises(KeyError, match="unknown user id 'nobody'"):
        idx.positions(["alice", "nobody"])


def test_transaction_graph_slices(tiny_graphs):
    tg, _ = tiny_graphs
    ids = decode_ids(tg.users.ids)
    a = ids.index("alice")
    out = np.flatnonzero(tg.buyer == a)
    assert len(out) == 2                       # alice buys from bob and carol
    sellers = sorted(ids[tg.seller[e]] for e in out)
    assert sellers == ["bob", "carol"]
    inn = np.flatnonzero(tg.seller == a)
    assert [ids[tg.buyer[e]] for e in inn] == ["bob"]
    # amounts are quantity * unit price, in cents
    amounts = sorted(int(tg.amount_cents()[e]) for e in out)
    assert amounts == [99, 300]


def test_multigraph_keeps_parallel_links():
    fb = [_fb("a", "b"), _fb("a", "b"), _fb("b", "a", -1)]
    g = build_feedback_graph(feedback_table(fb), UserIndex(("a", "b")))
    assert g.n_links == 3
    assert np.count_nonzero(g.giver == 0) == 2


def test_graph_vertices_must_cover_the_ids_rows_use():
    # "x" is in the table's id list but no row uses it, so the index may lack it
    table = FeedbackTable(encode_ids(["a", "x", "b"]), np.array([0, 2]), np.array([2, 0]),
                          np.array([1, -1]), np.array([0, 0]))
    g = build_feedback_graph(table, UserIndex(("a", "b")))
    assert g.giver.tolist() == [0, 1] and g.receiver.tolist() == [1, 0]
    with pytest.raises(KeyError, match="unknown user id 'b'"):
        build_feedback_graph(table, UserIndex(("a", "x")))


def test_self_loop_kept_in_multigraph(tiny_graphs):
    tg, _ = tiny_graphs
    d = decode_ids(tg.users.ids).index("dave")
    assert np.count_nonzero(tg.buyer == d) == 1 and np.count_nonzero(tg.seller == d) == 1
    assert np.count_nonzero((tg.buyer == d) & (tg.seller == d)) == 1


def test_graphs_from_header_only_files():
    # empty id columns parse to empty bytes arrays, which join the profiles'
    from shilldetect.records import parse_feedback, parse_profiles, parse_transactions
    tx = parse_transactions(io.BytesIO(b"buyer_id,seller_id,product_id,quantity,unit_price,"
                                       b"timestamp\n")).records
    fb = parse_feedback(io.BytesIO(b"giver_id,receiver_id,rating,timestamp\n")).records
    pr = parse_profiles(io.BytesIO(b"user_id,birth_year,state,registration_date\n"
                                   b"u1,1970,CA,2010-01-01\n")).records
    assert tx.user_ids.dtype.kind == fb.user_ids.dtype.kind == "S"
    tg, fg = build_graphs(tx, fb, pr)
    assert decode_ids(tg.users.ids) == ["u1"] and tg.n_links == fg.n_links == 0


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
    g = build_feedback_graph(feedback_table(fb), idx)
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
    g = build_feedback_graph(feedback_table(fb), UserIndex(("a", "b")))
    h = project_feedback_graph(g, ["a", "b"])
    assert h.self_loops == 1
    assert h.n_links == 1


def test_projection_tallies_ratings_inside_the_cohort():
    # The tallies keep the self-rating the links drop, not the rating that leaves.
    fb = [_fb("a", "a", -1), _fb("a", "b", 1), _fb("b", "a", 0), _fb("b", "c", 1)]
    g = build_feedback_graph(feedback_table(fb), UserIndex(("a", "b", "c")))
    h = project_feedback_graph(g, ["a", "b"])
    assert (h.total_feedback, h.positive_feedback, h.negative_feedback) == (3, 1, 1)
    assert h.self_loops == 1 and h.n_links == 2


def test_projection_restricted_to_cohort():
    fb = [_fb("a", "b"), _fb("b", "c"), _fb("c", "a")]
    g = build_feedback_graph(feedback_table(fb), UserIndex(("a", "b", "c")))
    h = project_feedback_graph(g, ["a", "b"])
    assert h.n_links == 1                     # only a->b survives
    assert list(h.node_ids) == ["a", "b"]


def test_projection_non_isolated_mask():
    fb = [_fb("a", "b")]
    g = build_feedback_graph(feedback_table(fb), UserIndex(("a", "b", "c")))
    h = project_feedback_graph(g, ["a", "b", "c"])
    assert h.n_non_isolated == 2
    assert not h.non_isolated_mask()[h.node_ids.index("c")]


# ---------------------------------------------------------------------------
# density / components / bidirectional links


def test_density_counts_only_non_isolated():
    fb = [_fb("a", "b"), _fb("b", "a")]
    g = build_feedback_graph(feedback_table(fb), UserIndex(("a", "b", "z")))
    h = project_feedback_graph(g, ["a", "b", "z"])
    # n = 2 non-isolated, m = 2 directed links -> 2 / (2*1)
    assert graph_density(h) == pytest.approx(1.0)
    assert graph_density(h) == pytest.approx(
        density_reference(h.n_non_isolated, h.n_links))


def test_density_degenerate_cases():
    g = build_feedback_graph(feedback_table([]), UserIndex(("a",)))
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
        g = build_feedback_graph(feedback_table(fb), UserIndex(tuple(sorted(ids))))
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
    g = build_feedback_graph(feedback_table(fb), UserIndex(tuple(ids)))
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
                              np.ones(len(src), np.int64), "count", 0, 0, 0, 0)
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
    g = build_feedback_graph(feedback_table(fb), UserIndex(tuple(ids)))
    h = project_feedback_graph(g, ids)
    part = connected_components(h)
    assert sorted(part.sizes, reverse=True) == [2, 2, 2]
    assert part.isolated == 1
    assert part.largest == 2
    assert part.count == 3


def test_bidirectional_link_count():
    fb = [_fb("a", "b"), _fb("b", "a"), _fb("a", "c")]
    g = build_feedback_graph(feedback_table(fb), UserIndex(("a", "b", "c")))
    h = project_feedback_graph(g, ["a", "b", "c"])
    assert bidirectional_link_count(h) == 2   # a<->b counts both directions


@pytest.mark.parametrize("n", [1, 2, 5, 300])
def test_reciprocated_finds_each_reverse_link(n):
    rng = np.random.default_rng(n)
    for m in (0, 1, 10, 2_000):
        src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
        keys = np.unique(src * n + dst)
        links = list(zip((keys // n).tolist(), (keys % n).tolist()))
        linked = set(links)
        assert reciprocated(keys, n).tolist() == [(d, s) in linked for s, d in links]
        # repeated keys, as the multigraph holds them
        keys = np.sort(src * n + dst)
        assert np.array_equal(reciprocated(keys, n), np.isin(keys, keys % n * n + keys // n))


# ---------------------------------------------------------------------------
# exports


def test_edgelist_and_graphml_outputs():
    fb = [_fb("a", "b", 1), _fb("b", "a", -1)]
    g = build_feedback_graph(feedback_table(fb), UserIndex(("a", "b")))
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


# ---------------------------------------------------------------------------
# id order and unknown ids, parse to features

_ODD_IDS = ["z", "zz", "\u00e9", "e\u0301", "\u03a9", "\U0001F600",
            "m" * 70, "\u00e9" * 40, 'say "hi"']
# Ids alike in their first 8 bytes, so that their order is set by the
# second uint64 word the parsers sort them by.
_WORD_IDS = ["abcdefgh9", "abcdefgh", "abcdefgh\u00e9", "abcdefgh10"]


def _csv_text(header, rows) -> bytes:
    import csv
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue().encode()


def test_non_ascii_ids_keep_python_order_from_parse_to_features():
    # UTF-8 byte order is code-point order, and the parsers refuse NUL in
    # ids, so ids held as bytes sort as Python sorts the str. The ids
    # differ in length and in their first non-ASCII byte. The transactions
    # are plain CSV, coded by the column pass alone. The two longest ids are
    # past the bytes columns' width, so their rows take the row path, in
    # plain CSV (profiles) and in quoted CSV (feedback, which the id
    # holding a quote makes quoted).
    from shilldetect.features import extract_all
    from shilldetect.records import parse_feedback, parse_profiles, parse_transactions

    ids, words = _ODD_IDS, _WORD_IDS
    ts = "2011-01-01T00:00:00Z"
    tx = [(ids[i], ids[i + 1], "p", 1, "1.00", ts) for i in range(5)]
    tx += [(words[i], words[i - 1], "p", 1, "1.00", ts) for i in range(len(words))]
    fb = [(ids[i], ids[(i + 3) % len(ids)], 1, ts) for i in range(3, len(ids))]
    fb += [(u, ids[0], 1, ts) for u in words]
    pr = [(ids[4], 1970, "Ohio", "2010-01-01"), (ids[7], "", "", "2010-01-01")]
    transactions = parse_transactions(io.BytesIO(_csv_text(
        ["buyer_id", "seller_id", "product_id", "quantity", "unit_price", "timestamp"], tx)))
    feedback = parse_feedback(io.BytesIO(_csv_text(
        ["giver_id", "receiver_id", "rating", "timestamp"], fb)))
    profiles = parse_profiles(io.BytesIO(_csv_text(
        ["user_id", "birth_year", "state", "registration_date"], pr)))
    assert not (transactions.errors or feedback.errors or profiles.errors)
    # each table's ids are sorted, the row path's among them
    assert decode_ids(transactions.records.user_ids) == sorted(ids[:6] + words)
    assert decode_ids(feedback.records.user_ids) == sorted(ids + words)
    assert decode_ids(profiles.records.user_ids) == [ids[4], ids[7]]
    tg, fg = build_graphs(transactions.records, feedback.records, profiles.records)

    assert decode_ids(tg.users.ids) == sorted(ids + words)
    matrix = extract_all(tg.users.ids, tg, fg, profiles.records)
    assert matrix.user_ids == sorted(ids + words)
    buys = matrix.column("Buy-Trans-Num")
    assert [matrix.user_ids[i] for i in np.flatnonzero(buys)] == sorted(ids[:5] + words)

    with pytest.raises(KeyError) as exc:
        tg.users.positions(["z", "nobody", "\u00e9x"])
    assert exc.value.args == ("unknown user id 'nobody'",)
    with pytest.raises(KeyError) as exc:
        extract_all(["z", "\u00e9x", "zz", "q"], tg, fg, profiles.records)
    assert exc.value.args == ("2 ids not in the graphs, e.g. ['\u00e9x', 'q']",)
    with pytest.raises(KeyError) as exc:
        project_feedback_graph(fg, ["z", "\u00e9x", "q", "q"])
    assert exc.value.args == ("2 subset ids not in graph, e.g. ['q', '\u00e9x']",)
