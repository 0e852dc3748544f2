import io
import re
import tracemalloc
import warnings
from datetime import date, datetime, timezone

import numpy as np
import pytest

from shilldetect.features import (
    CATEGORICAL_FEATURES,
    FEATURE_NAMES,
    FeatureMatrix,
    cohort_feature_ratios,
    extract_all,
    read_feature_csv,
    write_feature_csv,
    write_feature_schema,
)
from shilldetect.graphs import build_graphs
from shilldetect.records import crc32_state
from shilldetect.synth import MarketConfig, generate

from oracles import (
    Profile,
    Transaction,
    feedback_table,
    profile_table,
    read_feature_csv_reference,
    recount_features,
    rows,
    transaction_table,
    write_feature_csv_reference,
)

EXPECTED_ORDER = (
    "Buy-Trans-Num", "Sell-Trans-Num", "Unique-Sellers", "Unique-Buyers",
    "Bidir-Trans-Users", "Max-Buy-Price", "Min-Buy-Price", "Max-Buy-Quantity",
    "Total-Buy-Quantity", "Total-Buy-Amount", "Max-Sell-Price",
    "Min-Sell-Price", "Max-Sell-Quantity", "Total-Sell-Quantity",
    "Total-Sell-Amount", "Gvn-Fdbk-Num", "Rcv-Fdbk-Num", "Gvn-Unique-Fdbk",
    "Rcv-Unique-Fdbk", "Bidir-Fdbk-Users", "Gvn-Pos-Fdbk", "Gvn-Neg-Fdbk",
    "Rcv-Pos-Fdbk", "Rcv-Neg-Fdbk", "Gvn-Fdbk-RSum", "Rcv-Fdbk-RSum",
    "Gvn-Fdbk-Avg", "Rcv-Fdbk-Avg", "Birth-Year", "State-Hash", "Active-Days",
)


def test_feature_name_order_frozen():
    assert FEATURE_NAMES == EXPECTED_ORDER
    assert len(FEATURE_NAMES) == 31
    assert CATEGORICAL_FEATURES == ("State-Hash",)


@pytest.fixture(scope="module")
def tiny_matrix(tiny_corpus, tiny_graphs):
    transactions, feedback, profiles, labels = tiny_corpus
    tg, fg = tiny_graphs
    return extract_all(tg.users.ids, tg, fg, profiles, labels)


def _row(matrix, uid):
    i = list(matrix.user_ids).index(uid)
    return dict(zip(FEATURE_NAMES, matrix.values[i]))


def test_alice_row_by_hand(tiny_matrix):
    f = _row(tiny_matrix, "alice")
    assert f["Buy-Trans-Num"] == 2 and f["Sell-Trans-Num"] == 1
    assert f["Unique-Sellers"] == 2 and f["Unique-Buyers"] == 1
    assert f["Bidir-Trans-Users"] == 1
    # prices are per-transaction amounts (quantity x unit price), dollars
    assert f["Max-Buy-Price"] == pytest.approx(3.00)
    assert f["Min-Buy-Price"] == pytest.approx(0.99)
    assert f["Max-Buy-Quantity"] == 2 and f["Total-Buy-Quantity"] == 3
    assert f["Total-Buy-Amount"] == pytest.approx(3.99)
    assert f["Max-Sell-Price"] == f["Min-Sell-Price"] == pytest.approx(5.00)
    assert f["Total-Sell-Amount"] == pytest.approx(5.00)
    assert f["Gvn-Fdbk-Num"] == 2 and f["Rcv-Fdbk-Num"] == 2
    assert f["Gvn-Unique-Fdbk"] == 2 and f["Rcv-Unique-Fdbk"] == 1
    assert f["Bidir-Fdbk-Users"] == 1
    assert f["Gvn-Pos-Fdbk"] == 1 and f["Gvn-Neg-Fdbk"] == 0
    assert f["Rcv-Pos-Fdbk"] == 2 and f["Rcv-Neg-Fdbk"] == 0
    assert f["Gvn-Fdbk-RSum"] == 1 and f["Rcv-Fdbk-RSum"] == 2
    assert f["Gvn-Fdbk-Avg"] == pytest.approx(0.5)
    assert f["Rcv-Fdbk-Avg"] == pytest.approx(1.0)
    assert f["Birth-Year"] == 1985
    assert f["State-Hash"] == crc32_state("California")
    assert f["Active-Days"] == (date(2011, 5, 5) - date(2010, 6, 15)).days


def test_bob_row_by_hand(tiny_matrix):
    f = _row(tiny_matrix, "bob")
    assert f["Buy-Trans-Num"] == 1 and f["Sell-Trans-Num"] == 2
    assert f["Unique-Buyers"] == 2 and f["Bidir-Trans-Users"] == 1
    assert f["Max-Sell-Price"] == f["Min-Sell-Price"] == pytest.approx(3.00)
    assert f["Total-Sell-Quantity"] == 5
    assert f["Total-Sell-Amount"] == pytest.approx(6.00)
    assert f["Rcv-Fdbk-RSum"] == 0 and f["Rcv-Fdbk-Avg"] == pytest.approx(0.0)
    assert f["Rcv-Pos-Fdbk"] == 1 and f["Rcv-Neg-Fdbk"] == 1
    assert f["Birth-Year"] == 0                # missing birth year
    assert f["State-Hash"] == crc32_state("default")
    assert f["Active-Days"] == (date(2011, 4, 1) - date(2010, 1, 1)).days


def test_self_trade_user_is_own_bidirectional_partner(tiny_matrix):
    f = _row(tiny_matrix, "dave")
    assert f["Buy-Trans-Num"] == f["Sell-Trans-Num"] == 1
    assert f["Unique-Sellers"] == f["Unique-Buyers"] == 1
    assert f["Bidir-Trans-Users"] == 1         # (u,u) satisfies both directions
    assert f["Max-Buy-Price"] == pytest.approx(10.00)
    assert f["Gvn-Fdbk-Num"] == 0 and f["Gvn-Fdbk-Avg"] == 0.0


def test_inactive_profiled_user_row(tiny_matrix):
    f = _row(tiny_matrix, "eve")
    for name in FEATURE_NAMES:
        if name in ("Birth-Year", "State-Hash"):
            continue
        assert f[name] == 0, name
    assert f["Birth-Year"] == 2000
    assert f["State-Hash"] == crc32_state("Maine")


def test_degenerate_max_min_are_zero_not_inf(tiny_matrix):
    f = _row(tiny_matrix, "eve")
    assert f["Min-Buy-Price"] == 0.0 and f["Max-Buy-Price"] == 0.0
    assert f["Min-Sell-Price"] == 0.0


def test_labels_column(tiny_matrix):
    lab = dict(zip(tiny_matrix.user_ids, tiny_matrix.labels))
    assert lab["bob"] == 1 and lab["carol"] == 1
    assert lab["alice"] == 0 and lab["eve"] == 0


# ---------------------------------------------------------------------------
# oracle recount on generated corpora


def test_full_recount_on_tiny_corpus(tiny_corpus, tiny_matrix):
    transactions, feedback, profiles, _ = tiny_corpus
    transactions, feedback = rows(transactions), rows(feedback)
    by_id = {p.user_id: p for p in rows(profiles)}
    for uid in tiny_matrix.user_ids:
        want = recount_features(uid, transactions, feedback, by_id.get(uid))
        got = _row(tiny_matrix, uid)
        for name in FEATURE_NAMES:
            assert got[name] == pytest.approx(want[name], abs=1e-12), (uid, name)


def test_sampled_recount_on_generated_corpus(small_corpus, small_matrix):
    c = small_corpus
    transactions, feedback = rows(c.transactions), rows(c.feedback)
    by_id = {p.user_id: p for p in rows(c.profiles)}
    rng = np.random.default_rng(0)
    sample = rng.choice(len(small_matrix.user_ids), size=25, replace=False)
    for i in sample:
        uid = small_matrix.user_ids[i]
        want = recount_features(uid, transactions, feedback, by_id.get(uid))
        got = dict(zip(FEATURE_NAMES, small_matrix.values[i]))
        for name in FEATURE_NAMES:
            assert got[name] == pytest.approx(want[name], abs=1e-9), (uid, name)


def test_per_user_path_matches_vectorized(small_corpus, small_matrix):
    # every 53rd user, so low, middle and high ids all appear; the oracle's
    # per-user recount from the raw records must match the vectorized blocks
    c = small_corpus
    transactions, feedback = rows(c.transactions), rows(c.feedback)
    by_id = {p.user_id: p for p in rows(c.profiles)}
    for i in range(0, len(small_matrix.user_ids), 53):
        uid = small_matrix.user_ids[i]
        want = recount_features(uid, transactions, feedback, by_id.get(uid))
        want = np.array([want[name] for name in FEATURE_NAMES])
        vec = small_matrix.values[i]
        assert np.allclose(vec[:15], want[:15], atol=1e-12), uid
        assert np.allclose(vec[15:28], want[15:28], atol=1e-12), uid


# ---------------------------------------------------------------------------
# structural identities


def test_identities_hold_on_generated_corpus(small_matrix):
    v = {n: small_matrix.column(n) for n in FEATURE_NAMES}
    assert np.array_equal(v["Gvn-Fdbk-RSum"],
                          v["Gvn-Pos-Fdbk"] - v["Gvn-Neg-Fdbk"])
    assert np.array_equal(v["Rcv-Fdbk-RSum"],
                          v["Rcv-Pos-Fdbk"] - v["Rcv-Neg-Fdbk"])
    # every sale is someone's purchase
    assert v["Total-Buy-Amount"].sum() == pytest.approx(
        v["Total-Sell-Amount"].sum(), rel=1e-12)
    assert v["Total-Buy-Quantity"].sum() == v["Total-Sell-Quantity"].sum()
    assert (v["Max-Buy-Price"] >= v["Min-Buy-Price"]).all()
    assert (v["Unique-Sellers"] <= v["Buy-Trans-Num"]).all()
    assert (v["Unique-Buyers"] <= v["Sell-Trans-Num"]).all()
    assert (v["Bidir-Trans-Users"] <= np.minimum(v["Unique-Sellers"],
                                                 v["Unique-Buyers"])).all()
    assert (v["Bidir-Fdbk-Users"] <= np.minimum(v["Gvn-Unique-Fdbk"],
                                                v["Rcv-Unique-Fdbk"])).all()
    assert (np.abs(v["Gvn-Fdbk-Avg"]) <= 1.0 + 1e-12).all()
    assert (v["Gvn-Pos-Fdbk"] + v["Gvn-Neg-Fdbk"] <= v["Gvn-Fdbk-Num"]).all()
    assert (v["Active-Days"] >= 0).all()


# ---------------------------------------------------------------------------
# matrix plumbing


def test_extract_all_rejects_unknown_users(tiny_corpus, tiny_graphs):
    transactions, feedback, profiles, labels = tiny_corpus
    tg, fg = tiny_graphs
    with pytest.raises(KeyError, match="ghost"):
        extract_all(["alice", "ghost"], tg, fg, profiles, labels)


def test_matrix_row_order_follows_request(tiny_corpus, tiny_graphs):
    transactions, feedback, profiles, labels = tiny_corpus
    tg, fg = tiny_graphs
    m = extract_all(["carol", "alice"], tg, fg, profiles, labels)
    assert list(m.user_ids) == ["carol", "alice"]


def test_schema_and_hash(tiny_matrix):
    schema = tiny_matrix.schema()
    assert schema["features"]["Buy-Trans-Num"] == 0
    assert schema["features"]["Active-Days"] == 30
    assert schema["categorical"] == ["State-Hash"]
    h = tiny_matrix.schema_hash()
    assert len(h) == 64 and int(h, 16) >= 0
    assert h == tiny_matrix.schema_hash()      # stable


def test_csv_roundtrip_exact(small_matrix):
    buf = io.StringIO()
    write_feature_csv(small_matrix, buf)
    back = read_feature_csv(io.StringIO(buf.getvalue()))
    assert back.user_ids == small_matrix.user_ids
    assert np.array_equal(back.values, small_matrix.values)
    assert np.array_equal(back.labels, small_matrix.labels)
    assert back.schema_hash() == small_matrix.schema_hash()


def test_csv_unknown_label_names_the_line(small_matrix):
    buf = io.StringIO()
    write_feature_csv(small_matrix, buf)
    lines = buf.getvalue().splitlines(keepends=True)
    lines[3] = lines[3].rsplit(",", 1)[0] + ",shil\n"
    with pytest.raises(ValueError, match=r"line 4: label 'shil'"):
        read_feature_csv(io.StringIO("".join(lines)))


def _csv_lines(matrix):
    buf = io.StringIO()
    write_feature_csv(matrix, buf)
    return buf.getvalue().splitlines(keepends=True)


@pytest.mark.parametrize("edit, message", [
    (lambda parts: parts[:3] + ["abc"] + parts[4:],
     rf"^feature CSV line 6: {FEATURE_NAMES[2]} is 'abc', not a number$"),
    (lambda parts: parts[:-2] + [""] + parts[-1:],
     rf"^feature CSV line 6: {FEATURE_NAMES[-1]} is '', not a number$"),
    (lambda parts: parts + ["0"], r"^feature CSV line 6: 34 fields, expected 33$"),
    (lambda parts: parts[:-2] + parts[-1:], r"^feature CSV line 6: 32 fields, expected 33$"),
], ids=["text", "empty", "extra-field", "missing-field"])
def test_csv_malformed_row_names_the_line(small_matrix, edit, message):
    lines = _csv_lines(small_matrix)
    lines[5] = ",".join(edit(lines[5].rstrip("\n").split(","))) + "\n"
    with pytest.raises(ValueError, match=message):
        read_feature_csv(io.StringIO("".join(lines)))


def test_csv_repeated_user_names_both_lines(small_matrix):
    lines = _csv_lines(small_matrix)
    shill = next(i for i, line in enumerate(lines) if line.endswith(",shill\n"))
    user = lines[shill].split(",", 1)[0]
    lines.append(lines[shill].rsplit(",", 1)[0] + ",benign\n")   # relabelled
    with pytest.raises(ValueError, match=rf"^feature CSV line {len(lines)}: user "
                       rf"'{re.escape(user)}' is already on line {shill + 1}$"):
        read_feature_csv(io.StringIO("".join(lines)))


@pytest.mark.parametrize("text", ["nan", "inf", "-Infinity"])
def test_csv_non_finite_value_names_line_and_feature(small_matrix, text):
    buf = io.StringIO()
    write_feature_csv(small_matrix, buf)
    lines = buf.getvalue().splitlines(keepends=True)
    parts = lines[5].split(",")
    parts[3] = text                                   # third feature column
    lines[5] = ",".join(parts)
    with pytest.raises(ValueError, match=rf"line 6: {FEATURE_NAMES[2]} is -?(nan|inf)"):
        read_feature_csv(io.StringIO("".join(lines)))


def _read_result(read, text):
    """(ids, values' bits, labels) of a read, or (error type, message)."""
    try:
        got = read(io.StringIO(text))
    except ValueError as exc:
        return type(exc), str(exc)
    if isinstance(got, FeatureMatrix):
        ids, values, labels = got.user_ids, got.values, got.labels
        assert values.dtype == np.float64 and values.shape == (len(ids), len(FEATURE_NAMES))
        assert labels.dtype == np.int8
    else:
        ids, rows, labels = got
        values = np.array(rows, np.float64).reshape(len(ids), len(FEATURE_NAMES))
    return ids, values.view(np.uint64).tolist(), list(labels)


def _shuffled(lines):
    body = lines[1:]
    order = np.random.default_rng(5).permutation(len(body))
    return [lines[0], *(body[i] for i in order)]


@pytest.mark.parametrize("order", [list, _shuffled], ids=["file-order", "shuffled"])
def test_csv_reader_matches_line_by_line_reference(small_matrix, order):
    text = "".join(order(_csv_lines(small_matrix)))
    want = _read_result(read_feature_csv_reference, text)
    assert isinstance(want[0], list) and len(want[0]) == small_matrix.n_users
    assert _read_result(read_feature_csv, text) == want


def _cell(text):
    """Edit that puts `text` in the third feature cell of line 6."""
    def edit(lines):
        parts = lines[5].split(",")
        parts[3] = text
        return [*lines[:5], ",".join(parts), *lines[6:]]
    return edit


_EDGE_CASES = {
    "underscore": _cell("1_000"),
    "arabic-indic-digit": _cell("١"),
    "nbsp": _cell("\xa01"),
    "leading-space": _cell(" 1.5"),
    "plus": _cell("+1"),
    "minus-zero": _cell("-0"),
    "minus-zero-point": _cell("-0.0"),
    "subnormal": _cell("4.9e-324"),
    "overflow": _cell("1e400"),
    "nan": _cell("nan"),
    "quoted": _cell('"1.5"'),
    "hex": _cell("0x10"),
    "file-separator": _cell("\x1c1"),
    "unit-separator": _cell("1\x1f"),
    "extra-cell": _cell("1,2"),
    "hash-id": lambda lines: [*lines[:5], "#" + lines[5], *lines[6:]],
    "blank-line": lambda lines: [*lines[:5], "\n", *lines[5:]],
    "trailing-blank-line": lambda lines: [*lines, "\n"],
    "crlf": lambda lines: [lines[0], *(line.replace("\n", "\r\n") for line in lines[1:])],
    "no-final-newline": lambda lines: [*lines[:-1], lines[-1].rstrip("\n")],
    "header-only": lambda lines: lines[:1],
    "nul-id": lambda lines: [*lines[:5], lines[5].replace(",", "\0,", 1), *lines[6:]],
}


@pytest.mark.parametrize("edit", _EDGE_CASES.values(), ids=_EDGE_CASES.keys())
def test_csv_reader_edge_cases_match_reference(small_matrix, edit):
    text = "".join(edit(_csv_lines(small_matrix)))
    assert _read_result(read_feature_csv, text) == _read_result(read_feature_csv_reference,
                                                                text)


@pytest.mark.parametrize("cell", [None, "1_000"], ids=["loadtxt-path", "line-path"])
def test_csv_user_id_with_nul_names_the_line(small_matrix, cell):
    # np.loadtxt reads the file, or, with a 1_000 on line 6, refuses it.
    lines = _csv_lines(small_matrix)
    if cell:
        lines = _cell(cell)(lines)
    user = lines[8].split(",", 1)[0] + "\0"
    lines[8] = lines[8].replace(",", "\0,", 1)
    with pytest.raises(ValueError, match=rf"^feature CSV line 9: user id "
                       rf"{re.escape(repr(user))} holds a NUL$"):
        read_feature_csv(io.StringIO("".join(lines)))


def test_csv_header_only_gives_empty_matrix_without_warning():
    header = "user_id," + ",".join(FEATURE_NAMES) + ",label\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        matrix = read_feature_csv(io.StringIO(header))
    assert matrix.values.shape == (0, len(FEATURE_NAMES)) and matrix.labels.dtype == np.int8


def test_csv_read_memory_is_bounded(small_matrix):
    # 20,000 rows: the small matrix 50 times over, under fresh ids. One
    # Python float object per cell would take 24 bytes for every 8 of values.
    header, *rows = _csv_lines(small_matrix)
    text = header + "".join(f"c{copy}-{row}" for copy in range(50) for row in rows)
    stream = io.StringIO(text)
    tracemalloc.start()
    try:
        matrix = read_feature_csv(stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matrix.n_users == 50 * len(rows) == 20_000
    assert peak < 4 * len(text) + matrix.values.nbytes


_EDGE_VALUES = [0.0, -0.0, 1.0, -1.0, 1e15 - 1, -(1e15 - 1), 1e15, -1e15, 1e15 + 2,
                5e-324, -5e-324, 0.1, 1 / 3, -2 / 3, 2.0**53, 1e300, -1.5, 0.05, 4294967295.0]


@pytest.mark.parametrize("seed", range(3))
def test_csv_writer_matches_row_reference(seed):
    rng = np.random.default_rng(seed)
    n = 0 if seed == 0 else int(rng.integers(100, 400))     # seed 0: header only
    kind = rng.integers(0, 4, (n, len(FEATURE_NAMES)))
    values = np.choose(kind, [
        rng.choice(_EDGE_VALUES, kind.shape),
        rng.integers(-10**6, 10**6, kind.shape).astype(np.float64),  # whole
        rng.integers(0, 10**7, kind.shape) / 100,                    # prices
        rng.normal(0, 10.0 ** rng.integers(-8, 18, kind.shape)),     # long reprs
    ])
    ids = ["".join(rng.choice(list("ab09_-.\"ü€😀"), rng.integers(1, 16))) + str(i)
           for i in range(n)]
    matrix = FeatureMatrix(ids, values, rng.integers(0, 2, n).astype(np.int8))
    buf = io.StringIO()
    write_feature_csv(matrix, buf)
    assert buf.getvalue() == write_feature_csv_reference(ids, values, matrix.labels,
                                                         FEATURE_NAMES)


# Values at the edges of the writer's column kinds: whole numbers at and
# past 1e15, whole cents (v == c / 100 for an integer c below 1e15) next to
# 1e15 / 100, and values past 2**53 / 100, whose cents an int64 holds but a
# double does not.
_CENT_EDGES = [-0.05, 0.05, 0.01, -0.01, 0.1 + 0.2, 0.07, 1.1, -0.0, (2**53 + 1) / 100,
               (2**53 + 7) / 100, (10**15 - 1) / 100, -(10**15 - 1) / 100, 10**15 / 100,
               10**15 / 100 + 0.5, 1e13 - 0.01]
# One of these in a column takes the column out of its kind.
_KIND_BREAKERS = [0.5, 0.001, 1e15, -1e15, 5e-324, 1 / 3, 0.1 + 0.2, 1e-5, 1e16 + 2, 1e300]


@pytest.mark.parametrize("seed", range(6))
def test_csv_writer_matches_row_reference_by_column_kind(seed):
    # Every column holds values of one kind, or of several, so that each
    # column takes each of the writer's paths: whole numbers, whole cents
    # and the distinct-value texts.
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(1, 300))
    kinds = [
        lambda: rng.integers(-10**6, 10**6, n).astype(np.float64),
        lambda: rng.choice([1e15 - 1, -(1e15 - 1), -0.0, 0.0, 2.0**53, 4294967295.0], n),
        lambda: rng.integers(0, 10**7, n) / 100,
        lambda: rng.integers(-10**7, 10**7, n) / 100,
        lambda: rng.integers(-10**15 + 1, 10**15, n) / 100,
        lambda: rng.integers(10**14, 10**15, n) / 100,
        lambda: rng.integers(2**53, 2**60, n) / 100,
        lambda: rng.choice(_CENT_EDGES, n),
        lambda: rng.choice(_CENT_EDGES + _EDGE_VALUES, n),
        lambda: rng.normal(0, 10.0 ** rng.integers(-8, 18), n),
        lambda: rng.integers(-5, 5, n) / rng.integers(1, 9, n),
    ]
    values = np.stack([kinds[k]() for k in rng.integers(0, len(kinds), len(FEATURE_NAMES))],
                      axis=1)
    for j in rng.choice(len(FEATURE_NAMES), 8, replace=False):
        values[rng.integers(0, n), j] = rng.choice(_KIND_BREAKERS)
    ids = [f"u{i}" for i in range(n)]
    matrix = FeatureMatrix(ids, values, rng.integers(0, 2, n).astype(np.int8))
    buf = io.StringIO()
    write_feature_csv(matrix, buf)
    assert buf.getvalue() == write_feature_csv_reference(ids, values, matrix.labels,
                                                         FEATURE_NAMES)


class _Sink:
    """A binary stream that keeps only the number of bytes written."""

    size = 0

    def write(self, data) -> None:
        self.size += len(data)


def test_csv_write_memory_is_bounded():
    # 30k users: 930k cells, 174k of them not whole. One str per cell took
    # some 14 times the output; the bytes take one row block at a time, and
    # the sort that finds the distinct values a copy of the pooled columns.
    corpus = generate(MarketConfig(n_users=30_000), seed=1)
    tg, fg = build_graphs(corpus.transactions, corpus.feedback, corpus.profiles)
    matrix = extract_all(tg.users.ids, tg, fg, corpus.profiles, corpus.labels)
    stream = _Sink()
    tracemalloc.start()
    try:
        write_feature_csv(matrix, stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matrix.n_users == 30_000 and stream.size > 3_000_000
    assert peak < 4 * stream.size, peak / stream.size


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_csv_writer_refuses_non_finite_value_naming_user_and_feature(small_matrix, value):
    values = small_matrix.values.copy()
    values[4, 2] = value
    matrix = FeatureMatrix(small_matrix.user_ids, values, small_matrix.labels)
    user = small_matrix.user_ids[4]
    with pytest.raises(ValueError, match=rf"user {user}: {FEATURE_NAMES[2]} is -?(nan|inf)"):
        write_feature_csv(matrix, io.StringIO())


def test_schema_json_written(tiny_matrix):
    buf = io.StringIO()
    write_feature_schema(tiny_matrix, buf)
    text = buf.getvalue()
    assert '"State-Hash"' in text and '"version"' in text


def test_select_subset(small_matrix):
    ids = list(small_matrix.user_ids)[:7]
    sub = small_matrix.select(ids)
    assert list(sub.user_ids) == ids
    assert np.array_equal(sub.values, small_matrix.values[:7])


# Non-ASCII ids, and ids that are prefixes of others: a bytes array pads
# each id with NULs, and UTF-8's byte order must be str's code-point order.
_ODD_IDS = ["a", "a!", "ab", "é", "😀", "b", "aé", "\x7f", "ÿ", "a\x01", "z😀", "z"]


@pytest.mark.parametrize("seed", range(5))
def test_id_order_take_canonical_select_match_str_sort(seed):
    rng = np.random.default_rng(seed)
    ids = [_ODD_IDS[i] for i in rng.permutation(len(_ODD_IDS))]
    values = np.arange(len(ids) * 2, dtype=np.float64).reshape(-1, 2)
    labels = rng.integers(0, 2, len(ids)).astype(np.int8)
    m = FeatureMatrix(ids, values, labels, ("f0", "f1"))
    order = sorted(range(len(ids)), key=ids.__getitem__)
    assert m.id_order().tolist() == order
    idx = rng.integers(0, len(ids), 20)
    took = m.take(idx)
    assert took.user_ids == [ids[i] for i in idx]
    assert np.array_equal(took.values, values[idx]) and np.array_equal(took.labels, labels[idx])
    canon = m.canonical()
    assert canon.user_ids == sorted(ids)
    assert np.array_equal(canon.values, values[order])
    assert np.array_equal(canon.labels, labels[order])
    wanted = [ids[i] for i in rng.permutation(len(ids))[:7]]
    sub = m.select(wanted)
    assert sub.user_ids == wanted
    assert np.array_equal(sub.values, values[[ids.index(u) for u in wanted]])
    with pytest.raises(ValueError, match=r"^user id 'a!' is on more than one row; "
                                         r"user ids must be unique$"):
        m.take(np.r_[np.arange(len(ids)), ids.index("a!"), ids.index("😀")]).id_order()


# ---------------------------------------------------------------------------
# cohort ratios


def _mk_matrix(values, labels):
    n = len(labels)
    vals = np.zeros((n, 31))
    vals[:, 0] = values
    return FeatureMatrix(tuple(f"u{i}" for i in range(n)), vals,
                         np.array(labels, np.int8))


def test_cohort_ratio_basic():
    m = _mk_matrix([10, 10, 2, 2], [1, 1, 0, 0])
    r = cohort_feature_ratios(m)
    assert r["Buy-Trans-Num"]["mean_ratio"] == pytest.approx(5.0)


def test_cohort_ratio_zero_denominator_rules():
    r = cohort_feature_ratios(_mk_matrix([0, 0, 0, 0], [1, 1, 0, 0]))
    assert r["Buy-Trans-Num"]["mean_ratio"] == 1.0          # 0/0
    r = cohort_feature_ratios(_mk_matrix([3, 3, 0, 0], [1, 1, 0, 0]))
    assert r["Buy-Trans-Num"]["mean_ratio"] == np.inf       # s>0, b=0
    assert "State-Hash" not in r


def test_cohort_ratio_needs_both_cohorts():
    with pytest.raises(ValueError):
        cohort_feature_ratios(_mk_matrix([1, 2], [1, 1]))


def test_active_days_clamp_warns():
    tx = transaction_table([Transaction(
        "a", "b", "p", 1, 100, datetime(2009, 6, 1, tzinfo=timezone.utc))])
    profiles = profile_table([Profile("a", 1980, "Ohio", date(2010, 1, 1)),
                              Profile("b", 1981, "Iowa", date(2010, 1, 1))])
    tg, fg = build_graphs(tx, feedback_table([]), profiles)
    with pytest.warns(UserWarning, match="clamped"):
        m = extract_all(tg.users.ids, tg, fg, profiles, None)
    assert (m.column("Active-Days") == 0).all()
