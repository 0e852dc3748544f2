import csv
import io
import json
import tracemalloc
from dataclasses import replace
from datetime import date, datetime, timezone

import numpy as np
import pytest

from shilldetect import records
from shilldetect.records import (
    FEEDBACK_COLUMNS,
    PROFILE_COLUMNS,
    TRANSACTION_COLUMNS,
    FeedbackTable,
    LabelSet,
    ParseError,
    ProfileTable,
    TransactionTable,
    crc32_state,
    decode_ids,
    encode_ids,
    load_label_list,
    parse_feedback,
    parse_price_cents,
    parse_profiles,
    parse_rfc3339,
    parse_transactions,
    write_feedback,
    write_labels,
    write_profiles,
    write_transactions,
)

from shilldetect.features import write_feature_csv
from shilldetect.synth import MarketConfig, generate

from oracles import (
    Feedback,
    Profile,
    Transaction,
    crc32_reference,
    feedback_table,
    format_price,
    format_rfc3339,
    parse_rows_reference,
    profile_table,
    rows,
    transaction_table,
    write_corpus_reference,
)


# ---------------------------------------------------------------------------
# scalars


def test_crc32_known_values():
    assert crc32_state("") == 0x00000000
    assert crc32_state("123456789") == 0xCBF43926
    assert crc32_state("default") == crc32_reference(b"default")


@pytest.mark.parametrize("text", ["", "a", "default", "California", "Züri"])
def test_crc32_matches_bitwise_reference(text):
    assert crc32_state(text) == crc32_reference(text.encode("utf-8"))


def test_parse_price_exact_cents():
    assert parse_price_cents("1.10") == 110
    assert parse_price_cents("0.07") == 7
    assert parse_price_cents("200") == 20000
    assert parse_price_cents("3.5") == 350
    # exact decimal arithmetic: no float rounding drift
    assert parse_price_cents("19.99") == 1999


@pytest.mark.parametrize("bad", ["-1.00", "1.234", "abc", ""])
def test_parse_price_rejects(bad):
    with pytest.raises(ValueError):
        parse_price_cents(bad)


def test_format_price_roundtrip():
    for cents in (0, 7, 99, 100, 1999, 123456):
        assert parse_price_cents(format_price(cents)) == cents


def test_rfc3339_parsing_variants():
    t = parse_rfc3339("2011-03-01T10:00:00Z")
    assert t == datetime(2011, 3, 1, 10, tzinfo=timezone.utc)
    # explicit offset is normalized to UTC
    t2 = parse_rfc3339("2011-03-01T12:00:00+02:00")
    assert t2 == t
    # bare dates mean midnight UTC
    assert parse_rfc3339("2011-03-01") == datetime(2011, 3, 1, tzinfo=timezone.utc)
    with pytest.raises(ValueError):
        parse_rfc3339("2011-03-01T10:00:00")  # naive


def test_format_rfc3339_roundtrip():
    t = datetime(2012, 12, 31, 23, 59, 59, tzinfo=timezone.utc)
    assert parse_rfc3339(format_rfc3339(np.array([int(t.timestamp())]))[0]) == t


# ---------------------------------------------------------------------------
# containers


def test_label_set_membership():
    ls = LabelSet(frozenset({"x", "y"}))
    assert ls.shill_ids == {"x", "y"} and ls.duplicates == 0
    assert len(ls) == 2


# ---------------------------------------------------------------------------
# file parsing


TX_CSV = """buyer_id,seller_id,product_id,quantity,unit_price,timestamp
alice,bob,pear,2,1.50,2011-03-01T10:00:00Z
bob,alice,plum,1,5.00,2011-03-02T10:00:00Z
"""


def test_parse_transactions_csv():
    res = parse_transactions(io.BytesIO(TX_CSV.encode()), "csv")
    assert res.total_rows == 2 and not res.errors
    t = rows(res.records)[0]
    assert (t.buyer_id, t.seller_id, t.product_id) == ("alice", "bob", "pear")
    assert t.quantity == 2 and t.unit_price_cents == 150
    assert t.timestamp == datetime(2011, 3, 1, 10, tzinfo=timezone.utc)


def test_parse_transactions_jsonl():
    line = (b'{"buyer_id":"a","seller_id":"b","product_id":"p",'
            b'"quantity":1,"unit_price":"2.25","timestamp":"2011-05-01T00:00:00Z"}\n')
    res = parse_transactions(io.BytesIO(line), "jsonl")
    assert rows(res.records)[0].unit_price_cents == 225


def test_parse_transactions_bad_rows_tracked():
    filler = "".join(f"u{i},v{i},p,1,1.00,2011-01-01T00:00:00Z\n" for i in range(9))
    bad = TX_CSV + "x,y,p,0,1.00,2011-01-01T00:00:00Z\n" + filler  # quantity < 1
    res = parse_transactions(io.BytesIO(bad.encode()), "csv")
    assert len(res.records) == 11
    assert len(res.errors) == 1 and res.errors[0].line == 4


def test_parse_transactions_too_many_bad_rows():
    rows = ["buyer_id,seller_id,product_id,quantity,unit_price,timestamp"]
    rows += ["a,b,p,0,1.00,2011-01-01T00:00:00Z"] * 3     # all malformed
    with pytest.raises(ParseError):
        parse_transactions(io.BytesIO("\n".join(rows).encode()), "csv")


def test_parse_transactions_header_mismatch():
    with pytest.raises(ParseError):
        parse_transactions(io.BytesIO(b"foo,bar\n1,2\n"), "csv")


def test_parsers_refuse_what_the_writers_cannot_encode():
    # UTF-8 cannot encode a lone surrogate, so no writer can write one back
    header = "giver_id,receiver_id,rating,timestamp\n"
    row = "a\ud800,u000083,1,2011-01-02T09:08:26Z\n"
    with pytest.raises(ParseError, match="not valid UTF-8"):
        parse_feedback(io.StringIO(header + row), "csv")
    with pytest.raises(ParseError, match="not valid UTF-8"):    # invalid bytes too
        parse_feedback(io.BytesIO(header.encode() + b"a\xff,b,1,2011-01-02T09:08:26Z\n"),
                       "csv")
    # a JSON escape makes a lone surrogate from ASCII: that row is an error
    good = json.dumps({"giver_id": "a", "receiver_id": "b", "rating": 1,
                       "timestamp": "2011-01-02T09:08:26Z"})
    bad = good.replace('"a"', '"a\\ud800"').replace('"b"', '"\\udfff"')
    pair = good.replace('"a"', '"\\ud83d\\ude00"')           # a surrogate pair is fine
    text = "\n".join([good, bad, pair] + [good] * 8) + "\n"
    for stream in (io.StringIO(text), io.BytesIO(text.encode())):
        res = parse_feedback(stream, "jsonl")
        assert [(e.line, e.message) for e in res.errors] == [
            (2, "lone surrogate in ['giver_id', 'receiver_id']")]
        assert decode_ids(res.records.user_ids) == ["a", "b", "\U0001F600"]
        write_feedback(res.records, io.BytesIO())
    assert parse_rows_reference(text, "jsonl", "feedback")[1] == [
        (2, "lone surrogate in ['giver_id', 'receiver_id']")]


_HEADER = TX_CSV.splitlines(keepends=True)[0]


@pytest.mark.parametrize("text, line", [
    # a lone carriage return ends an unquoted field mid-line, which csv refuses
    (TX_CSV + "a\rb,bob,pear,2,1.50,2011-03-01T10:00:00Z\n", 4),
    (TX_CSV.replace("buyer_id,", "buyer\r_id,"), 1),
    # a quoted newline spans lines 2 and 3, so the bad row is on line 4
    (_HEADER + '"al\nice",bob,pear,2,1.50,2011-03-01T10:00:00Z\n'
     "a\rb,bob,pear,2,1.50,2011-03-01T10:00:00Z\n", 4),
])
def test_malformed_csv_names_its_line(text, line):
    with pytest.raises(ParseError, match=f"^line {line}: malformed CSV: "):
        parse_transactions(io.BytesIO(text.encode()), "csv", max_bad_fraction=1.0)


def test_self_trades_parsed_and_counted():
    rows = ("buyer_id,seller_id,product_id,quantity,unit_price,timestamp\n"
            "a,a,p,1,1.00,2011-01-01T00:00:00Z\n")
    res = parse_transactions(io.BytesIO(rows.encode()), "csv")
    assert res.self_trades == 1
    assert res.records.buyer[0] == res.records.seller[0]


def test_parse_feedback_rating_domain():
    filler = "".join(f"g{i},r{i},0,2011-02-01T00:00:00Z\n" for i in range(8))
    rows = ("giver_id,receiver_id,rating,timestamp\n"
            "a,b,1,2011-01-01T00:00:00Z\n"
            "b,a,-1,2011-01-02T00:00:00Z\n"
            "a,b,2,2011-01-03T00:00:00Z\n" + filler)
    res = parse_feedback(io.BytesIO(rows.encode()), "csv")
    assert res.records.rating[:2].tolist() == [1, -1]
    assert len(res.records) == 10
    assert len(res.errors) == 1 and res.errors[0].line == 4


def test_parse_profiles_missing_birth_year_and_duplicates():
    filler = "".join(f"u{i},1970,Iowa,2010-01-0{i % 9 + 1}\n" for i in range(8))
    text = ("user_id,birth_year,state,registration_date\n"
            "a,1980,Ohio,2010-05-01\n"
            "b,,default,2010-06-01\n"
            "a,1990,Texas,2010-07-01\n" + filler)
    res = parse_profiles(io.BytesIO(text.encode()), "csv")
    assert len(res.records) == 10
    assert res.records.birth_year[:2].tolist() == [1980, 0]     # 0: no birth year
    assert len(res.errors) == 1   # duplicate user_id
    assert rows(res.records)[0].registration_date == date(2010, 5, 1)


def test_load_label_list_dedups():
    ls = load_label_list(io.BytesIO(b"u1\nu2\nu1\n"))
    assert set(ls.shill_ids) == {"u1", "u2"}
    assert ls.duplicates == 1


def test_load_label_list_rejects_malformed():
    with pytest.raises(ParseError):
        load_label_list(io.BytesIO(b"u1\nbad id,\n"))


def test_ids_holding_nul_are_refused():
    # A bytes array drops a value's final NULs and would hold "a\0" as "a",
    # so an id holding a NUL is a malformed identifier
    ts = "2011-01-01T00:00:00Z"
    text = "".join(json.dumps({"giver_id": g, "receiver_id": "a", "rating": 1,
                               "timestamp": ts}) + "\n" for g in ("a\0", "b\0c", "b"))
    res = parse_feedback(io.BytesIO(text.encode()), "jsonl", max_bad_fraction=1.0)
    assert [(e.line, e.message) for e in res.errors] == [(1, _BAD_ID), (2, _BAD_ID)]
    assert decode_ids(res.records.user_ids) == ["a", "b"]
    text = f"giver_id,receiver_id,rating,timestamp\na\0,a,1,{ts}\nb,a,1,{ts}\n"
    res = parse_feedback(io.BytesIO(text.encode()), max_bad_fraction=1.0)
    assert [(e.line, e.message) for e in res.errors] == [(2, _BAD_ID)]
    with pytest.raises(ParseError, match="line 2: malformed identifier"):
        load_label_list(io.BytesIO(b"u1\nu\x002\n"))
    with pytest.raises(ValueError, match="NUL"):
        encode_ids(["a", "b\0"])


# ---------------------------------------------------------------------------
# writers round-trip


def _used_ids(table) -> list[str]:
    """The user ids a table's rows use, sorted."""
    pairs = [(r.buyer_id, r.seller_id) if isinstance(table, TransactionTable)
             else (r.giver_id, r.receiver_id) for r in rows(table)]
    return sorted({u for pair in pairs for u in pair})


def test_write_read_roundtrip_csv(tiny_corpus, small_corpus):
    transactions, feedback, profiles, labels = tiny_corpus
    for writer, parser, recs in (
        (write_transactions, parse_transactions, transactions),
        (write_feedback, parse_feedback, feedback),
        (write_profiles, parse_profiles, profiles),
        (write_transactions, parse_transactions, small_corpus.transactions),
        (write_feedback, parse_feedback, small_corpus.feedback),
        # header-only files
        (write_transactions, parse_transactions, transaction_table([])),
        (write_feedback, parse_feedback, feedback_table([])),
        (write_profiles, parse_profiles, profile_table([])),
        # profiles with edge values
        (write_profiles, parse_profiles, profile_table([
            Profile("ü1", 0, "Zürich", date(1, 1, 1)),
            Profile("abcdefgh", -1, " Ohio", date(9999, 12, 31)),
            Profile("abcdefghi", 958, "", date(2012, 2, 29)),
            Profile("abcdefghijklmnopq", 1958, "default", date(1969, 12, 31)),
            Profile("a\xa0b", 2**63 - 1, "Zürich", date(2010, 5, 1)),
            Profile("b", -2**63, "Zürich", date(2010, 5, 1))])),
    ):
        for fmt in ("csv", "jsonl"):
            buf = io.StringIO()
            writer(recs, buf, fmt)
            back = parser(io.BytesIO(buf.getvalue().encode()), fmt)
            assert rows(back.records) == rows(recs), fmt
            if not isinstance(recs, ProfileTable):
                assert decode_ids(back.records.user_ids) == _used_ids(recs), fmt
    buf = io.StringIO()
    write_labels(labels, buf)
    back = load_label_list(io.BytesIO(buf.getvalue().encode()))
    assert back.shill_ids == labels.shill_ids


_WRITERS = {TransactionTable: write_transactions, FeedbackTable: write_feedback,
            ProfileTable: write_profiles}

# Text for ids and states: ASCII, two- to four-byte UTF-8, and a space;
# `quoted` adds what csv quotes.
_PLAIN_CHARS = list("abqz09_.-") + ["ü", "€", "😀", " "]
_QUOTED_CHARS = [",", '"', "\r", "\n"]
_DAY_1 = -719_162                    # 0001-01-01
_DAY_9999 = 2_932_896                # 9999-12-31


def _random_tables(seed: int, quoted: bool) -> list:
    """A transaction, a feedback and a profile table of random rows, with
    the writers' edge values among them."""
    rng = np.random.default_rng(seed)
    chars = _PLAIN_CHARS + (_QUOTED_CHARS if quoted else [])

    def texts(k: int, max_len: int) -> list[str]:
        return ["".join(rng.choice(chars, rng.integers(1, max_len + 1))) for _ in range(k)]

    def draw(n: int, edges: list[int], low: int, high: int) -> np.ndarray:
        values = rng.integers(low, high, n)
        pick = rng.random(n) < 0.3
        values[pick] = rng.choice(np.array(edges, np.int64), pick.sum())
        return values

    n = int(rng.integers(50, 300))
    users, products, states = texts(60, 12), texts(20, 30), texts(8, 6) + [""]
    ts = draw(n, [0, -1, 86_399, -86_400, _DAY_1 * 86_400, _DAY_9999 * 86_400 + 86_399,
                  int(datetime(999, 5, 1, 12, 34, 56, tzinfo=timezone.utc).timestamp()),
                  int(datetime(1969, 12, 31, 23, 59, 59, tzinfo=timezone.utc).timestamp())],
              _DAY_1 * 86_400, _DAY_9999 * 86_400 + 86_400)
    users, products = encode_ids(users), encode_ids(products)
    transactions = TransactionTable(
        users, rng.integers(0, 60, n), rng.integers(0, 60, n), products,
        rng.integers(0, 20, n),
        draw(n, [0, 1, 9, 10, 10**18, 2**63 - 2, 2**63 - 1], 0, 10**6),
        draw(n, [0, 5, 99, 100, 10**15, 10**15 - 1, 2**63 - 1], 0, 10**7), ts)
    feedback = FeedbackTable(users, rng.integers(0, 60, n), rng.integers(0, 60, n),
                             rng.integers(-1, 2, n), ts[::-1].copy())
    profiles = ProfileTable(encode_ids(texts(n, 12)),
                            draw(n, [0, 0, -1, 999, 1958, -2**63, 2**63 - 1], -3000, 3000),
                            states, rng.integers(0, len(states), n),
                            draw(n, [0, -1, _DAY_1, _DAY_9999, -25_567], _DAY_1, _DAY_9999 + 1))
    return [transactions, feedback, profiles]


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
@pytest.mark.parametrize("seed", range(3))
def test_writers_match_row_reference(seed, quoted):
    tables = _random_tables(seed, quoted)
    if seed == 0:     # header-only files
        tables += [transaction_table([]), feedback_table([]), profile_table([])]
    for table in tables:
        for fmt in ("csv", "jsonl"):
            buf = io.StringIO()
            _WRITERS[type(table)](table, buf, fmt)
            assert buf.getvalue() == write_corpus_reference(table, fmt), (type(table), fmt)


# ---------------------------------------------------------------------------
# row errors: every kind, with its exact line number and message

_TS = "2011-01-01T00:00:00Z"
_NAIVE = "2011-01-01T00:00:00"
_TX = {"buyer_id": "a", "seller_id": "b", "product_id": "p", "quantity": 1,
       "unit_price": "1.50", "timestamp": _TS}
_FB = {"giver_id": "a", "receiver_id": "b", "rating": 1, "timestamp": _TS}
_PR = {"user_id": "a", "birth_year": 1980, "state": "Ohio",
       "registration_date": "2010-05-01"}


def _jsonl(base: dict, *rows) -> str:
    """One line per row: a dict updates `base`, a str is written verbatim."""
    return "".join((json.dumps(base | row) if isinstance(row, dict) else row) + "\n"
                   for row in rows)


_NO_OFFSET = "timestamp lacks a UTC offset: '2011-01-01T00:00:00'"
_BAD_ID = "empty or malformed identifier"
_NONE_INT = ("int() argument must be a string, a bytes-like object or a real "
             "number, not 'NoneType'")
_BAD_JSON = "invalid JSON: Expecting property name enclosed in double quotes"

# (parser, fmt) -> (text, records parsed, self-trades, [(line, message)])
ROW_ERROR_CASES = {
    ("transactions", "csv"): (
        "buyer_id,seller_id,product_id,quantity,unit_price,timestamp\n"
        f"a,b,p,1,1.50,{_TS}\n"
        "a,b,p,1,1.50\n"
        f"a,b,p,0,1.50,{_TS}\n"
        f"a,b,p,x,1.50,{_TS}\n"
        f"a,b,p,1,1.234,{_TS}\n"
        f"a,b,p,1,-1.00,{_TS}\n"
        f"a,b,p,1,1.00,{_NAIVE}\n"
        "a,b,p,1,1.00,yesterday\n"
        f"a ,b,p,1,1.00,{_TS}\n"
        f",b,p,1,1.00,{_TS}\n"
        f"c,c,p,2,0.99,{_TS}\n"
        "\n"
        f"b,a,q,3,4,{_TS}\n",
        3, 1,
        [(3, "expected 6 fields, got 5"),
         (4, "quantity must be >= 1, got 0"),
         (5, "invalid literal for int() with base 10: 'x'"),
         (6, "not a 2-decimal price: '1.234'"),
         (7, "negative price: '-1.00'"),
         (8, _NO_OFFSET),
         (9, "Invalid isoformat string: 'yesterday'"),
         (10, _BAD_ID),
         (11, _BAD_ID)]),
    ("transactions", "jsonl"): (
        _jsonl(_TX, {}, "{bad", "[1, 2]", '{"buyer_id": "a"}', {"quantity": 0},
               {"quantity": None}, {"unit_price": 1.234}, {"timestamp": _NAIVE},
               {"buyer_id": "a,b"}, {"buyer_id": "c", "seller_id": "c", "unit_price": 0.99},
               "", {"buyer_id": "b", "seller_id": "a", "quantity": "3", "unit_price": "4"},
               {"quantity": 2.7}),
        3, 1,
        [(2, _BAD_JSON),
         (3, "JSONL line is not an object"),
         (4, "missing keys: ['seller_id', 'product_id', 'quantity', 'unit_price', "
             "'timestamp']"),
         (5, "quantity must be >= 1, got 0"),
         (6, _NONE_INT),
         (7, "not a 2-decimal price: '1.234'"),
         (8, _NO_OFFSET),
         (9, _BAD_ID),
         (13, "quantity must be an integer, got 2.7")]),
    ("feedback", "csv"): (
        "giver_id,receiver_id,rating,timestamp\n"
        f"a,b,1,{_TS}\n"
        f"a,b,1,{_TS},extra\n"
        f"a,b,2,{_TS}\n"
        f"a,b,x,{_TS}\n"
        f"a,b,0,{_NAIVE}\n"
        f"a,,-1,{_TS}\n"
        "\n"
        f"b,a,-1,{_TS}\n",
        2, 0,
        [(3, "expected 4 fields, got 5"),
         (4, "rating must be -1, 0, or +1, got 2"),
         (5, "invalid literal for int() with base 10: 'x'"),
         (6, _NO_OFFSET),
         (7, _BAD_ID)]),
    ("feedback", "jsonl"): (
        _jsonl(_FB, {}, '{"giver_id": "a",', '"a"', '{"giver_id": "a", "receiver_id": "b", '
               f'"timestamp": "{_TS}"}}', {"rating": -2}, {"rating": None},
               {"timestamp": _NAIVE}, {"giver_id": " a"}, "",
               {"giver_id": "b", "receiver_id": "a", "rating": "-1"}, {"rating": 0.9}),
        2, 0,
        [(2, _BAD_JSON),
         (3, "JSONL line is not an object"),
         (4, "missing keys: ['rating']"),
         (5, "rating must be -1, 0, or +1, got -2"),
         (6, _NONE_INT),
         (7, _NO_OFFSET),
         (8, _BAD_ID),
         (11, "rating must be an integer, got 0.9")]),
    ("profiles", "csv"): (
        "user_id,birth_year,state,registration_date\n"
        "a,1980,Ohio,2010-05-01\n"
        "b,1980,Ohio\n"
        "a,1990,Texas,2010-07-01\n"
        "c,19x0,Ohio,2010-05-01\n"
        "d,1980,Ohio,2010-05-01T00:00:00\n"
        "e,1980,Ohio,2010-13-01\n"
        "f ,1980,Ohio,2010-05-01\n"
        ",1980,Ohio,2010-05-01\n"
        "\n"
        "h,,default,2010-06-01\n",
        2, 0,
        [(3, "expected 4 fields, got 3"),
         (4, "duplicate user_id 'a'"),
         (5, "invalid literal for int() with base 10: '19x0'"),
         (6, "timestamp lacks a UTC offset: '2010-05-01T00:00:00'"),
         (7, "month must be in 1..12"),
         (8, _BAD_ID),
         (9, _BAD_ID)]),
    ("profiles", "jsonl"): (
        _jsonl(_PR, {}, "nul", "3", '{"user_id": "b", "state": "Ohio"}',
               {"birth_year": 1990, "state": "Texas"},
               {"user_id": "c", "birth_year": "19x0"},
               {"user_id": "d", "registration_date": "2010-05-01T00:00:00"},
               {"user_id": "e\n"}, "",
               {"user_id": "h", "birth_year": None, "state": "default"},
               {"user_id": "i", "birth_year": 1958.9}, {"user_id": "j", "birth_year": True}),
        2, 0,
        [(2, "invalid JSON: Expecting value"),
         (3, "JSONL line is not an object"),
         (4, "missing keys: ['birth_year', 'registration_date']"),
         (5, "duplicate user_id 'a'"),
         (6, "invalid literal for int() with base 10: '19x0'"),
         (7, "timestamp lacks a UTC offset: '2010-05-01T00:00:00'"),
         (8, _BAD_ID),
         (11, "birth_year must be an integer, got 1958.9"),
         (12, "birth_year must be an integer, got True")]),
}

# corpus -> (parser, the noun its bad-fraction error uses)
_PARSERS = {"transactions": (parse_transactions, "transaction"),
            "feedback": (parse_feedback, "feedback"),
            "profiles": (parse_profiles, "profile")}


@pytest.mark.parametrize("what, fmt", sorted(ROW_ERROR_CASES))
def test_row_errors_are_pinned(what, fmt):
    text, n_records, self_trades, errors = ROW_ERROR_CASES[(what, fmt)]
    parser, noun = _PARSERS[what]
    res = parser(io.BytesIO(text.encode()), fmt, max_bad_fraction=1.0)
    assert [(e.line, e.message) for e in res.errors] == errors
    assert len(res.records) == n_records
    assert res.total_rows == n_records + len(errors)
    assert res.self_trades == self_trades
    # the default bad-row budget refuses the same input, naming the first error
    line, message = errors[0]
    with pytest.raises(ParseError) as exc:
        parser(io.BytesIO(text.encode()), fmt)
    assert str(exc.value) == (
        f"{len(errors)} of {res.total_rows} {noun} rows malformed (> 10%); "
        f"first: line {line}: {message}")


@pytest.mark.parametrize("block", [7, 64])
@pytest.mark.parametrize("what", sorted(_PARSERS))
def test_row_errors_are_pinned_across_scan_blocks(what, block, monkeypatch):
    # A plain CSV body is searched for separators a block of bytes at a
    # time, and timestamps are checked a block of rows at a time; with
    # blocks of a few bytes or rows, separators, bad rows and the last line
    # fall before, on and after block edges.
    monkeypatch.setattr(records, "_SCAN_BLOCK", block)
    monkeypatch.setattr(records, "_CHECK_ROWS", block)
    test_row_errors_are_pinned(what, "csv")
    # The same file without its blank and ragged lines, and without the
    # last newline, takes the plain path; each error keeps its row's line.
    text, n_records, self_trades, errors = ROW_ERROR_CASES[(what, "csv")]
    header, *body = text.rstrip("\n").split("\n")
    kept = [(line, row) for line, row in enumerate(body, start=2)
            if row.count(",") == header.count(",")]
    line_of = {line: k for k, (line, _) in enumerate(kept, start=2)}
    data = "\n".join([header, *(row for _, row in kept)]).encode()
    width = header.count(",") + 1
    assert records._plain_csv(data, len(header) + 1, width) is not None
    res = _PARSERS[what][0](io.BytesIO(data), "csv", max_bad_fraction=1.0)
    assert [(e.line, e.message) for e in res.errors] == [
        (line_of[line], message) for line, message in errors if line in line_of]
    assert len(res.records) == n_records and res.self_trades == self_trades


# ---------------------------------------------------------------------------
# the parsers against a row-by-row reference, on a generated corpus with
# valid but non-canonical and invalid values injected

_TS_VALUES = ("2011-03-01T10:00:00+02:00", "2011-03-01T10:00:00-00:30",
              "2011-03-01t10:00:00z", "2011-03-01T10:00:00z", "2011-03-01 10:00:00Z",
              "2011-03-01", "2011-03-01T10:00:00.250Z", "1969-12-31T23:59:59.500Z",
              " 2011-03-01T10:00:00Z", "2012-02-29T23:59:59Z", "2000-02-29T00:00:00Z",
              "1900-02-29T00:00:00Z", "2011-02-29T00:00:00Z", "2011-04-31T00:00:00Z",
              "2011-13-01T00:00:00Z", "2011-00-10T00:00:00Z", "2011-03-00T00:00:00Z",
              "2011-03-01T24:00:00Z", "2011-03-01T23:60:00Z", "2011-03-01T10:00:60Z",
              "0000-01-01T00:00:00Z", "0001-01-01T00:00:00Z", "0999-05-01T00:00:00Z",
              "9999-12-31T23:59:59Z", "1969-12-31T23:59:59Z",
              "２０１１-03-01T10:00:00Z", "2011-03-01T10:00:0٣Z", "2011-03-01T10:00:00ZZ",
              "2011/03/01T10:00:00Z", "", " " * 60 + "2011-03-01T10:00:00Z")
_PRICE_VALUES = (".5", "1.", "01.50", "1.234", "-0.00", "0.00", " 1.00", "+1.00",
                 "1e2", "１.５０", "", 1.5, 2, 1.234, "0" * 70 + "1.50", "1.2.3", "1..5")
_QUANTITY_VALUES = (" 3", "+3", "0", "-1", "3.0", "1_0", "３", "", True, 2.0, 2.7, 7)
_RATING_VALUES = ("+1", " 1", "-0", "1.0", "2", "", True, 1.0, 0.9, -1)
_ID_VALUES = ('a"b', "ü1", "aü", "x y", " a", "a ", "a,b", "a\nb", "", 5,
              "abcdefgh", "abcdefghi", "abcdefghijklmnop", "abcdefghijklmnopq",
              "\xa0a", "a\xa0", "\u3000a", "a\u3000", "\x85a", "a\x85", "\x1ca", "a\x1c",
              "long" * 20)
_BIRTH_VALUES = ("", " 1958", "+1958", "1958.0", "١٩٥٨", "19x0", "0958", "-", 1958, 1958.0,
                 1958.9, True, None, "99999999999999999999", "-9223372036854775809",
                 "-9223372036854775808", 9223372036854775807, "0")
_STATE_VALUES = ("New York, NY", 'Ohio "OH"', "Zürich", " Ohio", "", "default", "long" * 20)
_DATE_VALUES = ("2010-05-01T10:00:00Z", "2010-05-01T23:00:00-05:00", "2010-05-01T00:00:00",
                "2011-02-29", "2012-02-29", "2010-13-01", "2010-04-31", " 2010-05-01",
                "2010-5-01", "20100501", "yesterday", "")


def _injections(what: str, unquoted: bool = False) -> list[dict]:
    """One dict per injected row: column -> value written there.

    `unquoted` leaves out the values csv would quote (a comma, a quote or
    a newline), so that every line of the corpus is a plain comma split.
    """
    if what == "transactions":
        rows = [{"seller_id": "seller first"}]
        rows += [{"timestamp": v} for v in _TS_VALUES]
        rows += [{"unit_price": v} for v in _PRICE_VALUES]
        rows += [{"quantity": v} for v in _QUANTITY_VALUES]
        rows += [{c: v} for v in _ID_VALUES for c in ("buyer_id", "product_id")]
        rows += [{"quantity": "0", "unit_price": "1.234", "buyer_id": ""},
                 {"unit_price": "x", "timestamp": "x"},
                 {"timestamp": "2011-02-30T00:00:00Z", "seller_id": "a,b"},
                 {"buyer_id": "same", "seller_id": "same"},
                 {"buyer_id": "seller first"}]
    elif what == "profiles":
        rows = [{"birth_year": v} for v in _BIRTH_VALUES]
        rows += [{"state": v} for v in _STATE_VALUES]
        rows += [{"registration_date": v} for v in _DATE_VALUES]
        rows += [{"user_id": v} for v in _ID_VALUES]
        # a repeated id: the first row fails, the second claims the id, the third repeats it
        rows += [{"user_id": "twice", "registration_date": "2011-02-29"},
                 {"user_id": "twice"}, {"user_id": "twice", "birth_year": "x"}]
        # an id the first row gives as a float (known only to the row
        # function in jsonl) and the second as text: the first claims it
        rows += [{"user_id": 5.0}, {"user_id": "5.0"}]
    else:
        rows = [{"timestamp": v} for v in _TS_VALUES]
        rows += [{"rating": v} for v in _RATING_VALUES]
        rows += [{c: v} for v in _ID_VALUES for c in ("giver_id", "receiver_id")]
        rows += [{"rating": "5", "timestamp": "x"},
                 {"timestamp": "2011-02-30T00:00:00Z", "giver_id": ""}]
    if unquoted:
        rows = [r for r in rows if not any(isinstance(v, str) and set(v) & set(',"\n')
                                           for v in r.values())]
    return rows


def _injected_corpus(corpus, what: str, fmt: str, injections=None) -> str:
    """The corpus file with the injections (all of them by default);
    csv-unquoted ends without a final newline and csv with a trailing blank
    line."""
    if what == "transactions":
        columns = TRANSACTION_COLUMNS
        base = [(r.buyer_id, r.seller_id, r.product_id, r.quantity,
                 format_price(r.unit_price_cents), ts)
                for r, ts in zip(rows(corpus.transactions), format_rfc3339(corpus.transactions.ts))]
    elif what == "profiles":
        columns = PROFILE_COLUMNS
        base = [(p.user_id, p.birth_year or "", p.state_text, p.registration_date.isoformat())
                for p in rows(corpus.profiles)]
    else:
        columns = FEEDBACK_COLUMNS
        base = [(r.giver_id, r.receiver_id, r.rating, ts)
                for r, ts in zip(rows(corpus.feedback), format_rfc3339(corpus.feedback.ts))]
    records = [dict(zip(columns, row)) for row in base]
    if injections is None:
        injections = _injections(what, fmt == "csv-unquoted")
    for k, change in enumerate(injections):
        records[3 + 5 * k].update(change)
    if fmt == "csv-unquoted":
        return "\n".join(",".join(map(str, row)) for row in [columns, *map(dict.values, records)])
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(columns)
        w.writerows([row[c] for c in columns] for row in records)
        text = buf.getvalue()
        lines = text.split("\n")
        lines.insert(7, "")                          # a blank row
        lines.insert(11, ",".join(map(str, base[0][:-1])))  # a short row
        return "\n".join(lines) + "\n"
    lines = [json.dumps(row) for row in records]
    lines[7:7] = ["", "{oops", "[1, 2]", json.dumps({columns[0]: "a"}),
                  # past int's 4,300-digit limit, and past the recursion limit
                  json.dumps(records[0])[:-1] + ', "n": ' + "9" * 5000 + "}",
                  "[" * 100_000,
                  # a lone surrogate, which UTF-8 cannot encode
                  json.dumps({**records[0], columns[0]: "a\ud800"})]
    return "\n".join(lines) + "\n"


def _profile_rows(table, want_rows) -> tuple[list, list]:
    """A profile table's rows, and the reference's rows with no birth year
    as 0, as the table holds it, rather than None."""
    return ([(p.user_id, p.birth_year, p.state_text, p.registration_date) for p in rows(table)],
            [(u, b or 0, s, d) for u, b, s, d in want_rows])


@pytest.mark.parametrize("fmt", ["csv", "csv-unquoted", "jsonl"])
@pytest.mark.parametrize("what", ["transactions", "feedback", "profiles"])
def test_parsers_match_row_reference(what, fmt, small_corpus):
    text = _injected_corpus(small_corpus, what, fmt)
    variant, fmt = fmt, fmt.removesuffix("-unquoted")
    want_rows, want_errors = parse_rows_reference(text, fmt, what)
    parser = _PARSERS[what][0]
    res = parser(io.BytesIO(text.encode()), fmt, max_bad_fraction=1.0)
    if what == "transactions":
        got = [(r.buyer_id, r.seller_id, r.product_id, r.quantity, r.unit_price_cents,
                int(r.timestamp.timestamp())) for r in rows(res.records)]
        assert res.self_trades == sum(r[0] == r[1] for r in want_rows)
    elif what == "profiles":
        got, want_rows = _profile_rows(res.records, want_rows)
    else:
        got = [(r.giver_id, r.receiver_id, r.rating, int(r.timestamp.timestamp()))
               for r in rows(res.records)]
    assert [(e.line, e.message) for e in res.errors] == want_errors
    assert got == want_rows
    assert res.total_rows == len(want_rows) + len(want_errors)
    # the injections reach both outcomes: some parse, some fail
    assert 15 < len(want_errors) < len(_injections(what)) + 4
    if what == "profiles":
        # each injected row alone, so that no other row decides its outcome
        for change in _injections(what, variant == "csv-unquoted"):
            text = _injected_corpus(small_corpus, what, variant, [change])
            want_rows, want_errors = parse_rows_reference(text, fmt, what)
            res = parser(io.BytesIO(text.encode()), fmt, max_bad_fraction=1.0)
            assert [(e.line, e.message) for e in res.errors] == want_errors, change
            got, want_rows = _profile_rows(res.records, want_rows)
            assert got == want_rows, change


@pytest.mark.parametrize("block", [7, 64])
@pytest.mark.parametrize("fmt", ["csv", "csv-unquoted"])
@pytest.mark.parametrize("what", ["transactions", "feedback", "profiles"])
def test_parsers_match_row_reference_across_scan_blocks(what, fmt, block, small_corpus,
                                                        monkeypatch):
    # as test_row_errors_are_pinned_across_scan_blocks, on the injected corpus
    monkeypatch.setattr(records, "_SCAN_BLOCK", block)
    monkeypatch.setattr(records, "_CHECK_ROWS", block)
    test_parsers_match_row_reference(what, fmt, small_corpus)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_rfc3339_round_trip_before_year_1000(fmt):
    year_999 = int(datetime(999, 5, 1, tzinfo=timezone.utc).timestamp())
    assert format_rfc3339(np.array([year_999])) == ["0999-05-01T00:00:00Z"]
    text = TX_CSV.replace("2011-03-01T10:00:00Z", "0001-01-01T00:00:00Z") \
                 .replace("2011-03-02T10:00:00Z", "0999-05-01T12:34:56Z")
    first = parse_transactions(io.BytesIO(text.encode()), "csv")
    buf = io.StringIO()
    write_transactions(first.records, buf, fmt)
    assert "0001-01-01T00:00:00Z" in buf.getvalue()
    assert "0999-05-01T12:34:56Z" in buf.getvalue()
    again = parse_transactions(io.BytesIO(buf.getvalue().encode()), fmt)
    assert not again.errors and rows(again.records) == rows(first.records)
    assert [r.timestamp for r in rows(again.records)] == [
        datetime(1, 1, 1, tzinfo=timezone.utc),
        datetime(999, 5, 1, 12, 34, 56, tzinfo=timezone.utc)]
    # a year the parsers cannot read back is refused, and no int64 wraps
    # into a year that can be written
    extremes = [-2**63, -2**62, 2**62, 2**63 - 1]
    for ts in [-62_135_596_801, 253_402_300_800] + extremes:     # years 0 and 10000
        with pytest.raises(ValueError, match="outside years 1-9999"):
            write_transactions(replace(first.records, ts=np.array([0, ts])), io.StringIO(), fmt)
        feedback = FeedbackTable(first.records.user_ids, np.zeros(2, np.int64),
                                 np.ones(2, np.int64), np.ones(2, np.int64), np.array([0, ts]))
        with pytest.raises(ValueError, match="outside years 1-9999"):
            write_feedback(feedback, io.StringIO(), fmt)
    for day in [_DAY_1 - 1, _DAY_9999 + 1] + extremes:
        profiles = replace(profile_table([Profile("a", 0, "Ohio", date(2010, 5, 1)),
                                          Profile("b", 0, "Ohio", date(2010, 5, 1))]),
                           registration_day=np.array([0, day]))
        with pytest.raises(ValueError, match="outside years 1-9999"):
            write_profiles(profiles, io.StringIO(), fmt)


def test_calendar_matches_numpy_dates_on_every_day_of_years_1_to_9999():
    days = np.arange(_DAY_1, _DAY_9999 + 1)
    matrix, keep = records._calendar(days)
    assert keep.all() and matrix.shape == (len(days), 10)
    assert (matrix[:, [4, 7]] == ord("-")).all()
    day = days.astype("datetime64[D]")
    month = day.astype("datetime64[M]")
    for cols, want in ((range(4), month.astype("datetime64[Y]").astype(np.int64) + 1970),
                       (range(5, 7), month.astype(np.int64) % 12 + 1),
                       (range(8, 10), (day - month).astype(np.int64) + 1)):
        number = 0
        for c in cols:
            number = number * 10 + matrix[:, c].astype(np.int64) - ord("0")
        assert np.array_equal(number, want)
    # and every second of a day, on days spread over the range
    seconds = np.arange(86_400)
    days = np.random.default_rng(0).integers(_DAY_1, _DAY_9999 + 1, len(seconds))
    want = np.datetime_as_string((days * 86_400 + seconds).astype("datetime64[s]"))
    assert np.array_equal(records._calendar(days, seconds)[0],
                          np.char.add(want, "Z").astype("S20").view(np.uint8).reshape(-1, 20))


def test_writers_quote_ids_as_csv_does():
    ts = datetime(2011, 1, 1, tzinfo=timezone.utc)
    ids = ['a"b', "x,y", "n\nl", "ü1", "plain"]
    records = [Transaction(b, s, "p" + b, 1, 150, ts) for b in ids for s in ids[:2]]
    buf = io.StringIO()
    write_transactions(transaction_table(records), buf)
    want = io.StringIO()
    w = csv.writer(want, lineterminator="\n")
    w.writerow(TRANSACTION_COLUMNS)
    w.writerows((r.buyer_id, r.seller_id, r.product_id, 1, "1.50", "2011-01-01T00:00:00Z")
                for r in records)
    assert buf.getvalue() == want.getvalue()
    # ids csv leaves unquoted are written as they are
    fb = [Feedback(g, r, 1, ts) for g in ids[3:] for r in ids[3:]]
    buf = io.StringIO()
    write_feedback(feedback_table(fb), buf)
    want = io.StringIO()
    w = csv.writer(want, lineterminator="\n")
    w.writerow(FEEDBACK_COLUMNS)
    w.writerows((r.giver_id, r.receiver_id, 1, "2011-01-01T00:00:00Z") for r in fb)
    assert buf.getvalue() == want.getvalue()


@pytest.mark.parametrize("quoted", [False, True], ids=["synth", "random"])
def test_writers_give_binary_and_text_streams_the_same_content(small_corpus, small_matrix,
                                                               quoted):
    # a text stream gets the bytes a binary one gets, decoded
    tables = (_random_tables(5, True) if quoted
              else [small_corpus.transactions, small_corpus.feedback, small_corpus.profiles])
    calls = [lambda stream, t=t, fmt=fmt: _WRITERS[type(t)](t, stream, fmt)
             for t in tables for fmt in ("csv", "jsonl")]
    calls += [lambda stream: write_labels(small_corpus.labels, stream),
              lambda stream: write_feature_csv(small_matrix, stream)]
    for call in calls:
        binary, text = io.BytesIO(), io.StringIO()
        call(binary)
        call(text)
        assert binary.getvalue() and binary.getvalue().decode() == text.getvalue()
    # encoding is strict, as in a text file: a lone surrogate raises, in an
    # id when the table is made (ids are held as UTF-8), in a state when the
    # table is written
    with pytest.raises(UnicodeEncodeError):
        feedback_table([Feedback("a\ud800", "b", 1, datetime(2011, 1, 1, tzinfo=timezone.utc))])
    table = profile_table([Profile("a", 0, "a\ud800", date(2011, 1, 1))])
    for stream in (io.BytesIO(), io.StringIO()):
        with pytest.raises(UnicodeEncodeError):
            write_profiles(table, stream)


def test_lone_carriage_return_is_quoted_and_reads_back():
    # csv.writer leaves a lone "\r" bare when lines end in "\n", and
    # csv.reader then refuses the line; the writers quote it
    text = b'user_id,birth_year,state,registration_date\nu1,1970,"a\rb",2020-01-01\n' \
           b'u2,,CA,2020-01-02\n'
    first = parse_profiles(io.BytesIO(text))
    assert first.records.states == ["CA", "a\rb"] and not first.errors    # in byte order
    for fmt in ("csv", "jsonl"):
        buf = io.StringIO()
        write_profiles(first.records, buf, fmt)
        again = parse_profiles(io.BytesIO(buf.getvalue().encode()), fmt)
        assert not again.errors and rows(again.records) == rows(first.records)
        if fmt == "csv":
            assert buf.getvalue().encode() == text


def test_out_of_range_numbers_are_row_errors():
    # int64 columns cannot hold these; each is a row error, not a crash
    text = _jsonl(_TX, {"quantity": float("inf")}, {"quantity": "9" * 20},
                  {"unit_price": "9" * 20}, {})
    res = parse_transactions(io.BytesIO(text.encode()), "jsonl", max_bad_fraction=1.0)
    assert [(e.line, e.message) for e in res.errors] == [
        (1, "cannot convert float infinity to integer"),
        (2, "Python int too large to convert to C long"),
        (3, "Python int too large to convert to C long")]
    assert len(res.records) == 1
    text = _jsonl(_PR, {"birth_year": float("inf")}, {"user_id": "b", "birth_year": "9" * 20},
                  {"user_id": "c", "birth_year": -2**63 - 1}, {"user_id": "d", "birth_year": -2**63})
    res = parse_profiles(io.BytesIO(text.encode()), "jsonl", max_bad_fraction=1.0)
    assert [(e.line, e.message) for e in res.errors] == [
        (1, "cannot convert float infinity to integer"),
        (2, "birth_year 99999999999999999999 does not fit in 64 bits"),
        (3, "birth_year -9223372036854775809 does not fit in 64 bits")]
    assert decode_ids(res.records.user_ids) == ["d"]
    assert res.records.birth_year.tolist() == [-2**63]


def _parse_peak(table, write, parse) -> tuple[float, int]:
    """The tracemalloc peak of parsing the table as written, in bytes per
    byte of the file, and the rows parsed; the parse must refuse none."""
    buf = io.BytesIO()
    write(table, buf)
    data = buf.getvalue()
    stream = io.BytesIO(data)
    tracemalloc.start()
    try:
        res = parse(stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not res.errors
    return peak / len(data), res.total_rows


# One str object per field would take some 50 bytes for each 8 to 12 of
# text; whole-body int64 field positions and separator masks took about 7
# times the file.
def test_transaction_parse_memory_is_bounded():
    corpus = generate(MarketConfig(n_users=30_000, seed=1))
    ratio, total = _parse_peak(corpus.transactions, write_transactions, parse_transactions)
    assert total == len(corpus.transactions) > 100_000
    assert ratio < 6, ratio


def test_feedback_parse_memory_is_bounded():
    corpus = generate(MarketConfig(n_users=30_000, seed=1))
    ratio, total = _parse_peak(corpus.feedback, write_feedback, parse_feedback)
    assert total == len(corpus.feedback) > 100_000
    assert ratio < 6, ratio
