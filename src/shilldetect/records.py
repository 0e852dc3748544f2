"""Marketplace corpora: columnar tables, CSV/JSONL parsing, and state hashing.

Three input corpora (transactions, feedback, user profiles) plus a
ground-truth shill list. Each corpus is a columnar table: int64 numpy
columns, with ids and state texts held as codes into per-table lists, so
synth, the writers, the parsers, `build_graphs` and the features pass
whole columns and no per-row objects. Prices are exact integer cents so
that large aggregation sums stay associative; they become floats only when
features are emitted. Timestamps are int epoch seconds and registration
dates int epoch days, UTC. A birth year of 0 means the profile has none.

The parsers work on bytes columns: one fixed-width numpy `S` array per
column. A CSV body whose lines are plain (no quotes, carriage returns or
NULs, and width - 1 commas then a newline on every line) is read as bytes:
one pass over its commas and newlines finds every field, and each column
is gathered from the body with one index per field. Quoted CSV and JSONL
are read row by row, and their values are encoded into the same columns.
Ids are coded by sorting: each id is packed into uint64 words, a sort
groups equal ids, and the smallest row of each group is the id's first
occurrence, so codes follow first occurrence, buyer column before seller.
Each distinct id is checked once, on its end bytes, and decoded once.
Quantities, prices, ratings, birth years, canonical `YYYY-MM-DDTHH:MM:SSZ`
timestamps and canonical `YYYY-MM-DD` dates are read from the columns'
bytes. All three files take one path: a row that a column check cannot
prove valid goes through the file's row function, which accepts every
other valid form and gives an invalid row its error.
"""

from __future__ import annotations

import csv
import io
import json
import operator
import zlib
from dataclasses import dataclass, field
from datetime import date, datetime, timezone

import numpy as np

TRANSACTION_COLUMNS = ("buyer_id", "seller_id", "product_id", "quantity", "unit_price", "timestamp")
FEEDBACK_COLUMNS = ("giver_id", "receiver_id", "rating", "timestamp")
PROFILE_COLUMNS = ("user_id", "birth_year", "state", "registration_date")

VALID_RATINGS = (-1, 0, 1)

# Maximum tolerated fraction of malformed rows before the whole parse fails.
DEFAULT_MAX_BAD_FRACTION = 0.10

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


class MarketDataError(Exception):
    """Base error for corpus ingestion problems."""


class ParseError(MarketDataError):
    """Unreadable stream or too many malformed rows."""


def crc32_state(state_text: str) -> int:
    """CRC-32 (IEEE 802.3 reflected polynomial) of the UTF-8 state text.

    Deterministic and bit-exact across platforms; crc32_state("") == 0 and
    crc32_state("123456789") == 0xCBF43926.
    """
    return zlib.crc32(state_text.encode("utf-8")) & 0xFFFFFFFF


def _epoch(ts) -> int:
    return int(ts.timestamp())


@dataclass(frozen=True, eq=False)
class TransactionTable:
    """The transaction corpus, one entry per transaction in each column.

    buyer/seller are codes into user_ids, product codes into product_ids;
    an id list may hold ids that no row uses. price_cents is the unit
    price and ts the epoch second, UTC.
    """

    user_ids: list[str]
    buyer: np.ndarray
    seller: np.ndarray
    product_ids: list[str]
    product: np.ndarray
    quantity: np.ndarray
    price_cents: np.ndarray
    ts: np.ndarray

    def __len__(self) -> int:
        return len(self.ts)


@dataclass(frozen=True, eq=False)
class FeedbackTable:
    """The feedback corpus: giver/receiver codes into user_ids, rating, ts."""

    user_ids: list[str]
    giver: np.ndarray
    receiver: np.ndarray
    rating: np.ndarray
    ts: np.ndarray

    def __len__(self) -> int:
        return len(self.ts)


@dataclass(frozen=True, eq=False)
class ProfileTable:
    """The profile corpus, one entry per user in each column.

    user_ids holds one id per row. birth_year is 0 for a user without one;
    state holds codes into states, which may hold texts that no row uses;
    registration_day counts days since 1970-01-01, UTC.
    """

    user_ids: list[str]
    birth_year: np.ndarray
    states: list[str]
    state: np.ndarray
    registration_day: np.ndarray

    def __len__(self) -> int:
        return len(self.user_ids)


@dataclass(frozen=True)
class LabelSet:
    """Ground-truth shill identifiers, deduplicated."""

    shill_ids: frozenset[str]
    duplicates: int = 0

    def __contains__(self, user_id: str) -> bool:
        return user_id in self.shill_ids

    def __len__(self) -> int:
        return len(self.shill_ids)


@dataclass(slots=True)
class RowError:
    line: int
    message: str


@dataclass
class ParseResult:
    """A table plus a per-row error report; nothing is silently dropped."""

    records: TransactionTable | FeedbackTable | ProfileTable
    errors: list[RowError] = field(default_factory=list)
    total_rows: int = 0
    self_trades: int = 0

    @property
    def bad_rows(self) -> int:
        return len(self.errors)


def parse_rfc3339(text: str) -> datetime:
    """RFC 3339 instant; a bare date gets time 00:00:00Z. Returns UTC."""
    text = text.strip()
    if len(text) == 10 and text.count("-") == 2:
        d = date.fromisoformat(text)
        return datetime(d.year, d.month, d.day, tzinfo=timezone.utc)
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        raise ValueError(f"timestamp lacks a UTC offset: {text!r}")
    return dt.astimezone(timezone.utc)


def format_rfc3339(ts: np.ndarray) -> list[str]:
    """`YYYY-MM-DDTHH:MM:SSZ` of each epoch second, the year zero-padded
    to four digits."""
    return [t + "Z" for t in np.datetime_as_string(ts.astype("datetime64[s]"), unit="s").tolist()]


def parse_price_cents(text: str) -> int:
    """Decimal dollar string to exact integer cents; at most 2 decimals."""
    text = text.strip()
    if not text:
        raise ValueError("empty price")
    negative = text.startswith("-")
    body = text[1:] if negative else text
    whole, _, frac = body.partition(".")
    if len(frac) > 2 or not (whole or frac) or not (whole + frac).isdigit():
        raise ValueError(f"not a 2-decimal price: {text!r}")
    cents = int(whole or "0") * 100 + int(frac.ljust(2, "0") or "0")
    if negative and cents != 0:
        raise ValueError(f"negative price: {text!r}")
    return cents


def format_price(cents: int) -> str:
    return f"{cents // 100}.{cents % 100:02d}"


def _valid_id(text: str) -> bool:
    return bool(text) and text == text.strip() and not any(c in text for c in ",\n\r")


def _read_bytes(stream) -> bytes:
    """The whole stream as UTF-8 bytes; a text stream's str is encoded."""
    if isinstance(stream, (str, bytes)):
        raise TypeError("pass an open file object, not a path")
    raw = stream.read()
    if not isinstance(raw, bytes):
        return raw.encode("utf-8", "surrogatepass")
    if not raw.isascii():
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"stream is not valid UTF-8: {exc}") from exc
    return raw


def _text(data: bytes) -> str:
    # surrogatepass undoes the encoding of a text stream's str; bytes that
    # came as bytes were checked strictly on reading.
    return data.decode("utf-8", "surrogatepass")


# ---------------------------------------------------------------------------
# Parsing

# The longest value a bytes column holds. A longer one is held as b"", so
# its row goes to the row function, and a column never takes more than this
# many bytes per row.
_MAX_FIELD = 64

# _KEEP[k] keeps the first k bytes of a row of a bytes matrix.
_KEEP = np.where(np.arange(_MAX_FIELD) < np.arange(_MAX_FIELD + 1)[:, None], 255, 0)
_KEEP = _KEEP.astype(np.uint8)


def _byte_column(buf: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The values buf[start[i]:start[i] + length[i]] as one fixed-width
    bytes array (numpy `S`); a value longer than _MAX_FIELD becomes b"".

    buf ends in at least _MAX_FIELD + 1 bytes that no value uses, so each
    value is one row of a strided window over buf, gathered with one index
    per value.
    """
    length = np.where(length > _MAX_FIELD, 0, length)
    width = max(int(length.max(initial=0)), 1)
    window = np.lib.stride_tricks.as_strided(buf, (len(buf) - width + 1, width), (1, 1),
                                             writeable=False)
    raw = window[start]
    if not (length == width).all():
        raw &= _KEEP[length, :width]
    return raw.view(f"S{width}").ravel()


def _encoded(values) -> tuple[np.ndarray, np.ndarray]:
    """The bytes column of Python values, and the values it cannot hold.

    A str is held as UTF-8 and an int as its decimal text. Any other value,
    a str holding a NUL (a bytes column would drop it) and one longer than
    _MAX_FIELD are held as b"", and only the row function reads them.
    """
    text = values if set(map(type, values)) <= {str} else [
        v if type(v) is str else str(v) if type(v) is int else "\0" for v in values]
    joined = "".join(text)
    odd = (np.fromiter(("\0" in t for t in text), bool, len(text)) if "\0" in joined
           else np.zeros(len(text), bool))
    if joined.isascii():
        data = joined.encode()
    else:
        text = [t.encode("utf-8", "surrogatepass") for t in text]
        data = b"".join(text)
    del joined
    length = np.fromiter(map(len, text), np.int64, len(text))
    odd |= length > _MAX_FIELD
    buf = np.zeros(len(data) + _MAX_FIELD + 1, np.uint8)
    buf[:len(data)] = np.frombuffer(data, np.uint8)
    return _byte_column(buf, np.cumsum(length) - length, np.where(odd, 0, length)), odd


def _malformed(line: int, exc: csv.Error) -> ParseError:
    # csv's hint to open the file in universal-newline mode does not apply:
    # the parsers read bytes.
    return ParseError(f"line {line}: malformed CSV: {str(exc).split(' - do you need')[0]}")


def _header_end(data: bytes, columns: tuple[str, ...]) -> int:
    """Where the CSV body starts, after a header row naming `columns`."""
    pos = 0

    def text_lines():
        # csv.reader takes lines only as it needs them, so after the header
        # row `pos` is where the body starts.
        nonlocal pos
        while pos < len(data):
            end = data.find(b"\n", pos) + 1 or len(data)
            line, pos = _text(data[pos:end]), end
            yield line

    reader = csv.reader(text_lines())
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("missing CSV header row") from None
    except csv.Error as exc:
        raise _malformed(reader.line_num, exc) from None
    if tuple(h.strip() for h in header) != columns:
        raise ParseError(f"unexpected CSV header {header!r}; want {list(columns)}")
    return pos


def _plain_csv(data: bytes, pos: int, width: int):
    """(line numbers, bytes columns, odd rows, row) of the CSV body data[pos:]
    if csv.reader's rows are its lines split at commas, else None.

    They are when the body holds no quotes, carriage returns or NULs and
    every line has width - 1 commas and then a newline (the last line may
    lack it).
    """
    size = len(data) - pos
    buf = np.zeros(size + _MAX_FIELD + 2, np.uint8)
    buf[:size] = np.frombuffer(data, np.uint8, size, pos)
    if size and buf[size - 1] != ord("\n"):
        buf[size] = ord("\n")
        size += 1
    body = buf[:size]
    separator = body == ord(",")
    separator |= body == ord("\n")
    end = np.flatnonzero(separator)
    del separator
    if len(end) % width or any(data.find(c, pos) >= 0 for c in (b'"', b"\r", b"\0")):
        return None
    kind = body[end].reshape(-1, width)
    if not ((kind[:, -1] == ord("\n")).all() and (kind[:, :-1] == ord(",")).all()):
        return None
    start = np.empty_like(end)
    start[:1] = 0
    start[1:] = end[:-1] + 1
    start = start.reshape(-1, width)
    length = end.reshape(-1, width) - start

    def row(i: int) -> list[str]:
        return [_text(body[s:s + n].tobytes())
                for s, n in zip(start[i].tolist(), length[i].tolist())]

    return (range(2, len(start) + 2), [_byte_column(buf, s, n) for s, n in zip(start.T, length.T)],
            length.max(axis=1, initial=0) > _MAX_FIELD, row)


def _read_columns(stream, fmt: str, columns: tuple[str, ...]):
    """(line numbers, bytes columns, odd rows, row, errors) of a csv or jsonl corpus.

    The bytes columns hold every row's values (see _byte_column); an odd
    row holds a value they do not (see _encoded). row(i) gives row i's
    values as read, for the row function. A row with the wrong field count,
    invalid JSON, a non-object or missing keys is an error here; a blank
    row is skipped but keeps its line.
    """
    data = _read_bytes(stream)
    width = len(columns)
    lines: list[int] = []
    rows: list = []
    errors: list[RowError] = []
    if fmt == "csv":
        pos = _header_end(data, columns)
        plain = _plain_csv(data, pos, width)
        if plain is not None:
            return (*plain, errors)
        reader = csv.reader(io.StringIO(_text(data[pos:])))
        try:
            for line_no, fields in enumerate(reader, start=2):
                if len(fields) == width:
                    lines.append(line_no)
                    rows.append(fields)
                elif fields:
                    errors.append(RowError(line_no,
                                           f"expected {width} fields, got {len(fields)}"))
        except csv.Error as exc:   # e.g. a lone carriage return in an unquoted field
            raise _malformed(data.count(b"\n", 0, pos) + reader.line_num, exc) from None
    elif fmt == "jsonl":
        pick = operator.itemgetter(*columns)
        for line_no, line in enumerate(_text(data).split("\n"), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                # a JSONDecodeError, an integer past int's digit limit, or
                # nesting past the recursion limit
                errors.append(RowError(line_no, f"invalid JSON: {getattr(exc, 'msg', exc)}"))
                continue
            if not isinstance(obj, dict):
                errors.append(RowError(line_no, "JSONL line is not an object"))
                continue
            try:
                rows.append(pick(obj))
            except KeyError:
                missing = [c for c in columns if c not in obj]
                errors.append(RowError(line_no, f"missing keys: {missing}"))
                continue
            lines.append(line_no)
    else:
        raise ValueError(f"unknown format {fmt!r} (csv or jsonl)")
    cols, odd = zip(*map(_encoded, zip(*rows) if rows else [()] * width))
    return lines, list(cols), np.logical_or.reduce(odd), rows.__getitem__, errors


_BAD = -2**63   # the int64 minimum: a value the fast checks leave to the row function


def _matrix(col: np.ndarray) -> np.ndarray:
    """The (rows, width) uint8 view of a bytes column."""
    return col.view(np.uint8).reshape(len(col), col.dtype.itemsize)


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(code of each value, row of each code's first occurrence), codes
    numbered in order of first occurrence.

    The values are packed into uint64 words and sorted; equal values form
    a run, and the smallest row of a run is where its value first occurs.
    """
    n = len(values)
    if n == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    width = values.dtype.itemsize
    packed = np.zeros((n, -(-width // 8) * 8), np.uint8)
    packed[:, :width] = _matrix(values)
    words = packed.view(np.uint64)
    order = np.argsort(words[:, 0]) if words.shape[1] == 1 else np.lexsort(words.T)
    words = words[order]
    new = np.empty(n, bool)
    new[0] = True
    np.any(words[1:] != words[:-1], axis=1, out=new[1:])
    del words
    first = np.minimum.reduceat(order, np.flatnonzero(new))
    by_first = np.argsort(first)
    code = np.empty(len(first), np.int64)
    code[by_first] = np.arange(len(first))
    codes = np.empty(n, np.int64)
    codes[order] = code[np.cumsum(new) - 1]
    return codes, first[by_first]


# Bytes that str.strip() removes from an ASCII end, and bytes no id holds.
_STRIPPED = np.array([*b"\t\n\v\f\r\x1c\x1d\x1e\x1f "], np.uint8)
_NOT_IN_ID = np.array([*b",\n\r"], np.uint8)


def _code_ids(*columns: np.ndarray) -> tuple[list[np.ndarray], dict[str, int]]:
    """Codes of the valid ids in bytes columns sharing one id table, and
    that table; _BAD for an invalid id.

    Codes follow first occurrence, the first column before the next. Each
    distinct id is checked once, on its first and last bytes; only an id
    with a non-ASCII end is checked by _valid_id.
    """
    values = np.concatenate(columns)
    codes, first = _distinct(values)
    distinct = values[first]
    raw = _matrix(distinct)
    size = np.count_nonzero(raw, axis=1)
    head, tail = raw[:, 0], raw[np.arange(len(raw)), np.maximum(size - 1, 0)]
    valid = (size > 0) & ~np.isin(head, _STRIPPED) & ~np.isin(tail, _STRIPPED)
    valid &= ~np.isin(raw, _NOT_IN_ID).any(axis=1)
    for i in np.flatnonzero(valid & ((head >= 0x80) | (tail >= 0x80))).tolist():
        valid[i] = _valid_id(_text(distinct[i]))
    code = np.where(valid, np.cumsum(valid) - 1, _BAD)
    # No valid id holds a newline, so one decode splits into the ids.
    ids = _text(b"\n".join(distinct[valid].tolist())).split("\n") if valid.any() else []
    return (np.split(code[codes], np.cumsum([len(c) for c in columns[:-1]])),
            dict(zip(ids, range(len(distinct)))))


# 10 ** k for k = 0..18: an int64 holds every value of at most 18 digits.
_POW10 = 10 ** np.arange(19, dtype=np.int64)


def _unsigned(col: np.ndarray, decimals: int = 0) -> np.ndarray:
    """int64 value times 10**decimals of each plain decimal in a bytes column.

    Plain means ASCII digits, with one dot and at most `decimals` digits
    after it where decimals > 0, and at most 18 digits in all once scaled.
    Any other value is _BAD, b"" too.
    """
    raw = _matrix(col)
    n = len(raw)
    value = np.zeros(n, np.int64)
    digits = np.zeros(n, np.int64)
    point = np.full(n, -1, np.int64)    # digits read when the dot came; -1 before
    ok = np.ones(n, bool)
    for c in raw.T:
        digit = c - np.uint8(ord("0"))
        is_digit = digit <= 9
        is_dot = c == ord(".")
        ok &= is_digit | (c == 0) | (is_dot & (point < 0) & (decimals > 0))
        point[is_dot] = digits[is_dot]
        value = np.where(is_digit, value * 10 + digit, value)
        digits += is_digit
    shift = decimals - np.where(point >= 0, digits - point, 0)
    ok &= (digits > 0) & (shift >= 0) & (digits + shift <= 18)
    return np.where(ok, value * _POW10[np.clip(shift, 0, 18)], _BAD)


def _integer(name: str, value) -> int:
    """int(value); a bool, or a float with a fraction part, is an error
    rather than truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and int(value) != value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


# A canonical timestamp's bytes: a digit where the form has "0", else the
# form's byte. A byte minus _TS_LOW is at most _TS_SPAN, and is the digit.
_TS_LOW = np.frombuffer(b"0000-00-00T00:00:00Z", np.uint8)
_TS_SPAN = np.where(_TS_LOW == ord("0"), 9, 0).astype(np.uint8)
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _epoch_seconds(col: np.ndarray) -> np.ndarray:
    """Epoch seconds of canonical `YYYY-MM-DDTHH:MM:SSZ` values in a bytes
    column, else _BAD.

    The calendar checks are those of `datetime`: year >= 1, the month's
    day count with leap years, hour < 24, minute and second < 60.
    """
    raw = _matrix(col)
    width = len(_TS_LOW)
    if raw.shape[1] < width:
        return np.full(len(raw), _BAD)
    digit = raw[:, :width] - _TS_LOW
    ok = (digit <= _TS_SPAN).all(axis=1) & ~raw[:, width:].any(axis=1)

    def number(start: int, size: int) -> np.ndarray:
        out = np.zeros(len(raw), np.int64)
        for k in range(start, start + size):
            out = out * 10 + digit[:, k]
        return out

    year, month, day = number(0, 4), number(5, 2), number(8, 2)
    hour, minute, second = number(11, 2), number(14, 2), number(17, 2)
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.clip(month, 0, 12)] + (leap & (month == 2))
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
    ok &= (hour < 24) & (minute < 60) & (second < 60)
    # Days since 1970-01-01 in the proleptic Gregorian calendar, counting
    # years from March so that the leap day falls last.
    y = year - (month <= 2)
    day_of_year = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    days = 365 * y + y // 4 - y // 100 + y // 400 + day_of_year - 719_468
    return np.where(ok, days * 86_400 + hour * 3_600 + minute * 60 + second, _BAD)


def _transaction(buyer, seller, product, quantity, price, timestamp) -> tuple:
    quantity = _integer("quantity", quantity)
    if quantity < 1:
        raise ValueError(f"quantity must be >= 1, got {quantity}")
    cents = parse_price_cents(price if isinstance(price, str) else repr(price))
    ts = parse_rfc3339(str(timestamp))
    buyer, seller, product = str(buyer), str(seller), str(product)
    if not (_valid_id(buyer) and _valid_id(seller) and _valid_id(product)):
        raise ValueError("empty or malformed identifier")
    return buyer, seller, product, quantity, cents, _epoch(ts)


def _feedback(giver, receiver, rating, timestamp) -> tuple:
    rating = _integer("rating", rating)
    if rating not in VALID_RATINGS:
        raise ValueError(f"rating must be -1, 0, or +1, got {rating}")
    ts = parse_rfc3339(str(timestamp))
    giver, receiver = str(giver), str(receiver)
    if not (_valid_id(giver) and _valid_id(receiver)):
        raise ValueError("empty or malformed identifier")
    return giver, receiver, rating, _epoch(ts)


def _row_path(lines, row, out, tables, make, errors) -> np.ndarray:
    """Settle the rows a fast check left as _BAD with `make`; the rows kept.

    make(*row(i)) returns row i's values in column order or raises its
    error; `tables` holds the id table of each id column, None elsewhere.
    """
    keep = np.logical_and.reduce([column != _BAD for column in out])
    for i in np.flatnonzero(~keep).tolist():
        try:
            for column, table, value in zip(out, tables, make(*row(i))):
                column[i] = value if table is None else table.setdefault(value, len(table))
        except (ValueError, TypeError, OverflowError) as exc:
            errors.append(RowError(lines[i], str(exc)))
        else:
            keep[i] = True
    return keep


def _transaction_table(lines, cols, odd, row, errors) -> TransactionTable:
    buyer, seller, product, quantity, price, timestamp = cols
    (b, s), users = _code_ids(buyer, seller)
    (p,), products = _code_ids(product)
    q = _unsigned(quantity)
    q[q == 0] = _BAD
    out = [b, s, p, q, _unsigned(price, 2), _epoch_seconds(timestamp)]
    keep = _row_path(lines, row, out, (users, users, products, None, None, None),
                     _transaction, errors)
    b, s, p, q, c, t = (column[keep] for column in out)
    return TransactionTable(list(users), b, s, list(products), p, q, c, t)


def _feedback_table(lines, cols, odd, row, errors) -> FeedbackTable:
    giver, receiver, rating, timestamp = cols
    (g, r), users = _code_ids(giver, receiver)
    rating = np.select([rating == b"-1", rating == b"0", rating == b"1"], [-1, 0, 1], _BAD)
    out = [g, r, rating, _epoch_seconds(timestamp)]
    keep = _row_path(lines, row, out, (users, users, None, None), _feedback, errors)
    g, r, v, t = (column[keep] for column in out)
    return FeedbackTable(list(users), g, r, v, t)


def _parse(stream, fmt: str, columns: tuple[str, ...], build, what: str,
           max_bad_fraction: float) -> ParseResult:
    """build(lines, cols, odd, row, errors) makes the records and appends
    row errors; see _read_columns for its arguments."""
    lines, cols, odd, row, errors = _read_columns(stream, fmt, columns)
    total = len(lines) + len(errors)
    records = build(lines, cols, odd, row, errors)
    errors.sort(key=operator.attrgetter("line"))
    result = ParseResult(records, errors, total)
    if total and result.bad_rows / total > max_bad_fraction:
        first = errors[0]
        raise ParseError(
            f"{result.bad_rows} of {total} {what} rows malformed "
            f"(> {max_bad_fraction:.0%}); first: line {first.line}: {first.message}"
        )
    return result


def parse_transactions(stream, fmt: str = "csv",
                       max_bad_fraction: float = DEFAULT_MAX_BAD_FRACTION) -> ParseResult:
    """Parse the transaction corpus; malformed rows are reported per line."""
    result = _parse(stream, fmt, TRANSACTION_COLUMNS, _transaction_table, "transaction",
                    max_bad_fraction)
    result.self_trades = int(np.count_nonzero(result.records.buyer == result.records.seller))
    return result


def parse_feedback(stream, fmt: str = "csv",
                   max_bad_fraction: float = DEFAULT_MAX_BAD_FRACTION) -> ParseResult:
    """Parse the feedback corpus; ratings outside {-1, 0, +1} are row errors."""
    return _parse(stream, fmt, FEEDBACK_COLUMNS, _feedback_table, "feedback",
                  max_bad_fraction)


def _profile_table(lines, cols, odd, row, errors) -> ProfileTable:
    """The profiles, each id claimed by the first row, in line order, that
    is accepted; a later row holding the id is a duplicate."""
    user_id, birth, state, registration = cols
    n = len(lines)
    (u,), users = _code_ids(user_id)
    year = np.where(birth == b"", 0, _unsigned(birth))
    year[odd] = _BAD
    seconds = _epoch_seconds(np.char.add(registration, b"T00:00:00Z"))
    day = np.where(seconds == _BAD, _BAD, seconds // 86_400)
    state_codes, first = _distinct(state)
    states = {_text(s): k for k, s in enumerate(state[first].tolist())}
    # owner[code] is the row holding the id, n while none does. The first
    # row of an id to pass every column check holds it, and the id's later
    # rows go to the row function, which finds it held. A row that the row
    # function accepts ahead of the holder takes the id from it.
    fast = np.flatnonzero((u != _BAD) & (year != _BAD) & (day != _BAD))
    fast_claims = fast[np.unique(u[fast], return_index=True)[1]]
    owner = np.full(len(users) + n, n)
    owner[u[fast_claims]] = fast_claims
    u[np.setdiff1d(fast, fast_claims, assume_unique=True)] = _BAD
    taken: list[int] = []

    def profile(i, user_id, birth_raw, state, registration) -> tuple:
        user_id = str(user_id)
        if not _valid_id(user_id):
            raise ValueError("empty or malformed identifier")
        code = users.setdefault(user_id, len(users))
        if owner[code] < i:
            raise ValueError(f"duplicate user_id {user_id!r}")
        birth_year = 0 if birth_raw in ("", None) else _integer("birth_year", birth_raw)
        if not _BAD <= birth_year < -_BAD:
            raise ValueError(f"birth_year {birth_year} does not fit in 64 bits")
        registration = (parse_rfc3339(str(registration)) - _EPOCH).days
        if owner[code] < n:
            taken.append(int(owner[code]))
        owner[code] = i
        return code, birth_year, states.setdefault(str(state), len(states)), registration

    out = [u, year, state_codes, day]
    keep = _row_path(lines, lambda i: (i, *row(i)), out, (None,) * 4, profile, errors)
    ids = list(users)
    for i in taken:
        keep[i] = False
        errors.append(RowError(lines[i], f"duplicate user_id {ids[u[i]]!r}"))
    u, year, state_codes, day = (column[keep] for column in out)
    return ProfileTable(list(map(ids.__getitem__, u.tolist())), year, list(states),
                        state_codes, day)


def parse_profiles(stream, fmt: str = "csv",
                   max_bad_fraction: float = DEFAULT_MAX_BAD_FRACTION) -> ParseResult:
    """Parse user profiles; one row per user, duplicates are row errors."""
    return _parse(stream, fmt, PROFILE_COLUMNS, _profile_table, "profile", max_bad_fraction)


def load_label_list(stream) -> LabelSet:
    """One shill id per line; duplicates are dropped and counted."""
    ids: set[str] = set()
    duplicates = 0
    for line_no, line in enumerate(_text(_read_bytes(stream)).split("\n"), start=1):
        user_id = line.strip()
        if not user_id:
            continue
        if not _valid_id(user_id):
            raise ParseError(f"line {line_no}: malformed identifier {user_id!r}")
        if user_id in ids:
            duplicates += 1
        else:
            ids.add(user_id)
    return LabelSet(frozenset(ids), duplicates)


# ---------------------------------------------------------------------------
# Writing


def _formatted(values: np.ndarray, fmt=str) -> list[str]:
    """fmt(v) of each value, formatted once per distinct value."""
    values = values.tolist()
    text = {v: fmt(v) for v in set(values)}
    return list(map(text.__getitem__, values))


def _write_columns(cols: list, stream, fmt: str, columns: tuple[str, ...]) -> None:
    """A csv header and one line per row, or one JSON object per jsonl line.

    Each column is a list or an int array. csv lines are joined whole; if
    a field holds a comma, a quote or a newline, which csv quotes,
    csv.writer writes the rows instead.
    """
    if fmt == "csv":
        cols = [_formatted(c) if isinstance(c, np.ndarray) else list(map(str, c)) for c in cols]
        n = len(cols[0])
        text = "\n".join(map(",".join, zip(*cols)))
        if '"' in text or text.count(",") != n * (len(columns) - 1) or text.count("\n") != max(n - 1, 0):
            w = csv.writer(stream, lineterminator="\n")
            w.writerow(columns)
            w.writerows(zip(*cols))
        else:
            stream.write(",".join(columns) + "\n" + text + "\n" * (n > 0))
    elif fmt == "jsonl":
        for row in zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in cols)):
            stream.write(json.dumps(dict(zip(columns, row)), separators=(",", ":")) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _names(ids: list[str], codes: np.ndarray) -> list[str]:
    return list(map(ids.__getitem__, codes.tolist()))


def write_transactions(table: TransactionTable, stream, fmt: str = "csv") -> None:
    _write_columns([_names(table.user_ids, table.buyer), _names(table.user_ids, table.seller),
                    _names(table.product_ids, table.product), table.quantity,
                    _formatted(table.price_cents, format_price), format_rfc3339(table.ts)],
                   stream, fmt, TRANSACTION_COLUMNS)


def write_feedback(table: FeedbackTable, stream, fmt: str = "csv") -> None:
    _write_columns([_names(table.user_ids, table.giver), _names(table.user_ids, table.receiver),
                    table.rating, format_rfc3339(table.ts)],
                   stream, fmt, FEEDBACK_COLUMNS)


def write_profiles(table: ProfileTable, stream, fmt: str = "csv") -> None:
    days = table.registration_day.astype("datetime64[D]")
    _write_columns([table.user_ids, [y or "" for y in table.birth_year.tolist()],
                    _names(table.states, table.state), np.datetime_as_string(days).tolist()],
                   stream, fmt, PROFILE_COLUMNS)


def write_labels(labels: LabelSet, stream) -> None:
    for user_id in sorted(labels.shill_ids):
        stream.write(user_id + "\n")

