"""Marketplace corpora: columnar tables, CSV/JSONL parsing, and state hashing.

Three input corpora (transactions, feedback, user profiles) plus a
ground-truth shill list. Each corpus is a columnar table: int64 numpy
columns, with ids held as codes into a per-table array of their UTF-8
(numpy `S`) and state texts as codes into a list, so synth, the writers,
the parsers, `build_graphs` and the features pass whole columns and no
per-row objects. UTF-8 byte order is code-point order and no id holds a
NUL, so a sorted `S` array holds ids in Python's sorted() order. Prices
are exact integer cents so that large aggregation sums stay associative;
they become floats only when features are emitted. Timestamps are int
epoch seconds and registration dates int epoch days, UTC. A birth year
of 0 means the profile has none.

The parsers work on bytes columns: one fixed-width numpy `S` array per
column. A CSV body whose lines are plain (no quotes, carriage returns or
NULs, and width - 1 commas then a newline on every line) is read as bytes:
its commas and newlines are found a block of bytes at a time into one
array of field ends, and each column is gathered from the body with one
index per field. Quoted CSV and JSONL
are read row by row, and their values are encoded into the same columns.
Ids are coded by sorting: each id is packed into big-endian uint64 words,
whose sort is the bytes' order, so an id's code is its place among the
table's distinct ids, sorted. Each distinct id is checked once, on its
end bytes, and none is decoded.
Quantities, prices, ratings, birth years, canonical `YYYY-MM-DDTHH:MM:SSZ`
timestamps and canonical `YYYY-MM-DD` dates are read from the columns'
bytes. All three files take one path: a row that a column check cannot
prove valid goes through the file's row function, which accepts every
other valid form and gives an invalid row its error.

The writers make bytes too, a block of rows at a time: each column becomes
a uint8 matrix, ids and states gathered by code from a pool of their
UTF-8, numbers and dates formatted by digit arithmetic (a date's year,
month and day by integer civil-from-days arithmetic, no datetime64), and
one boolean mask cuts the rows out of the matrices side by side; each
block is written as it is made. A text holding a comma, a quote, a carriage return or a
newline is quoted as csv quotes it, once per distinct text. They write to
binary or text streams.
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


class ParseError(Exception):
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

    user_ids and product_ids hold distinct ids as UTF-8 bytes (numpy `S`),
    sorted when parsed; buyer/seller are codes into user_ids, product codes
    into product_ids, and an id array may hold ids that no row uses.
    price_cents is the unit price and ts the epoch second, UTC.
    """

    user_ids: np.ndarray
    buyer: np.ndarray
    seller: np.ndarray
    product_ids: np.ndarray
    product: np.ndarray
    quantity: np.ndarray
    price_cents: np.ndarray
    ts: np.ndarray

    def __len__(self) -> int:
        return len(self.ts)


@dataclass(frozen=True, eq=False)
class FeedbackTable:
    """The feedback corpus: giver/receiver codes into user_ids (as above), rating, ts."""

    user_ids: np.ndarray
    giver: np.ndarray
    receiver: np.ndarray
    rating: np.ndarray
    ts: np.ndarray

    def __len__(self) -> int:
        return len(self.ts)


@dataclass(frozen=True, eq=False)
class ProfileTable:
    """The profile corpus, one entry per user in each column.

    user_ids holds one id per row, as UTF-8 bytes (numpy `S`). birth_year is
    0 for a user without one; state holds codes into states, which may hold
    texts that no row uses; registration_day counts days since 1970-01-01,
    UTC.
    """

    user_ids: np.ndarray
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


def _valid_id(text: str) -> bool:
    return bool(text) and text == text.strip() and not any(c in text for c in ",\n\r\0")


def _read_bytes(stream) -> bytes:
    """The whole stream as UTF-8 bytes; a text stream's str is encoded."""
    if isinstance(stream, (str, bytes)):
        raise TypeError("pass an open file object, not a path")
    raw = stream.read()
    try:
        if not isinstance(raw, bytes):
            return raw.encode("utf-8")
        if not raw.isascii():
            raw.decode("utf-8")
    except UnicodeError as exc:       # invalid bytes, or a lone surrogate in a str
        raise ParseError(f"stream is not valid UTF-8: {exc}") from exc
    return raw


def _text(data: bytes) -> str:
    # the bytes were checked strictly on reading
    return data.decode("utf-8")


def encode_ids(ids) -> np.ndarray:
    """The UTF-8 of str ids as one bytes array (numpy `S`), strictly, or an
    `S` array as it is. `S` drops final NULs, so a NUL in an id is refused."""
    if isinstance(ids, np.ndarray) and ids.dtype.kind == "S":
        return ids
    ids = list(ids)
    if "\0" in "".join(ids):
        raise ValueError("an id holds a NUL")
    return np.array(list(map(str.encode, ids)), "S")


def decode_ids(ids: np.ndarray) -> list[str]:
    """The text of each id in a bytes array; the inverse of encode_ids."""
    return list(map(bytes.decode, ids.tolist()))


def sorted_find(sorted_keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(position, found) of each value in `sorted_keys` (ascending), by binary
    search and one comparison; `found` is what `np.isin` gives."""
    if len(sorted_keys) == 0:
        return np.zeros(len(values), np.int64), np.zeros(len(values), bool)
    pos = np.minimum(np.searchsorted(sorted_keys, values), len(sorted_keys) - 1)
    return pos, sorted_keys[pos] == values


def _lone_surrogate(value) -> bool:
    """Whether `value` is a str holding a lone surrogate, which UTF-8 cannot
    encode; a JSON escape such as "\\ud800" makes one."""
    if not isinstance(value, str) or value.isascii():
        return False
    try:
        value.encode()
    except UnicodeEncodeError:
        return True
    return False


# ---------------------------------------------------------------------------
# Parsing

# The longest value a bytes column holds. A longer one is held as b"", so
# its row goes to the row function, and a column never takes more than this
# many bytes per row.
_MAX_FIELD = 64

# _KEEP[k] keeps the first k bytes of a row of a bytes matrix.
_KEEP = np.where(np.arange(_MAX_FIELD) < np.arange(_MAX_FIELD + 1)[:, None], 255, 0)
_KEEP = _KEEP.astype(np.uint8)

# Bytes of a CSV body searched for separators at once.
_SCAN_BLOCK = 1 << 20

# Timestamps checked at once.
_CHECK_ROWS = 1 << 16


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
        text = [t.encode() for t in text]
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
    lack it). The separators are found _SCAN_BLOCK bytes at a time, into
    one (rows, width) array of field ends; each column's starts and lengths
    are taken from it only while that column is gathered.
    """
    if any(data.find(c, pos) >= 0 for c in (b'"', b"\r", b"\0")):
        return None
    size = len(data) - pos
    buf = np.zeros(size + _MAX_FIELD + 2, np.uint8)
    buf[:size] = np.frombuffer(data, np.uint8, size, pos)
    if size and buf[size - 1] != ord("\n"):
        buf[size] = ord("\n")
        size += 1
    body = buf[:size]
    dtype = np.int32 if size < 2**31 else np.int64
    parts, newlines = [], 0
    for at in range(0, size, _SCAN_BLOCK):
        block = body[at:at + _SCAN_BLOCK]
        separator = block == ord("\n")
        newlines += int(np.count_nonzero(separator))
        separator |= block == ord(",")
        parts.append((np.flatnonzero(separator) + at).astype(dtype))
    end = np.concatenate(parts or [np.empty(0, dtype)])
    del parts
    # Each line's last separator is a newline, and there are no others, so
    # the rest are commas.
    if len(end) != newlines * width:
        return None
    end = end.reshape(newlines, width)
    if not (body[end[:, -1]] == ord("\n")).all():
        return None
    odd = np.zeros(len(end), bool)

    def column(j: int) -> np.ndarray:
        # A field starts after the separator before it: a line's first field
        # after the newline that ends the line before.
        start = np.zeros(len(end), end.dtype)
        before = end[:, j - 1] if j else end[:-1, -1]
        np.add(before, 1, out=start[len(end) - len(before):])
        length = end[:, j] - start
        odd[length > _MAX_FIELD] = True
        return _byte_column(buf, start, length)

    def row(i: int) -> list[str]:
        bounds = [int(end[i - 1, -1]) if i else -1, *end[i].tolist()]
        return [_text(body[s + 1:e].tobytes()) for s, e in zip(bounds, bounds[1:])]

    return range(2, len(end) + 2), list(map(column, range(width))), odd, row


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
                values = pick(obj)
            except KeyError:
                missing = [c for c in columns if c not in obj]
                errors.append(RowError(line_no, f"missing keys: {missing}"))
                continue
            if "\\u" in line:
                odd = [c for c, v in zip(columns, values) if _lone_surrogate(v)]
                if odd:
                    errors.append(RowError(line_no, f"lone surrogate in {odd}"))
                    continue
            rows.append(values)
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
    """(code of each value, the distinct values), codes numbered in the
    values' sorted order.

    The values are packed into big-endian uint64 words, whose order is the
    bytes' order, and sorted; equal values form a run.
    """
    n = len(values)
    width = values.dtype.itemsize
    packed = np.zeros((n, -(-width // 8) * 8), np.uint8)
    packed[:, :width] = _matrix(values)
    words = packed.view(">u8")
    del packed                        # the sorted copy replaces the words
    order = np.argsort(words[:, 0]) if words.shape[1] == 1 else np.lexsort(words.T[::-1])
    words = words[order]
    new = np.ones(n, bool)
    np.any(words[1:] != words[:-1], axis=1, out=new[1:])
    del words
    rank = np.cumsum(new)
    rank -= 1
    codes = np.empty(n, np.int64)
    codes[order] = rank
    return codes, values[order[new]]


# Bytes that str.strip() removes from an ASCII end, and bytes no id holds.
_STRIPPED = np.array([*b"\t\n\v\f\r\x1c\x1d\x1e\x1f "], np.uint8)
_NOT_IN_ID = np.array([*b",\n\r"], np.uint8)


def _code_ids(*columns: np.ndarray) -> tuple[list[np.ndarray], tuple[np.ndarray, dict]]:
    """Codes of the valid ids in bytes columns sharing one id table, and
    that table: the distinct valid ids, sorted, and a dict of the ids only
    the row function finds, coded past them as met; _BAD for an invalid id.

    Each distinct id is checked once, on its first and last bytes; only an
    id with a non-ASCII end is checked by _valid_id.
    """
    codes, distinct = _distinct(np.concatenate(columns))
    raw = _matrix(distinct)
    size = np.count_nonzero(raw, axis=1)
    head, tail = raw[:, 0], raw[np.arange(len(raw)), np.maximum(size - 1, 0)]
    valid = (size > 0) & ~np.isin(head, _STRIPPED) & ~np.isin(tail, _STRIPPED)
    valid &= ~np.isin(raw, _NOT_IN_ID).any(axis=1)
    for i in np.flatnonzero(valid & ((head >= 0x80) | (tail >= 0x80))).tolist():
        valid[i] = _valid_id(_text(distinct[i]))
    code = np.where(valid, np.cumsum(valid) - 1, _BAD)
    return np.split(code[codes], np.cumsum([len(c) for c in columns[:-1]])), (distinct[valid], {})


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
    digits = np.zeros(n, np.int8)       # at most _MAX_FIELD
    point = np.full(n, -1, np.int8)     # digits read when the dot came; -1 before
    ok = np.ones(n, bool)
    for c in raw.T:
        digit = c - np.uint8(ord("0"))
        is_digit = digit <= 9
        is_dot = c == ord(".")
        ok &= is_digit | (c == 0) | (is_dot & (point < 0) & (decimals > 0))
        point[is_dot] = digits[is_dot]
        np.multiply(value, 10, out=value, where=is_digit)
        np.add(value, digit, out=value, where=is_digit)
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
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31], np.int32)


def _epoch_seconds(col: np.ndarray) -> np.ndarray:
    """Epoch seconds of canonical `YYYY-MM-DDTHH:MM:SSZ` values in a bytes
    column, else _BAD; _CHECK_ROWS values at a time."""
    out = np.empty(len(col), np.int64)
    for at in range(0, len(col), _CHECK_ROWS):
        out[at:at + _CHECK_ROWS] = _epoch_block(col[at:at + _CHECK_ROWS])
    return out


def _epoch_block(col: np.ndarray) -> np.ndarray:
    """_epoch_seconds of a block of values.

    The calendar checks are those of `datetime`: year >= 1, the month's
    day count with leap years, hour < 24, minute and second < 60. The
    calendar fields are int32, which holds a day count of years 0-9999;
    only the seconds are int64.
    """
    raw = _matrix(col)
    width = len(_TS_LOW)
    if raw.shape[1] < width:
        return np.full(len(raw), _BAD)
    def digit(k: int) -> np.ndarray:
        return raw[:, k] - _TS_LOW[k]

    ok = ~raw[:, width:].any(axis=1)
    for k in range(width):
        ok &= digit(k) <= _TS_SPAN[k]

    def number(start: int, size: int) -> np.ndarray:
        out = np.zeros(len(raw), np.int32)
        for k in range(start, start + size):
            out *= 10
            out += digit(k)
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
    seconds = days.astype(np.int64) * 86_400
    seconds += hour * 3_600 + minute * 60 + second
    return np.where(ok, seconds, _BAD)


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


def _id_code(table: tuple[np.ndarray, dict], user_id: str) -> int:
    ids, added = table
    pos, found = sorted_find(ids, encode_ids([user_id]))
    return int(pos[0]) if found[0] else added.setdefault(user_id, len(ids) + len(added))


def _sorted_ids(table: tuple[np.ndarray, dict], *codes: np.ndarray) -> tuple[np.ndarray, ...]:
    """The ids of an id table sorted, and the code arrays recoded to match."""
    ids, added = table
    if not added:
        return ids, *codes
    ids, rank = np.unique(np.concatenate([ids, encode_ids(added)]), return_inverse=True)
    return ids, *(rank[c] for c in codes)


def _row_path(lines, row, out, tables, make, errors) -> np.ndarray:
    """Settle the rows a fast check left as _BAD with `make`; the rows kept.

    make(*row(i)) returns row i's values in column order or raises its
    error; `tables` holds the id table of each id column, None elsewhere.
    """
    keep = np.logical_and.reduce([column != _BAD for column in out])
    for i in np.flatnonzero(~keep).tolist():
        try:
            for column, table, value in zip(out, tables, make(*row(i))):
                column[i] = value if table is None else _id_code(table, value)
        except (ValueError, TypeError, OverflowError) as exc:
            errors.append(RowError(lines[i], str(exc)))
        else:
            keep[i] = True
    return keep


def _kept(columns: list, keep: np.ndarray) -> list:
    """The kept rows of each column; the columns themselves when all are kept."""
    return columns if keep.all() else [column[keep] for column in columns]


def _transaction_table(lines, cols, odd, row, errors) -> TransactionTable:
    buyer, seller, product, quantity, price, timestamp = cols
    (b, s), users = _code_ids(buyer, seller)
    (p,), products = _code_ids(product)
    q = _unsigned(quantity)
    q[q == 0] = _BAD
    out = [b, s, p, q, _unsigned(price, 2), _epoch_seconds(timestamp)]
    keep = _row_path(lines, row, out, (users, users, products, None, None, None),
                     _transaction, errors)
    b, s, p, q, c, t = _kept(out, keep)
    return TransactionTable(*_sorted_ids(users, b, s), *_sorted_ids(products, p), q, c, t)


def _feedback_table(lines, cols, odd, row, errors) -> FeedbackTable:
    giver, receiver, rating, timestamp = cols
    (g, r), users = _code_ids(giver, receiver)
    rating = np.select([rating == b"-1", rating == b"0", rating == b"1"], [-1, 0, 1], _BAD)
    out = [g, r, rating, _epoch_seconds(timestamp)]
    keep = _row_path(lines, row, out, (users, users, None, None), _feedback, errors)
    g, r, v, t = _kept(out, keep)
    return FeedbackTable(*_sorted_ids(users, g, r), v, t)


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
    state_codes, distinct = _distinct(state)
    states = {_text(s): k for k, s in enumerate(distinct.tolist())}
    # owner[code] is the row holding the id, n while none does. The first
    # row of an id to pass every column check holds it, and the id's later
    # rows go to the row function, which finds it held. A row that the row
    # function accepts ahead of the holder takes the id from it.
    fast = np.flatnonzero((u != _BAD) & (year != _BAD) & (day != _BAD))
    fast_claims = fast[np.unique(u[fast], return_index=True)[1]]
    owner = np.full(len(users[0]) + n, n)
    owner[u[fast_claims]] = fast_claims
    u[np.setdiff1d(fast, fast_claims, assume_unique=True)] = _BAD
    taken: list[int] = []

    def profile(i, user_id, birth_raw, state, registration) -> tuple:
        user_id = str(user_id)
        if not _valid_id(user_id):
            raise ValueError("empty or malformed identifier")
        code = _id_code(users, user_id)
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
    ids = np.concatenate([users[0], encode_ids(users[1])])
    for i in taken:
        keep[i] = False
        errors.append(RowError(lines[i], f"duplicate user_id {_text(ids[u[i]])!r}"))
    u, year, state_codes, day = _kept(out, keep)
    return ProfileTable(ids[u], year, list(states), state_codes, day)


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


# Rows formatted at once; a block's temporaries take a few bytes per byte
# of its rows, padded to each column's widest value.
_BLOCK_ROWS = 1 << 13

# 10 ** k for k = 0..19: the digit count of a uint64 v > 0 is the number of
# these that are <= v.
_POW10_U64 = 10 ** np.arange(20, dtype=np.uint64)

# The days since 1970-01-01 of 0001-01-01 and 9999-12-31.
_FIRST_DAY, _LAST_DAY = -719_162, 2_932_896

# A cell is the bytes of one column for some rows: a (rows, width) uint8
# matrix and the mask of the bytes each row writes.


def text_pool(texts: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(matrix, mask, size): the UTF-8 of each text, left-aligned in a row
    of a uint8 matrix, the mask of its bytes and its byte count. Encoding is
    strict, so a lone surrogate raises UnicodeEncodeError."""
    joined = "".join(texts)
    if joined.isascii():
        data, size = joined.encode(), np.fromiter(map(len, texts), np.int64, len(texts))
    else:
        encoded = [t.encode() for t in texts]
        data, size = b"".join(encoded), np.fromiter(map(len, encoded), np.int64, len(texts))
    keep = np.arange(max(int(size.max(initial=0)), 1)) < size[:, None]
    matrix = np.zeros(keep.shape, np.uint8)
    matrix[keep] = np.frombuffer(data, np.uint8)
    return matrix, keep, size


def gather(pool: tuple[np.ndarray, np.ndarray, np.ndarray], codes: np.ndarray):
    """The cell of pool texts by code, as wide as its widest text."""
    matrix, keep, size = pool
    width = max(int(size[codes].max(initial=0)), 1)
    return matrix[codes, :width], keep[codes, :width]


def _digits(values: np.ndarray, count: int) -> np.ndarray:
    """The last `count` decimal digits of values >= 0 as ASCII, zero-padded."""
    matrix = np.empty((len(values), count), np.uint8)
    for k in range(count - 1, -1, -1):    # numpy divides fast by a scalar only
        matrix[:, k] = values % 10 + ord("0")
        values = values // 10
    return matrix


def _decimal(values: np.ndarray):
    """The cell of int64 values in decimal, right-aligned. A value's digit
    count is one plus the number of powers of ten from 10 up to the largest
    magnitude that it reaches."""
    negative = values < 0
    magnitude = values.view(np.uint64)
    magnitude = np.where(negative, -magnitude, magnitude)
    size = negative.astype(np.int64) + 1
    for power in _POW10_U64[1:len(str(magnitude.max(initial=0)))]:
        size += magnitude >= power
    width = int(size.max(initial=1))
    matrix = _digits(magnitude, width)
    matrix[np.flatnonzero(negative), width - size[negative]] = ord("-")
    return matrix, np.arange(width) >= width - size[:, None]


def _two_digits(matrix: np.ndarray, column: int, values: np.ndarray) -> None:
    """Write int32 values 0-99 as two ASCII digits from `column` on; v * 205
    >> 11 is v // 10 for every v below 1029."""
    tens = values * 205 >> 11
    matrix[:, column] = tens + ord("0")
    matrix[:, column + 1] = values - tens * 10 + ord("0")


def _calendar(days: np.ndarray, seconds: np.ndarray | None = None):
    """The cell of `YYYY-MM-DD` dates of days since 1970-01-01, or with
    seconds into the day `YYYY-MM-DDTHH:MM:SSZ` timestamps; years 1-9999,
    the range the parsers read.

    The day range is checked first, on the int64 days, so no later step
    can wrap. Year, month and day then come from H. Hinnant's
    civil_from_days ("chrono-Compatible Low-Level Date Algorithms") in
    int32: days are counted from 0000-03-01 in 400-year eras of 146,097
    days, and each year of an era runs from March, so a leap day is the
    last day of its year.
    """
    if len(days) and not (days.min() >= _FIRST_DAY and days.max() <= _LAST_DAY):
        raise ValueError("a date outside years 1-9999 cannot be written")
    z = days.astype(np.int32) + 719_468              # >= 0: days since 0000-03-01
    era = z // 146_097
    doe = z - era * 146_097                           # day of the era, 0-146096
    yoe = (doe - doe // 1460 + doe // 36_524 - doe // 146_096) // 365
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)   # day of the March year
    mp = (5 * doy + 2) // 153                         # month from March, 0-11
    month = np.where(mp < 10, mp + 3, mp - 9)
    year = era * 400 + yoe + (month <= 2)
    century = year * 5243 >> 19                       # year // 100 below 43699
    form = _TS_LOW[:10 if seconds is None else 20]
    matrix = np.tile(form, (len(days), 1))
    _two_digits(matrix, 0, century)
    _two_digits(matrix, 2, year - century * 100)
    _two_digits(matrix, 5, month)
    _two_digits(matrix, 8, doy - (153 * mp + 2) // 5 + 1)
    if seconds is not None:
        seconds = seconds.astype(np.int32)
        hour = seconds // 3600
        seconds = seconds - hour * 3600
        minute = seconds // 60
        _two_digits(matrix, 11, hour)
        _two_digits(matrix, 14, minute)
        _two_digits(matrix, 17, seconds - minute * 60)
    return matrix, np.broadcast_to(True, matrix.shape)


def _timestamp(ts: np.ndarray):
    return _calendar(*np.divmod(ts, 86_400))


def _price(cents: np.ndarray):
    """The cell of prices: dollar digits, a dot, two cent digits."""
    dollars, rest = np.divmod(cents, 100)
    matrix, keep = _decimal(dollars)
    tail = _digits(rest, 3)
    tail[:, 0] = ord(".")
    return np.hstack([matrix, tail]), np.hstack([keep, np.ones(tail.shape, bool)])


def _birth_year(year: np.ndarray):
    """Decimal, and no text for 0 (no birth year)."""
    matrix, keep = _decimal(year)
    return matrix, keep & (year != 0)[:, None]


def csv_bytes(header, n: int, cells):
    """The blocks of a CSV file as bytes: the header line, then n rows.
    cells(rows) gives the cell of each column for a slice of rows; rows are
    formatted, and yielded, in blocks."""
    yield (",".join(header) + "\n").encode()
    for start in range(0, n, _BLOCK_ROWS):
        block = cells(slice(start, start + _BLOCK_ROWS))
        rows = len(block[0][0])
        comma, newline = (np.full((rows, 1), ord(c), np.uint8) for c in ",\n")
        every = np.broadcast_to(True, (rows, 1))
        matrix = np.concatenate([part for m, _ in block for part in (m, comma)][:-1] + [newline],
                                axis=1)
        keep = np.concatenate([part for _, k in block for part in (k, every)], axis=1)
        yield matrix[keep].tobytes()


def write_bytes(stream, blocks) -> None:
    """Write blocks of UTF-8 to a binary stream, or their text to a text
    stream. Each block ends at a newline, so each one decodes alone."""
    for data in blocks:
        try:
            stream.write(data)
        except TypeError:
            stream.write(data.decode())


def _quoted(text: str) -> bool:
    """Whether csv quotes a field holding text, a lone carriage return
    included: csv.writer leaves one bare when lines end in "\n", and
    csv.reader then refuses the line."""
    return any(c in text for c in ',"\r\n')


def _csv_field(text: str) -> str:
    return '"' + text.replace('"', '""') + '"' if _quoted(text) else text


def _strings(cell, values: np.ndarray) -> list[str]:
    """The text of each value of a number, price or date column."""
    blocks = csv_bytes([], len(values), lambda rows: [cell(values[rows])])
    return b"".join(blocks).decode().split("\n")[1:-1]


def _write_table(stream, fmt: str, header: tuple[str, ...], columns: list) -> None:
    """Write a corpus table. Each column is (texts, codes), a text column of
    a list or an id array, or (cell, values) with cell(values) its bytes;
    _decimal and _birth_year columns are numbers in jsonl, the rest strings."""
    decoded = {id(c): decode_ids(c) for c, _ in columns if isinstance(c, np.ndarray)}
    columns = [(decoded.get(id(c), c), v) for c, v in columns]
    if fmt == "csv":
        pools = {id(texts): text_pool(list(map(_csv_field, texts)) if _quoted("".join(texts))
                                      else texts)
                 for texts, _ in columns if isinstance(texts, list)}
        blocks = csv_bytes(header, len(columns[0][1]), lambda rows: [
            gather(pools[id(c)], v[rows]) if isinstance(c, list) else c(v[rows])
            for c, v in columns])
    elif fmt == "jsonl":
        values = [list(map(c.__getitem__, v.tolist())) if isinstance(c, list)
                  else [int(t) if t else t for t in _strings(c, v)] if c in (_decimal, _birth_year)
                  else _strings(c, v) for c, v in columns]
        blocks = ["".join(json.dumps(dict(zip(header, row)), separators=(",", ":")) + "\n"
                          for row in zip(*values)).encode()]
    else:
        raise ValueError(f"unknown format {fmt!r}")
    write_bytes(stream, blocks)


def write_transactions(table: TransactionTable, stream, fmt: str = "csv") -> None:
    """Write the transactions as csv or jsonl to a binary or text stream."""
    _write_table(stream, fmt, TRANSACTION_COLUMNS, [
        (table.user_ids, table.buyer), (table.user_ids, table.seller),
        (table.product_ids, table.product), (_decimal, table.quantity),
        (_price, table.price_cents), (_timestamp, table.ts)])


def write_feedback(table: FeedbackTable, stream, fmt: str = "csv") -> None:
    """Write the feedback as csv or jsonl to a binary or text stream."""
    _write_table(stream, fmt, FEEDBACK_COLUMNS, [
        (table.user_ids, table.giver), (table.user_ids, table.receiver),
        (_decimal, table.rating), (_timestamp, table.ts)])


def write_profiles(table: ProfileTable, stream, fmt: str = "csv") -> None:
    """Write the profiles as csv or jsonl to a binary or text stream."""
    _write_table(stream, fmt, PROFILE_COLUMNS, [
        (table.user_ids, np.arange(len(table))), (_birth_year, table.birth_year),
        (table.states, table.state), (_calendar, table.registration_day)])


def write_labels(labels: LabelSet, stream) -> None:
    write_bytes(stream, ["".join(u + "\n" for u in sorted(labels.shill_ids)).encode()])


def write_json(value, stream) -> None:
    """Write a JSON artifact (a manifest, report or schema) to a text stream:
    indented by 2, keys sorted, ending in a newline, so reruns are byte-identical."""
    json.dump(value, stream, indent=2, sort_keys=True)
    stream.write("\n")
