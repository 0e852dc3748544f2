"""Marketplace corpora: columnar tables, CSV/JSONL parsing, and state hashing.

Three input corpora (transactions, feedback, user profiles) plus a
ground-truth shill list. Transactions and feedback are columnar tables:
int64 numpy columns, with ids held as codes into per-table id lists, so
synth, the writers, the parsers and `build_graphs` pass whole columns
and no per-row objects. Prices are exact integer cents so that large
aggregation sums stay associative; they become floats only when features
are emitted. Timestamps are int epoch seconds, UTC. Profiles stay a list
of records. The record dataclasses are a table's row view: iterating a
table yields them, and `from_records` builds a table from hand-made ones.

The parsers check each column at once: every distinct id, quantity and
price once, and canonical `YYYY-MM-DDTHH:MM:SSZ` timestamps as bytes. A
row that fails any of these checks goes through the row function, which
accepts every other valid form and gives an invalid row its error.
"""

from __future__ import annotations

import csv
import io
import json
import operator
import zlib
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone

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


@dataclass(frozen=True, slots=True)
class TransactionRecord:
    """One buy/sell event: buyer_id bought quantity units from seller_id."""

    buyer_id: str
    seller_id: str
    product_id: str
    quantity: int
    unit_price_cents: int
    timestamp: datetime

    @property
    def amount_cents(self) -> int:
        # Transaction total; derived, never stored.
        return self.quantity * self.unit_price_cents

    @property
    def is_self_trade(self) -> bool:
        return self.buyer_id == self.seller_id


@dataclass(frozen=True, slots=True)
class FeedbackRecord:
    """One rating event: giver_id rated receiver_id with -1, 0, or +1."""

    giver_id: str
    receiver_id: str
    rating: int
    timestamp: datetime


@dataclass(frozen=True, slots=True)
class UserProfile:
    user_id: str
    birth_year: int | None
    state_text: str
    registration_date: date


def _codes(values, table: dict) -> np.ndarray:
    """Codes of `values` in `table`, appending unseen values."""
    return np.array([table.setdefault(v, len(table)) for v in values], np.int64)


def _epoch(ts) -> int:
    return int(ts.timestamp())


def _utc(epoch_seconds: int) -> datetime:
    return _EPOCH + timedelta(seconds=epoch_seconds)


class _Table:
    """Length and row equality: tables holding the same rows are equal,
    whatever their codes or the order of their id lists."""

    def __len__(self) -> int:
        return len(self.ts)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return list(self) == list(other)


@dataclass(frozen=True, eq=False)
class TransactionTable(_Table):
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

    @classmethod
    def from_records(cls, records) -> "TransactionTable":
        records = list(records)
        users: dict[str, int] = {}
        products: dict[str, int] = {}
        buyer = _codes([r.buyer_id for r in records], users)
        seller = _codes([r.seller_id for r in records], users)
        product = _codes([r.product_id for r in records], products)
        return cls(list(users), buyer, seller, list(products), product,
                   np.array([r.quantity for r in records], np.int64),
                   np.array([r.unit_price_cents for r in records], np.int64),
                   np.array([_epoch(r.timestamp) for r in records], np.int64))

    def __iter__(self):
        users, products = self.user_ids, self.product_ids
        for b, s, p, q, c, t in zip(self.buyer.tolist(), self.seller.tolist(),
                                    self.product.tolist(), self.quantity.tolist(),
                                    self.price_cents.tolist(), self.ts.tolist()):
            yield TransactionRecord(users[b], users[s], products[p], q, c, _utc(t))


@dataclass(frozen=True, eq=False)
class FeedbackTable(_Table):
    """The feedback corpus: giver/receiver codes into user_ids, rating, ts."""

    user_ids: list[str]
    giver: np.ndarray
    receiver: np.ndarray
    rating: np.ndarray
    ts: np.ndarray

    @classmethod
    def from_records(cls, records) -> "FeedbackTable":
        records = list(records)
        users: dict[str, int] = {}
        giver = _codes([r.giver_id for r in records], users)
        receiver = _codes([r.receiver_id for r in records], users)
        return cls(list(users), giver, receiver,
                   np.array([r.rating for r in records], np.int64),
                   np.array([_epoch(r.timestamp) for r in records], np.int64))

    def __iter__(self):
        users = self.user_ids
        for g, r, v, t in zip(self.giver.tolist(), self.receiver.tolist(),
                              self.rating.tolist(), self.ts.tolist()):
            yield FeedbackRecord(users[g], users[r], v, _utc(t))


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
    """A table (profiles: a list) plus a per-row error report; nothing is
    silently dropped."""

    records: TransactionTable | FeedbackTable | list[UserProfile]
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


def _decode_lines(stream) -> io.TextIOBase:
    if isinstance(stream, (str, bytes)):
        raise TypeError("pass an open file object, not a path")
    raw = stream.read()
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"stream is not valid UTF-8: {exc}") from exc
    return io.StringIO(raw)


# ---------------------------------------------------------------------------
# Parsing


def _read_columns(stream, fmt: str, columns: tuple[str, ...]):
    """(line numbers, one list per column, errors) of a csv or jsonl corpus.

    A row with the wrong field count, invalid JSON, a non-object or missing
    keys is an error here; a blank row is skipped but keeps its line.
    """
    text = _decode_lines(stream)
    width = len(columns)
    lines: list[int] = []
    rows: list = []
    errors: list[RowError] = []
    if fmt == "csv":
        reader = csv.reader(text)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("missing CSV header row") from None
        if tuple(h.strip() for h in header) != columns:
            raise ParseError(f"unexpected CSV header {header!r}; want {list(columns)}")
        rest = text.read()
        body = rest.split("\n")
        if body[-1] == "":
            body.pop()
        # Without quotes, carriage returns or NULs, and with a full set of
        # commas on every line, csv.reader's rows are the lines split at commas.
        if not ('"' in rest or "\r" in rest or "\0" in rest) \
                and set(map(operator.methodcaller("count", ","), body)) <= {width - 1}:
            fields = ",".join(body).split(",") if body else []
            return list(range(2, len(body) + 2)), [fields[i::width] for i in range(width)], []
        for line_no, row in enumerate(csv.reader(io.StringIO(rest)), start=2):
            if len(row) == width:
                lines.append(line_no)
                rows.append(row)
            elif row:
                errors.append(RowError(line_no, f"expected {width} fields, got {len(row)}"))
    elif fmt == "jsonl":
        pick = operator.itemgetter(*columns)
        for line_no, line in enumerate(text, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(RowError(line_no, f"invalid JSON: {exc.msg}"))
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
    return lines, [[row[i] for row in rows] for i in range(width)], errors


_BAD = -2**63   # the int64 minimum: a value the fast checks leave to the row function


def _by_value(values, convert, kinds=(str,)) -> np.ndarray:
    """int64 convert(v) per value, computed once per distinct value.

    _BAD where the value's type is not one of `kinds` or convert refuses
    it (returns None or raises); those rows go to the row function.
    """
    if not set(map(type, values)) <= set(kinds):
        values = [v if type(v) in kinds else None for v in values]
    first: dict = {}    # value -> the row where it first occurs
    rows = np.fromiter(map(first.setdefault, values, range(len(values))), np.int64, len(values))
    out = np.full(len(values), _BAD)
    out[list(first.values())] = [_checked(convert, v) for v in first]
    return out[rows]


def _checked(convert, value) -> int:
    if value is None:
        return _BAD
    try:
        out = convert(value)
    except (ValueError, TypeError):
        return _BAD
    return out if out is not None and _BAD < out < 2**63 else _BAD


def _ids(values, table: dict) -> np.ndarray:
    """Codes of the valid ids in `table`; each new distinct id is checked once."""
    def code(v):
        c = table.get(v)
        return c if c is not None or not _valid_id(v) else table.setdefault(v, len(table))
    return _by_value(values, code)


def _quantity(value) -> int | None:
    quantity = int(value)
    return quantity if quantity >= 1 else None


_RATINGS = {"-1": -1, "0": 0, "1": 1, -1: -1, 0: 0, 1: 1}

# Digit positions ("0") and literal characters of a canonical timestamp.
_TS_FORM = np.frombuffer(b"0000-00-00T00:00:00Z", np.uint8)
_TS_DIGIT = _TS_FORM == ord("0")
_NOT_TS = "?" * len(_TS_FORM)
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _epoch_seconds(values) -> np.ndarray:
    """Epoch seconds of canonical `YYYY-MM-DDTHH:MM:SSZ` values, else _BAD.

    The calendar checks are those of `datetime`: year >= 1, the month's
    day count with leap years, hour < 24, minute and second < 60.
    """
    width = len(_TS_FORM)
    text = "".join(v if type(v) is str and len(v) == width else _NOT_TS for v in values)
    raw = np.frombuffer(text.encode("ascii", "replace"), np.uint8).reshape(-1, width)
    digits = raw.astype(np.int16) - ord("0")
    ok = ((digits[:, _TS_DIGIT] >= 0) & (digits[:, _TS_DIGIT] <= 9)).all(axis=1)
    ok &= (raw[:, ~_TS_DIGIT] == _TS_FORM[~_TS_DIGIT]).all(axis=1)

    def number(start: int, size: int) -> np.ndarray:
        return digits[:, start:start + size].astype(np.int64) @ 10 ** np.arange(size - 1, -1, -1)

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
    quantity = int(quantity)
    if quantity < 1:
        raise ValueError(f"quantity must be >= 1, got {quantity}")
    cents = parse_price_cents(price if isinstance(price, str) else repr(price))
    ts = parse_rfc3339(str(timestamp))
    buyer, seller, product = str(buyer), str(seller), str(product)
    if not (_valid_id(buyer) and _valid_id(seller) and _valid_id(product)):
        raise ValueError("empty or malformed identifier")
    return buyer, seller, product, quantity, cents, _epoch(ts)


def _feedback(giver, receiver, rating, timestamp) -> tuple:
    rating = int(rating)
    if rating not in VALID_RATINGS:
        raise ValueError(f"rating must be -1, 0, or +1, got {rating}")
    ts = parse_rfc3339(str(timestamp))
    giver, receiver = str(giver), str(receiver)
    if not (_valid_id(giver) and _valid_id(receiver)):
        raise ValueError("empty or malformed identifier")
    return giver, receiver, rating, _epoch(ts)


def _row_path(lines, cols, out, tables, make, errors) -> np.ndarray:
    """Settle the rows a fast check left as _BAD with `make`; the rows kept.

    make(*row) returns the row's values in column order or raises its
    error; `tables` holds the id table of each id column, None elsewhere.
    """
    keep = np.logical_and.reduce([column != _BAD for column in out])
    for i in np.flatnonzero(~keep).tolist():
        try:
            for column, table, value in zip(out, tables, make(*(c[i] for c in cols))):
                column[i] = value if table is None else table.setdefault(value, len(table))
        except (ValueError, TypeError, OverflowError) as exc:
            errors.append(RowError(lines[i], str(exc)))
        else:
            keep[i] = True
    return keep


def _transaction_table(lines, cols, errors) -> TransactionTable:
    users: dict[str, int] = {}
    products: dict[str, int] = {}
    buyer, seller, product, quantity, price, timestamp = cols
    out = [_ids(buyer, users), _ids(seller, users), _ids(product, products),
           _by_value(quantity, _quantity, (str, int)), _by_value(price, parse_price_cents),
           _epoch_seconds(timestamp)]
    keep = _row_path(lines, cols, out, (users, users, products, None, None, None),
                     _transaction, errors)
    b, s, p, q, c, t = (column[keep] for column in out)
    return TransactionTable(list(users), b, s, list(products), p, q, c, t)


def _feedback_table(lines, cols, errors) -> FeedbackTable:
    users: dict[str, int] = {}
    giver, receiver, rating, timestamp = cols
    out = [_ids(giver, users), _ids(receiver, users),
           _by_value(rating, _RATINGS.get, (str, int)), _epoch_seconds(timestamp)]
    keep = _row_path(lines, cols, out, (users, users, None, None), _feedback, errors)
    g, r, v, t = (column[keep] for column in out)
    return FeedbackTable(list(users), g, r, v, t)


def _parse(stream, fmt: str, columns: tuple[str, ...], build, what: str,
           max_bad_fraction: float) -> ParseResult:
    """build(lines, cols, errors) makes the records and appends row errors."""
    lines, cols, errors = _read_columns(stream, fmt, columns)
    total = len(lines) + len(errors)
    records = build(lines, cols, errors)
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


def parse_profiles(stream, fmt: str = "csv",
                   max_bad_fraction: float = DEFAULT_MAX_BAD_FRACTION) -> ParseResult:
    """Parse user profiles; one row per user, duplicates are row errors."""
    seen: set[str] = set()

    def profile(user_id, birth_raw, state, registration) -> UserProfile:
        user_id = str(user_id)
        if not _valid_id(user_id):
            raise ValueError("empty or malformed identifier")
        if user_id in seen:
            raise ValueError(f"duplicate user_id {user_id!r}")
        birth_year = None if birth_raw in ("", None) else int(birth_raw)
        registration = parse_rfc3339(str(registration)).date()
        seen.add(user_id)
        return UserProfile(user_id, birth_year, str(state), registration)

    def build(lines, cols, errors) -> list[UserProfile]:
        profiles = []
        for line_no, row in zip(lines, zip(*cols)):
            try:
                profiles.append(profile(*row))
            except (ValueError, TypeError, OverflowError) as exc:
                errors.append(RowError(line_no, str(exc)))
        return profiles

    return _parse(stream, fmt, PROFILE_COLUMNS, build, "profile", max_bad_fraction)


def load_label_list(stream) -> LabelSet:
    """One shill id per line; duplicates are dropped and counted."""
    text = _decode_lines(stream)
    ids: set[str] = set()
    duplicates = 0
    for line_no, line in enumerate(text, start=1):
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


def write_profiles(records, stream, fmt: str = "csv") -> None:
    records = list(records)
    _write_columns([[r.user_id for r in records],
                    ["" if r.birth_year is None else r.birth_year for r in records],
                    [r.state_text for r in records],
                    [r.registration_date.isoformat() for r in records]],
                   stream, fmt, PROFILE_COLUMNS)


def write_labels(labels: LabelSet, stream) -> None:
    for user_id in sorted(labels.shill_ids):
        stream.write(user_id + "\n")


def consistency_warnings(transactions, feedback, profiles) -> list[str]:
    """Data-quality warnings: activity timestamps earlier than registration."""
    registered = {p.user_id: p.registration_date for p in profiles}
    earliest: dict[str, date] = {}
    for r in transactions:
        d = r.timestamp.date()
        for u in (r.buyer_id, r.seller_id):
            if u not in earliest or d < earliest[u]:
                earliest[u] = d
    for r in feedback:
        d = r.timestamp.date()
        for u in (r.giver_id, r.receiver_id):
            if u not in earliest or d < earliest[u]:
                earliest[u] = d
    warnings = []
    for user_id in sorted(earliest):
        reg = registered.get(user_id)
        if reg is not None and earliest[user_id] < reg:
            warnings.append(f"user {user_id}: activity on {earliest[user_id]} "
                            f"precedes registration {reg}")
    return warnings
