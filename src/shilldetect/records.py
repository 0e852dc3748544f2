"""Marketplace corpora: record types, CSV/JSONL parsing, and state hashing.

Three input corpora (transactions, feedback, user profiles) plus a
ground-truth shill list are parsed into immutable records. Prices are
carried as exact integer cents so that large aggregation sums stay
associative; they become floats only when features are emitted.
"""

from __future__ import annotations

import csv
import io
import json
import zlib
from dataclasses import dataclass, field
from datetime import date, datetime, timezone

TRANSACTION_COLUMNS = ("buyer_id", "seller_id", "product_id", "quantity", "unit_price", "timestamp")
FEEDBACK_COLUMNS = ("giver_id", "receiver_id", "rating", "timestamp")
PROFILE_COLUMNS = ("user_id", "birth_year", "state", "registration_date")

VALID_RATINGS = (-1, 0, 1)

# Maximum tolerated fraction of malformed rows before the whole parse fails.
DEFAULT_MAX_BAD_FRACTION = 0.10


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
    def unit_price(self) -> float:
        return self.unit_price_cents / 100.0

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
    """Records plus a per-row error report; nothing is silently dropped."""

    records: list
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


def format_rfc3339(dt: datetime) -> str:
    return dt.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


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


def _iter_rows(stream, fmt: str, columns: tuple[str, ...]):
    """Yield (line_number, field_dict | error_message) for csv or jsonl input."""
    text = _decode_lines(stream)
    if fmt == "csv":
        reader = csv.reader(text)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("missing CSV header row") from None
        if tuple(h.strip() for h in header) != columns:
            raise ParseError(f"unexpected CSV header {header!r}; want {list(columns)}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(columns):
                yield line_no, f"expected {len(columns)} fields, got {len(row)}"
                continue
            yield line_no, dict(zip(columns, row))
    elif fmt == "jsonl":
        for line_no, line in enumerate(text, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                yield line_no, f"invalid JSON: {exc.msg}"
                continue
            if not isinstance(obj, dict):
                yield line_no, "JSONL line is not an object"
                continue
            missing = [c for c in columns if c not in obj]
            if missing:
                yield line_no, f"missing keys: {missing}"
                continue
            yield line_no, {c: obj[c] for c in columns}
    else:
        raise ValueError(f"unknown format {fmt!r} (csv or jsonl)")


def _parse(stream, fmt: str, columns: tuple[str, ...], make, what: str,
           max_bad_fraction: float) -> ParseResult:
    """Records `make(fields)` of every row; a ValueError/TypeError is a row error."""
    result = ParseResult(records=[])
    for line_no, row in _iter_rows(stream, fmt, columns):
        result.total_rows += 1
        if isinstance(row, str):
            result.errors.append(RowError(line_no, row))
            continue
        try:
            result.records.append(make(row))
        except (ValueError, TypeError) as exc:
            result.errors.append(RowError(line_no, str(exc)))
    if result.total_rows and result.bad_rows / result.total_rows > max_bad_fraction:
        first = result.errors[0]
        raise ParseError(
            f"{result.bad_rows} of {result.total_rows} {what} rows malformed "
            f"(> {max_bad_fraction:.0%}); first: line {first.line}: {first.message}"
        )
    return result


def _transaction(row: dict) -> TransactionRecord:
    quantity = int(row["quantity"])
    if quantity < 1:
        raise ValueError(f"quantity must be >= 1, got {quantity}")
    price = row["unit_price"]
    cents = parse_price_cents(price if isinstance(price, str) else repr(price))
    ts = parse_rfc3339(str(row["timestamp"]))
    buyer, seller, product = str(row["buyer_id"]), str(row["seller_id"]), str(row["product_id"])
    if not (_valid_id(buyer) and _valid_id(seller) and _valid_id(product)):
        raise ValueError("empty or malformed identifier")
    return TransactionRecord(buyer, seller, product, quantity, cents, ts)


def _feedback(row: dict) -> FeedbackRecord:
    rating = int(row["rating"])
    if rating not in VALID_RATINGS:
        raise ValueError(f"rating must be -1, 0, or +1, got {rating}")
    ts = parse_rfc3339(str(row["timestamp"]))
    giver, receiver = str(row["giver_id"]), str(row["receiver_id"])
    if not (_valid_id(giver) and _valid_id(receiver)):
        raise ValueError("empty or malformed identifier")
    return FeedbackRecord(giver, receiver, rating, ts)


def parse_transactions(stream, fmt: str = "csv",
                       max_bad_fraction: float = DEFAULT_MAX_BAD_FRACTION) -> ParseResult:
    """Parse the transaction corpus; malformed rows are reported per line."""
    result = _parse(stream, fmt, TRANSACTION_COLUMNS, _transaction, "transaction",
                    max_bad_fraction)
    result.self_trades = sum(r.is_self_trade for r in result.records)
    return result


def parse_feedback(stream, fmt: str = "csv",
                   max_bad_fraction: float = DEFAULT_MAX_BAD_FRACTION) -> ParseResult:
    """Parse the feedback corpus; ratings outside {-1, 0, +1} are row errors."""
    return _parse(stream, fmt, FEEDBACK_COLUMNS, _feedback, "feedback", max_bad_fraction)


def parse_profiles(stream, fmt: str = "csv",
                   max_bad_fraction: float = DEFAULT_MAX_BAD_FRACTION) -> ParseResult:
    """Parse user profiles; one row per user, duplicates are row errors."""
    seen: set[str] = set()

    def profile(row: dict) -> UserProfile:
        user_id = str(row["user_id"])
        if not _valid_id(user_id):
            raise ValueError("empty or malformed identifier")
        if user_id in seen:
            raise ValueError(f"duplicate user_id {user_id!r}")
        birth_raw = row["birth_year"]
        birth_year = None if birth_raw in ("", None) else int(birth_raw)
        registration = parse_rfc3339(str(row["registration_date"])).date()
        seen.add(user_id)
        return UserProfile(user_id, birth_year, str(row["state"]), registration)

    return _parse(stream, fmt, PROFILE_COLUMNS, profile, "profile", max_bad_fraction)


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


def _write_rows(rows, stream, fmt: str, columns: tuple[str, ...]) -> None:
    """A csv header and one line per row, or one JSON object per jsonl line."""
    if fmt == "csv":
        w = csv.writer(stream, lineterminator="\n")
        w.writerow(columns)
        w.writerows(rows)
    elif fmt == "jsonl":
        for row in rows:
            stream.write(json.dumps(dict(zip(columns, row)), separators=(",", ":")) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def write_transactions(records, stream, fmt: str = "csv") -> None:
    _write_rows(((r.buyer_id, r.seller_id, r.product_id, r.quantity,
                  format_price(r.unit_price_cents), format_rfc3339(r.timestamp))
                 for r in records), stream, fmt, TRANSACTION_COLUMNS)


def write_feedback(records, stream, fmt: str = "csv") -> None:
    _write_rows(((r.giver_id, r.receiver_id, r.rating, format_rfc3339(r.timestamp))
                 for r in records), stream, fmt, FEEDBACK_COLUMNS)


def write_profiles(records, stream, fmt: str = "csv") -> None:
    _write_rows(((r.user_id, "" if r.birth_year is None else r.birth_year,
                  r.state_text, r.registration_date.isoformat())
                 for r in records), stream, fmt, PROFILE_COLUMNS)


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
