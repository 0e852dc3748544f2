"""Per-user behavioral features from the interaction graphs.

Each user gets a 31-value vector: 15 transaction features, 13 feedback
features, and 3 account-detail features, plus a binary shill/benign label.
Every block is computed for all vertices at once, vectorized over the
graphs' edge arrays.

Degenerate-value policy: max/min over an empty link set is 0 (not +-inf),
and any average with a zero denominator is 0. Classifiers downstream need
finite values everywhere.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .records import (_BLOCK_ROWS, LabelSet, ProfileTable, _decimal, _digits, crc32_state,
                      csv_bytes, decode_ids, encode_ids, gather, sorted_find, text_pool,
                      write_bytes, write_json)
from .graphs import FeedbackMultigraph, TransactionMultigraph, reciprocated, run_starts

TRANSACTION_FEATURES = (
    "Buy-Trans-Num", "Sell-Trans-Num", "Unique-Sellers", "Unique-Buyers",
    "Bidir-Trans-Users", "Max-Buy-Price", "Min-Buy-Price", "Max-Buy-Quantity",
    "Total-Buy-Quantity", "Total-Buy-Amount", "Max-Sell-Price", "Min-Sell-Price",
    "Max-Sell-Quantity", "Total-Sell-Quantity", "Total-Sell-Amount",
)
FEEDBACK_FEATURES = (
    "Gvn-Fdbk-Num", "Rcv-Fdbk-Num", "Gvn-Unique-Fdbk", "Rcv-Unique-Fdbk",
    "Bidir-Fdbk-Users", "Gvn-Pos-Fdbk", "Gvn-Neg-Fdbk", "Rcv-Pos-Fdbk",
    "Rcv-Neg-Fdbk", "Gvn-Fdbk-RSum", "Rcv-Fdbk-RSum", "Gvn-Fdbk-Avg",
    "Rcv-Fdbk-Avg",
)
DETAIL_FEATURES = ("Birth-Year", "State-Hash", "Active-Days")

FEATURE_NAMES: tuple[str, ...] = TRANSACTION_FEATURES + FEEDBACK_FEATURES + DETAIL_FEATURES
FEATURE_VERSION = 1

# The CRC state hash is the only nominal (categorical) feature; its numeric
# magnitude is meaningless. Everything else is ordinal/numeric.
CATEGORICAL_FEATURES = ("State-Hash",)

LABEL_VALUES = {"benign": 0, "shill": 1}

_CSV_HEADER = ["user_id", *FEATURE_NAMES, "label"]

_SECONDS_PER_DAY = 86400


@dataclass(frozen=True)
class FeatureMatrix:
    """Row-per-user feature table with a frozen column manifest and a binary
    label per row; the learners train on it.

    Rows keep their construction order. What depends on it is defined over
    `id_order()`, so shuffling the rows never changes a result: evaluation's
    samples, folds and score tie-breaks, NaiveBayes's float sums, KNN3's
    ties between equidistant neighbours and the ensembles' bootstrap draws.
    OneR and DecisionTree read only counts of rows and take rows as given.
    `id_order()` refuses a user id that is on more than one row.
    """

    user_ids: list[str]
    values: np.ndarray            # shape (n_users, 31), float64
    labels: np.ndarray            # int8; 1 = shill, 0 = benign
    feature_names: tuple[str, ...] = FEATURE_NAMES

    def __post_init__(self):
        if self.values.shape != (len(self.user_ids), len(self.feature_names)):
            raise ValueError(f"values shape {self.values.shape} does not match "
                             f"{len(self.user_ids)} users x {len(self.feature_names)} features")
        if len(self.labels) != len(self.user_ids):
            raise ValueError("labels length does not match user count")
        # Not np.isin, whose temporaries on int8 labels take 14 bytes a row.
        if not ((self.labels == 0) | (self.labels == 1)).all():
            raise ValueError("labels must be binary 0/1")

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    def categorical_mask(self) -> np.ndarray:
        return np.array([name in CATEGORICAL_FEATURES for name in self.feature_names], bool)

    def class_counts(self) -> np.ndarray:
        """Row count per label: (benign, shill)."""
        return np.bincount(self.labels, minlength=len(LABEL_VALUES))

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.feature_names.index(name)]

    def schema(self) -> dict:
        return {
            "version": FEATURE_VERSION,
            "features": {name: i for i, name in enumerate(self.feature_names)},
            "categorical": list(CATEGORICAL_FEATURES),
            "label_values": dict(LABEL_VALUES),
        }

    def schema_hash(self) -> str:
        blob = json.dumps(self.schema(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def take(self, idx) -> "FeatureMatrix":
        """The rows at positions `idx`, in that order."""
        idx = np.asarray(idx, np.int64)
        return replace(self, user_ids=[self.user_ids[i] for i in idx.tolist()],
                       values=self.values[idx], labels=self.labels[idx])

    def select(self, user_ids) -> "FeatureMatrix":
        pos = {u: i for i, u in enumerate(self.user_ids)}
        return self.take([pos[u] for u in user_ids])

    def id_order(self) -> np.ndarray:
        """Row positions in user-id order; the one place rows are sorted by id."""
        ids = self.user_ids
        order = sorted(range(self.n_users), key=ids.__getitem__)
        for a, b in zip(order, order[1:]):
            if ids[a] == ids[b]:
                raise ValueError(f"user id {ids[a]!r} is on more than one row; "
                                 "user ids must be unique")
        return np.array(order, np.int64)

    def canonical(self) -> "FeatureMatrix":
        """Rows reordered by user id."""
        return self.take(self.id_order())


# ---------------------------------------------------------------------------
# Vectorized whole-graph blocks (one value per vertex of the graph)


def _pair_stats(src: np.ndarray, dst: np.ndarray, n: int):
    """Distinct out/in-neighbor counts and mutual-partner counts per vertex.
    The links' keys src * n + dst are sorted once and kept distinct; a
    vertex's mutual partners are its keys that `reciprocated` finds."""
    if len(src) == 0:
        z = np.zeros(n, np.int64)
        return z, z.copy(), z.copy()
    keys = np.sort(src * n + dst)
    keys = keys[run_starts(keys)]
    u_src, u_dst = keys // n, keys % n
    out_unique = np.bincount(u_src, minlength=n)
    in_unique = np.bincount(u_dst, minlength=n)
    bidir = np.bincount(u_src[reciprocated(keys, n)], minlength=n)
    return out_unique, in_unique, bidir


def _grouped_max(keys: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(n, np.int64)
    np.maximum.at(out, keys, vals)
    return out


def _grouped_min(keys: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    out = np.full(n, np.iinfo(np.int64).max, np.int64)
    np.minimum.at(out, keys, vals)
    out[np.bincount(keys, minlength=n) == 0] = 0
    return out


def _grouped_sum(keys: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(n, np.int64)
    np.add.at(out, keys, vals)
    return out


def _transaction_block_all(tg: TransactionMultigraph) -> np.ndarray:
    """(n_vertices, 15) array in TRANSACTION_FEATURES order."""
    n = tg.n_vertices
    amount = tg.amount_cents()
    buy_num = np.bincount(tg.buyer, minlength=n)
    sell_num = np.bincount(tg.seller, minlength=n)
    unique_sellers, unique_buyers, bidir = _pair_stats(tg.buyer, tg.seller, n)
    cols = np.empty((n, 15), np.float64)
    cols[:, 0] = buy_num
    cols[:, 1] = sell_num
    cols[:, 2] = unique_sellers
    cols[:, 3] = unique_buyers
    cols[:, 4] = bidir
    cols[:, 5] = _grouped_max(tg.buyer, amount, n) / 100.0
    cols[:, 6] = _grouped_min(tg.buyer, amount, n) / 100.0
    cols[:, 7] = _grouped_max(tg.buyer, tg.quantity, n)
    cols[:, 8] = _grouped_sum(tg.buyer, tg.quantity, n)
    cols[:, 9] = _grouped_sum(tg.buyer, amount, n) / 100.0
    cols[:, 10] = _grouped_max(tg.seller, amount, n) / 100.0
    cols[:, 11] = _grouped_min(tg.seller, amount, n) / 100.0
    cols[:, 12] = _grouped_max(tg.seller, tg.quantity, n)
    cols[:, 13] = _grouped_sum(tg.seller, tg.quantity, n)
    cols[:, 14] = _grouped_sum(tg.seller, amount, n) / 100.0
    return cols


def _feedback_block_all(fg: FeedbackMultigraph) -> np.ndarray:
    """(n_vertices, 13) array in FEEDBACK_FEATURES order."""
    n = fg.n_vertices
    gvn_num = np.bincount(fg.giver, minlength=n)
    rcv_num = np.bincount(fg.receiver, minlength=n)
    gvn_unique, rcv_unique, bidir = _pair_stats(fg.giver, fg.receiver, n)
    pos, neg = fg.rating > 0, fg.rating < 0
    gvn_pos = np.bincount(fg.giver[pos], minlength=n)
    gvn_neg = np.bincount(fg.giver[neg], minlength=n)
    rcv_pos = np.bincount(fg.receiver[pos], minlength=n)
    rcv_neg = np.bincount(fg.receiver[neg], minlength=n)
    gvn_rsum = _grouped_sum(fg.giver, fg.rating, n)
    rcv_rsum = _grouped_sum(fg.receiver, fg.rating, n)
    cols = np.empty((n, 13), np.float64)
    cols[:, 0] = gvn_num
    cols[:, 1] = rcv_num
    cols[:, 2] = gvn_unique
    cols[:, 3] = rcv_unique
    cols[:, 4] = bidir
    cols[:, 5] = gvn_pos
    cols[:, 6] = gvn_neg
    cols[:, 7] = rcv_pos
    cols[:, 8] = rcv_neg
    cols[:, 9] = gvn_rsum
    cols[:, 10] = rcv_rsum
    with np.errstate(invalid="ignore", divide="ignore"):
        cols[:, 11] = np.where(gvn_num > 0, gvn_rsum / np.maximum(gvn_num, 1), 0.0)
        cols[:, 12] = np.where(rcv_num > 0, rcv_rsum / np.maximum(rcv_num, 1), 0.0)
    return cols


def _last_transaction_days(tg: TransactionMultigraph) -> np.ndarray:
    """Per-vertex UTC day number of the latest transaction, -1 if none."""
    last = np.full(tg.n_vertices, -1, np.int64)
    if tg.n_links:
        np.maximum.at(last, tg.buyer, tg.ts)
        np.maximum.at(last, tg.seller, tg.ts)
    days = last // _SECONDS_PER_DAY
    days[last < 0] = -1
    return days


def _detail_block_all(tg: TransactionMultigraph, profiles: ProfileTable) -> np.ndarray:
    """(n_vertices, 3): Birth-Year, State-Hash, Active-Days.

    Users without a profile get the sentinel row (0, crc32(""), 0).
    """
    cols = np.zeros((tg.n_vertices, 3), np.float64)
    cols[:, 1] = crc32_state("")
    v = tg.users.positions(profiles.user_ids)
    cols[v, 0] = profiles.birth_year
    state_hash = np.array([crc32_state(s) for s in profiles.states], np.float64)
    cols[v, 1] = state_hash[profiles.state]
    last_days = _last_transaction_days(tg)[v]
    active = np.where(last_days >= 0, last_days - profiles.registration_day, 0)
    clamped = np.count_nonzero(active < 0)
    cols[v, 2] = np.maximum(active, 0)
    if clamped:
        warnings.warn(f"{clamped} users had transactions before their registration "
                      "date; Active-Days clamped to 0", stacklevel=3)
    return cols


# ---------------------------------------------------------------------------


def extract_all(users, tg: TransactionMultigraph, fg: FeedbackMultigraph,
                profiles: ProfileTable, labels: LabelSet | None = None) -> FeatureMatrix:
    """Feature matrix for `users` (str ids or a bytes array), in the given order.

    Both graphs must share one vertex index (build them with build_graphs,
    which also takes in every profiled user). Unknown ids raise KeyError
    listing the offenders.
    """
    if tg.users is not fg.users and not np.array_equal(tg.users.ids, fg.users.ids):
        raise ValueError("transaction and feedback graphs must share a vertex set")
    users = encode_ids(users)
    idx, found = sorted_find(tg.users.ids, users)
    if not found.all():
        raise KeyError(f"{np.count_nonzero(~found)} ids not in the graphs, "
                       f"e.g. {decode_ids(users[~found][:5])}")
    # One block at a time is held beside the matrix, and the rows are
    # gathered only when the users are not every vertex in order.
    full = np.empty((tg.n_vertices, len(FEATURE_NAMES)))
    feedback_at = len(TRANSACTION_FEATURES)
    detail_at = feedback_at + len(FEEDBACK_FEATURES)
    full[:, :feedback_at] = _transaction_block_all(tg)
    full[:, feedback_at:detail_at] = _feedback_block_all(fg)
    full[:, detail_at:] = _detail_block_all(tg, profiles)
    if not (len(idx) == len(full) and (idx == np.arange(len(idx))).all()):
        full = full[idx]
    y = np.isin(users, encode_ids(labels.shill_ids if labels else [])).astype(np.int8)
    return FeatureMatrix(decode_ids(users), full, y)


def cohort_feature_ratios(matrix: FeatureMatrix) -> dict[str, dict[str, float]]:
    """shill-cohort / benign-cohort mean and median, per numeric feature.

    A zero benign statistic against a nonzero shill statistic reports as
    +-inf; 0/0 reports 1.0. The categorical State-Hash column is skipped.
    """
    shill_rows = matrix.values[matrix.labels == 1]
    benign_rows = matrix.values[matrix.labels == 0]
    if len(shill_rows) == 0 or len(benign_rows) == 0:
        raise ValueError("both cohorts must be non-empty")

    def ratio(s: float, b: float) -> float:
        if b == 0.0:
            if s == 0.0:
                return 1.0
            return float("inf") if s > 0 else float("-inf")
        return s / b

    out: dict[str, dict[str, float]] = {}
    for j, name in enumerate(matrix.feature_names):
        if name in CATEGORICAL_FEATURES:
            continue
        out[name] = {
            "mean_ratio": ratio(float(shill_rows[:, j].mean()), float(benign_rows[:, j].mean())),
            "median_ratio": ratio(float(np.median(shill_rows[:, j])),
                                  float(np.median(benign_rows[:, j]))),
        }
    return out


# ---------------------------------------------------------------------------
# Export


def write_feature_csv(matrix: FeatureMatrix, stream) -> None:
    """CSV with user_id, the 31 features, and the label column, to a binary
    or text stream.

    A whole number below 1e15 in magnitude is written as an integer, any
    other value as the shortest repr that reads back to the same float.
    Each column is formatted by the kind of its values: a column of whole
    numbers as integers, a column of whole cents (v == c / 100 for an
    integer c below 1e15 in magnitude) as cents, and only the other columns
    through the texts of their distinct values.

    A whole-cent value's repr is c / 100 in decimal, its trailing zeros and
    a bare point stripped: that decimal has at most 15 significant digits
    and reads back to v, no two such decimals read back to one float, so no
    shorter text does; and repr writes no exponent from 1e-4 up to 1e16.
    """
    bad = np.argwhere(~np.isfinite(matrix.values))
    if len(bad):
        r, c = bad[0]
        raise ValueError(f"user {matrix.user_ids[r]}: {matrix.feature_names[c]} is "
                         f"{float(matrix.values[r, c])!r}; feature values must be finite")
    kinds = _column_kinds(matrix.values)
    pooled = [j for j, kind in enumerate(kinds) if kind is None]
    # A pooled value's code is its place among the pooled columns' distinct
    # values, found by a search, which is faster than unique's argsort.
    distinct = np.unique(matrix.values[:, pooled])
    whole = ((distinct == np.trunc(distinct)) & (np.abs(distinct) < 1e15)).tolist()
    values = text_pool([str(int(v)) if w else repr(v) for v, w in zip(distinct.tolist(), whole)])
    ids, labels = text_pool(matrix.user_ids), text_pool(["benign", "shill"])

    def cell(kind, column: np.ndarray):
        if kind is None:
            return gather(values, np.searchsorted(distinct, column))
        return kind(column)

    def cells(rows: slice) -> list:
        return [gather(ids, np.arange(matrix.n_users)[rows]),
                *map(cell, kinds, matrix.values[rows].T),
                gather(labels, (matrix.labels[rows] != 0).astype(np.int64))]

    header = ["user_id", *matrix.feature_names, "label"]
    write_bytes(stream, csv_bytes(header, matrix.n_users, cells))


def _whole(column: np.ndarray):
    """The cell of whole numbers below 1e15 in magnitude, as integers."""
    return _decimal(column.astype(np.int64))


def _cents(column: np.ndarray):
    """The cell of whole cents below 1e15 in magnitude: c / 100 in decimal,
    its trailing zeros and then a bare point stripped."""
    cents = np.round(column * 100).astype(np.int64)
    dollars, rest = np.divmod(np.abs(cents), 100)
    matrix, keep = _decimal(dollars)
    sign = np.full((len(cents), 1), ord("-"), np.uint8)
    tail = _digits(rest, 3)
    tail[:, 0] = ord(".")
    tail_keep = np.stack([rest != 0, rest != 0, rest % 10 != 0], axis=1)
    return np.hstack([sign, matrix, tail]), np.hstack([(cents < 0)[:, None], keep, tail_keep])


def _column_kinds(values: np.ndarray) -> list:
    """For each column of a feature matrix, _whole or _cents, the cell that
    formats all its values as write_feature_csv does, or None where neither
    does; the values are checked a block of rows at a time."""
    whole = cents = np.ones(values.shape[1], bool)
    for start in range(0, len(values), _BLOCK_ROWS):
        block = values[start:start + _BLOCK_ROWS]
        whole = whole & ((block == np.trunc(block)) & (np.abs(block) < 1e15)).all(axis=0)
        with np.errstate(over="ignore"):
            hundredths = np.round(block * 100)
        cents = cents & ((hundredths / 100 == block) & (np.abs(hundredths) < 1e15)).all(axis=0)
    return [_whole if w else _cents if c else None for w, c in zip(whole, cents)]


def write_feature_schema(matrix: FeatureMatrix, stream) -> None:
    write_json(matrix.schema() | {"schema_hash": matrix.schema_hash()}, stream)


def read_feature_csv(stream) -> FeatureMatrix:
    """Inverse of write_feature_csv (header must match the current manifest).

    A malformed row, a user id that holds a NUL or a user id already read
    raises ValueError naming the line. (A numpy `U` array drops final NULs,
    so the ids "a" and "a" + NUL would rank as one.) The whole file is
    checked first and its 31 numeric columns parsed in one np.loadtxt call;
    only when that fails are the lines parsed again one by one with
    float(), which names the first bad line or accepts a number loadtxt
    refuses (such as 1_000).
    """
    header = stream.readline().rstrip("\n").split(",")
    if header != _CSV_HEADER:
        raise ValueError(f"feature CSV header mismatch: {header[:3]}...")
    lines = stream.readlines()
    ids = [line.partition(",")[0] for line in lines]
    labels = np.array([LABEL_VALUES.get(line.rstrip("\n").rpartition(",")[2], -1)
                       for line in lines], np.int8)
    if (lines and labels.min() >= 0 and len(set(ids)) == len(ids)
            and "\0" not in "".join(ids)
            and all(line.count(",") == len(_CSV_HEADER) - 1 for line in lines)
            and not _has_loadtxt_only_space(lines)):
        try:
            values = np.loadtxt(lines, delimiter=",", usecols=range(1, len(FEATURE_NAMES) + 1),
                                dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if np.isfinite(values).all():
                return FeatureMatrix(ids, values, labels)
    return _read_feature_lines(lines)


def _has_loadtxt_only_space(lines) -> bool:
    """Whether the lines hold an ASCII separator (0x1c-0x1f), which np.loadtxt
    takes for space around a number and float() refuses."""
    text = "".join(lines)
    return any(sep in text for sep in "\x1c\x1d\x1e\x1f")


def _read_feature_lines(lines) -> FeatureMatrix:
    """read_feature_csv's body lines, one line and one float() at a time."""
    ids, rows, labels = [], [], []
    for line_no, line in enumerate(lines, start=2):
        parts = line.rstrip("\n").split(",")
        if len(parts) != len(_CSV_HEADER):
            raise ValueError(f"feature CSV line {line_no}: {len(parts)} fields, "
                             f"expected {len(_CSV_HEADER)}")
        if parts[-1] not in LABEL_VALUES:
            raise ValueError(f"feature CSV line {line_no}: label {parts[-1]!r} "
                             "is neither 'shill' nor 'benign'")
        if "\0" in parts[0]:
            raise ValueError(f"feature CSV line {line_no}: user id {parts[0]!r} holds a NUL")
        ids.append(parts[0])
        try:
            rows.append([float(x) for x in parts[1:-1]])
        except ValueError:      # parse again, cell by cell, to name the bad one
            rows.append([_feature_value(line_no, name, x)
                         for name, x in zip(FEATURE_NAMES, parts[1:-1])])
        labels.append(LABEL_VALUES[parts[-1]])
    if len(set(ids)) != len(ids):
        first_line: dict[str, int] = {}
        for line_no, user in enumerate(ids, start=2):
            if user in first_line:
                raise ValueError(f"feature CSV line {line_no}: user {user!r} is "
                                 f"already on line {first_line[user]}")
            first_line[user] = line_no
    values = np.array(rows, np.float64) if rows else np.zeros((0, len(FEATURE_NAMES)))
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        r, c = bad[0]
        raise ValueError(f"feature CSV line {r + 2}: {FEATURE_NAMES[c]} is "
                         f"{float(values[r, c])!r}; feature values must be finite")
    return FeatureMatrix(ids, values, np.array(labels, np.int8))


def _feature_value(line_no: int, name: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"feature CSV line {line_no}: {name} is {text!r}, "
                         "not a number") from None
