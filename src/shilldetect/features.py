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
from dataclasses import dataclass

import numpy as np

from .records import LabelSet, ProfileTable, crc32_state
from .graphs import FeedbackMultigraph, TransactionMultigraph, run_starts, sorted_contains

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
    """Row-per-user feature table with a frozen column manifest."""

    user_ids: list[str]
    values: np.ndarray            # shape (n_users, 31), float64
    labels: np.ndarray            # int8; 1 = shill, 0 = benign
    feature_names: tuple[str, ...] = FEATURE_NAMES
    version: int = FEATURE_VERSION

    def __post_init__(self):
        if self.values.shape != (len(self.user_ids), len(self.feature_names)):
            raise ValueError(f"values shape {self.values.shape} does not match "
                             f"{len(self.user_ids)} users x {len(self.feature_names)} features")
        if len(self.labels) != len(self.user_ids):
            raise ValueError("labels length does not match user count")

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.feature_names.index(name)]

    def schema(self) -> dict:
        return {
            "version": self.version,
            "features": {name: i for i, name in enumerate(self.feature_names)},
            "categorical": list(CATEGORICAL_FEATURES),
            "label_values": dict(LABEL_VALUES),
        }

    def schema_hash(self) -> str:
        blob = json.dumps(self.schema(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def select(self, user_ids) -> "FeatureMatrix":
        pos = {u: i for i, u in enumerate(self.user_ids)}
        idx = np.array([pos[u] for u in user_ids], dtype=np.int64)
        return FeatureMatrix(list(user_ids), self.values[idx], self.labels[idx],
                             self.feature_names, self.version)


# ---------------------------------------------------------------------------
# Vectorized whole-graph blocks (one value per vertex of the graph)


def _pair_stats(src: np.ndarray, dst: np.ndarray, n: int):
    """Distinct out/in-neighbor counts and mutual-partner counts per vertex."""
    if len(src) == 0:
        z = np.zeros(n, np.int64)
        return z, z.copy(), z.copy()
    keys = np.sort(src * n + dst)
    keys = keys[run_starts(keys)]
    u_src, u_dst = keys // n, keys % n
    out_unique = np.bincount(u_src, minlength=n)
    in_unique = np.bincount(u_dst, minlength=n)
    # A key's reverse is present exactly when the key is among the reverses.
    mutual = sorted_contains(keys, u_dst * n + u_src)
    bidir = np.bincount(u_src[mutual], minlength=n)
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


def _detail_block_all(tg: TransactionMultigraph, profiles: ProfileTable | None) -> np.ndarray:
    """(n_vertices, 3): Birth-Year, State-Hash, Active-Days.

    Users without a profile get the sentinel row (0, crc32(""), 0).
    """
    cols = np.zeros((tg.n_vertices, 3), np.float64)
    cols[:, 1] = crc32_state("")
    if profiles is None:
        return cols
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
                profiles: ProfileTable | None = None,
                labels: LabelSet | None = None) -> FeatureMatrix:
    """Feature matrix for `users`, in the given order.

    Both graphs must share one vertex index (build them with build_graphs,
    which also takes in every profiled user). Unknown ids raise KeyError
    listing the offenders.
    """
    if tg.users is not fg.users and tg.users.ids != fg.users.ids:
        raise ValueError("transaction and feedback graphs must share a vertex set")
    users = list(users)
    unknown = [u for u in users if u not in tg.users]
    if unknown:
        raise KeyError(f"{len(unknown)} ids not in the graphs, e.g. {unknown[:5]}")
    full = np.hstack([
        _transaction_block_all(tg),
        _feedback_block_all(fg),
        _detail_block_all(tg, profiles),
    ])
    idx = tg.users.positions(users)
    label_set = labels.shill_ids if labels is not None else frozenset()
    y = np.fromiter((1 if u in label_set else 0 for u in users),
                    dtype=np.int8, count=len(users))
    return FeatureMatrix(users, full[idx], y)


def cohort_feature_ratios(matrix: FeatureMatrix,
                          labels: LabelSet | None = None) -> dict[str, dict[str, float]]:
    """shill-cohort / benign-cohort mean and median, per numeric feature.

    A zero benign statistic against a nonzero shill statistic reports as
    +-inf; 0/0 reports 1.0. The categorical State-Hash column is skipped.
    """
    if labels is not None:
        y = np.fromiter((1 if u in labels else 0 for u in matrix.user_ids),
                        dtype=np.int8, count=matrix.n_users)
    else:
        y = matrix.labels
    shill_rows = matrix.values[y == 1]
    benign_rows = matrix.values[y == 0]
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
    """CSV with user_id, the 31 features, and the label column.

    A whole number below 1e15 in magnitude is written as an integer, any
    other value as the shortest repr that reads back to the same float.
    """
    bad = np.argwhere(~np.isfinite(matrix.values))
    if len(bad):
        r, c = bad[0]
        raise ValueError(f"user {matrix.user_ids[r]}: {matrix.feature_names[c]} is "
                         f"{float(matrix.values[r, c])!r}; feature values must be finite")
    columns = []
    for col in matrix.values.T:
        whole = (col == np.trunc(col)) & (np.abs(col) < 1e15)
        cells = np.empty(len(col), dtype=object)
        cells[whole] = [str(v) for v in col[whole].astype(np.int64).tolist()]
        cells[~whole] = [repr(v) for v in col[~whole].tolist()]
        columns.append(cells.tolist())
    labels = ["shill" if y else "benign" for y in matrix.labels.tolist()]
    stream.write("user_id," + ",".join(matrix.feature_names) + ",label\n")
    stream.writelines(",".join(row) + "\n"
                      for row in zip(matrix.user_ids, *columns, labels))


def write_feature_schema(matrix: FeatureMatrix, stream) -> None:
    json.dump(matrix.schema() | {"schema_hash": matrix.schema_hash()},
              stream, indent=2, sort_keys=True)
    stream.write("\n")


def read_feature_csv(stream) -> FeatureMatrix:
    """Inverse of write_feature_csv (header must match the current manifest).

    A malformed row or a user id already read raises ValueError naming
    the line. The whole file is checked first and its 31 numeric columns
    parsed in one np.loadtxt call; only when that fails are the lines
    parsed again one by one with float(), which names the first bad line
    or accepts a number loadtxt refuses (such as 1_000).
    """
    header = stream.readline().rstrip("\n").split(",")
    if header != _CSV_HEADER:
        raise ValueError(f"feature CSV header mismatch: {header[:3]}...")
    lines = stream.readlines()
    ids = [line.partition(",")[0] for line in lines]
    labels = np.array([LABEL_VALUES.get(line.rstrip("\n").rpartition(",")[2], -1)
                       for line in lines], np.int8)
    if (lines and labels.min() >= 0 and len(set(ids)) == len(ids)
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
