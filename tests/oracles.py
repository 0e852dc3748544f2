"""Slow, independent reference implementations used to cross-check the
package. Everything here is written the dumb way on purpose: bitwise CRC,
O(n^2) pair counting, exhaustive subset enumeration, classical Jacobi
rotations, dict-of-lists feature recounts. Nothing imports the modules it
is checking beyond plain data containers: the corpus tables, which the
row view below turns into rows and builds from rows.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict, deque
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone

import numpy as np

from shilldetect.records import (FeedbackTable, ProfileTable, TransactionTable, decode_ids,
                                 encode_ids)


# ---------------------------------------------------------------------------
# CRC-32 (reflected polynomial 0xEDB88320), bit by bit


def crc32_reference(data: bytes) -> int:
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ 0xEDB88320
            else:
                crc >>= 1
    return crc ^ 0xFFFFFFFF


# ---------------------------------------------------------------------------
# Ranking metrics


def auc_pair_count(scores, labels) -> float:
    """P(score_pos > score_neg) + 0.5 P(tie), by enumerating every pair."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    if not pos or not neg:
        raise ValueError("need both classes")
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def precision_at_k_reference(scores, labels, user_ids, k) -> float:
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], user_ids[i]))
    top = order[: min(k, len(order))]
    return sum(labels[i] for i in top) / len(top)


def knn_scores_reference(train_rows, train_labels, train_ids, query_rows,
                         categorical, mean, scale, k=3):
    """Shill share of the k nearest training rows of each query, by brute force.

    Numeric columns are z-scored with the given per-column mean and scale
    (listed in numeric-column order). A distance adds the squared numeric
    differences one column at a time, left to right, then one for each
    categorical column whose raw values differ. The neighbours are the
    first k training rows sorted on (distance, user id).
    """
    numeric = [j for j in range(len(train_rows[0])) if j not in categorical]

    def standardize(row):
        return [(row[j] - mean[i]) / scale[i] for i, j in enumerate(numeric)]

    train_z = [standardize(r) for r in train_rows]
    out = []
    for q in query_rows:
        qz = standardize(q)
        dist = []
        for r, rz in zip(train_rows, train_z):
            d = 0.0
            for a, b in zip(qz, rz):
                d += (a - b) * (a - b)
            d += sum(1 for j in categorical if q[j] != r[j])
            dist.append(d)
        order = sorted(range(len(train_rows)), key=lambda i: (dist[i], train_ids[i]))
        out.append(sum(train_labels[i] for i in order[:k]) / k)
    return out


# ---------------------------------------------------------------------------
# Graphs


def components_flood_fill(n, edges):
    """List of vertex sets (undirected), BFS from every unvisited vertex."""
    adj = defaultdict(set)
    for u, v in edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        comp = {start}
        seen[start] = True
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.add(w)
                    queue.append(w)
        out.append(comp)
    return out


def density_reference(n, m) -> float:
    return m / (n * (n - 1)) if n > 1 else 0.0


def maximal_cliques_subsets(n, adj):
    """All maximal cliques by testing every vertex subset. n <= ~15."""
    cliques = []
    vertices = list(range(n))
    for r in range(1, n + 1):
        for sub in itertools.combinations(vertices, r):
            if all(v in adj[u] for u, v in itertools.combinations(sub, 2)):
                s = set(sub)
                if not any(all(w in adj[u] or w == u for u in sub)
                           for w in vertices if w not in s):
                    cliques.append(frozenset(s))
    return set(cliques)


def maximal_cliques_bk_plain(adj):
    """Textbook Bron-Kerbosch, no pivoting, no vertex ordering."""
    out = set()

    def expand(r, p, x):
        if not p and not x:
            out.add(frozenset(r))
            return
        for v in sorted(p):
            expand(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    expand(set(), set(adj), set())
    return out


# ---------------------------------------------------------------------------
# Entropy / information gain


def entropy_reference(labels) -> float:
    n = len(labels)
    if n == 0:
        return 0.0
    h = 0.0
    for c in set(labels):
        p = sum(1 for y in labels if y == c) / n
        h -= p * math.log2(p)
    return h


def info_gain_with_cuts(values, labels, cuts) -> float:
    """Gain of partitioning `values` at the given ascending thresholds."""
    n = len(labels)
    bins = defaultdict(list)
    for v, y in zip(values, labels):
        b = 0
        for t in cuts:
            if v > t:
                b += 1
        bins[b].append(y)
    cond = sum(len(ys) / n * entropy_reference(ys) for ys in bins.values())
    return entropy_reference(labels) - cond


def mdl_cuts_recursive(values, labels) -> list[float]:
    """Fayyad-Irani cuts with the MDL stopping rule, by plain recursion.

    Every boundary between distinct sorted values is scored one at a time;
    the first with the lowest class information is the candidate. The
    logarithms and the order of each sum follow the package's formulas, so
    the thresholds compare exactly.
    """
    pairs = sorted(zip(values, labels), key=lambda p: p[0])
    xs = [float(v) for v, _ in pairs]
    ys = [int(y) for _, y in pairs]
    cuts = []

    def class_entropy(lo, hi):
        n = hi - lo
        h = 0.0
        for c in (0, 1):
            p = ys[lo:hi].count(c) / n
            if p > 0:
                h += p * _log2(p)
        return -h

    def recurse(lo, hi):
        n = hi - lo
        if n < 2:
            return
        best = None
        for cut in range(lo + 1, hi):
            if xs[cut - 1] == xs[cut]:
                continue
            h_l = _h2(sum(ys[lo:cut]), cut - lo)
            h_r = _h2(sum(ys[cut:hi]), hi - cut)
            info = ((cut - lo) / n) * h_l + ((hi - cut) / n) * h_r
            if best is None or info < best[0]:
                best = (info, cut, h_l, h_r)
        if best is None:
            return
        info, cut, h_l, h_r = best
        h_all = class_entropy(lo, hi)
        gain = h_all - info
        k, k1, k2 = (len(set(ys[a:b])) for a, b in ((lo, hi), (lo, cut), (cut, hi)))
        delta = math.log2(3 ** k - 2) - (k * h_all - k1 * h_l - k2 * h_r)
        if gain <= 0 or gain <= (math.log2(n - 1) + delta) / n:
            return
        cuts.append((xs[cut - 1] + xs[cut]) / 2.0)
        recurse(lo, cut)
        recurse(cut, hi)

    recurse(0, len(xs))
    return sorted(cuts)


def info_gain_categorical(values, labels) -> float:
    n = len(labels)
    groups = defaultdict(list)
    for v, y in zip(values, labels):
        groups[v].append(y)
    cond = sum(len(ys) / n * entropy_reference(ys) for ys in groups.values())
    return entropy_reference(labels) - cond


# ---------------------------------------------------------------------------
# Gain-ratio tree: every candidate column sorted afresh at every node


def _log2(x: float) -> float:
    # numpy's log2, so reference and package round every logarithm alike
    return float(np.log2(x))


def _h2(pos: int, n: int) -> float:
    p = pos / n
    if not 0 < p < 1:
        return 0.0
    q = 1.0 - p
    return -(p * _log2(p) + q * _log2(q))


def _added_errors(n: float, e: float) -> float:
    """Upper-bound extra errors at CF=0.25 (normal approximation for e >= 1)."""
    cf, z = 0.25, 0.6744897501960817
    if n == 0:
        return 0.0
    if e == 0:
        return n * (1.0 - cf ** (1.0 / n))
    if e < 1:
        base = n * (1.0 - cf ** (1.0 / n))
        return base + e * (_added_errors(n, 1.0) - base)
    if e + 0.5 >= n:
        return max(n - e, 0.0)
    f = (e + 0.5) / n
    r = (f + z * z / (2 * n)
         + z * math.sqrt(f / n - f * f / n + z * z / (4 * n * n))) / (1 + z * z / n)
    return r * n - e


def grow_tree_reference(X, y, categorical, min_leaf=2, prune=True, rng=None,
                        subset_size=None) -> dict:
    """The gain-ratio tree as nested dicts, grown naively (`flat_tree` gives
    the lists of ``DecisionTree.nodes``).

    Each node sorts every candidate column of its own rows with Python's
    stable ``sorted``. Numeric columns split at the midpoint of each pair of
    adjacent distinct values, halved before adding where the sum overflows,
    or at the lower value where the midpoint rounds onto the higher
    (``x <= t`` goes left), categorical columns at
    each distinct value (``x == v`` goes left). A candidate needs `min_leaf`
    rows a side and gain and split information above 1e-12. The highest gain
    ratio wins; ties go to the lower column, then the lower threshold. With
    `subset_size`, each splittable node draws its columns with
    ``rng.choice`` in pre-order. Pruning replaces a subtree by a leaf when
    the leaf's pessimistic error is at most the subtree's plus 0.1.
    """
    rows = [list(map(float, r)) for r in X]
    labels = [int(v) for v in y]
    n_features = len(rows[0])

    def grow(idx):
        n = len(idx)
        pos = sum(labels[i] for i in idx)
        node = {"counts": [n - pos, pos]}
        if pos in (0, n) or n < 2 * min_leaf:
            return node
        if subset_size is None:
            pool = range(n_features)
        else:
            pool = sorted(int(f) for f in rng.choice(
                n_features, size=min(subset_size, n_features), replace=False))
        parent_h = -sum(c / n * _log2(c / n) for c in node["counts"] if c)
        best = None
        for f in pool:
            order = sorted(idx, key=lambda i: rows[i][f])
            xs = [rows[i][f] for i in order]
            cands = []          # (rows going left, positives left, threshold)
            if f in categorical:
                for v in sorted(set(xs)):
                    left = [i for i in order if rows[i][f] == v]
                    cands.append((len(left), sum(labels[i] for i in left), v))
            else:
                pos_l = 0
                for k in range(n - 1):
                    pos_l += labels[order[k]]
                    if xs[k] != xs[k + 1]:
                        a, b = xs[k], xs[k + 1]
                        mid = (a + b) / 2.0 if math.isfinite(a + b) else a / 2.0 + b / 2.0
                        cands.append((k + 1, pos_l, mid if mid < b else a))
            for nl, pl_count, threshold in cands:
                nr = n - nl
                if nl < min_leaf or nr < min_leaf:
                    continue
                gain = (parent_h - (nl / n) * _h2(pl_count, nl)
                        - (nr / n) * _h2(pos - pl_count, nr))
                pl = nl / n
                split_info = -(pl * _log2(pl) + (1 - pl) * _log2(1 - pl))
                if gain <= 1e-12 or split_info <= 1e-12:
                    continue
                ratio = gain / split_info
                if best is None or ratio > best[0]:
                    best = (ratio, f, threshold)
        if best is None:
            return node
        _, f, threshold = best
        equal = f in categorical
        goes_left = [(rows[i][f] == threshold) if equal else (rows[i][f] <= threshold)
                     for i in idx]
        node.update(feature=f, threshold=threshold, equal=equal,
                    left=grow([i for i, g in zip(idx, goes_left) if g]),
                    right=grow([i for i, g in zip(idx, goes_left) if not g]))
        return node

    def pessimistic(counts):
        n = float(sum(counts))
        e = n - float(max(counts))
        return e + _added_errors(n, e)

    def pruned_error(node):
        if "feature" not in node:
            return pessimistic(node["counts"])
        subtree = pruned_error(node["left"]) + pruned_error(node["right"])
        leaf = pessimistic(node["counts"])
        if leaf <= subtree + 0.1:
            for key in ("feature", "threshold", "equal", "left", "right"):
                del node[key]
            return leaf
        return subtree

    root = grow(list(range(len(rows))))
    if prune:
        pruned_error(root)
    return root


def flat_tree(nested: dict) -> dict:
    """`grow_tree_reference`'s nested tree as the parallel pre-order lists
    that a trained ``DecisionTree`` holds in ``nodes`` and saves: a leaf has
    feature, left and right -1, threshold 0.0 and equal false; an inner
    node's left and right are its children's positions in the lists."""
    flat = {key: [] for key in ("feature", "threshold", "equal", "left", "right", "counts")}

    def add(node):
        i, leaf = len(flat["counts"]), "feature" not in node
        flat["counts"].append(node["counts"])
        flat["feature"].append(-1 if leaf else node["feature"])
        flat["threshold"].append(0.0 if leaf else node["threshold"])
        flat["equal"].append(False if leaf else node["equal"])
        flat["left"].append(-1)
        flat["right"].append(-1)
        if not leaf:
            flat["left"][i] = add(node["left"])
            flat["right"][i] = add(node["right"])
        return i

    add(nested)
    return flat


# ---------------------------------------------------------------------------
# Symmetric eigen-decomposition: classical Jacobi rotations


def jacobi_eigh(matrix, sweeps=100, tol=1e-12):
    """Eigenvalues/vectors of a symmetric matrix via Jacobi rotations.

    Returns (eigenvalues desc, columns of eigenvectors in matching order).
    Pure python lists in, lists out.
    """
    n = len(matrix)
    a = [row[:] for row in matrix]
    v = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for _ in range(sweeps):
        off = math.sqrt(sum(a[i][j] ** 2 for i in range(n)
                            for j in range(n) if i != j))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p][q]) < tol / (n * n + 1):
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q])
                t = (1.0 if theta >= 0 else -1.0) / (
                    abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for k in range(n):
                    akp, akq = a[k][p], a[k][q]
                    a[k][p] = c * akp - s * akq
                    a[k][q] = s * akp + c * akq
                for k in range(n):
                    apk, aqk = a[p][k], a[q][k]
                    a[p][k] = c * apk - s * aqk
                    a[q][k] = s * apk + c * aqk
                for k in range(n):
                    vkp, vkq = v[k][p], v[k][q]
                    v[k][p] = c * vkp - s * vkq
                    v[k][q] = s * vkp + c * vkq
    eig = [(a[i][i], [v[k][i] for k in range(n)]) for i in range(n)]
    eig.sort(key=lambda t: -t[0])
    return [e for e, _ in eig], [vec for _, vec in eig]


# ---------------------------------------------------------------------------
# Corpus rows: a table as a list of rows, and a table built from rows

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


@dataclass(frozen=True)
class Transaction:
    """One buy/sell event: buyer_id bought quantity units from seller_id."""

    buyer_id: str
    seller_id: str
    product_id: str
    quantity: int
    unit_price_cents: int
    timestamp: datetime

    @property
    def amount_cents(self) -> int:
        return self.quantity * self.unit_price_cents


@dataclass(frozen=True)
class Feedback:
    """One rating event: giver_id rated receiver_id with -1, 0, or +1."""

    giver_id: str
    receiver_id: str
    rating: int
    timestamp: datetime


@dataclass(frozen=True)
class Profile:
    user_id: str
    birth_year: int          # 0: none
    state_text: str
    registration_date: date


def rows(table) -> list:
    """The rows of a transaction, feedback or profile table, in order."""
    if isinstance(table, TransactionTable):
        ids, products = decode_ids(table.user_ids), decode_ids(table.product_ids)
        return [Transaction(ids[b], ids[s], products[p], q, c, _EPOCH + timedelta(seconds=t))
                for b, s, p, q, c, t in zip(table.buyer.tolist(), table.seller.tolist(),
                                            table.product.tolist(), table.quantity.tolist(),
                                            table.price_cents.tolist(), table.ts.tolist())]
    if isinstance(table, FeedbackTable):
        ids = decode_ids(table.user_ids)
        return [Feedback(ids[g], ids[r], v, _EPOCH + timedelta(seconds=t))
                for g, r, v, t in zip(table.giver.tolist(), table.receiver.tolist(),
                                      table.rating.tolist(), table.ts.tolist())]
    return [Profile(u, y, table.states[s], _EPOCH.date() + timedelta(days=d))
            for u, y, s, d in zip(decode_ids(table.user_ids), table.birth_year.tolist(),
                                  table.state.tolist(), table.registration_day.tolist())]


def _codes(values, table: dict) -> np.ndarray:
    """Codes of `values` in `table`, appending unseen values."""
    return np.array([table.setdefault(v, len(table)) for v in values], np.int64)


def _seconds(ts: datetime) -> int:
    return int(ts.timestamp())


def transaction_table(records) -> TransactionTable:
    records = list(records)
    users: dict[str, int] = {}
    products: dict[str, int] = {}
    buyer = _codes([r.buyer_id for r in records], users)
    seller = _codes([r.seller_id for r in records], users)
    product = _codes([r.product_id for r in records], products)
    return TransactionTable(encode_ids(users), buyer, seller, encode_ids(products), product,
                            np.array([r.quantity for r in records], np.int64),
                            np.array([r.unit_price_cents for r in records], np.int64),
                            np.array([_seconds(r.timestamp) for r in records], np.int64))


def feedback_table(records) -> FeedbackTable:
    records = list(records)
    users: dict[str, int] = {}
    giver = _codes([r.giver_id for r in records], users)
    receiver = _codes([r.receiver_id for r in records], users)
    return FeedbackTable(encode_ids(users), giver, receiver,
                         np.array([r.rating for r in records], np.int64),
                         np.array([_seconds(r.timestamp) for r in records], np.int64))


def profile_table(records) -> ProfileTable:
    records = list(records)
    states: dict[str, int] = {}
    state = _codes([p.state_text for p in records], states)
    return ProfileTable(encode_ids([p.user_id for p in records]),
                        np.array([p.birth_year for p in records], np.int64), list(states), state,
                        np.array([(p.registration_date - _EPOCH.date()).days for p in records],
                                 np.int64))


# ---------------------------------------------------------------------------
# Per-user feature recount straight from record lists


def recount_features(user_id, transactions, feedback, profile):
    """Dict of all 31 features for one user, computed with plain dicts.

    `transactions` / `feedback` are row lists (see `rows`) and `profile` a
    Profile or None; no graph machinery involved.
    """
    buys = [t for t in transactions if t.buyer_id == user_id]
    sells = [t for t in transactions if t.seller_id == user_id]
    out_partners = {t.seller_id for t in buys}
    in_partners = {t.buyer_id for t in sells}

    def cents(x):
        return x / 100.0

    f = {
        "Buy-Trans-Num": len(buys),
        "Sell-Trans-Num": len(sells),
        "Unique-Sellers": len(out_partners),
        "Unique-Buyers": len(in_partners),
        "Bidir-Trans-Users": len(out_partners & in_partners),
        "Max-Buy-Price": cents(max((t.amount_cents for t in buys), default=0)),
        "Min-Buy-Price": cents(min((t.amount_cents for t in buys), default=0)),
        "Max-Buy-Quantity": max((t.quantity for t in buys), default=0),
        "Total-Buy-Quantity": sum(t.quantity for t in buys),
        "Total-Buy-Amount": cents(sum(t.amount_cents for t in buys)),
        "Max-Sell-Price": cents(max((t.amount_cents for t in sells), default=0)),
        "Min-Sell-Price": cents(min((t.amount_cents for t in sells), default=0)),
        "Max-Sell-Quantity": max((t.quantity for t in sells), default=0),
        "Total-Sell-Quantity": sum(t.quantity for t in sells),
        "Total-Sell-Amount": cents(sum(t.amount_cents for t in sells)),
    }

    given = [r for r in feedback if r.giver_id == user_id]
    received = [r for r in feedback if r.receiver_id == user_id]
    gvn_partners = {r.receiver_id for r in given}
    rcv_partners = {r.giver_id for r in received}
    f.update({
        "Gvn-Fdbk-Num": len(given),
        "Rcv-Fdbk-Num": len(received),
        "Gvn-Unique-Fdbk": len(gvn_partners),
        "Rcv-Unique-Fdbk": len(rcv_partners),
        "Bidir-Fdbk-Users": len(gvn_partners & rcv_partners),
        "Gvn-Pos-Fdbk": sum(1 for r in given if r.rating == 1),
        "Gvn-Neg-Fdbk": sum(1 for r in given if r.rating == -1),
        "Rcv-Pos-Fdbk": sum(1 for r in received if r.rating == 1),
        "Rcv-Neg-Fdbk": sum(1 for r in received if r.rating == -1),
        "Gvn-Fdbk-RSum": sum(r.rating for r in given),
        "Rcv-Fdbk-RSum": sum(r.rating for r in received),
        "Gvn-Fdbk-Avg": (sum(r.rating for r in given) / len(given)) if given else 0.0,
        "Rcv-Fdbk-Avg": (sum(r.rating for r in received) / len(received))
                        if received else 0.0,
    })

    activity_ts = [t.timestamp for t in buys + sells]
    if profile is None:
        f.update({"Birth-Year": 0, "State-Hash": crc32_reference(b""),
                  "Active-Days": 0})
    else:
        active = 0
        if activity_ts:
            last_day = max(int(t.timestamp()) for t in activity_ts) // 86400
            reg_day = (profile.registration_date - date(1970, 1, 1)).days
            active = max(last_day - reg_day, 0)
        f.update({
            "Birth-Year": profile.birth_year or 0,
            "State-Hash": crc32_reference(profile.state_text.encode("utf-8")),
            "Active-Days": active,
        })
    return f


# ---------------------------------------------------------------------------
# Feature CSV reading, one line and one float() at a time


def read_feature_csv_reference(stream):
    """(user ids, rows of 31 floats, 0/1 labels) of a feature CSV.

    A bad file raises the reader's ValueError. Lines are checked in file
    order (field count, label, a NUL in the id, then each cell with float()); then repeated
    user ids; then non-finite values, first in row-major order.
    """
    from shilldetect.features import FEATURE_NAMES, LABEL_VALUES

    header = stream.readline().rstrip("\n").split(",")
    expected = ["user_id", *FEATURE_NAMES, "label"]
    if header != expected:
        raise ValueError(f"feature CSV header mismatch: {header[:3]}...")
    ids, rows, labels = [], [], []
    for line_no, line in enumerate(stream, start=2):
        parts = line.rstrip("\n").split(",")
        if len(parts) != len(expected):
            raise ValueError(f"feature CSV line {line_no}: {len(parts)} fields, "
                             f"expected {len(expected)}")
        if parts[-1] not in LABEL_VALUES:
            raise ValueError(f"feature CSV line {line_no}: label {parts[-1]!r} "
                             "is neither 'shill' nor 'benign'")
        if "\0" in parts[0]:
            raise ValueError(f"feature CSV line {line_no}: user id {parts[0]!r} holds a NUL")
        row = []
        for name, text in zip(FEATURE_NAMES, parts[1:-1]):
            try:
                row.append(float(text))
            except ValueError:
                raise ValueError(f"feature CSV line {line_no}: {name} is {text!r}, "
                                 "not a number") from None
        ids.append(parts[0])
        rows.append(row)
        labels.append(LABEL_VALUES[parts[-1]])
    first_line: dict[str, int] = {}
    for line_no, user in enumerate(ids, start=2):
        if user in first_line:
            raise ValueError(f"feature CSV line {line_no}: user {user!r} is "
                             f"already on line {first_line[user]}")
        first_line[user] = line_no
    for line_no, row in enumerate(rows, start=2):
        for name, value in zip(FEATURE_NAMES, row):
            if not math.isfinite(value):
                raise ValueError(f"feature CSV line {line_no}: {name} is "
                                 f"{value!r}; feature values must be finite")
    return ids, rows, labels


# ---------------------------------------------------------------------------
# Corpus row parsing, one row at a time


def _reference_valid_id(text: str) -> bool:
    return bool(text) and text == text.strip() and not any(c in text for c in ",\n\r\0")


def _reference_rows(text: str, fmt: str, columns):
    """(line, {column: value} | error message) per non-empty row."""
    import csv
    import io
    import json

    if fmt == "csv":
        reader = csv.reader(io.StringIO(text))
        next(reader)
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(columns):
                yield line_no, f"expected {len(columns)} fields, got {len(row)}"
            else:
                yield line_no, dict(zip(columns, row))
        return
    for line_no, line in enumerate(io.StringIO(text), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            # a JSONDecodeError, an integer past int's digit limit, or
            # nesting past the recursion limit
            yield line_no, f"invalid JSON: {getattr(exc, 'msg', exc)}"
            continue
        if not isinstance(obj, dict):
            yield line_no, "JSONL line is not an object"
            continue
        missing = [c for c in columns if c not in obj]
        odd = [c for c in columns if c in obj and isinstance(obj[c], str)
               and any(0xD800 <= ord(ch) <= 0xDFFF for ch in obj[c])]
        if missing:
            yield line_no, f"missing keys: {missing}"
        elif odd:                        # UTF-8 cannot encode a lone surrogate
            yield line_no, f"lone surrogate in {odd}"
        else:
            yield line_no, {c: obj[c] for c in columns}


def _reference_integer(name: str, value) -> int:
    """int(value); a bool, or a finite float with a fraction part, is an
    error rather than truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and math.isfinite(value)
                                   and not value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _reference_transaction(row: dict) -> tuple:
    from shilldetect.records import parse_price_cents, parse_rfc3339

    quantity = _reference_integer("quantity", row["quantity"])
    if quantity < 1:
        raise ValueError(f"quantity must be >= 1, got {quantity}")
    price = row["unit_price"]
    cents = parse_price_cents(price if isinstance(price, str) else repr(price))
    ts = parse_rfc3339(str(row["timestamp"]))
    ids = str(row["buyer_id"]), str(row["seller_id"]), str(row["product_id"])
    if not all(map(_reference_valid_id, ids)):
        raise ValueError("empty or malformed identifier")
    return (*ids, quantity, cents, int(ts.timestamp()))


def _reference_feedback(row: dict) -> tuple:
    from shilldetect.records import parse_rfc3339

    rating = _reference_integer("rating", row["rating"])
    if rating not in (-1, 0, 1):
        raise ValueError(f"rating must be -1, 0, or +1, got {rating}")
    ts = parse_rfc3339(str(row["timestamp"]))
    ids = str(row["giver_id"]), str(row["receiver_id"])
    if not all(map(_reference_valid_id, ids)):
        raise ValueError("empty or malformed identifier")
    return (*ids, rating, int(ts.timestamp()))


def _reference_profile(row: dict, seen: set) -> tuple:
    from shilldetect.records import parse_rfc3339

    user_id = str(row["user_id"])
    if not _reference_valid_id(user_id):
        raise ValueError("empty or malformed identifier")
    if user_id in seen:
        raise ValueError(f"duplicate user_id {user_id!r}")
    birth = row["birth_year"]
    birth_year = None if birth == "" or birth is None else _reference_integer("birth_year", birth)
    if birth_year is not None and not -2**63 <= birth_year < 2**63:
        raise ValueError(f"birth_year {birth_year} does not fit in 64 bits")
    registration = parse_rfc3339(str(row["registration_date"])).date()
    seen.add(user_id)
    return user_id, birth_year, str(row["state"]), registration


def parse_rows_reference(text: str, fmt: str, what: str):
    """(row tuples, [(line, message)]) of a transactions, feedback or
    profiles corpus.

    Each row is checked on its own, in the order the parsers check fields:
    quantity, price, timestamp, identifiers for a transaction; rating,
    timestamp, identifiers for feedback; identifier, repeat, birth year,
    registration date for a profile, where only an accepted row claims
    its id. A row tuple holds the ids, the integers and the timestamp as
    int epoch seconds, as the graphs use it; a profile's holds its fields.
    """
    from shilldetect.records import FEEDBACK_COLUMNS, PROFILE_COLUMNS, TRANSACTION_COLUMNS

    seen: set[str] = set()
    columns, make = {"transactions": (TRANSACTION_COLUMNS, _reference_transaction),
                     "feedback": (FEEDBACK_COLUMNS, _reference_feedback),
                     "profiles": (PROFILE_COLUMNS,
                                  lambda row: _reference_profile(row, seen))}[what]
    rows, errors = [], []
    for line_no, row in _reference_rows(text, fmt, columns):
        if isinstance(row, str):
            errors.append((line_no, row))
            continue
        try:
            rows.append(make(row))
        except (ValueError, TypeError) as exc:
            errors.append((line_no, str(exc)))
    return rows, errors


# ---------------------------------------------------------------------------
# Corpus and feature CSV writing, one row at a time


def format_price(cents: int) -> str:
    return f"{cents // 100}.{cents % 100:02d}"


def format_rfc3339(ts: np.ndarray) -> list[str]:
    """`YYYY-MM-DDTHH:MM:SSZ` of each epoch second, the year zero-padded
    to four digits."""
    return [t + "Z" for t in np.datetime_as_string(ts.astype("datetime64[s]"), unit="s").tolist()]


def _corpus_rows(table) -> tuple[tuple[str, ...], list[tuple]]:
    """(columns, rows) of a corpus table, each field as the writers give
    it to csv or json: ids, prices, timestamps and dates as text, the
    rest as int, and no birth year as ""."""
    from shilldetect.records import FEEDBACK_COLUMNS, PROFILE_COLUMNS, TRANSACTION_COLUMNS

    if isinstance(table, TransactionTable):
        ids, products = decode_ids(table.user_ids), decode_ids(table.product_ids)
        return TRANSACTION_COLUMNS, [
            (ids[b], ids[s], products[p], q, format_price(c), t)
            for b, s, p, q, c, t in zip(table.buyer.tolist(), table.seller.tolist(),
                                        table.product.tolist(), table.quantity.tolist(),
                                        table.price_cents.tolist(), format_rfc3339(table.ts))]
    if isinstance(table, FeedbackTable):
        ids = decode_ids(table.user_ids)
        return FEEDBACK_COLUMNS, [
            (ids[g], ids[r], v, t)
            for g, r, v, t in zip(table.giver.tolist(), table.receiver.tolist(),
                                  table.rating.tolist(), format_rfc3339(table.ts))]
    days = np.datetime_as_string(table.registration_day.astype("datetime64[D]")).tolist()
    return PROFILE_COLUMNS, [
        (u, y or "", table.states[s], d)
        for u, y, s, d in zip(decode_ids(table.user_ids), table.birth_year.tolist(),
                              table.state.tolist(), days)]


def write_corpus_reference(table, fmt: str) -> str:
    """A corpus file written row by row: csv.writer's quoting for csv, one
    json.dumps object per line for jsonl.

    csv quotes a field holding a comma, a quote, a carriage return or a
    newline. With lines ending in "\\n" csv.writer leaves a lone carriage
    return bare, and csv.reader then refuses the line, so each row is
    written with a "\\r\\n" terminator, which csv.writer quotes, and ends in
    "\\n".
    """
    import csv
    import io
    import json

    columns, body = _corpus_rows(table)
    if fmt == "jsonl":
        return "".join(json.dumps(dict(zip(columns, row)), separators=(",", ":")) + "\n"
                       for row in body)
    lines = []
    for row in [columns, *body]:
        line = io.StringIO()
        csv.writer(line, lineterminator="\r\n").writerow([str(v) for v in row])
        lines.append(line.getvalue()[:-2] + "\n")
    return "".join(lines)


def write_feature_csv_reference(user_ids, values, labels, feature_names) -> str:
    """The feature CSV, row by row: a whole value below 1e15 in magnitude as
    an integer, any other as its repr; ids as they are."""
    lines = [",".join(["user_id", *feature_names, "label"]) + "\n"]
    for user, row, label in zip(user_ids, values.tolist(), labels.tolist()):
        cells = [str(int(v)) if v == math.trunc(v) and abs(v) < 1e15 else repr(v) for v in row]
        lines.append(",".join([user, *cells, "shill" if label else "benign"]) + "\n")
    return "".join(lines)
