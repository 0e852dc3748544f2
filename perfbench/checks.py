"""Correctness checks on one round's artifacts, made apart from the program.

Nothing here imports shilldetect. Every expected value is recomputed from
the artifacts' text (the corpus CSVs, the feature CSV, the edge list) or
is a property the method must have; nothing is compared with a stored
copy of earlier output. Each check function returns, per operation of the
round, the list of problems it found (empty when the operation passed).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import xml.etree.ElementTree as ET
from collections import Counter, defaultdict
from datetime import date
from decimal import Decimal
from pathlib import Path

FEATURES = (
    "Buy-Trans-Num", "Sell-Trans-Num", "Unique-Sellers", "Unique-Buyers",
    "Bidir-Trans-Users", "Max-Buy-Price", "Min-Buy-Price", "Max-Buy-Quantity",
    "Total-Buy-Quantity", "Total-Buy-Amount", "Max-Sell-Price", "Min-Sell-Price",
    "Max-Sell-Quantity", "Total-Sell-Quantity", "Total-Sell-Amount",
    "Gvn-Fdbk-Num", "Rcv-Fdbk-Num", "Gvn-Unique-Fdbk", "Rcv-Unique-Fdbk",
    "Bidir-Fdbk-Users", "Gvn-Pos-Fdbk", "Gvn-Neg-Fdbk", "Rcv-Pos-Fdbk",
    "Rcv-Neg-Fdbk", "Gvn-Fdbk-RSum", "Rcv-Fdbk-RSum", "Gvn-Fdbk-Avg",
    "Rcv-Fdbk-Avg", "Birth-Year", "State-Hash", "Active-Days",
)
SAMPLE_USERS = 300
AUC_FLOOR = 0.85            # the paper's first result (acceptance criterion 6)
SHILL_MIN_CLIQUE = 5        # the paper's second result (criterion 8)
BENIGN_MAX_CLIQUE = 3


def crc32_bitwise(data: bytes) -> int:
    """CRC-32, reflected polynomial 0xEDB88320, one bit at a time."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0xEDB88320 if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF


def cents(text: str) -> int:
    """Exact cents of a decimal dollar string; raises if not whole cents."""
    value = Decimal(text) * 100
    if value != value.to_integral_value():
        raise ValueError(f"{text!r} is not a whole number of cents")
    return int(value)


def _rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        return next(reader), list(reader)


# A missing or malformed artifact fails the operation that wrote it.
_ARTIFACT_ERRORS = (OSError, ValueError, KeyError, IndexError, TypeError)


def _guarded(check, *args) -> list[str]:
    try:
        return check(*args)
    except _ARTIFACT_ERRORS as exc:
        return [f"{type(exc).__name__}: {exc}"]


def digest_problems(run_dir: Path) -> list[str]:
    """The manifest lists every other file of the run with its sha256."""
    path = run_dir / "manifest.json"
    if not path.is_file():
        return [f"{run_dir.name}: no manifest.json"]
    listed = json.loads(path.read_text(encoding="utf-8"))["artifacts"]
    present = {p.name for p in run_dir.iterdir() if p.name != "manifest.json"}
    problems = []
    if set(listed) != present:
        problems.append(f"{run_dir.name}: manifest lists {sorted(listed)}, "
                        f"directory holds {sorted(present)}")
    for name in sorted(set(listed) & present):
        if hashlib.sha256((run_dir / name).read_bytes()).hexdigest() != listed[name]:
            problems.append(f"{run_dir.name}/{name}: sha256 differs from manifest")
    return problems


# ---------------------------------------------------------------------------
# market: synth -> features -> ecosystem


class Corpus:
    """The three corpus CSVs and the label list, read as plain text."""

    def __init__(self, corpus_dir: Path):
        _, self.tx = _rows(corpus_dir / "transactions.csv")
        _, self.fb = _rows(corpus_dir / "feedback.csv")
        _, self.profiles = _rows(corpus_dir / "profiles.csv")
        self.labels = (corpus_dir / "labels.txt").read_text(encoding="utf-8").split()

    def ids(self) -> set[str]:
        out = {p[0] for p in self.profiles}
        for b, s, *_ in self.tx:
            out.update((b, s))
        for g, r, *_ in self.fb:
            out.update((g, r))
        return out


def recount_features(corpus: Corpus, users) -> dict[str, list[float]]:
    """All 31 features of `users`, recounted with plain dicts."""
    users = set(users)
    buys, sells = defaultdict(list), defaultdict(list)
    for b, s, _, q, p, ts in corpus.tx:
        link = (b, s, int(q), int(q) * cents(p), ts)
        if b in users:
            buys[b].append(link)
        if s in users:
            sells[s].append(link)
    given, got = defaultdict(list), defaultdict(list)
    for g, r, rating, _ in corpus.fb:
        if g in users:
            given[g].append((r, int(rating)))
        if r in users:
            got[r].append((g, int(rating)))
    profiles = {p[0]: p for p in corpus.profiles if p[0] in users}

    out = {}
    for u in users:
        b, s = buys[u], sells[u]
        sellers, buyers = {x[1] for x in b}, {x[0] for x in s}
        gv, rc = given[u], got[u]
        gv_to, rc_from = {x[0] for x in gv}, {x[0] for x in rc}
        gv_sum, rc_sum = sum(x[1] for x in gv), sum(x[1] for x in rc)
        row = [
            len(b), len(s), len(sellers), len(buyers), len(sellers & buyers),
            max((x[3] for x in b), default=0) / 100,
            min((x[3] for x in b), default=0) / 100,
            max((x[2] for x in b), default=0), sum(x[2] for x in b),
            sum(x[3] for x in b) / 100,
            max((x[3] for x in s), default=0) / 100,
            min((x[3] for x in s), default=0) / 100,
            max((x[2] for x in s), default=0), sum(x[2] for x in s),
            sum(x[3] for x in s) / 100,
            len(gv), len(rc), len(gv_to), len(rc_from), len(gv_to & rc_from),
            sum(1 for x in gv if x[1] > 0), sum(1 for x in gv if x[1] < 0),
            sum(1 for x in rc if x[1] > 0), sum(1 for x in rc if x[1] < 0),
            gv_sum, rc_sum,
            gv_sum / len(gv) if gv else 0.0, rc_sum / len(rc) if rc else 0.0,
        ]
        profile = profiles.get(u)
        if profile is None:
            row += [0, crc32_bitwise(b""), 0]
        else:
            _, birth, state, registered = profile
            active = 0
            stamps = [x[4] for x in b + s]
            if stamps:
                last = date.fromisoformat(max(stamps)[:10])
                active = max((last - date.fromisoformat(registered[:10])).days, 0)
            row += [int(birth) if birth else 0,
                    crc32_bitwise(state.encode("utf-8")), active]
        out[u] = [float(v) for v in row]
    return out


def check_synth(corpus_dir: Path, corpus: Corpus) -> list[str]:
    problems = digest_problems(corpus_dir)
    manifest = json.loads((corpus_dir / "manifest.json").read_text(encoding="utf-8"))
    want = manifest["args"]["generator"]["counts"]
    got = {"transactions": len(corpus.tx), "feedback": len(corpus.fb),
           "users": len(corpus.profiles), "shills": len(corpus.labels)}
    for key, value in got.items():
        if want.get(key) != value:
            problems.append(f"synth: {key} rows {value} != manifest count {want.get(key)}")
    return problems


def check_features(features_dir: Path, corpus: Corpus, seed: int) -> list[str]:
    problems = digest_problems(features_dir)
    header, rows = _rows(features_dir / "features.csv")
    if header != ["user_id", *FEATURES, "label"]:
        return problems + [f"features: header {header[:3]}... is not the 31-column manifest"]
    col = {name: i + 1 for i, name in enumerate(FEATURES)}
    ids = [r[0] for r in rows]
    if len(set(ids)) != len(ids):
        problems.append(f"features: {len(ids) - len(set(ids))} duplicate user rows")
    if set(ids) != corpus.ids():
        problems.append(f"features: {len(set(ids) ^ corpus.ids())} ids differ from "
                        "the distinct ids of the corpus files")
    shills = set(corpus.labels)
    mislabeled = sum(1 for r in rows if (r[-1] == "shill") != (r[0] in shills)
                     or r[-1] not in ("shill", "benign"))
    if mislabeled:
        problems.append(f"features: {mislabeled} labels disagree with labels.txt")

    def total(name, parse=int):
        return sum(parse(r[col[name]]) for r in rows)

    ratings = Counter(int(r[2]) for r in corpus.fb)
    tx_qty = sum(int(r[3]) for r in corpus.tx)
    tx_cents = sum(int(r[3]) * cents(r[4]) for r in corpus.tx)
    expected = {
        ("Buy-Trans-Num", "Sell-Trans-Num"): (len(corpus.tx), int),
        ("Gvn-Fdbk-Num", "Rcv-Fdbk-Num"): (len(corpus.fb), int),
        ("Gvn-Pos-Fdbk", "Rcv-Pos-Fdbk"): (ratings[1], int),
        ("Gvn-Neg-Fdbk", "Rcv-Neg-Fdbk"): (ratings[-1], int),
        ("Total-Buy-Quantity", "Total-Sell-Quantity"): (tx_qty, int),
        ("Total-Buy-Amount", "Total-Sell-Amount"): (tx_cents, cents),
    }
    for names, (want, parse) in expected.items():
        for name in names:
            try:
                got = total(name, parse)
            except ValueError as exc:
                problems.append(f"features: {name}: {exc}")
                continue
            if got != want:
                problems.append(f"features: column sum {name} = {got}, corpus gives {want}")

    by_id = {r[0]: r for r in rows}
    sample = random.Random(seed).sample(sorted(by_id), min(SAMPLE_USERS, len(by_id)))
    recount = recount_features(corpus, sample)
    bad = [(u, FEATURES[j]) for u in sample for j in range(len(FEATURES))
           if float(by_id[u][j + 1]) != recount[u][j]]
    if bad:
        problems.append(f"features: {len(bad)} sampled values differ from the recount, "
                        f"first {bad[0][0]} {bad[0][1]}")
    return problems


def _undirected(edges_csv: Path) -> dict[str, set[str]]:
    _, rows = _rows(edges_csv)
    adj = defaultdict(set)
    for src, dst, _ in rows:
        if src != dst:
            adj[src].add(dst)
            adj[dst].add(src)
    return adj


def largest_component(adj: dict[str, set[str]]) -> int:
    seen, best = set(), 0
    for start in adj:
        if start in seen:
            continue
        seen.add(start)
        queue, size = [start], 0
        while queue:
            v = queue.pop()
            size += 1
            for u in adj[v] - seen:
                seen.add(u)
                queue.append(u)
        best = max(best, size)
    return best


def check_ecosystem(eco_dir: Path) -> list[str]:
    problems = digest_problems(eco_dir)
    adj = _undirected(eco_dir / "shill_edges.csv")
    cliques = [line.split() for line in
               (eco_dir / "cliques_shill.txt").read_text(encoding="utf-8").splitlines()]
    for n, members in enumerate(cliques, start=1):
        unadjacent = [(a, b) for i, a in enumerate(members) for b in members[i + 1:]
                      if b not in adj.get(a, ())]
        if unadjacent or len(members) != len(set(members)):
            problems.append(f"ecosystem: cliques_shill.txt line {n} is not a clique")
            continue
        common = set.intersection(*(adj[m] for m in members)) - set(members)
        if common:
            problems.append(f"ecosystem: cliques_shill.txt line {n} is not maximal; "
                            f"{sorted(common)[0]} is adjacent to every member")
    shill = json.loads((eco_dir / "ecosystem_shill.json").read_text(encoding="utf-8"))
    benign = json.loads((eco_dir / "ecosystem_benign.json").read_text(encoding="utf-8"))
    if shill["clique_count"] != len(cliques):
        problems.append(f"ecosystem: clique_count {shill['clique_count']} != "
                        f"{len(cliques)} lines of cliques_shill.txt")
    bfs = largest_component(adj)
    if shill["largest_component_size"] != bfs:
        problems.append(f"ecosystem: largest_component_size "
                        f"{shill['largest_component_size']} != BFS {bfs}")
    if not (shill["max_clique_size"] >= SHILL_MIN_CLIQUE
            and benign["max_clique_size"] <= BENIGN_MAX_CLIQUE):
        problems.append(f"ecosystem: max clique shill {shill['max_clique_size']} vs "
                        f"benign {benign['max_clique_size']}; want >= "
                        f"{SHILL_MIN_CLIQUE} vs <= {BENIGN_MAX_CLIQUE}")
    if not shill["largest_component_size"] > benign["largest_component_size"]:
        problems.append("ecosystem: shill main component is not larger than benign")
    return problems


def check_market(round_dir: Path, seed: int) -> dict[str, list[str]]:
    eco = _guarded(check_ecosystem, round_dir / "ecosystem")
    try:
        corpus = Corpus(round_dir / "corpus")
    except _ARTIFACT_ERRORS as exc:
        broken = [f"corpus: {type(exc).__name__}: {exc}"]
        return {"synth": broken, "features": broken, "ecosystem": eco}
    return {"synth": _guarded(check_synth, round_dir / "corpus", corpus),
            "features": _guarded(check_features, round_dir / "features", corpus, seed),
            "ecosystem": eco}


# ---------------------------------------------------------------------------
# cv and protocol: runs over a feature CSV made in set-up


def shill_rows(features_csv: Path) -> int:
    _, rows = _rows(features_csv)
    return sum(1 for r in rows if r[-1] == "shill")


def check_cv(cv_dir: Path, n_shills: int) -> list[str]:
    problems = digest_problems(cv_dir)
    m = json.loads((cv_dir / "metrics.json").read_text(encoding="utf-8"))
    tp, fp, tn, fn = m["tp"], m["fp"], m["tn"], m["fn"]
    if tp + fn != n_shills:
        problems.append(f"cv: tp+fn = {tp + fn}, features.csv has {n_shills} shills")
    if tp + fp + tn + fn != 2 * n_shills:
        problems.append(f"cv: tp+fp+tn+fn = {tp + fp + tn + fn} != 2 x {n_shills}")
    tp_rate = tp / (tp + fn) if tp + fn else 0.0
    fp_rate = fp / (fp + tn) if fp + tn else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    f_measure = (2 * precision * tp_rate / (precision + tp_rate)
                 if precision + tp_rate else 0.0)
    for name, want in (("tp_rate", tp_rate), ("fp_rate", fp_rate),
                       ("precision", precision), ("f_measure", f_measure)):
        if not math.isclose(m[name], want, rel_tol=1e-12, abs_tol=1e-15):
            problems.append(f"cv: {name} {m[name]} != {want} from the counts")
    if not AUC_FLOOR <= m["auc"] <= 1.0:
        problems.append(f"cv: auc {m['auc']} outside [{AUC_FLOOR}, 1]")
    return problems


def check_protocol(protocol_dir: Path, n_shills: int) -> list[str]:
    problems = digest_problems(protocol_dir)
    report = json.loads((protocol_dir / "report.json").read_text(encoding="utf-8"))
    n_test = n_shills - (9 * n_shills) // 10
    k_grid, reps = report["k_grid"], report["repetitions"]
    if k_grid != list(range(1, len(k_grid) + 1)):
        problems.append("protocol: k grid is not 1..K")
        return problems
    for ratio in report["ratios"]:
        label = f"1:{ratio}"
        size = report["test_sizes"][label]
        if size != n_test * (1 + ratio):
            problems.append(f"protocol {label}: test size {size} != "
                            f"{n_test} x {1 + ratio}")
        curves = report["per_repetition"][label]
        if len(curves) != reps:
            problems.append(f"protocol {label}: {len(curves)} repetitions, want {reps}")
        for r, curve in enumerate(curves):
            hits_before = 0
            for k, p in zip(k_grid, curve):
                hits = min(k, size) * p
                if abs(hits - round(hits)) > 1e-9 * k:
                    problems.append(f"protocol {label} rep {r}: k={k} p={p} "
                                    "is not a whole count over k")
                    break
                if round(hits) - hits_before not in ((0, 1) if k <= size else (0,)):
                    problems.append(f"protocol {label} rep {r}: hits jump from "
                                    f"{hits_before} to {round(hits)} at k={k}")
                    break
                if k >= size and not math.isclose(p, n_test / size, rel_tol=1e-12):
                    problems.append(f"protocol {label} rep {r}: p@{k}={p} past the "
                                    f"test size, want {n_test}/{size}")
                    break
                hits_before = round(hits)
        mean = [sum(c[j] for c in curves) / reps for j in range(len(k_grid))]
        if any(not math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)
               for a, b in zip(mean, report["curves"][label])):
            problems.append(f"protocol {label}: curve is not the mean of the repetitions")
        if n_test <= len(k_grid):
            p = report["curves"][label][n_test - 1]
            if not p > 1 / (1 + ratio):
                problems.append(f"protocol {label}: p@{n_test} = {p} is not above "
                                f"the base rate 1/{1 + ratio}")

    header, rows = _rows(protocol_dir / "precision.csv")
    want = []
    for ratio in report["ratios"]:
        label = f"1:{ratio}"
        for j, k in enumerate(k_grid):
            want.append([label, str(k), f"{report['curves'][label][j]:.6f}"]
                        + [f"{report['per_repetition'][label][r][j]:.6f}"
                           for r in range(reps)])
    if header != ["ratio", "k", "mean_precision"] + [f"rep{r}" for r in range(reps)]:
        problems.append(f"protocol: precision.csv header {header}")
    elif rows != want:
        n_diff = sum(1 for a, b in zip(rows, want) if a != b) + abs(len(rows) - len(want))
        problems.append(f"protocol: precision.csv disagrees with report.json "
                        f"on {n_diff} rows")
    try:
        ET.parse(protocol_dir / "precision.svg")
    except ET.ParseError as exc:
        problems.append(f"protocol: precision.svg is not XML: {exc}")
    return problems


def check_round(workload: str, round_dir: Path, seed: int,
                features_csv: Path | None) -> dict[str, list[str]]:
    """Problems per operation of one round, keyed by subcommand."""
    if workload == "market":
        return check_market(round_dir, seed)
    n_shills = shill_rows(features_csv)
    if workload == "cv":
        return {"evaluate": _guarded(check_cv, round_dir / "cv", n_shills)}
    return {"precision-at-k": _guarded(check_protocol, round_dir / "protocol", n_shills)}
