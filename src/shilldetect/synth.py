"""Synthetic labeled marketplaces with planted shill rings.

Benign users buy from popularity-weighted sellers and sometimes leave
feedback; shills are partitioned into small rings that execute cheap
intra-ring sales and near-complete reciprocal positive feedback (planting
cliques in the feedback graph), trade with the benign crowd at an elevated
rate, register disproportionately with the "default" state, and sprinkle
extra positive feedback across rings (welding the shill cohort into one
large component).

Camouflage matters as much as signal: per-user activity rates are
lognormal (power users exist), listing prices are lognormal with a floor
shared by the cheap intra-ring band, and a slice of ordinary sales is
reciprocated in kind. No single count or price feature separates the
cohorts cleanly - the ring structure is a joint signature, which is the
regime the classifiers are meant for. Calibration is directional - the
point is that the shill cohort exhibits the documented structural
signatures, not any exact ratio.

Generation is single-threaded and consumes one numpy Generator in a fixed
documented order, so a (config, seed) pair always yields byte-identical
corpora. Transactions, feedback and profiles come out as columnar tables
made straight from the generator's arrays; no per-row object is built.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .records import (
    FeedbackTable,
    LabelSet,
    ProfileTable,
    TransactionTable,
    decode_ids,
    encode_ids,
    write_feedback,
    write_labels,
    write_profiles,
    write_transactions,
)

GENERATOR_VERSION = 1

_STATES = (
    "Alabama", "Alaska", "Arizona", "Arkansas", "California", "Colorado",
    "Connecticut", "Delaware", "Florida", "Georgia", "Hawaii", "Idaho",
    "Illinois", "Indiana", "Iowa", "Kansas", "Kentucky", "Louisiana", "Maine",
    "Maryland", "Massachusetts", "Michigan", "Minnesota", "Mississippi",
    "Missouri", "Montana", "Nebraska", "Nevada", "New Hampshire", "New Jersey",
    "New Mexico", "New York", "North Carolina", "North Dakota", "Ohio",
    "Oklahoma", "Oregon", "Pennsylvania", "Rhode Island", "South Carolina",
    "South Dakota", "Tennessee", "Texas", "Utah", "Vermont", "Virginia",
    "Washington", "West Virginia", "Wisconsin", "Wyoming",
)

# Registration strictly precedes the activity window, so every generated
# corpus satisfies registration <= first activity by construction.
_REG_START_DAY = int(datetime(2010, 1, 1, tzinfo=timezone.utc).timestamp()) // 86_400
_REG_DAYS = 365
_ACT_START = int(datetime(2011, 1, 1, tzinfo=timezone.utc).timestamp())
_ACT_END = int(datetime(2012, 12, 31, tzinfo=timezone.utc).timestamp())


@dataclass(frozen=True)
class MarketConfig:
    n_users: int = 20_000
    shill_fraction: float = 0.05
    ring_size_min: int = 3
    ring_size_max: int = 7
    # benign behavior
    transactions_per_user: float = 3.5
    activity_sigma: float = 1.15                 # lognormal spread of user rates
    reciprocal_trade_probability: float = 0.08  # chance a sale is returned in kind
    feedback_probability: float = 0.75          # buyer rates seller
    seller_feedback_probability: float = 0.40   # seller rates buyer back
    neutral_feedback_rate: float = 0.06
    negative_feedback_rate: float = 0.04
    price_range: tuple = (0.10, 200.00)         # clip bounds for listing prices
    price_median: float = 9.0                   # lognormal listing-price median
    price_sigma: float = 1.25
    quantity_max: int = 4
    # shill behavior
    cheap_price_range: tuple = (0.10, 2.50)
    intra_ring_trade_probability: float = 0.80  # per ordered ring pair
    reciprocal_feedback_probability: float = 0.95
    inter_ring_feedback_per_shill: float = 0.7
    extra_activity_multiplier: float = 1.25
    default_state_probability_shill: float = 0.72
    default_state_probability_benign: float = 0.25
    # profile noise
    missing_birth_year_probability: float = 0.03
    n_products: int | None = None
    zipf_exponent: float = 0.55
    seed: int = 0

    def validate(self) -> None:
        if self.n_users < 1:
            raise ValueError("n_users must be >= 1")
        for name in ("shill_fraction", "feedback_probability",
                     "seller_feedback_probability", "neutral_feedback_rate",
                     "negative_feedback_rate", "reciprocal_trade_probability",
                     "intra_ring_trade_probability",
                     "reciprocal_feedback_probability",
                     "default_state_probability_shill",
                     "default_state_probability_benign",
                     "missing_birth_year_probability"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0,1], got {v}")
        if self.neutral_feedback_rate + self.negative_feedback_rate > 1.0:
            raise ValueError("neutral + negative feedback rates exceed 1")
        if not 2 <= self.ring_size_min <= self.ring_size_max:
            raise ValueError("need 2 <= ring_size_min <= ring_size_max")
        for name in ("transactions_per_user", "activity_sigma",
                     "inter_ring_feedback_per_shill",
                     "extra_activity_multiplier", "zipf_exponent"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.price_median <= 0 or self.price_sigma < 0:
            raise ValueError("price_median must be > 0 and price_sigma >= 0")
        for lo, hi in (self.price_range, self.cheap_price_range):
            if not 0 < lo <= hi:
                raise ValueError("price ranges need 0 < low <= high")
        if self.quantity_max < 1:
            raise ValueError("quantity_max must be >= 1")
        n_shills = round(self.n_users * self.shill_fraction)
        if 0 < n_shills < self.ring_size_min:
            raise ValueError(f"{n_shills} shills cannot form a ring of size "
                             f">= {self.ring_size_min}")

    @classmethod
    def from_dict(cls, d: dict) -> "MarketConfig":
        d = dict(d)
        for key in ("price_range", "cheap_price_range"):
            if key in d:
                d[key] = tuple(d[key])
        return cls(**d)


@dataclass
class SynthCorpus:
    transactions: TransactionTable
    feedback: FeedbackTable
    profiles: ProfileTable
    labels: LabelSet
    rings: list[list[str]]
    manifest: dict

    def write(self, out_dir, fmt: str = "csv") -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        ext = "csv" if fmt == "csv" else "jsonl"
        with open(out / f"transactions.{ext}", "wb") as fh:
            write_transactions(self.transactions, fh, fmt)
        with open(out / f"feedback.{ext}", "wb") as fh:
            write_feedback(self.feedback, fh, fmt)
        with open(out / f"profiles.{ext}", "wb") as fh:
            write_profiles(self.profiles, fh, fmt)
        with open(out / "labels.txt", "wb") as fh:
            write_labels(self.labels, fh)
        with open(out / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump(self.manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _ring_sizes(n_shills: int, cfg: MarketConfig, rng) -> list[int]:
    """Truncated-geometric ring sizes covering all shills exactly."""
    sizes = []
    remaining = n_shills
    while remaining >= cfg.ring_size_min:
        s = cfg.ring_size_min + int(rng.geometric(0.45)) - 1
        s = min(s, cfg.ring_size_max, remaining)
        if remaining - s < cfg.ring_size_min and remaining - s > 0:
            # Avoid a stranded remainder smaller than the minimum ring.
            if remaining <= cfg.ring_size_max:
                s = remaining
            else:
                s = remaining - cfg.ring_size_min
                s = min(s, cfg.ring_size_max)
        sizes.append(s)
        remaining -= s
    if remaining:
        sizes[-1] += remaining
    return sizes


def _draw_sellers(rng, weights, buyers, n_users):
    """Popularity-weighted sellers, redrawn wherever seller == buyer."""
    sellers = rng.choice(n_users, size=len(buyers), p=weights)
    clash = sellers == buyers
    while clash.any():
        sellers[clash] = rng.choice(n_users, size=int(clash.sum()), p=weights)
        clash = sellers == buyers
    return sellers


def _run_numbers(sorted_values):
    """The number of the run of equal values that each position of a sorted
    array is in, counted from 0."""
    runs = np.empty(len(sorted_values), np.int64)
    runs[0] = 0
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=runs[1:])
    return np.cumsum(runs, out=runs)


def _time_order(ts, a, b, n_users):
    """The row order of np.lexsort((b, a, ts)): by time, then by the pair
    (a, b) of user positions below n_users, then by row.

    Each row's key is its time offset times the row count plus the rank of
    its pair among the distinct pairs, so the keys order as the triples do.
    The generator's times span less than 2**26 s (two years and three
    days), so the keys fit int64 below 2**37 rows, while packing (ts, a, b)
    itself into 64 bits would overflow from n_users = 2**21. The unstable
    argsort leaves each run of equal keys in any order; the values run *
    rows + row are sorted again, which orders each run by row, as
    classifiers.tree._presort does.
    """
    m = len(ts)
    if m == 0:
        return np.zeros(0, np.int64)
    key = a * n_users + b
    order = np.argsort(key)
    key[order] = _run_numbers(key[order])           # the rank of each row's pair
    key += (ts - ts.min()) * m
    order = np.argsort(key)
    runs = _run_numbers(key[order])
    runs *= m
    order += runs
    order.sort()
    order -= runs
    return order


def generate(config: MarketConfig, seed: int | None = None) -> SynthCorpus:
    """Build a labeled corpus; `seed` overrides config.seed when given.
    Transactions and feedback are ordered by time, then by their pair of
    user positions, then by the order they were drawn in (`_time_order`)."""
    config.validate()
    if seed is None:
        seed = config.seed
    rng = np.random.default_rng(seed)
    n = config.n_users
    ids = encode_ids([f"u{i:06d}" for i in range(n)])
    n_shills = round(n * config.shill_fraction)

    # --- cohort assignment and rings ------------------------------------
    shill_pos = np.sort(rng.choice(n, size=n_shills, replace=False)) if n_shills else \
        np.zeros(0, np.int64)
    is_shill = np.zeros(n, bool)
    is_shill[shill_pos] = True
    benign_pos = np.nonzero(~is_shill)[0]

    rings: list[list[int]] = []
    if n_shills:
        members = shill_pos[rng.permutation(n_shills)]
        offset = 0
        for size in _ring_sizes(n_shills, config, rng):
            rings.append(sorted(int(v) for v in members[offset:offset + size]))
            offset += size

    # --- profiles ---------------------------------------------------------
    reg_days = rng.integers(0, _REG_DAYS, n)
    birth_years = rng.integers(1950, 1996, n)
    birth_missing = rng.random(n) < config.missing_birth_year_probability
    p_default = np.where(is_shill, config.default_state_probability_shill,
                         config.default_state_probability_benign)
    use_default = rng.random(n) < p_default
    state_idx = rng.integers(0, len(_STATES), n)
    profiles = ProfileTable(ids, np.where(birth_missing, 0, birth_years), [*_STATES, "default"],
                            np.where(use_default, len(_STATES), state_idx),
                            _REG_START_DAY + reg_days)

    # --- popularity weights (static stand-in for preferential attachment) --
    pop_rank = rng.permutation(n).astype(np.float64)
    weights = 1.0 / (pop_rank + 1.0) ** config.zipf_exponent
    weights /= weights.sum()

    n_products = config.n_products or max(50, n // 10)
    lo_c, hi_c = (int(round(x * 100)) for x in config.price_range)
    cheap_lo, cheap_hi = (int(round(x * 100)) for x in config.cheap_price_range)
    # Lognormal listing prices share a floor with the cheap intra-ring band,
    # so a low minimum buy price alone never identifies a ring member.
    listing = rng.lognormal(np.log(config.price_median * 100.0),
                            config.price_sigma, n_products)
    listing_cents = np.clip(np.round(listing), lo_c, hi_c).astype(np.int64)

    tx_buyer, tx_seller, tx_prod, tx_qty, tx_price, tx_ts = [], [], [], [], [], []

    def add_trades(buyers, sellers, qty_max, cheap=False):
        m = len(buyers)
        prods = rng.integers(0, n_products, m)
        if cheap:
            price = rng.integers(cheap_lo, cheap_hi + 1, m)
        else:
            jitter = rng.uniform(0.85, 1.25, m)
            price = np.maximum(np.round(listing_cents[prods] * jitter), 1.0)
        tx_buyer.append(buyers)
        tx_seller.append(sellers)
        tx_prod.append(prods)
        tx_qty.append(rng.integers(1, qty_max + 1, m))
        tx_price.append(price.astype(np.int64))
        tx_ts.append(rng.integers(_ACT_START, _ACT_END + 1, m))

    # Per-user activity rates are lognormal around the configured mean:
    # power users give every count feature a heavy benign tail.
    sigma = config.activity_sigma
    mu = np.log(max(config.transactions_per_user, 1e-9)) - 0.5 * sigma * sigma
    rates = rng.lognormal(mu, sigma, n)

    # --- benign trade -------------------------------------------------------
    benign_counts = rng.poisson(rates[benign_pos])
    buyers = np.repeat(benign_pos, benign_counts)
    add_trades(buyers, _draw_sellers(rng, weights, buyers, n), config.quantity_max)

    # Some trading relationships run both ways; without this, a nonzero
    # bidirectional-partner count would tag ring members single-handedly.
    if len(buyers):
        back = rng.random(len(buyers)) < config.reciprocal_trade_probability
        add_trades(tx_seller[0][back], buyers[back], config.quantity_max)
    del buyers     # the first transaction part, which is emptied below

    # --- shill trade with the crowd (elevated rate, normal prices) ---------
    if n_shills:
        mult = config.extra_activity_multiplier
        buy_counts = rng.poisson(rates[shill_pos] * mult * 0.5)
        s_buyers = np.repeat(shill_pos, buy_counts)
        add_trades(s_buyers, _draw_sellers(rng, weights, s_buyers, n),
                   config.quantity_max)
        if len(benign_pos):
            sell_counts = rng.poisson(rates[shill_pos] * mult)
            s_sellers = np.repeat(shill_pos, sell_counts)
            s_buyers2 = benign_pos[rng.integers(0, len(benign_pos), len(s_sellers))]
            add_trades(s_buyers2, s_sellers, config.quantity_max)

    # --- intra-ring cheap sales --------------------------------------------
    ring_pairs_u, ring_pairs_v = [], []
    for ring in rings:
        for u in ring:
            for v in ring:
                if u != v:
                    ring_pairs_u.append(u)
                    ring_pairs_v.append(v)
    ring_pairs_u = np.array(ring_pairs_u, np.int64)
    ring_pairs_v = np.array(ring_pairs_v, np.int64)
    if len(ring_pairs_u):
        keep = rng.random(len(ring_pairs_u)) < config.intra_ring_trade_probability
        # buyer u <- seller v: the ring member sells cheap to a ring mate
        add_trades(ring_pairs_u[keep], ring_pairs_v[keep], 1, cheap=True)

    # Each parts list is emptied once it is one array, and each unsorted
    # column dropped once its table holds the sorted copy, so that the
    # generator holds about one copy of each corpus at a time.
    buyer, seller, prod, qty, price, ts = map(np.concatenate, (
        tx_buyer, tx_seller, tx_prod, tx_qty, tx_price, tx_ts))
    del tx_buyer[:], tx_seller[:], tx_prod[:], tx_qty[:], tx_price[:], tx_ts[:]

    # --- feedback following transactions ------------------------------------
    fb_giver, fb_recv, fb_rating, fb_ts = [], [], [], []

    def follow_feedback(giver, receiver, base_ts, probability):
        mask = rng.random(len(giver)) < probability
        g, r, t = giver[mask], receiver[mask], base_ts[mask]
        u = rng.random(len(g))
        rating = np.ones(len(g), np.int64)
        rating[u < config.neutral_feedback_rate + config.negative_feedback_rate] = 0
        rating[u < config.negative_feedback_rate] = -1
        fb_giver.append(g)
        fb_recv.append(r)
        fb_rating.append(rating)
        fb_ts.append(t + rng.integers(3600, 72 * 3600, len(g)))

    follow_feedback(buyer, seller, ts, config.feedback_probability)
    follow_feedback(seller, buyer, ts, config.seller_feedback_probability)
    t_order = _time_order(ts, buyer, seller, n)
    transactions = TransactionTable(ids, buyer[t_order], seller[t_order],
                                    encode_ids([f"p{i:06d}" for i in range(n_products)]),
                                    prod[t_order], qty[t_order], price[t_order], ts[t_order])
    del t_order, buyer, seller, prod, qty, price, ts

    # --- ring reciprocal positive feedback ----------------------------------
    if len(ring_pairs_u):
        keep = rng.random(len(ring_pairs_u)) < config.reciprocal_feedback_probability
        g, r = ring_pairs_u[keep], ring_pairs_v[keep]
        fb_giver.append(g)
        fb_recv.append(r)
        fb_rating.append(np.ones(len(g), np.int64))
        fb_ts.append(rng.integers(_ACT_START, _ACT_END + 1, len(g)))

    # --- inter-ring shill feedback (welds rings into one component) ---------
    if n_shills > 1:
        counts = rng.poisson(config.inter_ring_feedback_per_shill, n_shills)
        g = np.repeat(shill_pos, counts)
        offsets = rng.integers(1, n_shills, len(g))
        giver_idx = np.repeat(np.arange(n_shills), counts)
        r = shill_pos[(giver_idx + offsets) % n_shills]
        fb_giver.append(g)
        fb_recv.append(r)
        fb_rating.append(np.ones(len(g), np.int64))
        fb_ts.append(rng.integers(_ACT_START, _ACT_END + 1, len(g)))

    giver, recv, rating, fts = map(np.concatenate, (fb_giver, fb_recv, fb_rating, fb_ts))
    del fb_giver[:], fb_recv[:], fb_rating[:], fb_ts[:]

    # --- assemble, sorted by time for realistic logs -------------------------
    f_order = _time_order(fts, giver, recv, n)
    feedback = FeedbackTable(ids, giver[f_order], recv[f_order], rating[f_order], fts[f_order])
    labels = LabelSet(frozenset(decode_ids(ids[shill_pos])))
    ring_ids = [decode_ids(ids[ring]) for ring in rings]
    manifest = {
        "generator_version": GENERATOR_VERSION,
        "seed": int(seed),
        "config": _config_dict(config),
        "rings": ring_ids,
        "counts": {
            "users": n, "shills": int(n_shills),
            "transactions": len(transactions), "feedback": len(feedback),
        },
    }
    return SynthCorpus(transactions, feedback, profiles, labels, ring_ids, manifest)


def _config_dict(config: MarketConfig) -> dict:
    d = asdict(config)
    d["price_range"] = list(config.price_range)
    d["cheap_price_range"] = list(config.cheap_price_range)
    return d
