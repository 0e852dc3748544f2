import json
from datetime import date, datetime, timezone

import pytest

from shilldetect.records import (
    parse_feedback,
    load_label_list,
    parse_profiles,
    parse_transactions,
)
from shilldetect.synth import MarketConfig, generate

from oracles import rows


# ---------------------------------------------------------------------------
# configuration


@pytest.mark.parametrize("kwargs,fragment", [
    ({"n_users": 0}, "n_users"),
    ({"shill_fraction": 1.5}, "shill_fraction"),
    ({"feedback_probability": -0.1}, "feedback_probability"),
    ({"neutral_feedback_rate": 0.7, "negative_feedback_rate": 0.5}, "exceed"),
    ({"ring_size_min": 1}, "ring_size_min"),
    ({"ring_size_min": 6, "ring_size_max": 4}, "ring_size_min"),
    ({"transactions_per_user": -1.0}, "transactions_per_user"),
    ({"activity_sigma": -0.5}, "activity_sigma"),
    ({"price_median": 0.0}, "price_median"),
    ({"price_range": (0.0, 10.0)}, "price ranges"),
    ({"cheap_price_range": (5.0, 1.0)}, "price ranges"),
    ({"quantity_max": 0}, "quantity_max"),
    ({"n_users": 100, "shill_fraction": 0.02}, "ring"),
])
def test_config_validation(kwargs, fragment):
    with pytest.raises(ValueError, match=fragment):
        MarketConfig(**kwargs).validate()


def test_from_dict_coerces_ranges():
    cfg = MarketConfig.from_dict({"n_users": 50, "shill_fraction": 0.0,
                                  "price_range": [1.0, 5.0]})
    assert cfg.price_range == (1.0, 5.0)
    assert cfg.n_users == 50


def test_manifest_config_round_trips(small_corpus):
    cfg = MarketConfig.from_dict(small_corpus.manifest["config"])
    assert cfg == MarketConfig(n_users=400, seed=7)


# ---------------------------------------------------------------------------
# corpus structure


def test_ring_partition(small_corpus):
    c = small_corpus
    cfg = MarketConfig.from_dict(c.manifest["config"])
    seen = set()
    for ring in c.rings:
        assert cfg.ring_size_min <= len(ring) <= cfg.ring_size_max
        assert not (set(ring) & seen)          # rings are disjoint
        seen |= set(ring)
    assert seen == set(c.labels.shill_ids)     # rings cover every shill
    assert c.manifest["rings"] == c.rings


def test_manifest_counts(small_corpus):
    c = small_corpus
    counts = c.manifest["counts"]
    assert counts["users"] == len(c.profiles) == 400
    assert counts["shills"] == len(c.labels) == 20
    assert counts["transactions"] == len(c.transactions)
    assert counts["feedback"] == len(c.feedback)


def test_time_windows(small_corpus):
    c = small_corpus
    act_start = datetime(2011, 1, 1, tzinfo=timezone.utc)
    act_end = datetime(2012, 12, 31, tzinfo=timezone.utc)
    for p in rows(c.profiles):
        assert date(2010, 1, 1) <= p.registration_date <= date(2010, 12, 31)
    for t in rows(c.transactions):
        assert act_start <= t.timestamp <= act_end
    for f in rows(c.feedback):
        assert act_start <= f.timestamp         # follow-ups may spill past window
        assert f.timestamp.year <= 2013


def test_records_batch_sorted(small_corpus):
    c = small_corpus
    tx_ts = [t.timestamp for t in rows(c.transactions)]
    fb_ts = [f.timestamp for f in rows(c.feedback)]
    assert tx_ts == sorted(tx_ts)
    assert fb_ts == sorted(fb_ts)


def test_no_self_trades_or_self_feedback(small_corpus):
    c = small_corpus
    assert all(t.buyer_id != t.seller_id for t in rows(c.transactions))
    assert all(f.giver_id != f.receiver_id for f in rows(c.feedback))


def test_value_bounds(small_corpus):
    c = small_corpus
    cfg = MarketConfig.from_dict(c.manifest["config"])
    for t in rows(c.transactions):
        assert 1 <= t.quantity <= cfg.quantity_max
        assert t.unit_price_cents >= 1


def test_rings_trade_cheap_internally(small_corpus):
    c = small_corpus
    cheap_hi = round(2.50 * 100)
    for ring in c.rings:
        members = set(ring)
        internal = [t for t in rows(c.transactions)
                    if t.buyer_id in members and t.seller_id in members]
        cheap = [t for t in internal
                 if t.quantity == 1 and t.unit_price_cents <= cheap_hi]
        assert cheap, f"ring {ring} has no cheap internal sale"


def test_rings_exchange_mutual_positive_feedback(small_corpus):
    c = small_corpus
    for ring in c.rings:
        members = set(ring)
        pos_pairs = {(f.giver_id, f.receiver_id) for f in rows(c.feedback)
                     if f.giver_id in members and f.receiver_id in members
                     and f.rating > 0}
        mutual = [(a, b) for a, b in pos_pairs if (b, a) in pos_pairs]
        assert mutual, f"ring {ring} has no reciprocal positive feedback"


def test_benign_only_market():
    c = generate(MarketConfig(n_users=60, shill_fraction=0.0, seed=3))
    assert len(c.labels) == 0
    assert c.rings == []
    assert len(c.transactions) > 0


# ---------------------------------------------------------------------------
# determinism


def test_same_seed_same_corpus():
    cfg = MarketConfig(n_users=150, shill_fraction=0.04)
    a = generate(cfg, seed=11)
    b = generate(cfg, seed=11)
    assert rows(a.transactions) == rows(b.transactions)
    assert rows(a.feedback) == rows(b.feedback)
    assert rows(a.profiles) == rows(b.profiles)
    assert a.labels == b.labels
    assert a.manifest == b.manifest


def test_different_seed_differs():
    cfg = MarketConfig(n_users=150, shill_fraction=0.04)
    a = generate(cfg, seed=11)
    b = generate(cfg, seed=12)
    assert rows(a.transactions) != rows(b.transactions)


def test_seed_argument_overrides_config():
    cfg = MarketConfig(n_users=60, shill_fraction=0.0, seed=1)
    c = generate(cfg, seed=9)
    assert c.manifest["seed"] == 9
    assert rows(c.transactions) == rows(generate(MarketConfig(n_users=60, shill_fraction=0.0,
                                                              seed=9)).transactions)


def test_write_round_trip(tmp_path):
    cfg = MarketConfig(n_users=120, shill_fraction=0.05, seed=2)
    c = generate(cfg)
    c.write(tmp_path / "csv", "csv")
    c.write(tmp_path / "jsonl", "jsonl")

    for sub, ext in (("csv", "csv"), ("jsonl", "jsonl")):
        base = tmp_path / sub
        with open(base / f"transactions.{ext}") as fh:
            tx = parse_transactions(fh, ext)
        with open(base / f"feedback.{ext}") as fh:
            fb = parse_feedback(fh, ext)
        with open(base / f"profiles.{ext}") as fh:
            prof = parse_profiles(fh, ext)
        with open(base / "labels.txt") as fh:
            labels = load_label_list(fh)
        assert rows(tx.records) == rows(c.transactions)
        assert rows(fb.records) == rows(c.feedback)
        assert rows(prof.records) == rows(c.profiles)
        assert labels.shill_ids == c.labels.shill_ids
        manifest = json.loads((base / "manifest.json").read_text())
        assert manifest == c.manifest


def test_write_byte_identical_across_runs(tmp_path):
    cfg = MarketConfig(n_users=120, shill_fraction=0.05, seed=2)
    generate(cfg).write(tmp_path / "a")
    generate(cfg).write(tmp_path / "b")
    for name in ("transactions.csv", "feedback.csv", "profiles.csv",
                 "labels.txt", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes(), name
