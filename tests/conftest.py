from __future__ import annotations

from datetime import date, datetime, timezone

import pytest

from shilldetect.features import extract_all
from shilldetect.graphs import build_graphs
from shilldetect.records import LabelSet
from shilldetect.synth import MarketConfig, generate

from oracles import (
    Feedback,
    Profile,
    Transaction,
    feedback_table,
    profile_table,
    transaction_table,
)


def pytest_configure(config):
    config.acceptance_lines = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    setattr(item, "rep_" + outcome.get_result().when, outcome.get_result())


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


def _ts(s: str) -> datetime:
    return datetime.fromisoformat(s.replace("Z", "+00:00")).astimezone(timezone.utc)


@pytest.fixture(scope="session")
def tiny_corpus():
    """Five users, five trades (one a self-trade), five feedbacks.

    Small enough that every feature value can be checked by hand; `eve`
    has a profile but no activity, `dave` trades only with himself.
    """
    transactions = transaction_table([
        Transaction("alice", "bob", "pear", 2, 150, _ts("2011-03-01T10:00:00Z")),
        Transaction("bob", "alice", "plum", 1, 500, _ts("2011-03-02T10:00:00Z")),
        Transaction("carol", "bob", "pear", 3, 100, _ts("2011-04-01T00:00:00Z")),
        Transaction("alice", "carol", "fig", 1, 99, _ts("2011-05-05T05:05:00Z")),
        Transaction("dave", "dave", "self", 1, 1000, _ts("2011-06-01T00:00:00Z")),
    ])
    feedback = feedback_table([
        Feedback("alice", "bob", 1, _ts("2011-03-01T20:00:00Z")),
        Feedback("bob", "alice", 1, _ts("2011-03-02T20:00:00Z")),
        Feedback("carol", "bob", -1, _ts("2011-04-02T00:00:00Z")),
        Feedback("alice", "carol", 0, _ts("2011-05-06T00:00:00Z")),
        Feedback("bob", "alice", 1, _ts("2011-07-01T00:00:00Z")),
    ])
    profiles = profile_table([
        Profile("alice", 1985, "California", date(2010, 6, 15)),
        Profile("bob", 0, "default", date(2010, 1, 1)),
        Profile("carol", 1990, "Texas", date(2010, 12, 31)),
        Profile("dave", 1970, "Ohio", date(2010, 7, 4)),
        Profile("eve", 2000, "Maine", date(2010, 3, 3)),
    ])
    labels = LabelSet(frozenset({"bob", "carol"}))
    return transactions, feedback, profiles, labels


@pytest.fixture(scope="session")
def tiny_graphs(tiny_corpus):
    transactions, feedback, profiles, _ = tiny_corpus
    return build_graphs(transactions, feedback, profiles)


@pytest.fixture(scope="session")
def small_corpus():
    return generate(MarketConfig(n_users=400), seed=7)


@pytest.fixture(scope="session")
def small_matrix(small_corpus):
    c = small_corpus
    tg, fg = build_graphs(c.transactions, c.feedback, c.profiles)
    return extract_all(tg.users.ids, tg, fg, c.profiles, c.labels)


@pytest.fixture(scope="session")
def big_corpus():
    """The 20k-user market every heavy test shares (defaults, seed 42)."""
    return generate(MarketConfig(n_users=20_000, shill_fraction=0.05), seed=42)


@pytest.fixture(scope="session")
def big_graphs(big_corpus):
    c = big_corpus
    return build_graphs(c.transactions, c.feedback, c.profiles)


@pytest.fixture(scope="session")
def big_matrix(big_corpus, big_graphs):
    tg, fg = big_graphs
    return extract_all(tg.users.ids, tg, fg, big_corpus.profiles, big_corpus.labels)
