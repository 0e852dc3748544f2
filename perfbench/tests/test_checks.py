"""Each benchmark check passes on the program's output and fails on a corruption.

    python3 -m pytest perfbench/tests -q

The artifacts come from ``shilldetect.cli.main`` on small inputs. A
corruption rewrites the artifact's digest in its manifest, as a program
that computed the wrong value would, so each test reaches the check it is
about rather than stopping at the digest check.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import zlib
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import checks  # noqa: E402
from shilldetect import cli  # noqa: E402

SEED = 3


def _main(argv):
    assert cli.main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def market(tmp_path_factory):
    root = tmp_path_factory.mktemp("market")
    (root / "market.json").write_text(json.dumps({"n_users": 4000, "seed": SEED}))
    _main(["synth", "--config", root / "market.json", "--out", root / "corpus"])
    _main(["features", "--data", root / "corpus", "--out", root / "features"])
    _main(["ecosystem", "--data", root / "corpus", "--seed", SEED,
           "--out", root / "ecosystem"])
    return root


@pytest.fixture(scope="module")
def features_csv(market):
    return market / "features" / "features.csv"


@pytest.fixture(scope="module")
def cv_dir(tmp_path_factory, features_csv):
    out = tmp_path_factory.mktemp("cv") / "cv"
    _main(["evaluate", "--features", features_csv, "--algorithm", "RotationForest",
           "--seed", SEED, "--out", out])
    return out


@pytest.fixture(scope="module")
def protocol_dir(tmp_path_factory, features_csv):
    out = tmp_path_factory.mktemp("protocol") / "protocol"
    _main(["precision-at-k", "--features", features_csv, "--algorithm", "KNN3",
           "--repetitions", "2", "--k-grid", "1:300", "--seed", SEED, "--out", out])
    return out


def _copy(src: Path, dst: Path) -> Path:
    dst.mkdir(parents=True)
    for p in src.iterdir():
        (dst / p.name).write_bytes(p.read_bytes())
    return dst


def _rewrite(path: Path, edit) -> None:
    """Apply `edit` to the file's text and record the new digest in its manifest."""
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    manifest_path = path.parent / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["artifacts"][path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")


def _edit_csv_cell(text: str, row_of, column: str, new_value) -> str:
    lines = text.splitlines()
    header = lines[0].split(",")
    j = header.index(column)
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if row_of(cells):
            cells[j] = new_value(cells[j])
            lines[i] = ",".join(cells)
            break
    else:
        raise AssertionError("no row to corrupt")
    return "\n".join(lines) + "\n"


def test_crc32_bitwise_matches_the_standard_check_value():
    assert checks.crc32_bitwise(b"123456789") == 0xCBF43926
    for text in ("", "default", "New Hampshire"):
        assert checks.crc32_bitwise(text.encode()) == zlib.crc32(text.encode())


def test_market_output_passes(market):
    assert checks.check_market(market, SEED) == {"synth": [], "features": [],
                                                 "ecosystem": []}


def test_changed_byte_fails_the_digest_check(market, tmp_path):
    eco = _copy(market / "ecosystem", tmp_path / "ecosystem")
    (eco / "comparison.csv").write_text("field,shill,benign\n")
    assert any("sha256" in p for p in checks.digest_problems(eco))


def test_synth_row_count_must_match_the_manifest(market, tmp_path):
    corpus = _copy(market / "corpus", tmp_path / "corpus")
    _rewrite(corpus / "feedback.csv", lambda t: "".join(t.splitlines(True)[:-1]))
    problems = checks.check_synth(corpus, checks.Corpus(corpus))
    assert any("feedback rows" in p for p in problems)


def test_changed_summed_feature_fails_the_column_sum(market, tmp_path):
    feats = _copy(market / "features", tmp_path / "features")
    _rewrite(feats / "features.csv", lambda t: _edit_csv_cell(
        t, lambda c: c[1] != "0", "Buy-Trans-Num", lambda v: str(int(v) + 1)))
    problems = checks.check_features(feats, checks.Corpus(market / "corpus"), SEED)
    assert any("column sum Buy-Trans-Num" in p for p in problems)


def test_changed_feature_of_a_sampled_user_fails_the_recount(market, tmp_path):
    feats = _copy(market / "features", tmp_path / "features")
    ids = sorted(line.split(",", 1)[0] for line in
                 (feats / "features.csv").read_text().splitlines()[1:])
    victim = random.Random(SEED).sample(ids, min(checks.SAMPLE_USERS, len(ids)))[0]
    _rewrite(feats / "features.csv", lambda t: _edit_csv_cell(
        t, lambda c: c[0] == victim, "State-Hash", lambda v: str(int(v) ^ 1)))
    problems = checks.check_features(feats, checks.Corpus(market / "corpus"), SEED)
    assert problems == [f"features: 1 sampled values differ from the recount, "
                        f"first {victim} State-Hash"]


def test_flipped_label_fails(market, tmp_path):
    feats = _copy(market / "features", tmp_path / "features")
    _rewrite(feats / "features.csv", lambda t: t.replace(",shill\n", ",benign\n", 1))
    problems = checks.check_features(feats, checks.Corpus(market / "corpus"), SEED)
    assert any("labels disagree" in p for p in problems)


def test_dropped_clique_member_fails_maximality(market, tmp_path):
    eco = _copy(market / "ecosystem", tmp_path / "ecosystem")
    _rewrite(eco / "cliques_shill.txt",
             lambda t: t.replace(t.split("\n", 1)[0],
                                 " ".join(t.split("\n", 1)[0].split()[1:]), 1))
    problems = checks.check_ecosystem(eco)
    assert any("line 1 is not maximal" in p for p in problems)


def test_wrong_component_size_fails_the_bfs(market, tmp_path):
    eco = _copy(market / "ecosystem", tmp_path / "ecosystem")

    def bump(text):
        report = json.loads(text)
        report["largest_component_size"] += 1
        return json.dumps(report)

    _rewrite(eco / "ecosystem_shill.json", bump)
    assert any("BFS" in p for p in checks.check_ecosystem(eco))


def test_cv_output_passes(cv_dir, features_csv):
    assert checks.check_cv(cv_dir, checks.shill_rows(features_csv)) == []


def test_changed_count_in_metrics_fails(cv_dir, features_csv, tmp_path):
    out = _copy(cv_dir, tmp_path / "cv")

    def bump(text):
        metrics = json.loads(text)
        metrics["tp"] += 1
        return json.dumps(metrics)

    _rewrite(out / "metrics.json", bump)
    problems = checks.check_cv(out, checks.shill_rows(features_csv))
    assert any("tp+fn" in p for p in problems)
    assert any("tp_rate" in p for p in problems)


def test_protocol_output_passes(protocol_dir, features_csv):
    assert checks.check_protocol(protocol_dir, checks.shill_rows(features_csv)) == []


def test_nudged_precision_fails(protocol_dir, features_csv, tmp_path):
    out = _copy(protocol_dir, tmp_path / "protocol")

    def nudge(text):
        report = json.loads(text)
        report["per_repetition"]["1:10"][1][40] += 1e-3
        return json.dumps(report)

    _rewrite(out / "report.json", nudge)
    problems = checks.check_protocol(out, checks.shill_rows(features_csv))
    assert any("1:10 rep 1: k=41" in p and "whole count" in p for p in problems)
    assert any("not the mean" in p for p in problems)
    assert any("precision.csv disagrees" in p for p in problems)


def test_nudged_precision_csv_fails(protocol_dir, features_csv, tmp_path):
    out = _copy(protocol_dir, tmp_path / "protocol")
    _rewrite(out / "precision.csv", lambda t: _edit_csv_cell(
        t, lambda c: c[0] == "1:5" and c[1] == "7", "rep0",
        lambda v: f"{float(v) + 1e-6:.6f}"))
    problems = checks.check_protocol(out, checks.shill_rows(features_csv))
    assert problems == ["protocol: precision.csv disagrees with report.json on 1 rows"]


def test_broken_svg_fails(protocol_dir, features_csv, tmp_path):
    out = _copy(protocol_dir, tmp_path / "protocol")
    _rewrite(out / "precision.svg", lambda t: t.replace("</svg>", ""))
    problems = checks.check_protocol(out, checks.shill_rows(features_csv))
    assert any("not XML" in p for p in problems)
