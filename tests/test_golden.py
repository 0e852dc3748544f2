"""Golden digests of every CLI artifact, pinned across refactors.

The whole CLI pipeline runs on two small seeded markets: criterion 9's
150-user corpus and a 2,000-user one whose trees have depth and whose
shill rings form cliques. Each artifact's SHA-256 must equal the digest
checked in under ``tests/golden/digests.json``, so a change that alters
an output fails here even when it alters every rerun the same way.

Runs use relative ``--data``/``--out``/``--config`` arguments from a
scratch directory, because manifests record those arguments verbatim.
Floating-point results can move between numpy releases, so the digests
carry the numpy version they were made with; on another version the test
fails and names both. To remake the digests after an intended output
change, run ``PYTHONPATH=src python tests/test_golden.py`` and say in
CHANGES.md which artifacts changed and why.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from shilldetect.classifiers import ALGORITHMS
from shilldetect.cli import main

DIGESTS = Path(__file__).with_name("golden") / "digests.json"

MARKETS = {
    "market150": {"n_users": 150, "shill_fraction": 0.05},
    "market2k": {"n_users": 2000, "shill_fraction": 0.05},
}


def _cli(*argv: str) -> None:
    if main(list(argv)) != 0:
        raise RuntimeError(f"shilldetect {' '.join(argv)} failed")


def run_market(config: dict) -> dict[str, str]:
    """Run the pipeline in the current directory; {artifact path: sha256}."""
    Path("market.json").write_text(json.dumps(config))
    _cli("synth", "--config", "market.json", "--seed", "5", "--out", "corpus")
    _cli("synth", "--config", "market.json", "--seed", "5", "--format", "jsonl",
         "--out", "corpus_jsonl")
    _cli("features", "--data", "corpus", "--out", "features")
    _cli("features", "--data", "corpus_jsonl", "--out", "features_jsonl")
    feats = "features/features.csv"
    for algorithm in ALGORITHMS:
        _cli("train", "--features", feats, "--algorithm", algorithm,
             "--out", f"model_{algorithm}")
    _cli("evaluate", "--features", feats, "--algorithm", "RotationForest",
         "--folds", "4", "--out", "evaluate")
    _cli("precision-at-k", "--features", feats, "--algorithm", "RotationForest",
         "--repetitions", "2", "--emit", "json,csv,svg", "--out", "precision")
    _cli("ecosystem", "--data", "corpus", "--out", "ecosystem")
    _cli("report", "--run", "precision/report.json", "--emit", "json,csv,svg",
         "--out", "report")
    return {p.relative_to(".").as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(".").rglob("*")) if p.is_file()}


def _golden() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("market", sorted(MARKETS))
def test_golden_artifacts(market, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = run_market(MARKETS[market])
    golden = _golden()
    assert np.__version__ == golden["numpy"], (
        f"golden digests were made with numpy {golden['numpy']}, this is "
        f"numpy {np.__version__}; rerun this file as a script to remake them "
        "and check what changed")
    want = golden["markets"][market]
    changed = sorted(name for name in want.keys() & got.keys() if want[name] != got[name])
    assert changed == [], f"artifacts differ from the golden digests: {changed}"
    assert sorted(got) == sorted(want)


if __name__ == "__main__":
    markets = {}
    for name, config in MARKETS.items():
        with tempfile.TemporaryDirectory() as tmp:
            cwd = os.getcwd()
            os.chdir(tmp)
            try:
                markets[name] = run_market(config)
            finally:
                os.chdir(cwd)
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps({"numpy": np.__version__, "markets": markets},
                                  indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, markets.values()))} digests -> {DIGESTS}", file=sys.stderr)
