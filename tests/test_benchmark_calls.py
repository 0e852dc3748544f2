"""Smoke test of the benchmark's calls into the program.

`perfbench/worker.py` drives shilldetect as the benchmark does. With
`--trace` its tracer first looks up every function it wraps, so renaming
any of them (`tg.users.ids`, `extract_all`, `KNN3.scores`,
`precision_at_k`, `ecosystem_report`, ...) or changing what a count hook
reads of a result fails here. For each workload, one traced set-up and
one traced round run in fresh interpreters, and the benchmark's own
`checks.check_round` then checks the round's outputs. On `cv` the fork
pool's children inherit the wrappers, so the tracer's walk of every
trained tree (`tree.root`, `.is_leaf`, `.left`, `.right`) runs there.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SEED = 1
OPS = {"protocol": ["precision-at-k"], "market": ["synth", "features", "ecosystem"],
       "cv": ["evaluate"]}


def _worker(mode: str, workload: str, out: Path, *extra: str) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(PERFBENCH / "worker.py"), mode, "--root", str(ROOT),
            "--workload", workload, "--seed", str(SEED), "--dir", str(out), "--trace", *extra]
    return subprocess.run(argv, capture_output=True, text=True, timeout=300)


def _checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", OPS)
def test_workload_runs_traced(tmp_path, workload):
    inputs, out = tmp_path / "setup", tmp_path / "run"
    setup = _worker("setup", workload, inputs)
    assert setup.returncode == 0, setup.stderr
    run = _worker("run", workload, out, "--inputs", str(inputs), "--rounds", "1")
    assert run.returncode == 0, run.stderr
    rounds = json.loads((out / "result.json").read_text(encoding="utf-8"))["rounds"]
    ops = OPS[workload]
    assert [(r["ops"], r["codes"]) for r in rounds] == [(ops, [0] * len(ops))]
    found = _checks().check_round(workload, Path(rounds[0]["dir"]), SEED,
                                  inputs / "features.csv")
    assert found == {op: [] for op in ops}
