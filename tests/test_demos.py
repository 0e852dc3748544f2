"""Each demo runs to completion on a small market.

The demos use the package's public API (corpus tables, graph building,
ecosystem reports), so an API change that breaks one fails here. Each
runs in its own interpreter with `--users 600`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import shilldetect

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    src = str(Path(shilldetect.__file__).resolve().parent.parent)
    rest = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + rest if rest else "")}
    proc = subprocess.run([sys.executable, str(demo), "--users", "600"], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
