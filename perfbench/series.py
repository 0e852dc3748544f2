"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/series.py --workloads market,cv,protocol --seeds 1-10 \
        --out results.json [--trace 0]

To measure two commits in alternation, give ``--root`` and ``--out`` once
per checkout, in the same order; each seed then runs on every checkout,
and the order of the checkouts flips from one seed to the next:

    python3 perfbench/series.py --workloads cv --seeds 1-10 \
        --root ../parent --out parent.json --root . --out change.json

Every checkout is measured by this file's copy of the benchmark, run with
the checkout as working directory, so both sides share the benchmark code.
Results are best written under ``.perfbench/``, which git ignores.
For each workload and metric the
summary gives the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread (q3 - q1) / median next to the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",") if s]


def load_spec() -> dict:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def one_run(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=1000)
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed} in {root}: exit {proc.returncode}")
    # Pass on what the run says about its own outputs and work counts.
    for line in proc.stderr.splitlines():
        if line.startswith("perfbench:"):
            print(f"{workload} seed {seed}: {line}", file=sys.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"workload": workload, "seed": seed, "trace": trace,
            "elapsed_s": elapsed, "result": result}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summary(runs: list[dict], spec: dict) -> list[str]:
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    lines = []
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        shares = {(r["result"]["failed"], r["result"]["attempted"]) for r in mine}
        lines.append(f"{workload}: {len(mine)} runs, failed/attempted {sorted(shares)}, "
                     f"correct {all(r['result']['correct'] for r in mine)}, "
                     f"run time median {statistics.median(r['elapsed_s'] for r in mine):.1f} s")
        for name in mine[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in mine]
            unit = mine[0]["result"]["metrics"][name]["unit"]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            verdict = ("" if bound is None else
                       f"  bound {bound:.2f}  {'ok' if spread < bound / 3 else 'WIDE'}")
            lines.append(f"  {name:34s} median {med:12.4f} {unit:6s} "
                         f"q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:7.4f}{verdict}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="market,cv,protocol")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", action="append", type=Path)
    parser.add_argument("--out", action="append", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = load_spec()
    roots = args.root or [Path.cwd()]
    if len(roots) != len(args.out):
        parser.error("give one --out per --root")
    seconds = spec["run_seconds"]
    runs: dict[Path, list[dict]] = {root: [] for root in roots}
    for i, seed in enumerate(parse_seeds(args.seeds)):
        for workload in args.workloads.split(","):
            for root in (roots if i % 2 == 0 else roots[::-1]):
                run = one_run(root, workload, seed, seconds, args.trace)
                runs[root].append(run)
                print(f"{root} {workload} seed {seed}: {run['elapsed_s']:.1f} s "
                      f"{json.dumps(run['result']['metrics'])}", file=sys.stderr)
    for root, out in zip(roots, args.out):
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"root": str(root), "seconds": seconds, "runs": runs[root]},
                      fh, indent=1)
        print(f"== {root} -> {out}")
        print("\n".join(summary(runs[root], spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
