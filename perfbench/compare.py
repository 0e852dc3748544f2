"""Compare the benchmark results of two commits.

    python3 perfbench/compare.py BASE.json CHANGE.json

Both files are written by ``series.py``. For each workload and metric the
table gives each side's median and quartiles, the share of seed-matched
pairs the change won (ties count for neither side), and the ratio of the
medians with its base. "Better" is the direction BENCHMARK.json gives.
"""

from __future__ import annotations

import argparse
import json
import sys

from series import load_spec, quartiles


def _by_key(results: dict) -> dict[tuple[str, str], dict[int, float]]:
    out: dict[tuple[str, str], dict[int, float]] = {}
    for run in results["runs"]:
        for name, metric in run["result"]["metrics"].items():
            out.setdefault((run["workload"], name), {})[run["seed"]] = metric["value"]
    return out


def compare(base: dict, change: dict, spec: dict) -> list[str]:
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    units = {name: run["result"]["metrics"][name]["unit"]
             for run in base["runs"] for name in run["result"]["metrics"]}
    a, b = _by_key(base), _by_key(change)
    lines = [f"{'workload':9s} {'metric':34s} {'base median [q1, q3]':>35s} "
             f"{'change median [q1, q3]':>35s} {'won':>7s}  ratio"]
    for key in sorted(set(a) & set(b)):
        workload, name = key
        seeds = sorted(set(a[key]) & set(b[key]))
        lower = meta.get(name, {}).get("better", "lower") == "lower"
        wins = sum(1 for s in seeds
                   if (b[key][s] < a[key][s] if lower else b[key][s] > a[key][s]))
        qa, qb = quartiles(list(a[key].values())), quartiles(list(b[key].values()))
        ratio = f"{qb[1] / qa[1]:.3f} x {qa[1]:.4g} {units[name]}" if qa[1] else "n/a"
        lines.append(
            f"{workload:9s} {name:34s} "
            f"{qa[1]:12.4g} [{qa[0]:9.4g}, {qa[2]:9.4g}] "
            f"{qb[1]:12.4g} [{qb[0]:9.4g}, {qb[2]:9.4g}] "
            f"{wins:3d}/{len(seeds):<3d}  {ratio}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(args.base, encoding="utf-8") as fh:
        base = json.load(fh)
    with open(args.change, encoding="utf-8") as fh:
        change = json.load(fh)
    print("\n".join(compare(base, change, load_spec())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
