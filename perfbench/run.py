"""Benchmark entry point: one run of one workload, result as a JSON line.

    python3 perfbench/run.py --workload {market,cv,protocol} --seed N
                             --seconds S --trace {0,1}

Run it from the root of a checkout. Every step runs in a fresh interpreter
(``perfbench/worker.py``), so set-up memory never sets the workload's peak:

* set-up, three times, each timed from before process start until its
  inputs are ready (interpreter start, ``import shilldetect.cli``, and for
  ``cv`` and ``protocol`` the standard corpus and its feature CSV);
* the workload, rounds of ``shilldetect.cli.main`` calls in one process,
  repeated until ``--seconds`` have passed (at least one round).

Every round's outputs are then checked by ``checks.py``. With ``--trace 0``
the last line reports the end-to-end metrics (medians over rounds and
set-ups); with ``--trace 1`` it reports the per-layer metrics of one traced
set-up and a traced repeat of the untraced rounds, and the spans and counts
go to ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from checks import check_round  # noqa: E402
from tracer import rss_growth, self_times  # noqa: E402

WORKLOADS = ("market", "cv", "protocol")
SETUP_REPEATS = 3
STEP_TIMEOUT_S = 170
WORKER = Path(__file__).resolve().parent / "worker.py"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_s": "s", "cli.self_s": "s", "synth.generate_s": "s",
    "records.write_s": "s", "records.parse_s": "s", "records.parse_rows_per_s": "rows/s",
    "graphs.build_s": "s", "graphs.project_s": "s", "graphs.components_s": "s",
    "features.extract_s": "s", "features.write_csv_s": "s", "features.read_csv_s": "s",
    "ecosystem.cliques_s": "s", "ecosystem.report_s": "s", "ecosystem.export_s": "s",
    "classifiers.train_s": "s", "classifiers.train_rss_growth_mb": "MB",
    "classifiers.score_s": "s", "classifiers.score_rss_growth_mb": "MB",
    "evaluation.sample_s": "s", "evaluation.cv_self_s": "s",
    "evaluation.protocol_self_s": "s", "evaluation.report_write_s": "s",
    "evaluation.precision_at_k_calls": "count",
    "process.cpu_s": "s", "process.trace_overhead_s": "s",
}


def _worker(mode: str, root: Path, args, out: Path, *extra: str) -> tuple[dict, float]:
    """Run one worker process; returns its result and its start instant."""
    argv = [sys.executable, str(WORKER), mode, "--root", str(root),
            "--workload", args.workload, "--seed", str(args.seed), "--dir", str(out),
            *extra]
    started = time.monotonic()
    # The program's own messages go to stderr; stdout ends with our result.
    subprocess.run(argv, stdout=sys.stderr, check=True, timeout=STEP_TIMEOUT_S)
    with open(out / "result.json", encoding="utf-8") as fh:
        return json.load(fh), started


def _setup(root: Path, args, out: Path, trace: bool) -> tuple[dict, float]:
    result, started = _worker("setup", root, args, out, *(["--trace"] if trace else []))
    return result, result["ready"] - started


class Tally:
    """Operations attempted and failed, and why each failure happened."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.crashes: list[str] = []     # nonzero exit codes
        self.wrong: list[str] = []       # outputs that fail a check

    def check(self, args, worker: dict, inputs: Path) -> None:
        for rnd in worker["rounds"]:
            name = Path(rnd["dir"]).name
            found = check_round(args.workload, Path(rnd["dir"]), args.seed,
                                inputs / "features.csv")
            for op, code in zip(rnd["ops"], rnd["codes"]):
                self.attempted += 1
                if code != 0:
                    # Its artifacts are missing; checking them adds nothing.
                    self.failed += 1
                    self.crashes.append(f"{name} {op}: exit code {code}")
                elif found.get(op):
                    self.failed += 1
                    self.wrong += [f"{name} {op}: {p}" for p in found[op]]


def timed_run(root: Path, args, rundir: Path) -> dict:
    setups = []
    for i in range(SETUP_REPEATS):
        _, seconds = _setup(root, args, rundir / f"setup{i}", trace=False)
        setups.append(seconds)
        if i:
            shutil.rmtree(rundir / f"setup{i}")
    inputs = rundir / "setup0"
    worker, _ = _worker("run", root, args, rundir / "work", "--inputs", str(inputs),
                        "--seconds", str(args.seconds))
    tally = Tally()
    tally.check(args, worker, inputs)
    values = {"wall_s": statistics.median(r["wall_s"] for r in worker["rounds"]),
              "setup_s": statistics.median(setups),
              "peak_rss_mb": worker["peak_rss_mb"]}
    return _result(tally, values, END_TO_END)


def traced_run(root: Path, args, rundir: Path) -> dict:
    setup, _ = _setup(root, args, rundir / "setup", trace=True)
    inputs = rundir / "setup"
    plain, _ = _worker("run", root, args, rundir / "plain", "--inputs", str(inputs),
                       "--seconds", str(args.seconds))
    n = len(plain["rounds"])
    traced, _ = _worker("run", root, args, rundir / "traced", "--inputs", str(inputs),
                        "--rounds", str(n), "--trace")
    tally = Tally()
    tally.check(args, plain, inputs)
    tally.check(args, traced, inputs)

    values = {name: 0.0 for name in PER_LAYER}
    values.update(self_times(setup["spans"]))
    for name, seconds in self_times(traced["spans"]).items():
        values[name] = values.get(name, 0.0) + seconds / n
    values.update(rss_growth(setup["spans"] + traced["spans"]))
    counts = traced["rounds"][0]["counts"]
    values["cli.import_s"] = statistics.median(
        (setup["import_s"], plain["import_s"], traced["import_s"]))
    values["records.parse_rows_per_s"] = (
        counts.get("records.rows_parsed", 0) / values["records.parse_s"]
        if values["records.parse_s"] else 0.0)
    values["evaluation.precision_at_k_calls"] = counts.get(
        "evaluation.precision_at_k_calls", 0)
    plain_wall = statistics.median(r["wall_s"] for r in plain["rounds"])
    values["process.cpu_s"] = statistics.median(r["cpu_s"] for r in plain["rounds"])
    values["process.trace_overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced["rounds"]) - plain_wall)

    work = {"setup": setup["counts"], "round": counts}
    if any(r["counts"] != counts for r in traced["rounds"]):
        print("perfbench: work counts differ between rounds of one run",
              file=sys.stderr)
    _write_trace(root, args, setup, traced, work, values)
    return _result(tally, values, PER_LAYER)


def _write_trace(root, args, setup, traced, work, values) -> None:
    """Spans and counts of this run; warns if counts differ from the last run."""
    traces = root / ".perfbench" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    path = traces / f"{args.workload}-seed{args.seed}.json"
    if path.is_file():
        with open(path, encoding="utf-8") as fh:
            previous = json.load(fh)["counts"]
        if previous != work:
            print(f"perfbench: work counts differ from the previous traced run "
                  f"of this seed ({path.name})", file=sys.stderr)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "counts": work,
                   "metrics": values, "setup_spans": setup["spans"],
                   "round_spans": traced["spans"]}, fh, indent=1)


def _result(tally: Tally, values: dict, units: dict) -> dict:
    for line in tally.crashes + tally.wrong:
        print(f"perfbench: {line}", file=sys.stderr)
    # `correct` speaks of the operations that ran to the end: any output
    # that fails a check makes the run incorrect.
    return {"correct": not tally.wrong, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "shilldetect" / "cli.py").is_file():
        print(f"perfbench: no src/shilldetect/cli.py under {root}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(str(root / "src"), quiet=1)
    rundir = root / ".perfbench" / "runs" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    try:
        result = (traced_run if args.trace else timed_run)(root, args, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
