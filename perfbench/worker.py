"""One fresh interpreter of a benchmark run: set up inputs, or time rounds.

    python3 perfbench/worker.py setup --root DIR --workload W --seed N --dir OUT [--trace]
    python3 perfbench/worker.py run   --root DIR --workload W --seed N --dir OUT
                                      --inputs IN (--seconds S | --rounds R) [--trace]

Each mode writes ``result.json`` into ``--dir``. ``setup`` records the
monotonic instant its inputs were ready, so the caller can time it from
before process start. ``run`` calls ``shilldetect.cli.main`` in-process,
one round of the workload's subcommands after another, and reports each
round's wall and CPU time, the operations' exit codes, and the peak RSS of
the process at the end of the timed part.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

# Workload inputs. `market` makes its own corpus from the seed inside the
# timed part. `cv` and `protocol` run on the features of the standard corpus
# (MarketConfig defaults: 20k users, generator seed 0) made in set-up, with
# the rows in an order drawn from the seed. `protocol` also passes the seed
# to the CLI, which draws its samples from it. `cv` keeps the CLI seed at 0:
# the sample it draws changes how much tree growth a CV takes by about +-8%,
# which would swamp a change's effect on its wall time.
MARKET_USERS = 30_000
CV_SEED = 0
# Two repetitions, not the CLI's default three, keep a protocol run inside
# the benchmark's time budget; every ratio and k of the default grid stays.
PROTOCOL_REPETITIONS = 2


def round_argvs(workload: str, seed: int, inputs: Path, out: Path) -> list[list[str]]:
    """The cli.main calls of one round; each is one operation."""
    if workload == "market":
        return [
            ["synth", "--config", str(inputs / "market.json"), "--format", "csv",
             "--out", str(out / "corpus")],
            ["features", "--data", str(out / "corpus"), "--out", str(out / "features")],
            ["ecosystem", "--data", str(out / "corpus"), "--seed", str(seed),
             "--out", str(out / "ecosystem")],
        ]
    features = str(inputs / "features.csv")
    if workload == "cv":
        return [["evaluate", "--features", features, "--algorithm", "RotationForest",
                 "--folds", "10", "--seed", str(CV_SEED), "--out", str(out / "cv")]]
    if workload == "protocol":
        return [["precision-at-k", "--features", features, "--algorithm", "KNN3",
                 "--repetitions", str(PROTOCOL_REPETITIONS), "--seed", str(seed),
                 "--emit", "json,csv,svg",
                 "--out", str(out / "protocol")]]
    raise ValueError(f"unknown workload {workload!r}")


def _import_cli(root: Path):
    """Import shilldetect.cli from the checkout's src/, timed."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    from shilldetect import cli
    import_s = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported shilldetect from {cli.__file__}, not {src}")
    return cli, import_s


def setup(args, tracer) -> dict:
    _, import_s = _import_cli(Path(args.root))
    if tracer is not None:
        tracer.install()
    out = Path(args.dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.workload == "market":
        with open(out / "market.json", "w", encoding="utf-8") as fh:
            json.dump({"n_users": MARKET_USERS, "seed": args.seed}, fh)
    else:
        from shilldetect import features, graphs, synth
        corpus = synth.generate(synth.MarketConfig())
        tg, fg = graphs.build_graphs(corpus.transactions, corpus.feedback,
                                     corpus.profiles)
        matrix = features.extract_all(tg.users.ids, tg, fg, corpus.profiles,
                                      corpus.labels)
        # The seed orders the rows; no result may depend on row order.
        matrix = matrix.select(random.Random(args.seed).sample(matrix.user_ids,
                                                               matrix.n_users))
        with open(out / "features.csv", "w", encoding="utf-8") as fh:
            features.write_feature_csv(matrix, fh)
    return {"ready": time.monotonic(), "import_s": import_s}


def run(args, tracer) -> dict:
    cli, import_s = _import_cli(Path(args.root))
    if tracer is not None:
        tracer.install()
    inputs, out = Path(args.inputs), Path(args.dir)
    rounds = []
    started = time.perf_counter()
    while True:
        rdir = out / f"round{len(rounds)}"
        argvs = round_argvs(args.workload, args.seed, inputs, rdir)
        codes = []
        cpu0, t0 = time.process_time(), time.perf_counter()
        for argv in argvs:
            if tracer is None:
                codes.append(cli.main(argv))
            else:
                with tracer.span("cli.main", "cli.self_s"):
                    codes.append(cli.main(argv))
        wall = time.perf_counter() - t0
        rounds.append({"dir": str(rdir), "wall_s": wall,
                       "cpu_s": time.process_time() - cpu0,
                       "ops": [argv[0] for argv in argvs], "codes": codes})
        if tracer is not None:
            rounds[-1]["counts"] = dict(tracer.counts)
            tracer.counts.clear()   # counts are kept per round
        done = (len(rounds) >= args.rounds if args.rounds
                else time.perf_counter() - started >= args.seconds)
        if done:
            break
    from tracer import peak_rss_mb
    return {"import_s": import_s, "peak_rss_mb": peak_rss_mb(), "rounds": rounds}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--root", required=True, help="checkout root")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, help="output directory")
    parser.add_argument("--inputs", help="set-up output directory (run mode)")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    result = (setup if args.mode == "setup" else run)(args, tracer)
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.spans
        if args.mode == "setup":
            result["counts"] = dict(tracer.counts)
    Path(args.dir).mkdir(parents=True, exist_ok=True)
    with open(Path(args.dir) / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
