"""Command-line pipeline: synth -> features -> train -> evaluate -> reports.

Every subcommand writes its artifacts into a fresh run directory together
with a manifest (resolved arguments, seeds, input digests, artifact
digests). Manifests contain no wall-clock state, so re-running the same
arguments over the same inputs reproduces every artifact byte for byte.
Run directories are append-only: an existing non-empty directory is
refused rather than overwritten. Failures print a machine-readable JSON
line to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .records import (
    ParseError,
    encode_ids,
    load_label_list,
    parse_feedback,
    parse_profiles,
    parse_transactions,
    write_json,
)
from .graphs import build_graphs, project_feedback_graph, write_edgelist_csv, write_graphml
from .features import (
    FeatureMatrix,
    extract_all,
    read_feature_csv,
    write_feature_csv,
    write_feature_schema,
)
from .classifiers import ALGORITHMS, check_hyperparameters, save_model, train
from .evaluation import (
    DEFAULT_RATIOS,
    EvaluationReport,
    balanced_training_sample,
    cross_validate,
    imbalanced_protocol,
    write_precision_csv,
    write_precision_svg,
    write_report_json,
)
from .ecosystem import (
    compare_cohorts,
    ecosystem_report,
    maximal_cliques,
    write_clique_list,
    write_comparison_csv,
    write_dot,
    write_ecosystem_csv,
    write_ecosystem_json,
)
from .synth import MarketConfig, generate


class CliError(Exception):
    """User-facing configuration/input problem."""


# ---------------------------------------------------------------------------
# Plumbing


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _prepare_out(out: str) -> Path:
    path = Path(out)
    if path.exists() and any(path.iterdir()):
        raise CliError(f"output directory {out!r} already has artifacts; "
                       "runs are append-only, pick a fresh directory")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(out: Path, subcommand: str, args: dict, inputs: dict) -> None:
    artifacts = {p.name: _sha256(p) for p in sorted(out.iterdir())
                 if p.name != "manifest.json"}
    manifest = {
        "tool": "shilldetect",
        "version": __version__,
        "subcommand": subcommand,
        "args": args,
        "inputs": inputs,
        "artifacts": artifacts,
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        write_json(manifest, fh)


def _corpus_paths(data_dir: str) -> dict[str, Path]:
    root = Path(data_dir)
    paths = {}
    for stem in ("transactions", "feedback", "profiles"):
        for ext in ("csv", "jsonl"):
            p = root / f"{stem}.{ext}"
            if p.exists():
                paths[stem] = p
                break
        else:
            raise CliError(f"missing {stem}.csv/.jsonl under {data_dir!r}")
    labels = root / "labels.txt"
    if labels.exists():
        paths["labels"] = labels
    return paths


def _load_corpus(data_dir: str):
    """Parse the corpus; one stderr line for each file that lost rows, and a
    whole-file ParseError names its file."""
    paths = _corpus_paths(data_dir)
    parsed = {}
    for stem, parse in (("transactions", parse_transactions), ("feedback", parse_feedback),
                        ("profiles", parse_profiles)):
        path = paths[stem]
        with open(path, "rb") as fh:
            try:
                parsed[stem] = result = parse(fh, path.suffix.lstrip("."))
            except ParseError as exc:
                raise ParseError(f"{path.name}: {exc}") from None
        if result.errors:
            first = result.errors[0]
            print(f"{path.name}: {result.bad_rows} of {result.total_rows} rows rejected; "
                  f"first: line {first.line}: {first.message}", file=sys.stderr)
    labels = None
    if "labels" in paths:
        with open(paths["labels"], "rb") as fh:
            labels = load_label_list(fh)
    return (parsed["transactions"].records, parsed["feedback"].records,
            parsed["profiles"].records, labels, paths)


def _input_digests(paths: dict) -> dict:
    return {p.name: _sha256(p) for p in sorted(paths.values())}


def _normalize_algorithm(name: str) -> str:
    canon = {a.replace("-", "").replace("_", "").lower(): a for a in ALGORITHMS}
    key = name.replace("-", "").replace("_", "").lower()
    if key not in canon:
        raise CliError(f"unknown algorithm {name!r}; choose from "
                       + ", ".join(ALGORITHMS))
    return canon[key]


def _load_features(path: str) -> FeatureMatrix:
    with open(path, encoding="utf-8") as fh:
        return read_feature_csv(fh)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_synth(args) -> None:
    merged = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            merged.update(json.load(fh))
    seed = args.seed if args.seed is not None else merged.get("seed", 0)
    merged.pop("seed", None)
    config = MarketConfig.from_dict(merged)
    corpus = generate(config, seed=seed)
    out = _prepare_out(args.out)
    corpus.write(out, fmt=args.format)
    # corpus.write leaves the generator manifest at manifest.json; fold it
    # into the run manifest instead of losing it to the overwrite below.
    _write_manifest(out, "synth",
                    {"config": args.config, "seed": seed, "format": args.format,
                     "resolved_config": corpus.manifest["config"],
                     "generator": {k: corpus.manifest[k] for k in
                                   ("generator_version", "rings", "counts")}},
                    {})
    print(f"wrote {corpus.manifest['counts']['transactions']} transactions, "
          f"{corpus.manifest['counts']['feedback']} feedback records, "
          f"{corpus.manifest['counts']['users']} users -> {out}")


def _cmd_features(args) -> None:
    transactions, feedback, profiles, labels, paths = _load_corpus(args.data)
    out = _prepare_out(args.out)
    tg, fg = build_graphs(transactions, feedback, profiles)
    matrix = extract_all(tg.users.ids, tg, fg, profiles, labels)
    with open(out / "features.csv", "wb") as fh:
        write_feature_csv(matrix, fh)
    with open(out / "schema.json", "w", encoding="utf-8") as fh:
        write_feature_schema(matrix, fh)
    _write_manifest(out, "features", {"data": args.data}, _input_digests(paths))
    print(f"extracted {matrix.n_users} x {len(matrix.feature_names)} features -> {out}")


def _learner_args(args) -> tuple[str, dict | None]:
    """The subcommand's --algorithm and --hyper, checked before any file is made.

    The hyperparameters are the --hyper JSON object, or None when the
    option is not given.
    """
    algorithm = _normalize_algorithm(args.algorithm)
    hyper = json.loads(args.hyper) if args.hyper else None
    if hyper is not None and not isinstance(hyper, dict):
        raise CliError(f"--hyper must be a JSON object, not {args.hyper!r}")
    check_hyperparameters(algorithm, hyper)
    return algorithm, hyper


def _cmd_train(args) -> None:
    algorithm, hyper = _learner_args(args)
    matrix = _load_features(args.features)
    out = _prepare_out(args.out)
    if not args.no_balance:
        matrix = balanced_training_sample(matrix, seed=args.seed)
    model = train(algorithm, matrix, hyper, seed=args.seed)
    save_model(model, out / "model.json")
    _write_manifest(out, "train",
                    {"features": Path(args.features).name, "algorithm": algorithm,
                     "seed": args.seed, "hyper": hyper,
                     "no_balance": bool(args.no_balance)},
                    {Path(args.features).name: _sha256(Path(args.features))})
    print(f"trained {algorithm} on {matrix.n_users} rows -> {out}")


def _cmd_evaluate(args) -> None:
    algorithm, hyper = _learner_args(args)
    _at_least("--folds", args.folds, 2)
    matrix = _load_features(args.features)
    out = _prepare_out(args.out)
    sample = balanced_training_sample(matrix, seed=args.seed)
    result = cross_validate(algorithm, sample, k=args.folds, seed=args.seed,
                            hyperparameters=hyper)
    metrics = result["metrics"]
    with open(out / "metrics.json", "w", encoding="utf-8") as fh:
        write_json(metrics, fh)
    _write_manifest(out, "evaluate",
                    {"features": Path(args.features).name, "algorithm": algorithm,
                     "folds": args.folds, "seed": args.seed, "hyper": hyper},
                    {Path(args.features).name: _sha256(Path(args.features))})
    print(json.dumps({k: metrics[k] for k in
                      ("tp_rate", "fp_rate", "f_measure", "auc")}, sort_keys=True))
    print(f"evaluation -> {out}")


def _at_least(option: str, value: int, least: int) -> None:
    if value < least:
        raise CliError(f"{option} must be at least {least}, not {value}")


def _parse_k_grid(text: str) -> list[int]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",") if x]


def _positive_ints(option: str, text: str, values: list[int]) -> list[int]:
    if not values or min(values) < 1:
        raise CliError(f"{option} must list positive integers, not {text!r}")
    return values


def _cmd_precision_at_k(args) -> None:
    algorithm, hyper = _learner_args(args)
    _at_least("--repetitions", args.repetitions, 1)
    ratios = tuple(_positive_ints("--ratios", args.ratios,
                                  [int(r) for r in args.ratios.split(",")]))
    k_grid = _positive_ints("--k-grid", args.k_grid, _parse_k_grid(args.k_grid))
    matrix = _load_features(args.features)
    out = _prepare_out(args.out)
    report = imbalanced_protocol(
        matrix, algorithm, ratios=ratios, repetitions=args.repetitions,
        seed=args.seed, k_grid=k_grid, hyperparameters=hyper)
    _emit_report(report, out, args.emit.split(","))
    _write_manifest(out, "precision-at-k",
                    {"features": Path(args.features).name, "algorithm": algorithm,
                     "ratios": list(ratios), "repetitions": args.repetitions,
                     "seed": args.seed, "k_grid": args.k_grid, "emit": args.emit,
                     "hyper": hyper},
                    {Path(args.features).name: _sha256(Path(args.features))})
    tail = {f"1:{r}": round(report.curves[f'1:{r}'][-1], 4) for r in report.ratios}
    print(f"precision@{report.k_grid[-1]} by ratio: {json.dumps(tail, sort_keys=True)}")
    print(f"protocol report -> {out}")


def _emit_report(report: EvaluationReport, out: Path, emit) -> None:
    if "json" in emit:
        with open(out / "report.json", "w", encoding="utf-8") as fh:
            write_report_json(report, fh)
    if "csv" in emit:
        with open(out / "precision.csv", "w", encoding="utf-8") as fh:
            write_precision_csv(report, fh)
    if "svg" in emit:
        with open(out / "precision.svg", "w", encoding="utf-8") as fh:
            write_precision_svg(report, fh)


def _cmd_ecosystem(args) -> None:
    transactions, feedback, profiles, labels, paths = _load_corpus(args.data)
    if labels is None:
        raise CliError("ecosystem comparison needs labels.txt in the data directory")
    _, fg = build_graphs(transactions, feedback, profiles)
    shill = np.isin(fg.users.ids, encode_ids(labels.shill_ids))
    shill_cohort, benign_ids = fg.users.ids[shill], fg.users.ids[~shill]
    if not len(shill_cohort):
        raise CliError("no labeled shill users appear in the corpus")
    rng = np.random.default_rng(args.seed)
    sample = rng.choice(len(benign_ids), size=min(len(shill_cohort), len(benign_ids)),
                        replace=False)
    benign_cohort = np.sort(benign_ids[sample])

    out = _prepare_out(args.out)
    results = {}
    for name, cohort in (("shill", shill_cohort), ("benign", benign_cohort)):
        graph = project_feedback_graph(fg, cohort, weight_mode=args.weight_mode)
        cliques = maximal_cliques(graph)
        report = ecosystem_report(graph, cliques)
        results[name] = report
        with open(out / f"ecosystem_{name}.json", "w", encoding="utf-8") as fh:
            write_ecosystem_json(report, fh)
        with open(out / f"ecosystem_{name}.csv", "w", encoding="utf-8") as fh:
            write_ecosystem_csv(report, fh)
        with open(out / f"cliques_{name}.txt", "w", encoding="utf-8") as fh:
            write_clique_list(cliques, graph.node_ids, fh)
        if name == "shill":
            with open(out / "shill_subgraph.dot", "w", encoding="utf-8") as fh:
                write_dot(graph, fh)
            with open(out / "shill_subgraph.graphml", "w", encoding="utf-8") as fh:
                write_graphml(graph, fh)
            with open(out / "shill_edges.csv", "w", encoding="utf-8") as fh:
                write_edgelist_csv(graph, fh)
    comparison = compare_cohorts(results["shill"], results["benign"])
    with open(out / "comparison.json", "w", encoding="utf-8") as fh:
        write_json(comparison.to_dict(), fh)
    with open(out / "comparison.csv", "w", encoding="utf-8") as fh:
        write_comparison_csv(comparison, fh)
    _write_manifest(out, "ecosystem",
                    {"data": args.data, "weight_mode": args.weight_mode,
                     "seed": args.seed},
                    _input_digests(paths))
    print(f"shill max clique {results['shill'].max_clique_size} vs benign "
          f"{results['benign'].max_clique_size}; largest-component fraction "
          f"{results['shill'].largest_component_fraction:.4f} vs "
          f"{results['benign'].largest_component_fraction:.4f}")
    print(f"ecosystem reports -> {out}")


def _cmd_report(args) -> None:
    with open(args.run, encoding="utf-8") as fh:
        stored = json.load(fh)
    if not isinstance(stored, dict):
        raise CliError(f"{args.run!r} is not a protocol report: not a JSON object")
    names = [f.name for f in fields(EvaluationReport)]
    wrong = ([f"unknown field {k!r}" for k in sorted(set(stored) - set(names))]
             + [f"missing field {k!r}" for k in names if k not in stored])
    if wrong:
        raise CliError(f"{args.run!r} is not a protocol report: {'; '.join(wrong)}")
    report = EvaluationReport(**stored)
    out = _prepare_out(args.out)
    _emit_report(report, out, args.emit.split(","))
    _write_manifest(out, "report",
                    {"run": Path(args.run).name, "emit": args.emit},
                    {Path(args.run).name: _sha256(Path(args.run))})
    print(f"re-rendered {args.emit} -> {out}")


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shilldetect",
        description="Shill-bidder detection pipeline over marketplace logs")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a labeled synthetic corpus")
    p.add_argument("--config", help="market config JSON file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("features", help="extract the 31-feature matrix")
    p.add_argument("--data", required=True, help="corpus directory")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("train", help="train a classifier on a balanced sample")
    p.add_argument("--features", required=True, help="features.csv path")
    p.add_argument("--algorithm", default="RotationForest")
    p.add_argument("--hyper", help="hyperparameter overrides as JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-balance", action="store_true",
                   help="train on all rows instead of a balanced sample")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="10-fold CV metrics on a balanced sample")
    p.add_argument("--features", required=True)
    p.add_argument("--algorithm", default="RotationForest")
    p.add_argument("--hyper")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("precision-at-k",
                       help="imbalanced-ratio precision@k protocol")
    p.add_argument("--features", required=True)
    p.add_argument("--algorithm", default="RotationForest")
    p.add_argument("--hyper")
    p.add_argument("--ratios", default=",".join(str(r) for r in DEFAULT_RATIOS))
    p.add_argument("--repetitions", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k-grid", default="1:1000",
                   help="'lo:hi' inclusive range or comma list")
    p.add_argument("--emit", default="json,csv,svg")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_precision_at_k)

    p = sub.add_parser("ecosystem",
                       help="shill vs random-benign feedback-graph contrast")
    p.add_argument("--data", required=True)
    p.add_argument("--weight-mode", choices=("count", "rating_sum"),
                   default="rating_sum")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ecosystem)

    p = sub.add_parser("report", help="re-render an existing protocol report")
    p.add_argument("--run", required=True, help="report.json path")
    p.add_argument("--emit", default="svg")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except Exception as exc:   # noqa: BLE001 - single boundary for error JSON
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
