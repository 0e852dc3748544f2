import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import shilldetect
import shilldetect.evaluation as evaluation
from shilldetect.cli import CliError, _normalize_algorithm, _parse_k_grid, main

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """One synth corpus plus its feature matrix, shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "market.json"
    cfg.write_text(json.dumps({"n_users": 150, "shill_fraction": 0.05}))
    assert main(["synth", "--config", str(cfg), "--seed", "5",
                 "--out", str(root / "corpus")]) == 0
    assert main(["features", "--data", str(root / "corpus"),
                 "--out", str(root / "features")]) == 0
    return root


def read_manifest(run_dir):
    return json.loads((run_dir / "manifest.json").read_text())


# ---------------------------------------------------------------------------
# plumbing units


def test_parse_k_grid_forms():
    assert _parse_k_grid("1:5") == [1, 2, 3, 4, 5]
    assert _parse_k_grid("1,5,9") == [1, 5, 9]


def test_algorithm_normalization():
    assert _normalize_algorithm("rotation-forest") == "RotationForest"
    assert _normalize_algorithm("ONER") == "OneR"
    assert _normalize_algorithm("naive_bayes") == "NaiveBayes"
    with pytest.raises(CliError, match="unknown algorithm"):
        _normalize_algorithm("perceptron")


# ---------------------------------------------------------------------------
# subcommands


def test_synth_artifacts(ws):
    run = ws / "corpus"
    for name in ("transactions.csv", "feedback.csv", "profiles.csv",
                 "labels.txt", "manifest.json"):
        assert (run / name).exists(), name
    m = read_manifest(run)
    assert m["tool"] == "shilldetect" and m["subcommand"] == "synth"
    assert m["args"]["seed"] == 5
    gen = m["args"]["generator"]
    assert gen["counts"]["users"] == 150
    assert sorted(len(r) for r in gen["rings"]) and gen["counts"]["shills"] == 8
    assert set(m["artifacts"]) == {"transactions.csv", "feedback.csv",
                                   "profiles.csv", "labels.txt"}
    assert all(len(d) == 64 for d in m["artifacts"].values())


def test_synth_seed_from_config_file(tmp_path):
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps({"n_users": 40, "shill_fraction": 0.0, "seed": 9}))
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
    assert read_manifest(tmp_path / "r")["args"]["seed"] == 9


def test_features_artifacts(ws):
    run = ws / "features"
    schema = json.loads((run / "schema.json").read_text())
    assert len(schema["features"]) == 31
    header = (run / "features.csv").read_text().splitlines()[0]
    assert header.startswith("user_id,")
    m = read_manifest(run)
    assert set(m["inputs"]) >= {"transactions.csv", "feedback.csv", "profiles.csv"}
    assert set(m["artifacts"]) == {"features.csv", "schema.json"}


def test_train_subcommand(ws, tmp_path, capsys):
    rc = main(["train", "--features", str(ws / "features" / "features.csv"),
               "--algorithm", "naive-bayes", "--seed", "3",
               "--out", str(tmp_path / "run")])
    assert rc == 0
    model = json.loads((tmp_path / "run" / "model.json").read_text())
    assert model["algorithm"] == "NaiveBayes"
    m = read_manifest(tmp_path / "run")
    assert m["args"]["algorithm"] == "NaiveBayes" and m["args"]["seed"] == 3
    assert "trained NaiveBayes" in capsys.readouterr().out


def test_train_no_balance_uses_every_row(ws, tmp_path, capsys):
    features = ws / "features" / "features.csv"
    rows = len(features.read_text().splitlines()) - 1
    assert main(["train", "--features", str(features), "--algorithm", "OneR",
                 "--no-balance", "--out", str(tmp_path / "run")]) == 0
    assert f"trained OneR on {rows} rows" in capsys.readouterr().out
    assert read_manifest(tmp_path / "run")["args"]["no_balance"] is True


def test_evaluate_subcommand(ws, tmp_path, capsys):
    rc = main(["evaluate", "--features", str(ws / "features" / "features.csv"),
               "--algorithm", "OneR", "--folds", "4",
               "--out", str(tmp_path / "run")])
    assert rc == 0
    first_line = capsys.readouterr().out.splitlines()[0]
    shown = json.loads(first_line)
    assert set(shown) == {"tp_rate", "fp_rate", "f_measure", "auc"}
    stored = json.loads((tmp_path / "run" / "metrics.json").read_text())
    assert stored["auc"] == shown["auc"]
    assert stored["algorithm"] == "OneR" and stored["folds"] == 4


def test_precision_and_report_rerender(ws, tmp_path, capsys):
    run = tmp_path / "protocol"
    rc = main(["precision-at-k", "--features",
               str(ws / "features" / "features.csv"),
               "--algorithm", "OneR", "--ratios", "2,5", "--repetitions", "2",
               "--k-grid", "1:20", "--out", str(run)])
    assert rc == 0
    assert "precision@20 by ratio" in capsys.readouterr().out
    report = json.loads((run / "report.json").read_text())
    assert report["ratios"] == [2, 5] and len(report["k_grid"]) == 20

    rerun = tmp_path / "rerender"
    rc = main(["report", "--run", str(run / "report.json"),
               "--emit", "svg,csv", "--out", str(rerun)])
    assert rc == 0
    # re-rendering from the stored report reproduces the originals exactly
    assert (rerun / "precision.svg").read_bytes() == \
           (run / "precision.svg").read_bytes()
    assert (rerun / "precision.csv").read_bytes() == \
           (run / "precision.csv").read_bytes()


def test_report_rejects_unknown_keys(ws, tmp_path, capsys):
    run = tmp_path / "protocol"
    assert main(["precision-at-k", "--features", str(ws / "features" / "features.csv"),
                 "--algorithm", "OneR", "--ratios", "2", "--repetitions", "1",
                 "--k-grid", "1:5", "--emit", "json", "--out", str(run)]) == 0
    stored = json.loads((run / "report.json").read_text())
    missing = dict(stored)
    del missing["seed"]
    # An older report still holds "cv_metrics", which reports no longer have.
    for edited, named in ((stored | {"note": "hand edit"}, "unknown field 'note'"),
                          (stored | {"cv_metrics": None}, "unknown field 'cv_metrics'"),
                          (missing, "missing field 'seed'"),
                          ([stored], "not a JSON object")):
        (tmp_path / "edited.json").write_text(json.dumps(edited))
        capsys.readouterr()
        assert main(["report", "--run", str(tmp_path / "edited.json"),
                     "--out", str(tmp_path / "rerender")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CliError" and named in err["message"], err
        assert not (tmp_path / "rerender").exists()


def test_ecosystem_subcommand(ws, tmp_path, capsys):
    run = tmp_path / "eco"
    rc = main(["ecosystem", "--data", str(ws / "corpus"), "--out", str(run)])
    assert rc == 0
    for name in ("ecosystem_shill.json", "ecosystem_benign.json",
                 "ecosystem_shill.csv", "cliques_shill.txt", "cliques_benign.txt",
                 "shill_subgraph.dot", "shill_subgraph.graphml",
                 "shill_edges.csv", "comparison.json", "comparison.csv"):
        assert (run / name).exists(), name
    shill = json.loads((run / "ecosystem_shill.json").read_text())
    benign = json.loads((run / "ecosystem_benign.json").read_text())
    assert shill["cohort_size"] == benign["cohort_size"] == 8
    assert shill["max_clique_size"] >= 3
    assert "max clique" in capsys.readouterr().out


def test_ecosystem_requires_labels(ws, tmp_path, capsys):
    data = tmp_path / "nolabels"
    data.mkdir()
    for name in ("transactions.csv", "feedback.csv", "profiles.csv"):
        shutil.copy(ws / "corpus" / name, data / name)
    rc = main(["ecosystem", "--data", str(data), "--out", str(tmp_path / "run")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "CliError" and "labels.txt" in err["message"]


def test_ecosystem_tallies_self_feedback_and_cohort_links(tmp_path):
    # Three shills and three benign users, so the benign sample is all of them.
    # Each cohort rates itself once, and some ratings leave the cohort.
    data = tmp_path / "corpus"
    data.mkdir()
    ts = "2011-01-01T00:00:00Z"
    (data / "transactions.csv").write_text(
        "buyer_id,seller_id,product_id,quantity,unit_price,timestamp\n"
        f"b1,s1,p1,1,1.00,{ts}\n")
    ratings = [("s1", "s1", 1), ("s1", "s2", 1), ("s2", "s1", 1), ("s2", "s3", -1),
               ("s3", "s1", 0), ("s1", "b1", 1), ("b1", "s2", -1),
               ("b1", "b2", 1), ("b2", "b2", -1), ("b3", "s3", 1)]
    (data / "feedback.csv").write_text(
        "giver_id,receiver_id,rating,timestamp\n"
        + "".join(f"{g},{r},{v},{ts}\n" for g, r, v in ratings))
    (data / "profiles.csv").write_text(
        "user_id,birth_year,state,registration_date\n"
        + "".join(f"{u},1970,Ohio,2010-01-01\n" for u in ("s1", "s2", "s3", "b1", "b2", "b3")))
    (data / "labels.txt").write_text("s1\ns2\ns3\n")
    run = tmp_path / "eco"
    assert main(["ecosystem", "--data", str(data), "--out", str(run)]) == 0
    tallies = ("total_feedback", "positive_feedback", "negative_feedback", "self_loops")
    shill = json.loads((run / "ecosystem_shill.json").read_text())
    benign = json.loads((run / "ecosystem_benign.json").read_text())
    assert [shill[k] for k in tallies] == [5, 3, 1, 1]
    assert [benign[k] for k in tallies] == [2, 1, 1, 1]
    assert shill["n_links"] == 4 and benign["n_links"] == 1


# ---------------------------------------------------------------------------
# failure modes


def test_refuses_nonempty_out_dir(ws, tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    (out / "leftover.txt").write_text("x")
    rc = main(["features", "--data", str(ws / "corpus"), "--out", str(out)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert "append-only" in err["message"]
    assert (out / "leftover.txt").read_text() == "x"   # nothing clobbered


def test_missing_corpus_is_json_error(tmp_path, capsys):
    rc = main(["features", "--data", str(tmp_path / "ghost"),
               "--out", str(tmp_path / "run")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "CliError"
    assert "transactions" in err["message"]


def test_unknown_algorithm_is_json_error(ws, tmp_path, capsys):
    rc = main(["train", "--features", str(ws / "features" / "features.csv"),
               "--algorithm", "svm", "--out", str(tmp_path / "run")])
    assert rc == 1
    assert "unknown algorithm" in json.loads(capsys.readouterr().err.strip())["message"]


def test_hyperparameters_checked_before_use(ws, tmp_path, capsys):
    features = str(ws / "features" / "features.csv")
    refused = (('{"n_member": 2}', "ValueError", "'n_member'"),
               ('[2]', "CliError", "JSON object"),
               ('{"n_members": 0}', "ValueError", "'n_members' must be a positive int"))
    for command in ("train", "evaluate", "precision-at-k"):
        for i, (hyper, error, text) in enumerate(refused):
            out = tmp_path / f"{command}-refused{i}"
            rc = main([command, "--features", features, "--algorithm", "rotation-forest",
                       "--hyper", hyper, "--out", str(out)])
            assert rc == 1
            err = json.loads(capsys.readouterr().err.strip())
            assert err["error"] == error and text in err["message"]
            assert not out.exists(), command
    rc = main(["train", "--features", features, "--algorithm", "rotation-forest",
               "--hyper", '{"n_members": 2}', "--out", str(tmp_path / "run")])
    assert rc == 0
    assert read_manifest(tmp_path / "run")["args"]["hyper"] == {"n_members": 2}
    assert len(json.loads((tmp_path / "run" / "model.json").read_text())["members"]) == 2


def test_repeated_user_in_features_is_refused(ws, tmp_path, capsys):
    lines = (ws / "features" / "features.csv").read_text().splitlines(keepends=True)
    shill = next(i for i, line in enumerate(lines) if line.endswith(",shill\n"))
    user = lines[shill].split(",", 1)[0]
    lines.append(lines[shill].rsplit(",", 1)[0] + ",benign\n")   # relabelled
    features = tmp_path / "features.csv"
    features.write_text("".join(lines))
    for command in ("evaluate", "precision-at-k"):
        out = tmp_path / command
        rc = main([command, "--features", str(features), "--algorithm", "OneR",
                   "--out", str(out)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ValueError",
                       "message": f"feature CSV line {len(lines)}: user {user!r} "
                                  f"is already on line {shill + 1}"}, command
        assert not out.exists(), command


def test_malformed_corpus_csv_names_its_line(ws, tmp_path, capsys):
    # A lone carriage return in an unquoted field is a line csv refuses.
    corpus = tmp_path / "corpus"
    shutil.copytree(ws / "corpus", corpus)
    lines = (corpus / "transactions.csv").read_bytes().splitlines(keepends=True)
    lines[2] = b"a\rb" + lines[2]
    (corpus / "transactions.csv").write_bytes(b"".join(lines))
    assert main(["features", "--data", str(corpus), "--out", str(tmp_path / "run")]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ParseError"
    assert err["message"] == ("transactions.csv: line 3: malformed CSV: "
                              "new-line character seen in unquoted field")


@pytest.mark.parametrize("argv", [
    ["evaluate", "--algorithm", "RotationForest", "--folds", "4"],
    ["precision-at-k", "--algorithm", "RandomForest", "--ratios", "2,5",
     "--repetitions", "2", "--k-grid", "1:40"],
], ids=["evaluate", "precision-at-k"])
def test_run_directory_does_not_depend_on_workers(ws, tmp_path, monkeypatch, argv):
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(evaluation, "_worker_count",
                            lambda n_tasks, workers=workers: min(workers, n_tasks))
        out = tmp_path / f"workers{workers}"
        assert main([*argv, "--features", str(ws / "features" / "features.csv"),
                     "--out", str(out)]) == 0
        runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert multiprocessing.active_children() == []
    assert runs[0] == runs[1]


def _features(ws):
    return ["--features", str(ws / "features" / "features.csv")]


def _unlabelled_corpus(ws, tmp_path):
    corpus = tmp_path / "unlabelled"
    shutil.copytree(ws / "corpus", corpus)
    (corpus / "labels.txt").unlink()
    return corpus


@pytest.mark.parametrize("argv, message", [
    (lambda ws, tmp: ["synth", "--config", str(tmp / "bad.json")], "n_users must be >= 1"),
    (lambda ws, tmp: ["synth", "--config", str(tmp / "missing.json")], "missing.json"),
    (lambda ws, tmp: ["report", "--run", str(tmp / "nothere.json")], "nothere.json"),
    (lambda ws, tmp: ["features", "--data", str(tmp / "ghost")],
     "missing transactions.csv/.jsonl"),
    (lambda ws, tmp: ["ecosystem", "--data", str(tmp / "ghost")],
     "missing transactions.csv/.jsonl"),
    (lambda ws, tmp: ["ecosystem", "--data", str(_unlabelled_corpus(ws, tmp))],
     "needs labels.txt"),
    (lambda ws, tmp: ["precision-at-k", *_features(ws), "--repetitions", "0"],
     "--repetitions must be at least 1, not 0"),
    (lambda ws, tmp: ["evaluate", *_features(ws), "--folds", "1"],
     "--folds must be at least 2, not 1"),
    (lambda ws, tmp: ["precision-at-k", *_features(ws), "--ratios", "2,x"],
     "invalid literal for int()"),
    (lambda ws, tmp: ["precision-at-k", *_features(ws), "--ratios", "0,5"],
     "--ratios must list positive integers, not '0,5'"),
    (lambda ws, tmp: ["precision-at-k", *_features(ws), "--k-grid", "1:x"],
     "invalid literal for int()"),
    (lambda ws, tmp: ["precision-at-k", *_features(ws), "--k-grid", "0:5"],
     "--k-grid must list positive integers, not '0:5'"),
], ids=["synth-bad-config", "synth-missing-config", "report-missing-run",
        "features-missing-corpus", "ecosystem-missing-corpus", "ecosystem-no-labels",
        "protocol-no-repetitions", "evaluate-one-fold", "protocol-bad-ratio",
        "protocol-zero-ratio", "protocol-bad-k-grid", "protocol-zero-k"])
def test_refused_input_leaves_no_run_directory(ws, tmp_path, capsys, argv, message):
    (tmp_path / "bad.json").write_text(json.dumps({"n_users": -5}))
    out = tmp_path / "run"
    assert main([*argv(ws, tmp_path), "--out", str(out)]) == 1
    assert message in json.loads(capsys.readouterr().err.strip())["message"]
    assert not out.exists()


def test_manifests_record_hyperparameters(ws, tmp_path):
    features = str(ws / "features" / "features.csv")
    for command, extra in (("evaluate", ["--folds", "3"]),
                           ("precision-at-k", ["--repetitions", "1", "--k-grid", "1:5"])):
        for hyper in ('{"n_members": 2}', None):
            out = tmp_path / f"{command}-{hyper is None}"
            argv = [command, "--features", features, "--algorithm", "rotation-forest",
                    *extra, "--out", str(out)]
            assert main(argv + (["--hyper", hyper] if hyper else [])) == 0
            recorded = read_manifest(out)["args"]["hyper"]
            assert recorded == (json.loads(hyper) if hyper else None), command


# ---------------------------------------------------------------------------
# entry points


def _pythonpath_env():
    """Environment whose PYTHONPATH leads with the `shilldetect` these tests import."""
    pkg_parent = str(Path(shilldetect.__file__).resolve().parent.parent)
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": pkg_parent + (os.pathsep + rest if rest else "")}


def _project():
    """The `[project]` table of the repo's pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")   # stdlib from Python 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "shilldetect.cli", "--version"],
                          capture_output=True, text=True, env=_pythonpath_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == _project()["version"]


def test_console_script_installed(tmp_path):
    """The declared console script runs the way an installer's wrapper runs it.

    Per the PyPA entry-points spec, the wrapper imports the object named in
    `[project.scripts]`, calls it with no arguments and hands its return
    value to `sys.exit`. Writing that wrapper here checks everything the
    package controls without needing the package installed on PATH.
    """
    project = _project()
    module, _, attr = project["scripts"]["shilldetect"].partition(":")
    top = attr.split(".")[0]

    bindir = tmp_path / "bin"
    bindir.mkdir()
    script = bindir / "shilldetect"
    script.write_text(f"#!{sys.executable}\n"
                      "import sys\n"
                      f"from {module} import {top}\n"
                      f"sys.exit({attr}())\n")
    script.chmod(0o755)

    exe = shutil.which("shilldetect", path=str(bindir))
    assert exe, "console script wrapper not found"
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True,
                          env=_pythonpath_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == project["version"]


def test_rejected_rows_are_reported(ws, tmp_path, capsys):
    data = tmp_path / "corpus"
    shutil.copytree(ws / "corpus", data)
    # file -> (one bad row appended, its error)
    bad = {"transactions.csv": ("a,b,p,0,1.00,2011-01-01T00:00:00Z",
                                "quantity must be >= 1, got 0"),
           "feedback.csv": ("a,b,2,2011-01-01T00:00:00Z",
                            "rating must be -1, 0, or +1, got 2"),
           "profiles.csv": ("zz,1980,Ohio,2010-13-01", "month must be in 1..12")}
    want = []
    for name, (row, message) in bad.items():
        path = data / name
        text = path.read_text()
        rows = len(text.splitlines())     # the header and the rows before
        path.write_text(text + row + "\n")
        want.append(f"{name}: 1 of {rows} rows rejected; first: line {rows + 1}: {message}")
    capsys.readouterr()
    for argv in (["features", "--data", str(data), "--out", str(tmp_path / "f")],
                 ["ecosystem", "--data", str(data), "--out", str(tmp_path / "e")]):
        assert main(argv) == 0
        assert capsys.readouterr().err.splitlines() == want
