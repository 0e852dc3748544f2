"""Rules the package source keeps, checked by parsing it."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import shilldetect

PACKAGE_DIR = Path(shilldetect.__file__).resolve().parent


def test_no_assert_statements_in_package():
    # `python -O` strips asserts, so bad input must raise a typed error.
    found = []
    files = sorted(PACKAGE_DIR.rglob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(PACKAGE_DIR)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


REPO_DIR = Path(__file__).resolve().parents[1]
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _definitions(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name, node.lineno


def _references(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            # tracers and registries look names up by (dotted) string
            names.update(node.value.split("."))
    return names


def test_every_package_definition_is_referenced():
    # A function or class that nothing in the package, its tests, demos or
    # benchmark mentions is dead code; delete it rather than carry it.
    referenced = set()
    for top in ("src", "tests", "demos", "perfbench"):
        for path in sorted((REPO_DIR / top).rglob("*.py")):
            referenced |= _references(ast.parse(path.read_text(encoding="utf-8")))
    unreferenced = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        unreferenced += [f"{path.relative_to(PACKAGE_DIR)}:{line} {name}"
                         for name, line in _definitions(tree) if name not in referenced]
    assert unreferenced == []


def _runtime_dependencies() -> set[str]:
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_DIR / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_")
            for d in deps}


def test_package_imports_only_declared_dependencies():
    # Whatever the package imports must be installed with it: the standard
    # library, the package itself, or a [project].dependencies entry.
    allowed = set(sys.stdlib_module_names) | {"shilldetect"} | _runtime_dependencies()
    found = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.relative_to(PACKAGE_DIR)}:{node.lineno} {name}"
                      for name in names if name.split(".")[0] not in allowed]
    assert found == []


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency; every CLI call would pay its import.
    rest = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": str(PACKAGE_DIR.parent) + (os.pathsep + rest if rest else "")}
    code = ("import sys, shilldetect.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_POOL_MODULES = ("multiprocessing", "concurrent.futures", "os.fork")


def _pool_uses(tree: ast.AST):
    """(line, name) of each import or attribute that reaches a process pool or fork."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            continue
        for name in names:
            if any(name == m or name.startswith(m + ".") for m in _POOL_MODULES):
                yield node.lineno, name


def test_process_pool_lives_in_one_place():
    # CV folds and protocol repetitions share one fork pool helper; a second
    # pool would nest in it or oversubscribe the CPUs.
    module = ast.parse((PACKAGE_DIR / "evaluation.py").read_text(encoding="utf-8"))
    helper = next(node for node in module.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_map_in_order")
    assert list(_pool_uses(helper))
    allowed = set(range(helper.lineno, helper.end_lineno + 1))
    found = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(PACKAGE_DIR)}:{line} {name}"
                  for line, name in _pool_uses(tree)
                  if not (path.name == "evaluation.py" and line in allowed)]
    assert found == []


def test_artifact_json_is_written_in_one_place():
    # Manifests, reports and the feature schema share one JSON layout
    # (records.write_json): byte-identical reruns depend on every writer
    # indenting, sorting keys and ending the file the same way.
    module = ast.parse((PACKAGE_DIR / "records.py").read_text(encoding="utf-8"))
    writer = next(node for node in module.body
                  if isinstance(node, ast.FunctionDef) and node.name == "write_json")
    inside = {f"records.py:{line}" for line in range(writer.lineno, writer.end_lineno + 1)}
    found = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                names = [f"json.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            else:
                continue
            if "json.dump" in names:
                found.append(f"{path.relative_to(PACKAGE_DIR)}:{node.lineno}")
    assert len(found) == 1 and found[0] in inside, found


def test_csv_is_read_in_records_and_written_by_no_csv_writer():
    # The corpus, feature and edge-list CSVs, whose fields hold ids and
    # states, are made as bytes on one path (records.csv_bytes); the
    # ecosystem, comparison and precision CSVs, which hold field names and
    # numbers only, are written line by line.
    # Only the corpus parsers use the csv module. A per-row csv.writer
    # would be a second quoting path, and one with a "\n" line end leaves a
    # lone carriage return unquoted.
    found = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        where = path.relative_to(PACKAGE_DIR)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            else:
                continue
            found += [f"{where}:{node.lineno} {name}" for name in names
                      if (name == "csv" and path.name != "records.py")
                      or name in ("csv.writer", "csv.DictWriter")]
    assert found == []


def test_rows_are_put_in_id_order_in_one_place():
    # Evaluation and the learners get id order from FeatureMatrix.id_order()
    # (or canonical()), which refuses a repeated id; a second sort by id
    # would be a second notion of row order that might not. Neither the id
    # array nor its text is read there.
    paths = [PACKAGE_DIR / "evaluation.py", *sorted((PACKAGE_DIR / "classifiers").rglob("*.py"))]
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(PACKAGE_DIR)}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ("user_ids", "ids")]
    assert len(paths) > 2 and found == []


def test_recursion_error_is_caught_only_in_records():
    # A JSONL row can nest past the recursion limit, so records.py catches
    # RecursionError. Nothing else should: saved models nest to a fixed
    # depth, and other deep structures are walked with explicit stacks.
    found = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        if path.name == "records.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(PACKAGE_DIR)}:{node.lineno}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ExceptHandler) and node.type is not None
                  and any(isinstance(name, ast.Name) and name.id == "RecursionError"
                          for name in ast.walk(node.type))]
    assert found == []
