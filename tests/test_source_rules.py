"""Rules the package source keeps, checked by parsing it."""

import ast
import re
from pathlib import Path

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
