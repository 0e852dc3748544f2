"""Rules the package source keeps, checked by parsing it."""

import ast
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
