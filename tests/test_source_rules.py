"""Rules the package source keeps, checked on its syntax tree.

Runtime checks must survive ``python -O``, which strips ``assert``
statements, so the package raises explicit exceptions instead.
"""
import ast
from pathlib import Path

import ncsa

PACKAGE = Path(ncsa.__file__).resolve().parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements vanish under python -O: {', '.join(found)}"
