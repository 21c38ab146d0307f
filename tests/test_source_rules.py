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


def test_mask_width_is_decided_in_gf2_only():
    # whether column masks fit in int64 is `gf2.mask_dtype`'s decision alone
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "gf2.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is int and node.value in (62, 63)
        ]
    assert not found, f"mask width tested outside gf2.mask_dtype: {', '.join(found)}"
