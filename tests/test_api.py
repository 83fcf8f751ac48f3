"""The public API: ewkit.__all__ lists exactly the names __init__ imports."""

import ast
from pathlib import Path

import ewkit


def _imported_public_names() -> list[str]:
    tree = ast.parse(Path(ewkit.__file__).read_text(encoding="utf-8"))
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names if not (alias.asname or alias.name).startswith("_")]


def test_every_exported_name_resolves():
    missing = [name for name in ewkit.__all__ if not hasattr(ewkit, name)]
    assert missing == []


def test_no_name_is_exported_twice():
    assert len(set(ewkit.__all__)) == len(ewkit.__all__)


def test_exports_are_the_imported_public_names():
    assert sorted(ewkit.__all__) == sorted(_imported_public_names())
