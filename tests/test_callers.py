"""No module-level definition in the package is left without a caller."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "satake"


def _names(node: ast.AST) -> set[str]:
    """Every name ``node`` reads or imports, an attribute's included."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def test_each_definition_is_public_or_named_elsewhere():
    # a function or class in no __all__ needs a caller in the package
    # outside its own body; a helper only tests call belongs in the tests
    statements = []  # (module, top-level statement, the names it reads)
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            statements.append((path.stem, stmt, _names(stmt)))
    unused = [
        f"{module}.{stmt.name}"
        for module, stmt, _ in statements
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name not in getattr(importlib.import_module(f"satake.{module}"), "__all__", ())
        and not any(stmt.name in names for _, other, names in statements if other is not stmt)
    ]
    assert unused == []
