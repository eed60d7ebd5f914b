"""The layers import downward, and every verification check lives in verify."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "biparts"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def biparts_imports(tree: ast.Module) -> set[str]:
    """The names a module imports from the biparts package: its modules,
    or the package itself as ``biparts``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, tail = alias.name.partition(".")
                if head == "biparts":
                    found.add(tail.partition(".")[0] or head)
        elif isinstance(node, ast.ImportFrom) and node.module:
            head, _, tail = node.module.partition(".")
            if node.module == "biparts":
                found.update(alias.name for alias in node.names)
            elif head == "biparts":
                found.add(tail.partition(".")[0])
    return found


def check_calls(tree: ast.Module) -> list[str]:
    """The ``<x>.compare(...)`` and ``combine(...)`` calls of a module."""
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in ("compare", "combine"):
                calls.append(ast.unparse(func))
    return calls


@pytest.mark.parametrize(("module", "allowed"), [("series", "kernels"), ("symbols", "partitions")])
def test_engine_imports_one_layer_below(module, allowed):
    assert biparts_imports(parse(SRC / f"{module}.py")) == {allowed}


def test_only_verify_compares_and_combines():
    # report defines both; every other module leaves the checks to verify
    callers = {
        path.name: check_calls(parse(path))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "report.py"
    }
    assert {name for name, calls in callers.items() if calls} == {"verify.py"}


def test_export_list_matches_the_imports():
    import biparts

    assert [name for name in biparts.__all__ if not hasattr(biparts, name)] == []
    imported = {
        alias.asname or alias.name
        for node in parse(SRC / "__init__.py").body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert {name for name in imported if not name.startswith("_")} <= set(biparts.__all__)
