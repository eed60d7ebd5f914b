"""The layers import downward, every verification check lives in verify, and
each command loads only the modules it runs."""

from __future__ import annotations

import ast
import subprocess
import sys
from importlib import import_module
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


def loaded_modules(code: str, *argv: str) -> list[str]:
    """The ``biparts*``, ``dataclasses``, ``json*`` and ``csv`` modules a
    fresh process has loaded after running ``code`` with arguments ``argv``."""
    prefixes = ("biparts", "dataclasses", "json", "csv")
    probe = f"\nprint(*sorted(m for m in sys.modules if m.startswith({prefixes!r})))"
    argv = [sys.executable, "-c", f"import sys\n{code}{probe}", *argv]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    return proc.stdout.split()


#: The package's public names, in the order of ``biparts.__all__``.
PUBLIC_NAMES = [
    "Bipartition",
    "BivariateSeries",
    "CountCache",
    "EnumerationCapError",
    "FamilyMember",
    "OrderMismatchError",
    "Partition",
    "SpecialSymbol",
    "Symbol",
    "SymbolClass",
    "TruncatedSeries",
    "bipartition_count",
    "bipartition_count_convolution",
    "class_counts",
    "count_distinct_parts",
    "count_odd_parts",
    "degenerate_count",
    "enumerate_bipartitions",
    "enumerate_classes",
    "enumerate_partitions",
    "from_bipartition",
    "is_special",
    "partition_count",
    "partition_count_rademacher",
    "product_series",
    "rogers_ramanujan_c",
    "theta_alternating",
    "to_bipartition",
    "__version__",
]


def test_export_list_matches_the_imports():
    import biparts

    assert biparts.__all__ == PUBLIC_NAMES
    for name, (module, attribute) in biparts._EXPORTS.items():
        assert getattr(biparts, name) is getattr(import_module(f"biparts.{module}"), attribute), name
    with pytest.raises(AttributeError, match="no_such_name"):
        biparts.no_such_name
    # the names load lazily: the package alone imports no submodule, and its
    # dir() lists every name before any is loaded
    assert loaded_modules("import biparts\nassert {*biparts.__all__} <= {*dir(biparts)}") == ["biparts"]


#: Runs ``cli.main`` on the command line in ``sys.argv[1:]``, if any, with
#: its output discarded.
STARTUP_DRIVER = """
import contextlib, io
from biparts import cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(sys.argv[1:]) == 0
"""

#: The verify harness, the series engine and dataclasses (which imports
#: inspect, ast, dis and tokenize) are loaded only by the commands that run them.
HEAVY = {"biparts.verify", "biparts.series", "dataclasses"}

#: The writers of JSON and CSV output, loaded only by the commands that write them.
WRITERS = {"json", "csv"}

#: The count tables and the verify harness's recorder, which ``cli`` imports
#: only in the commands that use them.
TABLES = {"biparts.partitions", "biparts.kernels"}
REPORT = {"biparts.report"}

#: command line -> (modules it must load, modules it must not load)
STARTUP = {
    "": ({"biparts.cli"}, HEAVY | WRITERS | TABLES | REPORT | {"biparts.symbols"}),
    "p 5": ({"biparts.rademacher"}, HEAVY | WRITERS | TABLES | REPORT | {"biparts.symbols"}),
    "p2 5": (TABLES, HEAVY | WRITERS | REPORT | {"biparts.symbols", "biparts.rademacher"}),
    "table --max 3": ({"biparts.symbols"}, HEAVY | WRITERS | REPORT | {"biparts.rademacher"}),
    "table --max 3 --format csv": (
        {"biparts.symbols", "csv"},
        HEAVY | REPORT | {"biparts.rademacher", "json"},
    ),
    "symbols enumerate --rank 4 --defect 2": (
        {"biparts.symbols"},
        HEAVY | WRITERS | REPORT | {"biparts.rademacher"},
    ),
    "verify euler --max 3": ({"biparts.verify", "biparts.series", *REPORT}, WRITERS),
    # verify imports the symbols and the Rademacher series only in the checks
    # that use them
    "verify lemma22 --max 1": (
        {"biparts.verify", "biparts.series"},
        {"biparts.symbols", "biparts.rademacher"},
    ),
    "verify families --max 1": ({"biparts.symbols"}, {"biparts.rademacher"}),
    "verify congruence --max 5": ({"biparts.rademacher"}, {"biparts.symbols"}),
}


@pytest.mark.parametrize(("line", "expected"), STARTUP.items(), ids=[line or "import" for line in STARTUP])
def test_command_loads_only_what_it_runs(line, expected):
    must, must_not = expected
    loaded = set(loaded_modules(STARTUP_DRIVER, *line.split()))
    assert must <= loaded
    assert loaded & must_not == set()
