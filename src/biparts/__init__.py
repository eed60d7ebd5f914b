"""Exact partition and bipartition counting, truncated q-series identity
verification, and two-row symbol combinatorics.

The exported names load lazily (PEP 562): ``import biparts`` imports no
submodule, and the first access to a name imports the submodule it lives in.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each exported name -> (submodule, attribute there).
_EXPORTS = {
    name: (module, name)
    for module, names in (
        (
            "partitions",
            (
                "Bipartition",
                "CountCache",
                "EnumerationCapError",
                "Partition",
                "bipartition_count",
                "bipartition_count_convolution",
                "count_distinct_parts",
                "count_odd_parts",
                "degenerate_count",
                "enumerate_bipartitions",
                "enumerate_partitions",
                "partition_count",
            ),
        ),
        (
            "series",
            (
                "BivariateSeries",
                "OrderMismatchError",
                "TruncatedSeries",
                "product_series",
                "rogers_ramanujan_c",
                "theta_alternating",
            ),
        ),
        (
            "symbols",
            (
                "FamilyMember",
                "SpecialSymbol",
                "Symbol",
                "SymbolClass",
                "class_counts",
                "enumerate_classes",
                "from_bipartition",
                "is_special",
                "to_bipartition",
            ),
        ),
    )
    for name in names
}
_EXPORTS["partition_count_rademacher"] = ("rademacher", "partition_count")

__all__ = [*sorted(_EXPORTS), "__version__"]


def __getattr__(name: str):
    try:
        module, attribute = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), attribute)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
