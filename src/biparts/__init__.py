"""Exact partition and bipartition counting, truncated q-series identity
verification, and two-row symbol combinatorics."""

from biparts.partitions import (
    Bipartition,
    CountCache,
    EnumerationCapError,
    Partition,
    bipartition_count,
    bipartition_count_convolution,
    count_distinct_parts,
    count_odd_parts,
    degenerate_count,
    enumerate_bipartitions,
    enumerate_partitions,
    partition_count,
)
from biparts.rademacher import partition_count as partition_count_rademacher
from biparts.series import (
    BivariateSeries,
    OrderMismatchError,
    TruncatedSeries,
    product_series,
    rogers_ramanujan_c,
    theta_alternating,
)
from biparts.symbols import (
    FamilyMember,
    SpecialSymbol,
    Symbol,
    SymbolClass,
    class_counts,
    enumerate_classes,
    from_bipartition,
    is_special,
    to_bipartition,
)

__version__ = "0.1.0"

__all__ = [
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
