"""Run one ``biparts`` CLI invocation with spans around each layer's calls.

Usage (from the repository root)::

    PYTHONPATH=src python perfbench/tracer.py SPANS.json ARG...

runs ``biparts.cli.main(ARG...)`` in this process, exactly as
``python -m biparts.cli ARG...`` would, after wrapping the public functions
of ``kernels``, ``partitions``, ``series``, ``symbols``, ``verify`` and
``cli`` at every reference the program calls them through.  Spans and
counters stay in memory and are written to SPANS.json when the invocation
ends.  Nothing under ``src/`` is modified; the wrappers live only in this
process.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

perf = time.perf_counter

#: Count lookups: the counting layer's cache reads.  A lookup "fills" when a
#: kernel extends a table underneath it.
LOOKUPS = (
    "partition_count",
    "bipartition_count",
    "bipartition_count_convolution",
    "degenerate_count",
    "partition_counts_upto",
    "bipartition_counts_upto",
)


def _table_growth(args) -> int:
    # extend_*(table, ..., upto): entries appended = upto + 1 - len(table)
    return max(0, args[-1] + 1 - len(args[0]))


def _order_coeffs(args) -> int:
    return args[-1] + 1


def _length(result) -> int:
    return len(result)


def _bivariate_terms(result) -> int:
    return sum(len(row) for row in result.rows)


class Tracer:
    """Spans ``[name, start, end, parent, work]`` plus named counters."""

    def __init__(self, cap_error: type):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.subchecks: Counter = Counter()
        self.marks: list[tuple[str, float]] = []
        self.fills = 0
        self._lookup_depth = 0
        self._cap_error = cap_error
        self._refusals: set[int] = set()
        self._distinct: set[tuple[str, int]] = set()

    def span(self, name: str, fn, pre=None, post=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``pre(args)`` or ``post(result)`` give the call's work count (table
        entries, coefficients, items or terms).
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            record = [name, perf(), 0.0, self.stack[-1] if self.stack else -1, 0]
            if pre is not None:
                record[4] = pre(args)
            self.spans.append(record)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except self._cap_error as exc:
                if id(exc) not in self._refusals:
                    self._refusals.add(id(exc))
                    self.counts["partitions.cap_refusals"] += 1
                raise
            finally:
                self.stack.pop()
                record[2] = perf()
            if post is not None:
                record[4] = post(result)
            return result

        return wrapper

    def kernel_fill(self, name: str, fn):
        spanned = self.span(name, fn, pre=_table_growth)

        @functools.wraps(fn)
        def wrapper(*args):
            self.fills += 1
            return spanned(*args)

        return wrapper

    def lookup(self, fn):
        """Count outermost count lookups, and those that needed a fill."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._lookup_depth:
                return fn(*args, **kwargs)
            self.counts["partitions.lookups"] += 1
            fills = self.fills
            self._lookup_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._lookup_depth -= 1
                if self.fills != fills:
                    self.counts["partitions.fills"] += 1

        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def enumeration(self, name: str, fn):
        """Span an enumerator; also count items for first-seen weights."""
        spanned = self.span(name, fn, post=_length)

        @functools.wraps(fn)
        def wrapper(n, *args, **kwargs):
            result = spanned(n, *args, **kwargs)
            if (name, n) not in self._distinct:
                self._distinct.add((name, n))
                self.counts[f"{name}.distinct"] += len(result)
            return result

        return wrapper

    def check(self, name: str, fn):
        """Span a verify check and time each of its sub-checks.

        Sub-check reports carry no timing of their own, so a leaf report's
        time is the interval from the previous report (or the check's start)
        to its creation; an aggregate's time is the sum of its leaves.
        """
        spanned = self.span(f"verify.{name}", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.marks = [("", perf())]
            result = spanned(*args, **kwargs)
            leaf_times = {
                mark: at - self.marks[i][1]
                for i, (mark, at) in enumerate(self.marks[1:])
            }

            def total(report) -> float:
                if report.children:
                    seconds = sum(total(child) for child in report.children)
                else:
                    seconds = leaf_times.get(report.name, 0.0)
                self.subchecks[report.name] += seconds
                return seconds

            for child in result.children:
                total(child)
            return result

        return wrapper

    def mark(self, report) -> None:
        if not report.children:
            self.marks.append((report.name, perf()))


def _replace_everywhere(modules, original, replacement) -> None:
    """Point every module-level reference to ``original`` at ``replacement``."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer):
    """Wrap the layers' public functions; returns the wrapped ``cli.main``."""
    import dataclasses

    import biparts
    from biparts import cli, kernels, partitions, report, series, symbols, verify

    modules = (biparts, cli, kernels, partitions, report, series, symbols, verify)

    for name in ("extend_partition_table", "extend_bipartition_table", "extend_self_convolution"):
        original = getattr(kernels, name)
        _replace_everywhere(modules, original, tracer.kernel_fill(f"kernels.{name}", original))
    for name in ("mul_series", "invert_series"):
        original = getattr(kernels, name)
        _replace_everywhere(
            modules, original, tracer.span(f"kernels.{name}", original, pre=_order_coeffs)
        )
    _replace_everywhere(
        modules, kernels.fold_binomial, tracer.span("kernels.fold_binomial", kernels.fold_binomial)
    )

    for name in LOOKUPS:
        original = getattr(partitions, name)
        _replace_everywhere(modules, original, tracer.lookup(original))
    for name in ("enumerate_partitions", "enumerate_bipartitions"):
        original = getattr(partitions, name)
        _replace_everywhere(modules, original, tracer.enumeration(f"partitions.{name}", original))

    _replace_everywhere(
        modules, series.product_series, tracer.span("series.product_series", series.product_series)
    )
    TS, BS = series.TruncatedSeries, series.BivariateSeries
    TS.__mul__ = tracer.span("series.TruncatedSeries.mul", TS.__mul__)
    TS.inverse = tracer.span("series.TruncatedSeries.inverse", TS.inverse)
    BS.__mul__ = tracer.span("series.BivariateSeries.mul", BS.__mul__, post=_bivariate_terms)

    for name, post in (("enumerate_classes", _length), ("class_counts", None)):
        original = getattr(symbols, name)
        _replace_everywhere(modules, original, tracer.span(f"symbols.{name}", original, post=post))
    SS = symbols.SpecialSymbol
    SS.family = tracer.span("symbols.SpecialSymbol.family", SS.family, post=_length)
    for name in ("from_bipartition", "to_bipartition"):
        original = getattr(symbols, name)
        _replace_everywhere(modules, original, tracer.counted(f"symbols.{name}.calls", original))

    for name, check in list(verify.CHECKS.items()):
        verify.CHECKS[name] = dataclasses.replace(check, run=tracer.check(name, check.run))

    class MarkedReport(report.CheckReport):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracer.mark(self)

    _replace_everywhere(modules, report.CheckReport, MarkedReport)

    return tracer.span("cli.main", cli.main)


def table_bytes() -> int:
    """Bytes held by the shared count cache's p, p2 and convolution tables."""
    from biparts import partitions

    cache = partitions._CACHE
    return sum(
        sys.getsizeof(table) + sum(map(sys.getsizeof, table))
        for table in (cache._p, cache._p2, cache._p2conv)
    )


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    from biparts.partitions import EnumerationCapError

    tracer = Tracer(EnumerationCapError)
    traced_main = install(tracer)
    try:
        return traced_main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as handle:
            json.dump(
                {
                    "spans": tracer.spans,
                    "counts": tracer.counts,
                    "subchecks": tracer.subchecks,
                    "table_bytes": table_bytes(),
                },
                handle,
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
