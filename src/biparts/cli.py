"""Command-line surface: counting, table emission, symbol tooling, and the
verification harness.

Exit codes: 0 success, 1 verification failure, 2 usage error.

Each command imports the modules it runs when it runs, so a fresh process
loads only those: ``p`` the Rademacher series, ``p2`` the count tables
(``partitions`` and ``kernels``), ``table`` and ``symbols`` the tables and
the symbols, ``verify`` the harness (with ``report``) and the series
engine, and the symbols or the Rademacher series only for the checks that
use them.  ``json`` and ``csv`` are imported only where JSON or CSV is
written.  ``main`` imports no module for the errors it reports as usage
errors (:data:`USAGE_ERRORS`).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from itertools import chain, islice
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence, TextIO

if TYPE_CHECKING:
    from biparts.report import Fault

FORMATS = ("text", "json", "csv")

#: The names of ``verify.CHECKS``, in its order, for the ``verify`` parser
#: without importing ``verify``; a test holds the two equal.
CHECK_NAMES = (
    "euler",
    "thm1",
    "lemma22",
    "jacobi",
    "firstproof",
    "families",
    "corollary",
    "appendix",
    "congruence",
)

#: Largest N that ``biparts p N`` accepts; p(P_LIMIT) by the Rademacher
#: series takes about a minute on a 2-CPU host.
P_LIMIT = 2_000_000_000


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("bound must be nonnegative")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biparts",
        description="Exact partition/bipartition counting, q-series identity "
        "verification, and two-row symbol combinatorics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cmd = sub.add_parser("p", help="print the partition count p(N), by the Rademacher series")
    p_cmd.add_argument("n", type=int)

    p2_cmd = sub.add_parser("p2", help="print the bipartition count p2(N)")
    p2_cmd.add_argument("n", type=int)

    table_cmd = sub.add_parser(
        "table", help="emit n, p(n), p2(n), p(n/2) and the signed class counts"
    )
    table_cmd.add_argument("--max", type=_nonnegative, required=True)
    table_cmd.add_argument("--format", choices=FORMATS, default="text")
    table_cmd.add_argument("--out", metavar="FILE")

    sym_cmd = sub.add_parser("symbols", help="symbol-class tooling")
    sym_sub = sym_cmd.add_subparsers(dest="symbols_command", required=True)

    enum_cmd = sym_sub.add_parser(
        "enumerate", help="list the classes of one rank and defect"
    )
    enum_cmd.add_argument("--rank", type=_nonnegative, required=True)
    enum_cmd.add_argument("--defect", type=int, required=True)
    enum_cmd.add_argument("--format", choices=FORMATS, default="text")
    enum_cmd.add_argument("--out", metavar="FILE")

    family_cmd = sym_sub.add_parser(
        "family", help="list the family generated by a special symbol"
    )
    family_cmd.add_argument(
        "--symbol", required=True, help="symbol text, e.g. '3,1;2,0'"
    )
    family_cmd.add_argument("--format", choices=FORMATS, default="text")
    family_cmd.add_argument("--out", metavar="FILE")

    counts_cmd = sym_sub.add_parser(
        "counts", help="class counts of one rank, keyed by defect"
    )
    counts_cmd.add_argument("--rank", type=_nonnegative, required=True)
    counts_cmd.add_argument("--format", choices=FORMATS, default="json")
    counts_cmd.add_argument("--out", metavar="FILE")

    verify_cmd = sub.add_parser(
        "verify",
        help="run one named verification (or all of them)",
        epilog="--inject-fault corrupts one compared coefficient or value, e.g. "
        "'firstproof.identity.lhs:7', 'euler.lhs:3', 'jacobi.lhs:3,-1:5' or "
        "'congruence.rademacher.lhs:10000' (p at the bound); it "
        "exists to prove that the harness reports failures.  A fault that is "
        "malformed, out of range or never fires is a usage error.",
    )
    verify_cmd.add_argument("what", choices=["all", *CHECK_NAMES])
    verify_cmd.add_argument(
        "--max",
        type=_nonnegative,
        default=None,
        help="primary bound; for 'all', each check runs at min(bound, default)",
    )
    verify_cmd.add_argument("--format", choices=("text", "json"), default="text")
    verify_cmd.add_argument("--out", metavar="FILE")
    verify_cmd.add_argument("--inject-fault", metavar="TARGET:INDEX[:DELTA]")

    return parser


#: A command's exit code and the function that writes its output.
Outcome = tuple[int, Callable[[TextIO], object]]


def _emit(write: Callable[[TextIO], object], out: str | None) -> None:
    """Run ``write`` once on ``--out FILE``, else stdout: the one path by
    which output leaves the program, and the one place a failed write is met.

    A reader that closed the pipe early, as ``| head`` does, cuts the output
    short but keeps the exit code; any other failed write is a usage error.
    A failed stdout is first pointed at the null device, so that the flush
    at interpreter exit cannot fail again.
    """
    try:
        with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as handle:
            write(handle)
            handle.flush()
    except OSError as exc:
        if not out:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            where = f"--out {out}" if out else "stdout"
            raise argparse.ArgumentError(None, f"cannot write {where}: {exc.strerror}")


#: Records rendered together in a JSON or CSV listing.  A chunk's text is
#: held whole before it leaves, so a larger chunk only raises the peak: at
#: 1024 records, listings peaked 0.7-1.0 MB higher in RSS, no faster.
CHUNK = 256

#: Characters collected before a write: stdout flushes every write when
#: PYTHONUNBUFFERED is set, so record output leaves in blocks this large.
BLOCK = 1 << 16


class _Blocks:
    """A text sink that passes what it collects on to ``out`` in blocks of at
    least :data:`BLOCK` characters; :meth:`flush` writes the rest."""

    def __init__(self, out: TextIO):
        self.out = out
        self.parts: list[str] = []
        self.size = 0

    def write(self, text: str) -> None:
        self.parts.append(text)
        self.size += len(text)
        if self.size >= BLOCK:
            self.flush()

    def flush(self) -> None:
        if self.parts:
            self.out.write("".join(self.parts))
            self.parts.clear()
            self.size = 0


def _write_records(
    out: TextIO, records: Iterable[tuple], fmt: str, columns: Sequence[str]
) -> None:
    """Tuples of values in the order of ``columns`` -> JSON objects keyed by
    ``columns``, CSV rows or text table; None renders as null, empty or ``-``.

    JSON and CSV are rendered :data:`CHUNK` records at a time, byte for byte
    as ``json.dumps([dict(zip(columns, r)) for r in records], indent=2) + "\n"``
    and as ``csv.writer`` rows under a header of ``columns``, and leave in
    blocks of at least :data:`BLOCK` characters.  JSON encodes a chunk one
    column at a time; a CSV chunk of values that are all exactly ``int``
    fills one ``%d`` line template per record, and any other chunk goes
    through ``csv.writer``.  The text table renders each cell once and holds
    every rendered row, because each column but the last is padded to its
    widest rendered cell.  An empty listing is ``[]`` in JSON and the header
    line alone in CSV and text.
    """
    if fmt == "text":
        rows = [list(columns), *(["-" if v is None else str(v) for v in r] for r in records)]
        widths = [max(map(len, column)) for column in zip(*rows)]
        widths[-1] = 0  # no line ends in padding
        out.write("\n".join("  ".join(map(str.ljust, row, widths)) for row in rows) + "\n")
        return
    blocks = _Blocks(out)
    records = iter(records)
    if fmt == "csv":
        import csv

        writer = csv.writer(blocks, lineterminator="\n")
        writer.writerow(columns)
        # "%d" % v is str(v) for an exact int, but "1" for True, which csv
        # prints as True, so a chunk takes the template only if all are ints
        line = ",".join(["%d"] * len(columns)) + "\n"
        while chunk := list(islice(records, CHUNK)):
            if set(map(type, chain.from_iterable(chunk))) == {int}:
                blocks.write("".join(map(line.__mod__, chunk)))
            else:
                writer.writerows(chunk)
    else:
        import json

        # encodes a column as [v1,\n    v2,\n    v3]: its values in the layout
        # of an entry of json.dumps(records, indent=2), encoded in C, since
        # json does so only without indent.  An encoded value holds no raw
        # newline, so splitting on ',\n    ' gives the values.
        encode = json.JSONEncoder(separators=(",\n    ", ": ")).encode
        # one '"key": %s' slot per column, filled with each record's values
        template = ",\n    ".join(encode(key).replace("%", "%%") + ": %s" for key in columns)
        opening, closing = "[\n  {\n    ", "[]\n"
        while chunk := list(islice(records, CHUNK)):
            values = [encode(column)[1:-1].split(",\n    ") for column in zip(*chunk)]
            blocks.write(opening + "\n  },\n  {\n    ".join(map(template.__mod__, zip(*values))))
            opening, closing = "\n  },\n  {\n    ", "\n  }\n]\n"
        blocks.write(closing)
    blocks.flush()


def _records(records: Iterable[tuple], fmt: str, columns: Sequence[str]) -> Outcome:
    return 0, lambda out: _write_records(out, records, fmt, columns)


#: Each listing's header: its records are tuples of values in this order,
#: and its JSON objects are keyed by these names.
TABLE_COLUMNS = ("n", "p", "p2", "p_half", "phi_plus", "phi_minus")
CLASS_COLUMNS = ("symbol", "rank", "defect", "bipartition", "special", "degree")
MEMBER_COLUMNS = ("subset", "symbol", "defect")
COUNT_COLUMNS = ("defect", "count")


def _table_records(bound: int) -> Iterator[tuple]:
    from biparts import partitions, symbols

    p = partitions.partition_counts_upto(bound)
    p2 = partitions.bipartition_counts_upto(bound)
    phi_plus, phi_minus = symbols.class_count_columns(p2)
    # p(n/2) at even n, 0 at odd n, as partitions.degenerate_count reads it
    p_half = [0] * (bound + 1)
    p_half[::2] = p[: bound // 2 + 1]
    yield from zip(range(bound + 1), p, p2, p_half, phi_plus, phi_minus)


def _class_records(classes: Iterable, rank: int, defect: int) -> Iterator[tuple]:
    """The records of ``classes``, all of the given rank and defect.

    The staircase map acts on each row by itself: a symbol row less its own
    staircase, zeros dropped, is its bipartition row.  So one dict local to
    the call maps each symbol row to its text and the text of its
    bipartition row, and :func:`symbols.to_bipartition` runs only for a
    class with a row not yet in it.  Rows recur mostly among the classes of
    one weight of the bipartition's top row, which
    :func:`symbols.iter_classes` lists together, so the dict is emptied
    whenever that weight changes, to keep its memory small: for rank 22,
    defect 2 it holds at most 813 rows, and 12 569 of the 35 002 classes
    run the map.  Any order of ``classes`` gives the same records.  Only a
    class of defect 0 can be special.
    """
    from biparts import symbols
    from biparts.partitions import _format_row

    rows: dict[tuple[int, ...], tuple[str, str]] = {}
    top_weight = None
    special, degree = False, None
    for cls in classes:
        if not defect:
            special = symbols.is_special(cls)
            # SpecialSymbol(cls).degree, the count of top-row entries missing
            # from the bottom row, without testing cls a second time
            degree = len(set(cls.top).difference(cls.bottom)) if special else None
        top, bottom = cls.top, cls.bottom
        m = len(top)
        weight = sum(top) - m * (m - 1) // 2
        if weight != top_weight:
            rows.clear()
            top_weight = weight
        if top not in rows or bottom not in rows:
            image = symbols.to_bipartition(cls)
            if top not in rows:
                rows[top] = (_format_row(top), _format_row(image.top.parts))
            if bottom not in rows:
                rows[bottom] = (_format_row(bottom), _format_row(image.bottom.parts))
        (top_text, top_image), (bottom_text, bottom_image) = rows[top], rows[bottom]
        bipartition = f"{top_image}|{bottom_image}"
        yield f"{top_text};{bottom_text}", rank, defect, bipartition, special, degree


def _cmd_symbols_enumerate(args) -> Outcome:
    from biparts import symbols

    # iter_classes refuses past the cap before anything is written
    classes = symbols.iter_classes(args.rank, args.defect)
    return _records(_class_records(classes, args.rank, args.defect), args.format, CLASS_COLUMNS)


def _cmd_symbols_family(args) -> Outcome:
    from biparts import symbols

    try:
        base = symbols.SpecialSymbol(symbols.Symbol.parse(args.symbol))
    except ValueError as exc:
        raise argparse.ArgumentError(None, str(exc))
    # iter_family refuses past the cap before anything is written
    records = ((str(m.subset), str(m.symbol), m.symbol.defect) for m in base.iter_family())
    return _records(records, args.format, MEMBER_COLUMNS)


def _cmd_symbols_counts(args) -> Outcome:
    from biparts import symbols

    counts = symbols.class_counts(args.rank)
    if args.format == "json":
        import json

        text = json.dumps({str(d): c for d, c in counts.items()}) + "\n"
        return 0, lambda out: out.write(text)
    return _records(counts.items(), args.format, COUNT_COLUMNS)


def _parse_fault(spec: str) -> Fault:
    """``TARGET:INDEX[:DELTA]``, INDEX being ``n`` or ``q,z``."""
    from biparts.report import Fault, FaultError

    target, _, rest = spec.partition(":")
    index_text, _, delta_text = rest.partition(":")
    try:
        location = tuple(int(part) for part in index_text.split(","))
        if len(location) in (1, 2):
            return Fault(target, location, int(delta_text or 1))
    except ValueError:
        pass
    raise FaultError(f"malformed --inject-fault spec: {spec!r}")


def _cmd_verify(args) -> Outcome:
    from biparts import verify
    from biparts.report import FaultError, Recorder

    recorder = Recorder(_parse_fault(args.inject_fault) if args.inject_fault else None)
    if args.what == "all":
        reports = verify.run_all(args.max, recorder)
    else:
        reports = [verify.run_check(args.what, args.max, recorder)]
    if recorder.fault is not None and not recorder.fired:
        raise FaultError(
            f"--inject-fault {args.inject_fault!r} never fired: "
            "no comparison that ran taps that target and location"
        )
    if args.format == "json":
        import json

        text = json.dumps([report.to_dict() for report in reports], indent=2) + "\n"
    else:
        # each report is rendered in full before any of it is written, so
        # concurrent producers could never interleave their lines
        text = "\n".join(report.render() for report in reports) + "\n"
    code = 0 if all(report.passed for report in reports) else 1
    return code, lambda out: out.write(text)


def _run(args) -> Outcome:
    if args.command == "p":
        if args.n > P_LIMIT:
            raise argparse.ArgumentError(None, f"p({args.n}) exceeds the limit {P_LIMIT}")
        # str(int) refuses past 4300 digits, p(n) for n past about 1.5e7;
        # Decimal prints any int exactly and leaves that global limit alone
        from decimal import Decimal

        from biparts import rademacher

        count = Decimal(rademacher.partition_count(args.n))
        return 0, lambda out: print(count, file=out)
    if args.command == "p2":
        from biparts import partitions

        count = partitions.bipartition_count(args.n)
        return 0, lambda out: print(count, file=out)
    if args.command == "table":
        return _records(_table_records(args.max), args.format, TABLE_COLUMNS)
    if args.command == "symbols":
        if args.symbols_command == "enumerate":
            return _cmd_symbols_enumerate(args)
        if args.symbols_command == "family":
            return _cmd_symbols_family(args)
        return _cmd_symbols_counts(args)
    return _cmd_verify(args)


#: The errors that ``main`` reports as a usage error besides
#: ``argparse.ArgumentError``, as (module, class name): a refusal past the
#: enumeration cap and a malformed, out-of-range or unfired fault.
USAGE_ERRORS = (("biparts.partitions", "EnumerationCapError"), ("biparts.report", "FaultError"))


def _is_usage_error(exc: Exception) -> bool:
    """Whether ``main`` reports ``exc`` as a usage error.  A class of a module
    that this run never loaded cannot have been raised, so the modules are
    looked up in ``sys.modules`` and never imported here."""
    return isinstance(exc, argparse.ArgumentError) or any(
        module in sys.modules and isinstance(exc, getattr(sys.modules[module], name))
        for module, name in USAGE_ERRORS
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code, write = _run(args)
        _emit(write, getattr(args, "out", None))
    except Exception as exc:
        if not _is_usage_error(exc):
            raise
        parser.error(str(exc))
    return code


if __name__ == "__main__":
    sys.exit(main())
