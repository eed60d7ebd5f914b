"""Command-line surface: counting, table emission, symbol tooling, and the
verification harness.

Exit codes: 0 success, 1 verification failure, 2 usage error.

Each command imports the modules it runs when it runs, so a fresh process
loads only those: ``p`` the Rademacher series, ``p2`` the count tables,
``table`` and ``symbols`` the tables and the symbols, ``verify`` everything.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from biparts.partitions import EnumerationCapError
from biparts.report import Fault, FaultError, Recorder

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


#: The body of one flat record's entry in ``json.dumps(records, indent=2)``
#: is ``_encode_record(record)[1:-1]``; without ``indent`` json encodes in C.
_encode_record = json.JSONEncoder(separators=(",\n    ", ": ")).encode

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

    JSON and CSV are rendered one record at a time, byte for byte as
    ``json.dumps([dict(zip(columns, r)) for r in records], indent=2) + "\n"``
    and as ``csv.writer`` rows under a header of ``columns``, and leave in
    blocks of at least :data:`BLOCK` characters.  The text table renders
    each cell once and holds every rendered row, because each column but
    the last is padded to its widest rendered cell.  An empty listing is
    ``[]`` in JSON and the header line alone in CSV and text.
    """
    if fmt == "text":
        rows = [list(columns), *(["-" if v is None else str(v) for v in r] for r in records)]
        widths = [max(map(len, column)) for column in zip(*rows)]
        widths[-1] = 0  # no line ends in padding
        out.write("\n".join("  ".join(map(str.ljust, row, widths)) for row in rows) + "\n")
        return
    blocks = _Blocks(out)
    if fmt == "csv":
        writer = csv.writer(blocks, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(records)
    else:
        opening, closing = "[\n  {\n    ", "[]\n"
        for record in records:
            blocks.write(opening + _encode_record(dict(zip(columns, record)))[1:-1])
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
    for n in range(bound + 1):
        yield n, p[n], p2[n], partitions.degenerate_count(n), phi_plus[n], phi_minus[n]


def _class_records(classes: Iterable) -> Iterator[tuple]:
    from biparts import symbols

    for cls in classes:
        special = symbols.is_special(cls)
        degree = symbols.SpecialSymbol(cls).degree if special else None
        yield str(cls), cls.rank, cls.defect, str(symbols.to_bipartition(cls)), special, degree


def _cmd_symbols_enumerate(args) -> Outcome:
    from biparts import symbols

    # iter_classes refuses past the cap before anything is written
    classes = symbols.iter_classes(args.rank, args.defect)
    return _records(_class_records(classes), args.format, CLASS_COLUMNS)


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
        text = json.dumps({str(d): c for d, c in counts.items()}) + "\n"
        return 0, lambda out: out.write(text)
    return _records(counts.items(), args.format, COUNT_COLUMNS)


def _parse_fault(spec: str) -> Fault:
    """``TARGET:INDEX[:DELTA]``, INDEX being ``n`` or ``q,z``."""
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


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code, write = _run(args)
        _emit(write, getattr(args, "out", None))
    except (EnumerationCapError, FaultError, argparse.ArgumentError) as exc:
        parser.error(str(exc))
    return code


if __name__ == "__main__":
    sys.exit(main())
