"""Command-line surface: counting, table emission, symbol tooling, and the
verification harness.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from biparts import partitions, symbols, verify
from biparts.partitions import EnumerationCapError
from biparts.report import Fault, FaultError, Recorder

FORMATS = ("text", "json", "csv")


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

    p_cmd = sub.add_parser("p", help="print the partition count p(N)")
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
        "'firstproof.identity.lhs:7', 'euler.lhs:3' or 'jacobi.lhs:3,-1:5'; it "
        "exists to prove that the harness reports failures.  A fault that is "
        "malformed, out of range or never fires is a usage error.",
    )
    verify_cmd.add_argument("what", choices=["all", *verify.CHECKS])
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


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise argparse.ArgumentError(None, f"cannot write --out {out}: {exc.strerror}")
    else:
        sys.stdout.write(text)


def _render_records(records: list[dict], fmt: str) -> str:
    """Records -> text/csv table or JSON list; None renders as empty/null."""
    if fmt == "json":
        return json.dumps(records, indent=2) + "\n"
    if not records:
        return ""
    keys = list(records[0])
    if fmt == "csv":
        lines = [",".join(keys)]
        for record in records:
            lines.append(
                ",".join("" if record[k] is None else str(record[k]) for k in keys)
            )
        return "\n".join(lines) + "\n"
    widths = {
        k: max(len(k), *(len(str(r[k])) for r in records)) for k in keys
    }
    lines = ["  ".join(k.ljust(widths[k]) for k in keys)]
    for record in records:
        lines.append(
            "  ".join(
                ("-" if record[k] is None else str(record[k])).ljust(widths[k])
                for k in keys
            )
        )
    return "\n".join(lines) + "\n"


def _cmd_table(args) -> int:
    # one fill of each table: growing them a row at a time rebuilds the
    # recurrence offsets on every row
    p = partitions.partition_counts_upto(args.max)
    p2 = partitions.bipartition_counts_upto(args.max)
    records = []
    for n in range(args.max + 1):
        counts = symbols.class_counts(n)
        records.append(
            {
                "n": n,
                "p": p[n],
                "p2": p2[n],
                "p_half": partitions.degenerate_count(n),
                "phi_plus": counts.plus,
                "phi_minus": counts.minus,
            }
        )
    _emit(_render_records(records, args.format), args.out)
    return 0


def _cmd_symbols_enumerate(args) -> int:
    classes = symbols.enumerate_classes(args.rank, args.defect)
    records = []
    for cls in classes:
        special = symbols.is_special(cls)
        records.append(
            {
                "symbol": str(cls),
                "rank": cls.rank,
                "defect": cls.defect,
                "bipartition": str(symbols.to_bipartition(cls)),
                "special": special,
                "degree": symbols.SpecialSymbol(cls).degree if special else None,
            }
        )
    _emit(_render_records(records, args.format), args.out)
    return 0


def _cmd_symbols_family(args, parser) -> int:
    try:
        base = symbols.SpecialSymbol(symbols.Symbol.parse(args.symbol))
    except ValueError as exc:
        parser.error(str(exc))
    records = [
        {
            "subset": str(member.subset),
            "symbol": str(member.symbol),
            "defect": member.symbol.defect,
        }
        for member in base.family()
    ]
    _emit(_render_records(records, args.format), args.out)
    return 0


def _cmd_symbols_counts(args) -> int:
    counts = symbols.class_counts(args.rank)
    if args.format == "json":
        text = json.dumps({str(d): c for d, c in counts.by_defect.items()}) + "\n"
    else:
        records = [{"defect": d, "count": c} for d, c in counts.by_defect.items()]
        text = _render_records(records, args.format)
    _emit(text, args.out)
    return 0


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


def _cmd_verify(args) -> int:
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
    _emit(text, args.out)
    return 0 if all(report.passed for report in reports) else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "p":
            print(partitions.partition_count(args.n))
            return 0
        if args.command == "p2":
            print(partitions.bipartition_count(args.n))
            return 0
        if args.command == "table":
            return _cmd_table(args)
        if args.command == "symbols":
            if args.symbols_command == "enumerate":
                return _cmd_symbols_enumerate(args)
            if args.symbols_command == "family":
                return _cmd_symbols_family(args, parser)
            return _cmd_symbols_counts(args)
        return _cmd_verify(args)
    except (EnumerationCapError, FaultError, argparse.ArgumentError) as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
