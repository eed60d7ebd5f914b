"""Command-line behavior: output formats, exit codes, fault injection."""

from __future__ import annotations

import csv
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import zip_longest

import pytest

from biparts import partitions, symbols, verify
from biparts.cli import (
    BLOCK,
    CLASS_COLUMNS,
    MEMBER_COLUMNS,
    P_LIMIT,
    TABLE_COLUMNS,
    _build_parser,
    _write_records,
    main,
)
from biparts.report import Recorder


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_cli_expect_usage_error(*argv):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == 2


class _Discard(io.TextIOBase):
    """A text stream that drops whatever is written to it."""

    def write(self, text):
        return len(text)


def traced_peak(monkeypatch, *argv) -> int:
    """Peak traced allocation, in bytes, of ``main(argv)`` writing to a
    stdout that keeps nothing."""
    monkeypatch.setattr(sys, "stdout", _Discard())
    tracemalloc.start()
    try:
        assert main(list(argv)) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


RECORDS = {
    "none": ((), ("n", "p")),
    "one": (((0, 1),), ("n", "p")),
    "mixed": (
        (
            ("3,1;2,0", True, 2, 'a "quote"'),
            ("2;2", False, None, "Lusztig, étale ∞"),
            ("-;-", True, 10**40, ""),
        ),
        ("symbol", "special", "degree", "note"),
    ),
    # values that hold the JSON separators, and keys that hold "%"
    "separators": (
        (("a, b", "two\nlines", ",\n    ", 'x": 1, "y'),),
        ("comma", "newline", "indent", "100%s %"),
    ),
    # values that hold the record separator of a batch and its brackets
    "brackets": (
        (("a],", "[b", "],\n    [", "]]"), ("[[", "],[", '"],', "x")),
        ("close", "open", "split", "ends"),
    ),
    # past one block and one batch of records, so the output leaves in more
    # than one write
    "blocks": (
        tuple((n, "x" * 100) for n in range(2000)),
        ("n", "text"),
    ),
}


@pytest.mark.parametrize("records, columns", RECORDS.values(), ids=RECORDS)
def test_streamed_records_match_one_shot_rendering(records, columns):
    as_json, as_csv, one_shot_csv = io.StringIO(), io.StringIO(), io.StringIO()
    _write_records(as_json, iter(records), "json", columns)
    _write_records(as_csv, iter(records), "csv", columns)
    writer = csv.writer(one_shot_csv, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(records)
    expected_json = json.dumps([dict(zip(columns, r)) for r in records], indent=2) + "\n"
    assert_same_lines(as_json.getvalue(), expected_json)
    assert_same_lines(as_csv.getvalue(), one_shot_csv.getvalue())


def assert_same_lines(text: str, expected: str) -> None:
    """``text == expected``, failing at the first differing line: pytest's
    own diff of two long strings runs for minutes."""
    lines = zip_longest(text.split("\n"), expected.split("\n"))
    for number, (line, expected_line) in enumerate(lines, 1):
        assert line == expected_line, f"line {number} differs"


def _reference_class_records(rank: int, defect: int) -> list[tuple]:
    """Each class's record built from the class alone, every value by the
    public API, with no text shared between records."""
    records = []
    for cls in symbols.enumerate_classes(rank, defect):
        special = symbols.is_special(cls)
        degree = symbols.SpecialSymbol(cls).degree if special else None
        records.append(
            (str(cls), cls.rank, cls.defect, str(symbols.to_bipartition(cls)), special, degree)
        )
    return records


def _reference_rendering(records: list[tuple], fmt: str) -> str:
    if fmt == "json":
        return json.dumps([dict(zip(CLASS_COLUMNS, r)) for r in records], indent=2) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CLASS_COLUMNS)
        writer.writerows(records)
        return out.getvalue()
    rows = [CLASS_COLUMNS, *(["-" if v is None else str(v) for v in r] for r in records)]
    widths = [max(len(row[i]) for row in rows) for i in range(len(CLASS_COLUMNS))]
    lines = ("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("rank", range(11))
def test_class_listing_matches_the_reference_rendering(capsys, rank):
    # odd defects and empty listings (rank 1, defect 3; rank 0, defect 6) too
    for defect in range(-6, 7):
        records = _reference_class_records(rank, defect)
        for fmt in ("json", "csv", "text"):
            argv = ["--rank", str(rank), "--defect", str(defect), "--format", fmt]
            code, out = run_cli(capsys, "symbols", "enumerate", *argv)
            assert code == 0
            assert out == _reference_rendering(records, fmt), (defect, fmt)


def test_class_listing_tests_each_class_once_for_specialness(capsys, monkeypatch):
    tested = []
    is_special = symbols.is_special
    monkeypatch.setattr(symbols, "is_special", lambda s: tested.append(s) or is_special(s))
    code, out = run_cli(capsys, "symbols", "enumerate", "--rank", "12", "--defect", "0", "--format", "csv")
    assert code == 0
    # one record per class, the header aside, and one test per class
    assert len(tested) == len(out.splitlines()) - 1 == partitions.bipartition_count(12)
    assert len(set(tested)) == len(tested)


@pytest.mark.parametrize("rank, defect", [(12, 0), (12, 2), (13, -4), (22, 2)])
def test_class_columns_are_the_class_own_values(capsys, rank, defect):
    # the listing takes rank and defect from the request and tests only
    # defect 0 for specialness; each record must still state its class
    code, out = run_cli(
        capsys, "symbols", "enumerate", "--rank", str(rank), "--defect", str(defect), "--format", "json"
    )
    assert code == 0
    records = json.loads(out)
    assert len(records) == partitions.bipartition_count(rank - symbols.defect_offset(defect))
    for record in records:
        cls = symbols.SymbolClass.parse(record["symbol"])
        special = symbols.is_special(cls)
        degree = symbols.SpecialSymbol(cls).degree if special else None
        assert (record["rank"], record["defect"]) == (cls.rank, cls.defect)
        assert (record["special"], record["degree"]) == (special, degree)


def test_table_p_half_is_the_degenerate_count(capsys):
    code, out = run_cli(capsys, "table", "--max", "500", "--format", "json")
    assert code == 0
    assert [row["p_half"] for row in json.loads(out)] == [
        partitions.degenerate_count(n) for n in range(501)
    ]


def test_text_columns_are_as_wide_as_their_rendered_cells():
    # None renders as "-", so column a is one character wide, not four
    out = io.StringIO()
    _write_records(out, iter([(None, 1), (None, 22)]), "text", ("a", "b"))
    assert out.getvalue() == "a  b\n-  1\n-  22\n"


@pytest.mark.parametrize(
    "fmt, expected",
    [
        ("json", "[]\n"),
        ("csv", "symbol,rank,defect,bipartition,special,degree\n"),
        ("text", "symbol  rank  defect  bipartition  special  degree\n"),
    ],
)
def test_empty_listing_prints_its_header(capsys, fmt, expected):
    # defect -3 has odd parity: rank 1 has no class of it
    code, out = run_cli(capsys, "symbols", "enumerate", "--rank", "1", "--defect", "-3", "--format", fmt)
    assert code == 0
    assert out == expected


def test_record_keys_are_the_column_names(capsys):
    for argv, columns in [
        (("table", "--max", "3"), TABLE_COLUMNS),
        (("symbols", "enumerate", "--rank", "4", "--defect", "2"), CLASS_COLUMNS),
        (("symbols", "family", "--symbol", "3,1;2,0"), MEMBER_COLUMNS),
    ]:
        code, out = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert {tuple(record) for record in json.loads(out)} == {columns}, argv


class _CountingWrites(_Discard):
    """A text stream that counts its writes and the characters written."""

    def __init__(self):
        self.writes = 0
        self.chars = 0

    def write(self, text):
        self.writes += 1
        self.chars += len(text)
        return len(text)


@pytest.mark.parametrize(
    "argv",
    [
        ("symbols", "enumerate", "--rank", "22", "--defect", "2", "--format", "json"),
        ("table", "--max", "6000", "--format", "csv"),
    ],
    ids=["enumerate-json", "table-csv"],
)
def test_records_leave_in_blocks(monkeypatch, argv):
    # a stdout that flushes every write (PYTHONUNBUFFERED) sees one write per
    # block, not one or two per record
    out = _CountingWrites()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(list(argv)) == 0
    assert out.chars > 4 * BLOCK
    assert out.writes <= -(-out.chars // BLOCK) + 2


class TestCounting:
    def test_p2_example(self, capsys):
        code, out = run_cli(capsys, "p2", "4")
        assert code == 0
        assert out == "20\n"

    def test_p(self, capsys):
        code, out = run_cli(capsys, "p", "100")
        assert code == 0
        assert out == "190569292\n"

    def test_negative_argument_prints_zero(self, capsys):
        code, out = run_cli(capsys, "p", "-3")
        assert (code, out) == (0, "0\n")
        code, out = run_cli(capsys, "p2", "-1")
        assert (code, out) == (0, "0\n")


class TestTable:
    def test_text_rows(self, capsys):
        code, out = run_cli(capsys, "table", "--max", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["n", "p", "p2", "p_half", "phi_plus", "phi_minus"]
        assert lines[1].split() == ["0", "1", "1", "1", "1", "0"]
        assert lines[3].split() == ["2", "2", "5", "1", "5", "4"]
        assert lines[5].split() == ["4", "5", "20", "2", "22", "20"]

    def test_csv_header(self, capsys):
        code, out = run_cli(capsys, "table", "--max", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "n,p,p2,p_half,phi_plus,phi_minus"

    def test_json_round_trip(self, capsys):
        code, out = run_cli(capsys, "table", "--max", "30", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        for row in rows:
            n = row["n"]
            by_defect = symbols.class_counts(n)
            assert row["p"] == partitions.partition_count(n)
            assert row["p2"] == partitions.bipartition_count(n)
            assert row["p_half"] == partitions.degenerate_count(n)
            assert row["phi_plus"] == sum(c for d, c in by_defect.items() if d % 4 == 0)
            assert row["phi_minus"] == sum(c for d, c in by_defect.items() if d % 4 == 2)

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out = run_cli(
            capsys, "table", "--max", "1", "--format", "csv", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text().splitlines()[1] == "0,1,1,1,1,0"

    def test_negative_bound_rejected(self):
        run_cli_expect_usage_error("table", "--max", "-1")


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--max", "30"),
        ("symbols", "enumerate", "--rank", "6", "--defect", "2"),
        ("symbols", "enumerate", "--rank", "4", "--defect", "0"),
        ("symbols", "family", "--symbol", "3,1;2,0"),
        ("symbols", "counts", "--rank", "4"),
    ],
    ids=["table", "enumerate-defect2", "enumerate-defect0", "family", "counts"],
)
def test_text_lines_end_without_padding(capsys, argv):
    code, out = run_cli(capsys, *argv, "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) > 2
    assert [line for line in lines if line.endswith(" ")] == []
    # the columns before the last are still padded: it starts at one offset
    assert len({len(line) - len(line.split()[-1]) for line in lines}) == 1


class TestSymbolsCommands:
    def test_counts_json(self, capsys):
        code, out = run_cli(capsys, "symbols", "counts", "--rank", "4")
        assert code == 0
        assert json.loads(out) == {"0": 20, "2": 10, "-2": 10, "4": 1, "-4": 1}

    def test_counts_csv(self, capsys):
        code, out = run_cli(capsys, "symbols", "counts", "--rank", "4", "--format", "csv")
        assert code == 0
        assert out == "defect,count\n0,20\n2,10\n-2,10\n4,1\n-4,1\n"

    def test_counts_text(self, capsys):
        code, out = run_cli(capsys, "symbols", "counts", "--rank", "4", "--format", "text")
        assert code == 0
        assert [line.split() for line in out.splitlines()] == [
            ["defect", "count"], ["0", "20"], ["2", "10"], ["-2", "10"], ["4", "1"], ["-4", "1"]
        ]

    def test_enumerate_json_records(self, capsys):
        code, out = run_cli(
            capsys,
            "symbols", "enumerate", "--rank", "4", "--defect", "2",
            "--format", "json",
        )
        assert code == 0
        records = json.loads(out)
        assert len(records) == 10
        by_symbol = {r["symbol"]: r for r in records}
        assert by_symbol["4,0;-"]["rank"] == 4
        assert by_symbol["4,0;-"]["defect"] == 2
        assert by_symbol["4,0;-"]["bipartition"] == "3|-"
        assert all(r["special"] is False for r in records)

    def test_enumerate_marks_specials(self, capsys):
        code, out = run_cli(
            capsys,
            "symbols", "enumerate", "--rank", "4", "--defect", "0",
            "--format", "json",
        )
        records = json.loads(out)
        specials = {r["symbol"]: r["degree"] for r in records if r["special"]}
        assert len(specials) == 9
        assert specials["3,1;2,0"] == 2
        assert specials["2;2"] == 0

    def test_family_members(self, capsys):
        code, out = run_cli(
            capsys, "symbols", "family", "--symbol", "3,1;2,0", "--format", "json"
        )
        assert code == 0
        records = json.loads(out)
        assert len(records) == 16
        assert {"subset": "3;-", "symbol": "1;3,2,0", "defect": -2} in records

    def test_family_of_the_empty_symbol(self, capsys):
        # "-;-" starts with "-", so argparse needs it joined to its option
        code, out = run_cli(capsys, "symbols", "family", "--symbol=-;-", "--format", "json")
        assert code == 0
        assert json.loads(out) == [{"subset": "-;-", "symbol": "-;-", "defect": 0}]

    @pytest.mark.parametrize(
        "argv, columns",
        [
            (("enumerate", "--rank", "4", "--defect", "0"), ("symbol", "bipartition")),
            (("family", "--symbol", "3,1;2,0"), ("subset", "symbol")),
        ],
    )
    def test_csv_matches_json(self, capsys, argv, columns):
        # symbols and bipartitions contain commas, so their fields are quoted
        _, as_json = run_cli(capsys, "symbols", *argv, "--format", "json")
        code, as_csv = run_cli(capsys, "symbols", *argv, "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(as_csv)))
        records = json.loads(as_json)
        assert all(None not in row for row in rows)
        assert [[row[c] for c in columns] for row in rows] == [
            [record[c] for c in columns] for record in records
        ]

    def test_family_past_the_cap_is_usage_error(self, capsys):
        # degree 13: 4^13 members, past the 10^7-item cap
        top = ",".join(map(str, range(25, 0, -2)))
        bottom = ",".join(map(str, range(24, -1, -2)))
        run_cli_expect_usage_error("symbols", "family", "--symbol", f"{top};{bottom}")
        err = capsys.readouterr().err.splitlines()
        assert "enumeration cap" in err[-1] and "Traceback" not in err

    def test_enumerate_past_the_cap_writes_nothing(self, capsys, tmp_path):
        target = tmp_path / "classes.json"
        run_cli_expect_usage_error(
            "symbols", "enumerate", "--rank", "30000", "--defect", "0", "--out", str(target)
        )
        captured = capsys.readouterr()
        assert captured.out == "" and "enumeration cap" in captured.err
        assert not target.exists()

    def test_enumerate_streams_its_records(self, monkeypatch):
        # the 5822 classes of rank 16 take about 11 MB when every class,
        # record and the whole output are held before writing
        peak = traced_peak(
            monkeypatch, "symbols", "enumerate", "--rank", "16", "--defect", "0", "--format", "json"
        )
        assert peak < 2_500_000

    def test_family_streams_its_members(self, monkeypatch):
        # a degree-7 family has 4^7 = 16384 members, about 20 MB held at once
        top = ",".join(map(str, range(13, 0, -2)))
        bottom = ",".join(map(str, range(12, -1, -2)))
        peak = traced_peak(
            monkeypatch, "symbols", "family", "--symbol", f"{top};{bottom}", "--format", "json"
        )
        assert peak < 2_500_000

    def test_family_rejects_bad_symbols(self):
        run_cli_expect_usage_error("symbols", "family", "--symbol", "not a symbol")
        run_cli_expect_usage_error("symbols", "family", "--symbol", "3,0;2,1")
        run_cli_expect_usage_error("symbols", "family", "--symbol", "4,0;-")
        run_cli_expect_usage_error("symbols", "family", "--symbol", "2.5;-")
        run_cli_expect_usage_error("symbols", "family", "--symbol", "True;-")


class TestVerify:
    def test_single_check_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "thm1", "--max", "200")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_unknown_check_rejected(self):
        run_cli_expect_usage_error("verify", "nonsense")

    def test_parser_offers_every_check(self):
        # the parser holds the names itself, so that it need not import verify
        commands = next(a for a in _build_parser()._actions if a.dest == "command")
        what = next(a for a in commands.choices["verify"]._actions if a.dest == "what")
        assert what.choices == ["all", *verify.CHECKS]

    def test_enumeration_cap_is_usage_error(self):
        # p(200) is far beyond the enumeration cap; refusing beats thrashing
        run_cli_expect_usage_error("verify", "euler", "--max", "200")

    def test_all_with_small_bound(self, capsys):
        code, out = run_cli(capsys, "verify", "all", "--max", "40")
        assert code == 0
        for name in ("euler", "thm1", "lemma22", "jacobi", "firstproof",
                     "families", "corollary", "appendix", "congruence"):
            assert name in out

    def test_json_format(self, capsys):
        code, out = run_cli(
            capsys, "verify", "lemma22", "--max", "50", "--format", "json"
        )
        assert code == 0
        reports = json.loads(out)
        assert reports[0]["name"] == "lemma22"
        assert reports[0]["passed"] is True

    def test_fault_injection_fails_with_location(self, capsys):
        code, out = run_cli(
            capsys,
            "verify", "firstproof", "--max", "80",
            "--inject-fault", "firstproof.identity.lhs:7",
        )
        assert code == 1
        assert "FAIL" in out
        assert "first mismatch at index 7" in out

    def test_fault_injection_bivariate(self, capsys):
        code, out = run_cli(
            capsys,
            "verify", "jacobi", "--max", "12",
            "--inject-fault", "jacobi.rhs:3,-1:5",
        )
        assert code == 1
        assert "first mismatch at q^3 z^-1" in out

    @pytest.mark.parametrize(
        "check, bound, spec, location, lhs, rhs",
        [
            ("euler", "10", "euler.lhs:3", [3], 4, 3),
            ("jacobi", "12", "jacobi.rhs:3,-1:5", [3, -1], 0, 5),
            ("appendix", "60", "appendix.bipartition_form.rhs:10", [10], 481, 482),
        ],
        ids=["euler", "jacobi", "appendix"],
    )
    def test_json_mismatch(self, capsys, check, bound, spec, location, lhs, rhs):
        code, out = run_cli(
            capsys,
            "verify", check, "--max", bound, "--inject-fault", spec, "--format", "json",
        )
        assert code == 1
        [report] = json.loads(out)
        expected = {"location": location, "lhs": lhs, "rhs": rhs}
        # the top-level report carries the mismatch of the leaf the fault names
        leaf_name = spec.partition(":")[0].rsplit(".", 1)[0]
        reports = [report]
        for node in reports:
            reports.extend(node.get("children", []))
        leaf = next(node for node in reports if node["name"] == leaf_name)
        assert report["passed"] is False and leaf["passed"] is False
        assert report["mismatch"] == leaf["mismatch"] == expected

    def test_fault_injection_cleared_after_run(self, capsys):
        run_cli(
            capsys,
            "verify", "firstproof", "--max", "60",
            "--inject-fault", "firstproof.identity.lhs:3",
        )
        code, _ = run_cli(capsys, "verify", "firstproof", "--max", "60")
        assert code == 0

    def test_malformed_fault_spec(self, capsys):
        outside = "fault location {} is outside {} ({})"
        never = (
            "--inject-fault {!r} never fired: "
            "no comparison that ran taps that target and location"
        )
        for what, spec, message in [
            ("firstproof", "no-colon", "malformed --inject-fault spec: 'no-colon'"),
            ("firstproof", "a:1,2,3", "malformed --inject-fault spec: 'a:1,2,3'"),
            # past the order
            ("firstproof", "firstproof.identity.lhs:9999",
             outside.format("9999", "firstproof.identity.lhs", "0..8")),
            ("jacobi", "jacobi.rhs:999,0", outside.format("999,0", "jacobi.rhs", "0..8,any")),
            # z outside the compared span
            ("jacobi", "jacobi.rhs:3,50", never.format("jacobi.rhs:3,50")),
            # one coordinate on a (q, z) comparison
            ("jacobi", "jacobi.rhs:3", outside.format("3", "jacobi.rhs", "0..8,any")),
            ("firstproof", "firstproof.identity.lhs:-1",
             outside.format("-1", "firstproof.identity.lhs", "0..8")),
            # wrong arity
            ("firstproof", "firstproof.identity.lhs:3,1",
             outside.format("3,1", "firstproof.identity.lhs", "0..8")),
            ("firstproof", "firstproof.identity.lhs:7:0", "fault delta must be nonzero"),
            ("firstproof", "nosuch.lhs:3", never.format("nosuch.lhs:3")),
            # check that did not run
            ("firstproof", "lemma22.ratio.lhs:3", never.format("lemma22.ratio.lhs:3")),
            # n never compared
            ("congruence", "congruence.bipartition.lhs:5",
             never.format("congruence.bipartition.lhs:5")),
            # an n the leaf does not compare
            ("families", "families.n3.lhs:1", never.format("families.n3.lhs:1")),
            # outside 0..3
            ("families", "families.n3.lhs:5", outside.format("5", "families.n3.lhs", "0..3")),
        ]:
            run_cli_expect_usage_error("verify", what, "--max", "8", "--inject-fault", spec)
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 2 and err[0].startswith("usage:"), (spec, err)
            assert err[1] == f"biparts: error: {message}", (spec, err)

    def test_fault_in_class_enumeration(self, capsys):
        code, out = run_cli(
            capsys,
            "verify", "corollary", "--max", "8",
            "--inject-fault", "corollary.enumeration.rhs:2",
        )
        assert code == 1
        assert "FAIL  corollary.enumeration (bound=8)" in out
        assert "first mismatch at n=2" in out

    def test_fault_in_family_partition(self, capsys):
        code, out = run_cli(
            capsys,
            "verify", "families", "--max", "8",
            "--inject-fault", "families.n3.lhs:3",
        )
        assert code == 1
        assert "FAIL  families.n3 (bound=3)" in out
        assert "first mismatch at n=3" in out

    @pytest.mark.parametrize(
        "what, bound, spec, where",
        [
            ("corollary", "8", "corollary.recurrence.rhs:5", "n=5: 0 != 1"),
            ("firstproof", "20", "firstproof.identity.rhs:9", "index 9: 0 != 1"),
        ],
    )
    def test_fault_at_odd_n_of_the_degenerate_side(self, capsys, what, bound, spec, where):
        # p(n/2) is 0 at odd n, and those zeros still stream as compared values
        code, out = run_cli(capsys, "verify", what, "--max", bound, "--inject-fault", spec)
        assert code == 1
        assert f"first mismatch at {where}" in out

    def test_fault_in_value_comparison(self, capsys):
        code, out = run_cli(
            capsys, "verify", "euler", "--max", "10", "--inject-fault", "euler.lhs:3"
        )
        assert code == 1
        assert "first mismatch at n=3: 4 != 3" in out

    def test_json_elapsed_is_per_subcheck(self, capsys):
        code, out = run_cli(capsys, "verify", "all", "--max", "20", "--format", "json")
        assert code == 0

        def walk(report, top):
            children = report.get("children", [])
            total = sum(child["elapsed"] for child in children)
            if not children:
                assert report["elapsed"] > 0, report["name"]
            elif top:
                assert report["elapsed"] >= total, report["name"]
            else:
                assert report["elapsed"] == pytest.approx(total), report["name"]
            for child in children:
                walk(child, top=False)

        for report in json.loads(out):
            walk(report, top=True)

    @pytest.mark.parametrize(
        "leaf, spec, where",
        [
            ("thm1.enumeration", "thm1.enumeration.rhs:5", "n=5: 36 != 37"),
            ("thm1.degenerate", "thm1.degenerate.rhs:4", "n=4: 2 != 3"),
        ],
    )
    def test_thm1_enumeration_faults(self, capsys, leaf, spec, where):
        code, out = run_cli(capsys, "verify", "thm1", "--max", "30", "--inject-fault", spec)
        assert code == 1
        assert f"FAIL  {leaf} (bound=25)" in out
        assert f"first mismatch at {where}" in out

    @staticmethod
    def leaves(report: dict) -> list[dict]:
        children = report.get("children", [])
        return [leaf for child in children for leaf in TestVerify.leaves(child)] or [report]

    def test_every_leaf_states_what_it_compared(self, capsys):
        code, out = run_cli(capsys, "verify", "all", "--max", "22", "--format", "json")
        assert code == 0
        reports = json.loads(out)
        leaves = [leaf for report in reports for leaf in self.leaves(report)]
        assert len(leaves) == 39
        assert all(leaf["compared"] >= 1 for leaf in leaves), leaves
        # an aggregate reports no count of its own
        assert all("compared" not in r for r in reports if r.get("children"))

    def test_every_leaf_is_tappable_on_both_sides(self, capsys):
        # each leaf of verify all --max 22, at the last location it streams
        # there: its check, run alone at the leaf's bound, fails at exactly
        # that location for a fault on either side
        class LastLocations(Recorder):
            def compare(self, check_id, title, bound, pairs, kind="n"):
                def tap(pairs):
                    for triple in pairs:
                        last[check_id] = triple[0]
                        yield triple

                return super().compare(check_id, title, bound, tap(pairs), kind)

        last = {}
        code, out = run_cli(capsys, "verify", "all", "--max", "22", "--format", "json")
        assert code == 0
        leaves = [leaf for report in json.loads(out) for leaf in self.leaves(report)]
        assert len(leaves) == 39
        verify.run_all(22, LastLocations())
        assert sorted(last) == sorted(leaf["name"] for leaf in leaves)
        for leaf in leaves:
            name = leaf["name"]
            location = list(last[name]) if isinstance(last[name], tuple) else [last[name]]
            where = ",".join(map(str, location))
            for side in ("lhs", "rhs"):
                code, out = run_cli(
                    capsys,
                    "verify", name.partition(".")[0], "--max", str(leaf["bound"]),
                    "--inject-fault", f"{name}.{side}:{where}", "--format", "json",
                )
                assert code == 1, (name, side)
                [report] = json.loads(out)
                assert report["mismatch"]["location"] == location, (name, side)
                [tapped] = [node for node in self.leaves(report) if not node["passed"]]
                assert tapped["name"] == name, (name, side)

    @pytest.mark.parametrize(
        "bound, vacuous",
        [
            (0, ["congruence.bipartition", "congruence.partition"]),
            (1, ["congruence.bipartition", "congruence.partition"]),
            (3, ["congruence.partition"]),
            (4, []),
        ],
    )
    def test_a_leaf_that_compares_nothing_says_so(self, capsys, bound, vacuous):
        code, out = run_cli(capsys, "verify", "all", "--max", str(bound), "--format", "json")
        assert code == 0
        leaves = [leaf for report in json.loads(out) for leaf in self.leaves(report)]
        assert [leaf["name"] for leaf in leaves if leaf["compared"] == 0] == vacuous
        code, out = run_cli(capsys, "verify", "congruence", "--max", str(bound))
        assert code == 0
        said = [line.split()[1] for line in out.splitlines() if line.endswith(" - compared nothing")]
        assert said == vacuous

    def test_thm1_time_is_in_enumeration(self, capsys):
        code, out = run_cli(capsys, "verify", "all", "--max", "22", "--format", "json")
        assert code == 0
        thm1 = next(r for r in json.loads(out) if r["name"] == "thm1")
        slowest = max(thm1["children"], key=lambda child: child["elapsed"])
        assert slowest["name"] == "thm1.enumeration"

    def test_fault_in_all_mode(self, capsys):
        code, out = run_cli(
            capsys,
            "verify", "all", "--max", "30",
            "--inject-fault", "lemma22.ratio.rhs:9",
        )
        assert code == 1
        assert "first mismatch at index 9" in out


@pytest.mark.parametrize(
    "command",
    [
        ("table", "--max", "3"),
        ("symbols", "family", "--symbol", "3,1;2,0"),
        ("verify", "euler", "--max", "5"),
    ],
    ids=["table", "symbols-family", "verify"],
)
@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_out_is_usage_error(capsys, tmp_path, command, where):
    out = tmp_path / "no" / "such" / "x" if where == "missing-dir" else tmp_path
    run_cli_expect_usage_error(*command, "--out", str(out))
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 2 and err[0].startswith("usage:"), err
    assert err[1].startswith("biparts") and str(out) in err[1], err
    assert captured.out == ""


def test_out_of_range_fault_exits_2_without_traceback():
    proc = subprocess.run(
        [sys.executable, "-m", "biparts.cli", "verify", "firstproof", "--max", "30",
         "--inject-fault", "firstproof.identity.lhs:9999"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "outside firstproof.identity.lhs" in proc.stderr


@pytest.fixture(params=[False, True], ids=["buffered", "unbuffered"])
def child_env(request):
    """A child's environment without and with PYTHONUNBUFFERED: its stdout is
    block-buffered, or flushed at every write."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONUNBUFFERED": "1"} if request.param else env


@pytest.mark.parametrize(
    "command",
    [
        ("symbols", "enumerate", "--rank", "22", "--defect", "2", "--format", "json"),
        ("table", "--max", "6000", "--format", "csv"),
        ("table", "--max", "3000", "--format", "json"),
        ("symbols", "family", "--symbol", "11,9,7,5,3,1;10,8,6,4,2,0", "--format", "json"),
    ],
    ids=["enumerate-json", "table-csv", "table-json", "family-json"],
)
def test_closed_stdout_pipe_keeps_the_exit_code(command, child_env):
    # the reader stops after 100 bytes, as ``| head -c 100`` does, while the
    # command may still have megabytes to write
    argv = [sys.executable, "-m", "biparts.cli", *command]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    assert proc.communicate(timeout=60)[1] == b""
    assert proc.returncode == 0


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "command",
    [
        ("p2", "300"),
        ("table", "--max", "50", "--format", "csv"),
        ("verify", "euler", "--max", "5"),
        ("symbols", "enumerate", "--rank", "22", "--defect", "2", "--format", "json"),
    ],
    ids=["p2", "table-csv", "verify", "enumerate-json"],
)
def test_full_stdout_is_usage_error(command, child_env):
    # every write to /dev/full fails with ENOSPC, at the write or the flush
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "biparts.cli", *command],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=child_env,
        )
    err = proc.stderr.splitlines()
    assert proc.returncode == 2, proc.stderr
    assert len(err) == 2 and err[0].startswith("usage:"), err
    assert err[1] == "biparts: error: cannot write stdout: No space left on device"


#: Each command line with the exit code it must give; ``{tmp}`` is a
#: directory of the test module's own.
DEV_MODE_RUNS = {
    "p 1000": 0,
    "p2 300": 0,
    "table --max 50 --format csv --out {tmp}/t.csv": 0,
    "symbols enumerate --rank 6 --defect 2 --format csv": 0,
    "symbols family --symbol 3,1;2,0 --format json --out {tmp}/f.json": 0,
    "verify all --max 12": 0,
    "verify euler --inject-fault euler.lhs:3": 1,
    "symbols counts --rank 6 --format csv": 0,
    "symbols counts --rank 6 --format text": 0,
    "symbols family --symbol 7,5,3,1;6,4,2,0 --format csv": 0,
    "verify euler --max 10 --inject-fault euler.lhs:3 --format json": 1,
    "verify thm1 --max 25 --inject-fault thm1.enumeration.rhs:5": 1,
    "verify thm1 --max 25 --inject-fault thm1.degenerate.rhs:4": 1,
    "verify families --max 8 --inject-fault families.n3.lhs:3": 1,
    "verify corollary --max 200 --inject-fault corollary.recurrence.lhs:150": 1,
    "verify corollary": 0,
    "symbols counts --rank 4 --format text": 0,
}

#: Runs each argv of the JSON list ``sys.argv[1]`` through ``cli.main`` and
#: prints each exit code and stderr as JSON; collecting after each run
#: charges a leaked handle's ResourceWarning to the argv that leaked it.
DEV_MODE_DRIVER = """
import contextlib, gc, io, json, sys
from biparts import cli
results = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        gc.collect()
    results.append([code, err.getvalue()])
print(json.dumps(results))
"""


@pytest.fixture(scope="module")
def dev_mode_results(tmp_path_factory):
    # one ``python -X dev -W error`` process for the whole list: any warning
    # is an error, and an unclosed file is reported on stderr
    tmp = tmp_path_factory.mktemp("dev-mode")
    argvs = [[arg.format(tmp=tmp) for arg in line.split()] for line in DEV_MODE_RUNS]
    argv = [sys.executable, "-X", "dev", "-W", "error", "-c", DEV_MODE_DRIVER, json.dumps(argvs)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    return dict(zip(DEV_MODE_RUNS, json.loads(proc.stdout)))


@pytest.mark.parametrize("line, expected", DEV_MODE_RUNS.items(), ids=list(DEV_MODE_RUNS))
def test_dev_mode_keeps_exit_code_and_stderr_clean(dev_mode_results, line, expected):
    assert dev_mode_results[line] == [expected, ""]


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "biparts.cli", "p2", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "20\n"


SMALL = ["0", "1", "4", "9", "-3", "", "1.5", "1e3", "\u0663", "1_0"]
#: Only the paths that refuse up front draw these.
HUGE = [str(10**30), str(P_LIMIT + 1)]
DEGREE_13 = ",".join(map(str, range(25, 0, -2))) + ";" + ",".join(map(str, range(24, -1, -2)))
SYMBOL_TEXTS = ["3,1;2,0", "7,5,3,1;6,4,2,0", "-;-", "2;2", "1;0", "3,1;2", "x", "", ";", DEGREE_13]
FAULT_SPECS = [
    "euler.lhs:3", "euler.lhs:99999", "thm1.enumeration.rhs:5", "jacobi.rhs:3,-1:5",
    "families.n3.lhs:3", "euler.lhs:3:0", "euler.lhs:", "euler.lhs:1,2,3", "bogus", "nosuch.lhs:1",
]


def _draw_argv(rng: random.Random) -> list[str]:
    pick = rng.choice
    fmt = ["--format", pick(["text", "json", "csv", "xml"])]
    command = pick(["p", "p2", "table", "enumerate", "family", "counts", "verify"])
    if command == "p":
        return ["p", pick(SMALL + HUGE)]
    if command == "p2":
        return ["p2", pick(SMALL)]
    if command == "table":
        return ["table", "--max", pick(SMALL), *fmt]
    if command == "enumerate":
        return ["symbols", "enumerate", "--rank", pick(SMALL + HUGE), "--defect", pick(SMALL), *fmt]
    if command == "family":
        return ["symbols", "family", "--symbol", pick(SYMBOL_TEXTS), *fmt]
    if command == "counts":
        return ["symbols", "counts", "--rank", pick(SMALL), *fmt]
    what = pick(["all", *verify.CHECKS, "bogus"])
    bounds = SMALL + HUGE if what in ("euler", "families") else SMALL
    argv = ["verify", what, "--max", pick(bounds), *fmt]
    if rng.random() < 0.3:
        argv += ["--inject-fault", pick(FAULT_SPECS)]
    return argv


def test_drawn_command_lines_exit_honestly(capsys):
    # 0 or 2 for every drawn command line, 1 only for an injected fault,
    # and nothing but SystemExit escapes main
    rng = random.Random(0)
    seen = set()
    for _ in range(400):
        argv = _draw_argv(rng)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        capsys.readouterr()
        assert code in (0, 2) or (code == 1 and "--inject-fault" in argv), argv
        seen.add(code)
    assert {0, 2} <= seen
