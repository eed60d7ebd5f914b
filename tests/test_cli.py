"""Command-line behavior: output formats, exit codes, fault injection."""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from biparts import partitions, symbols
from biparts.cli import _write_records, main


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
    "none": [],
    "one": [{"n": 0, "p": 1}],
    "mixed": [
        {"symbol": "3,1;2,0", "special": True, "degree": 2, "note": 'a "quote"'},
        {"symbol": "2;2", "special": False, "degree": None, "note": "Lusztig, étale ∞"},
        {"symbol": "-;-", "special": True, "degree": 10**40, "note": ""},
    ],
}


@pytest.mark.parametrize("records", RECORDS.values(), ids=RECORDS)
def test_streamed_records_match_one_shot_rendering(records):
    as_json, as_csv, one_shot_csv = io.StringIO(), io.StringIO(), io.StringIO()
    _write_records(as_json, iter(records), "json")
    _write_records(as_csv, iter(records), "csv")
    if records:
        writer = csv.DictWriter(one_shot_csv, list(records[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(records)
    assert as_json.getvalue() == json.dumps(records, indent=2) + "\n"
    assert as_csv.getvalue() == one_shot_csv.getvalue()


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
            counts = symbols.class_counts(n)
            assert row["p"] == partitions.partition_count(n)
            assert row["p2"] == partitions.bipartition_count(n)
            assert row["p_half"] == partitions.degenerate_count(n)
            assert row["phi_plus"] == counts.plus
            assert row["phi_minus"] == counts.minus

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


class TestSymbolsCommands:
    def test_counts_json(self, capsys):
        code, out = run_cli(capsys, "symbols", "counts", "--rank", "4")
        assert code == 0
        assert json.loads(out) == {"0": 20, "2": 10, "-2": 10, "4": 1, "-4": 1}

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


def test_closed_stdout_pipe_keeps_the_exit_code():
    # the reader stops after 100 bytes, as ``| head -c 100`` does, while the
    # command still has megabytes to write; stdout is block-buffered
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "biparts.cli", "symbols", "enumerate",
         "--rank", "22", "--defect", "2", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.read(100).startswith(b"[\n  {\n")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "biparts.cli", "p2", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "20\n"
