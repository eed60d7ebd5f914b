"""Command-line behavior: output formats, exit codes, fault injection."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from biparts import partitions, symbols
from biparts.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_cli_expect_usage_error(*argv):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == 2


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
        for what, spec in [
            ("firstproof", "no-colon"),
            ("firstproof", "a:1,2,3"),
            ("firstproof", "firstproof.identity.lhs:9999"),  # past the order
            ("jacobi", "jacobi.rhs:999,0"),
            ("firstproof", "firstproof.identity.lhs:-1"),
            ("firstproof", "firstproof.identity.lhs:3,1"),  # wrong arity
            ("firstproof", "firstproof.identity.lhs:7:0"),  # zero delta
            ("firstproof", "nosuch.lhs:3"),  # never fires
            ("firstproof", "lemma22.ratio.lhs:3"),  # check that did not run
            ("congruence", "congruence.bipartition.lhs:5"),  # n never compared
            ("families", "families.n3.lhs:1"),  # untappable comparison
            ("corollary", "corollary.enumeration.rhs:2"),
        ]:
            run_cli_expect_usage_error("verify", what, "--max", "8", "--inject-fault", spec)
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 2 and err[0].startswith("usage:"), (spec, err)

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


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "biparts.cli", "p2", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "20\n"
