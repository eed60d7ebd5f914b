"""The Rademacher series for p(n) against the pentagonal-recurrence table,
against sympy, and behind ``biparts p``."""

from __future__ import annotations

import random

import pytest

from biparts import cli, partitions, rademacher
from biparts.cli import main


def test_small_arguments():
    assert [rademacher.partition_count(n) for n in (-3, 0, 1, 2)] == [0, 1, 1, 2]


def test_every_n_to_2000_equals_the_table():
    table = partitions.partition_counts_upto(2000)
    assert [rademacher.partition_count(n) for n in range(2001)] == table


def test_sampled_n_to_100000_equal_the_table():
    table = partitions.partition_counts_upto(100_000)
    for n in [*random.Random(15).sample(range(2001, 100_000), 30), 100_000]:
        assert rademacher.partition_count(n) == table[n], n


def test_sampled_n_to_ten_million_equal_sympy():
    sympy = pytest.importorskip("sympy")
    for n in [*random.Random(15).sample(range(100_000, 10_000_000), 2), 10_000_000]:
        assert rademacher.partition_count(n) == int(sympy.partition(n)), n


@pytest.mark.parametrize("n", [-3, 0, 100, 5000, 50_000])
def test_cli_p_equals_the_table(capsys, n):
    assert main(["p", str(n)]) == 0
    assert capsys.readouterr().out == f"{partitions.partition_count(n)}\n"


def test_cli_p_prints_past_the_int_string_limit(capsys, monkeypatch):
    # str(int) refuses past 4300 digits; p(n) has that many near n = 1.5e7
    monkeypatch.setattr(rademacher, "partition_count", lambda n: 10**5000)
    assert main(["p", "20000000"]) == 0
    assert capsys.readouterr().out == "1" + "0" * 5000 + "\n"


def test_cli_p_past_the_limit_refuses_before_any_work(capsys, monkeypatch):
    def forbidden(n):
        raise AssertionError("summed despite the limit")

    monkeypatch.setattr(rademacher, "partition_count", forbidden)
    with pytest.raises(SystemExit) as excinfo:
        main(["p", str(cli.P_LIMIT + 1)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0].startswith("usage:")
    assert err[1].endswith(f"p({cli.P_LIMIT + 1}) exceeds the limit {cli.P_LIMIT}")


def test_congruence_leaf_compares_at_the_bound(capsys):
    code = main(
        ["verify", "congruence", "--max", "500", "--inject-fault", "congruence.rademacher.lhs:500"]
    )
    assert code == 1
    assert "first mismatch at n=500" in capsys.readouterr().out
    # the leaf compares n = bound only, so a fault below it never fires
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "congruence", "--max", "500", "--inject-fault", "congruence.rademacher.lhs:499"])
    assert excinfo.value.code == 2
