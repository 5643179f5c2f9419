"""Output checks: series text parsing and the cross-request checks."""

from fractions import Fraction
from pathlib import Path

from checks import Checker, parse_series_text
from qtorus import QSeries

GOLDEN = Path(__file__).resolve().parents[2] / "tests" / "golden"


def test_parse_series_text_matches_the_renderer():
    series = QSeries({Fraction(-3, 2): -1, Fraction(0): 5, Fraction(1): 1,
                      Fraction(7, 2): -12, Fraction(4): 2}, cutoff=Fraction(9, 2))
    terms, cutoff = parse_series_text(series.to_text())
    assert terms == series.terms and cutoff == series.cutoff
    assert parse_series_text("0") == ({}, None)
    assert parse_series_text("0 + O(q^3)") == ({}, Fraction(3))


def test_parse_golden_char():
    terms, cutoff = parse_series_text((GOLDEN / "char_singlet_r2_p2_o12.txt").read_text().strip())
    assert cutoff == 12 and terms[Fraction(11)] == 30


JONES = ["jones", "--rank", "2", "--components", "2", "--p", "2", "--colour", "1"]


def test_jones_sum_at_one():
    assert Checker().check(JONES, 0, "q^(-2) + q + q^2 + q^3") == []
    assert Checker().check(JONES, 0, "q^(-2) + q + q^2") != []


def test_char_orders_must_agree():
    base = ["char", "--kind", "singlet", "--rank", "2", "--p", "2", "--coset", "0"]
    checker = Checker()
    assert checker.check(base + ["--order", "4"], 0, "1 + q^2 + 2*q^3 + O(q^4)") == []
    assert checker.check(base + ["--order", "5"], 0, "1 + q^2 + 2*q^3 + 3*q^4 + O(q^5)") == []
    assert checker.check(base + ["--order", "3"], 0, "1 + 2*q^2 + O(q^3)") != []


def test_verify_verdict_must_match_exit_status():
    argv = ["verify", "singlet", "--rank", "3", "--components", "2", "--p", "3",
            "--colour", "20", "--order", "30"]
    text = "FAIL singlet rank=3 order N=30: agreement to 21 (threshold 35)"
    checker = Checker()
    assert checker.check(argv, 1, text) == []
    assert checker.fail_verdicts == 1
    assert checker.check(argv, 0, text) != []
