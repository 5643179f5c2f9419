"""The health battery: each check fails when the kernel it checks is broken,
and a check that raises is reported like one that returns False."""

import json

from qtorus import combinatorics, lie_sl, qseries, schur_spec, selftest
from qtorus.cli import main

NAMES = [name for name, _ in selftest.CHECKS]


def failed_checks():
    return [name for name, passed in selftest.run_all() if not passed]


def test_the_battery_keeps_its_ten_checks_in_order():
    assert NAMES == [
        "euler-product-inverse", "euler-product-signs", "kostka-vs-enumeration",
        "casimir-vs-kappa", "principal-spec-palindrome-dim", "symmetric-power-expansion",
        "singlet-verify-small", "triplet-verify-small", "propositions-small",
        "series-json-round-trip"]


def test_a_flipped_pentagonal_sign_fails_both_euler_checks(replace_everywhere):
    pentagonal = qseries._pentagonal
    replace_everywhere(pentagonal, lambda length: [
        (g, -e if g == 5 else e) for g, e in pentagonal(length)])
    assert failed_checks() == ["euler-product-inverse", "euler-product-signs"]


def test_a_wrong_kostka_number_fails_the_enumeration_and_the_expansion(replace_everywhere):
    kostka = combinatorics.kostka
    replace_everywhere(kostka, lambda shape, content: (
        kostka(shape, content) + (tuple(shape) == (2, 1))))
    assert failed_checks() == [
        "kostka-vs-enumeration", "symmetric-power-expansion", "propositions-small"]


def test_a_wrong_specialization_degree_fails_the_expansion(replace_everywhere):
    spec_of_gaps = schur_spec._spec_of_gaps

    def shifted(gaps):
        poly, d = spec_of_gaps(gaps)
        return poly, d + 1

    replace_everywhere(spec_of_gaps, shifted)
    failed = failed_checks()
    assert "symmetric-power-expansion" in failed
    assert "principal-spec-palindrome-dim" in failed


def test_a_wrong_scaled_casimir_fails_the_kappa_check(replace_everywhere):
    scaled_casimir = lie_sl.scaled_casimir
    # rank 5 only: the verify checks run at ranks 2 and 3 and stay green
    replace_everywhere(scaled_casimir, lambda mu: scaled_casimir(mu) + (mu.rank == 5))
    assert failed_checks() == ["casimir-vs-kappa"]


def test_a_check_that_raises_fails_like_one_that_returns_false(replace_everywhere, capsys):
    spec_of_gaps, scaled_casimir = schur_spec._spec_of_gaps, lie_sl.scaled_casimir

    def rank_four_raises(gaps):
        if len(gaps) == 3:
            raise AssertionError(f"no specialization at gaps {gaps}")
        return spec_of_gaps(gaps)

    replace_everywhere(spec_of_gaps, rank_four_raises)
    replace_everywhere(scaled_casimir, lambda mu: scaled_casimir(mu) + (mu.rank == 5))
    failed = ["casimir-vs-kappa", "principal-spec-palindrome-dim"]

    assert main(["selftest"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [("FAIL " if name in failed else "ok ") + name for name in NAMES] + [
        "8/10 checks passed"]
    assert main(["selftest", "--json"]) == 1
    entries = json.loads(capsys.readouterr().out)
    assert entries == [{"check": name, "passed": name not in failed} for name in NAMES]
    assert lines[:-1] == [("ok " if e["passed"] else "FAIL ") + e["check"] for e in entries]
