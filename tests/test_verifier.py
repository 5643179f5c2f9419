"""Verifier: agreement orders, both limit identities at small scale, the
proposition checks, and the column-stripping bijection."""

from fractions import Fraction

import pytest
from qtorus import (
    QSeries,
    check_prop_full_dim,
    check_prop_zero_weight,
    enumerate_ssyt,
    enumerate_ssyt_bounded,
    first_disagreement,
    kostka,
    partitions_of,
    phi,
    phi_bijection_check,
    phi_inverse,
    verify_singlet_theorem,
    verify_triplet_theorem,
    weight_of_partition,
    weyl_dim,
)
from qtorus.cli import main


# -- agreement order ---------------------------------------------------------------


def test_the_triplet_scan_prints_every_colour(capsys):
    # every colour, each on its own coset colour % rank, not only coset 0
    assert main(["verify", "scan", "--rank", "3", "--components", "4", "--p", "2",
                 "--max-colour", "6", "--order", "20"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    expected = []
    for colour in range(7):
        report = verify_triplet_theorem(3, 2, colour % 3, colour, 20)
        order = "full" if report.order is None else str(report.order)
        verdict = "pass" if report.passed else "FAIL"
        expected.append(f"{colour:>7}  {order:>8}  {str(report.threshold):>9}  {verdict}")
    assert rows == expected
    assert [row.split()[1] for row in rows[1:3]] == ["14/3", "23/3"]


def test_agreement_equal_series():
    a = QSeries({0: 1, 2: 3}, cutoff=9)
    assert first_disagreement(a, a) is None


def test_agreement_first_difference():
    witness = first_disagreement(QSeries({0: 1, 1: 1}), QSeries({0: 1, 1: 2}))
    assert witness == (Fraction(1), 1, 2)


def test_agreement_with_cutoff():
    a = QSeries({0: 1}, cutoff=10)
    b = QSeries({0: 1, 3: 1}, cutoff=10)
    assert first_disagreement(a, b) == (Fraction(3), 0, 1)


def test_agreement_ignores_terms_beyond_common_cutoff():
    # beyond it, and exactly at it, on the integers and on a finer grid
    for extra, cut in [(5, 4), (4, 4), (Fraction(7, 2), Fraction(7, 2))]:
        a = QSeries({0: 1, extra: 9}, cutoff=10)
        b = QSeries({0: 1}, cutoff=cut)
        assert first_disagreement(a, b) is None
        assert first_disagreement(b, a) is None


# -- singlet identity ---------------------------------------------------------------


def test_singlet_equal_ranks_full_agreement():
    report = verify_singlet_theorem(2, 2, 2, 12, 10)
    assert report.passed and report.order is None


def test_singlet_colour_zero_degenerate_pass():
    report = verify_singlet_theorem(2, 2, 2, 0, 8)
    assert report.passed
    assert report.threshold == 0


def test_singlet_orders_nondecreasing_rank_three():
    last = Fraction(-1)
    for n in range(1, 11):
        report = verify_singlet_theorem(3, 2, 2, n, 10)
        order = Fraction(10) if report.order is None else report.order
        assert order >= last
        last = order
    assert last == 10  # full agreement reached within the scan


def test_singlet_validation():
    with pytest.raises(ValueError, match="components"):
        verify_singlet_theorem(2, 3, 2, 5, 10)


# -- triplet identity ----------------------------------------------------------------


def test_triplet_vacuum_coset_full():
    report = verify_triplet_theorem(2, 2, 0, 20, 15)
    assert report.passed and report.order is None


def test_triplet_other_coset_full():
    report = verify_triplet_theorem(2, 2, 1, 21, 15)
    assert report.passed and report.order is None


def test_triplet_residue_check():
    with pytest.raises(ValueError, match="congruent"):
        verify_triplet_theorem(2, 2, 0, 19, 10)
    with pytest.raises(ValueError, match="coset"):
        verify_triplet_theorem(2, 2, 5, 19, 10)


def test_report_json_shape():
    report = verify_triplet_theorem(2, 2, 0, 10, 8)
    data = report.to_json_dict()
    assert data["passed"] is True
    assert data["agreement_order"] == "full"
    assert data["cutoff"] == {"num": 8, "den": 1}
    assert data["params"]["colour"] == 10
    assert data["first_disagreement"] is None
    assert "PASS" in report.describe()


def test_report_records_witness_when_orders_differ():
    # at small colour the sides differ inside the window; the witness and
    # the measured order are exposed either way
    report = verify_singlet_theorem(3, 2, 2, 1, 10)
    assert report.order == 2
    assert report.witness is not None
    assert report.witness[0] == 2
    assert report.threshold == 1 and report.passed


# -- zero-weight proposition -----------------------------------------------------------


def test_zero_weight_prop_examples():
    assert check_prop_zero_weight((2, 2), 2)
    assert check_prop_zero_weight((2, 1), 3)
    assert check_prop_zero_weight((3,), 2)  # off-coset case
    assert check_prop_zero_weight((4, 2), 3)


def test_zero_weight_prop_scan_weight_8():
    for rank in (2, 3):
        for weight in range(0, 9):
            for lam in partitions_of(weight, rank):
                assert check_prop_zero_weight(lam, rank)


# -- full-dimension proposition ----------------------------------------------------------


def test_full_dim_prop_worked_shape():
    assert kostka((11, 9, 8), (7, 7, 7, 7)) == 15
    assert weyl_dim(weight_of_partition((11, 9, 8), 3)) == 15
    assert check_prop_full_dim((11, 9, 8), 7, 3) == "pass"


def test_full_dim_prop_smallest_case():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert check_prop_full_dim((2, 1), 1, 2) == "pass"


def test_full_dim_prop_skips_outside_domain():
    assert check_prop_full_dim((3, 3), 1, 2) == "skipped"  # wrong weight
    assert check_prop_full_dim((4, 1, 1), 2, 2) == "skipped"  # too many rows
    assert check_prop_full_dim((5, 1), 2, 2) == "skipped"  # short last row


def test_full_dim_prop_exhaustive_rank_two():
    for n in range(1, 5):
        qualifying = 0
        for lam in partitions_of(3 * n, 2):
            verdict = check_prop_full_dim(lam, n, 2)
            assert verdict != "fail"
            qualifying += verdict == "pass"
        assert qualifying > 0


# -- the column-stripping bijection ---------------------------------------------------------


WIDE = (
    (1, 1, 1, 1, 1, 1, 1, 2, 3, 3, 4),
    (2, 2, 2, 2, 2, 2, 3, 3, 4),
    (3, 3, 3, 4, 4, 4, 4, 4),
)
NARROW = ((2, 2, 3), (3,))


def test_phi_on_worked_tableau():
    assert phi(WIDE) == NARROW
    assert phi_inverse(NARROW, 7, 3, 8) == WIDE


def test_phi_round_trip_on_every_tableau_of_worked_shape():
    for tableau in enumerate_ssyt((11, 9, 8), (7, 7, 7, 7)):
        assert phi_inverse(phi(tableau), 7, 3, 8) == tableau


def test_phi_smallest_case_counts():
    big = enumerate_ssyt((2, 1), (1, 1, 1))
    small = enumerate_ssyt_bounded((1,), 2)
    assert len(big) == len(small) == 2
    assert phi_bijection_check((2, 1), 1, 2)


def test_phi_rectangle_gives_singleton():
    # a full rectangle strips to the empty shape
    assert kostka((3, 3), (2, 2, 2)) == 1
    assert phi_bijection_check((3, 3), 2, 2)


def test_phi_degenerate_empty_shape():
    assert phi_bijection_check((), 0, 2)


def test_phi_domain_error():
    with pytest.raises(ValueError, match="domain"):
        phi_bijection_check((5, 1), 2, 2)
    with pytest.raises(ValueError, match="domain"):
        phi(((1, 1, 1), (2, 2)))  # a 1 outside the stripped columns


def test_phi_bijection_small_scan():
    for rank in (2, 3):
        for colour in range(1, 3):
            for lam in partitions_of(colour * (rank + 1), rank):
                padded = lam + (0,) * rank
                if len(lam) == rank and padded[rank - 1] >= colour:
                    assert phi_bijection_check(lam, colour, rank)
