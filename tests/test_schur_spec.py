"""Principal specializations: product formula vs alternant oracle,
palindromicity, the dimension limit, and the denominator identity."""

import random
from fractions import Fraction
from itertools import permutations

import pytest
from qtorus import schur_spec
from qtorus import (
    QSeries,
    WeightVector,
    alternant_spec_oracle,
    as_partition,
    epsilon_coords,
    exact_div,
    pairing,
    partitions_of,
    partition_of_weight,
    principal_spec,
    principal_spec_weight,
    weight_of_partition,
    weyl_denominator,
    weyl_dim,
    weyl_vector,
)
from qtorus.combinatorics import perm_sign


# -- reference: half brackets q^(k/2) - q^(-k/2) and exact_div ----------------


def _half_bracket(k: int) -> QSeries:
    return QSeries({Fraction(k, 2): 1, Fraction(-k, 2): -1})


def reference_principal_spec(shape, rank: int) -> QSeries:
    """The product formula as one QSeries per bracket, then one exact division."""
    lam = as_partition(shape)
    padded = lam + (0,) * (rank - len(lam))
    num = den = QSeries.one()
    for i in range(rank):
        for j in range(i + 1, rank):
            num = num * _half_bracket(padded[i] - padded[j] + j - i)
            den = den * _half_bracket(j - i)
    return QSeries(exact_div(num, den).terms, grain=2)


@pytest.mark.parametrize("rank", [2, 3, 4, 5, 6])
def test_matches_the_half_bracket_reference_through_size_12(rank):
    for size in range(13):
        for lam in partitions_of(size, rank):
            expected = reference_principal_spec(lam, rank).to_json_dict()
            assert principal_spec(lam, rank).to_json_dict() == expected


def test_matches_the_half_bracket_reference_on_random_large_shapes():
    rng = random.Random(20261018)
    for _ in range(60):
        rank = rng.randint(2, 7)
        lam = as_partition(sorted((rng.randint(0, 40) for _ in range(rank)), reverse=True))
        expected = reference_principal_spec(lam, rank).to_json_dict()
        assert principal_spec(lam, rank).to_json_dict() == expected


def test_dividing_by_a_wrong_height_raises(monkeypatch):
    divide = schur_spec.divide_one_minus_q

    def off_by_one(coeffs, heights):
        return divide(coeffs, [d + 1 for d in heights])

    monkeypatch.setattr(schur_spec, "divide_one_minus_q", off_by_one)
    with pytest.raises(ValueError, match="not exactly divisible"):
        principal_spec((2, 1), 3)


def test_defining_representation():
    assert principal_spec((1,), 2) == QSeries(
        {Fraction(1, 2): 1, Fraction(-1, 2): 1}
    )


def test_two_box_row():
    assert principal_spec((2,), 2) == QSeries({1: 1, 0: 1, -1: 1})


def test_empty_shape_is_one():
    assert principal_spec((), 3) == QSeries.one()
    assert principal_spec((0, 0), 2) == QSeries.one()


def test_column_shift_invariance():
    assert principal_spec((2, 1), 3) == principal_spec((3, 2, 1), 3)
    assert principal_spec((4,), 2) == principal_spec((7, 3), 2)


def test_rejects_long_shapes():
    with pytest.raises(ValueError, match="rows"):
        principal_spec((1, 1, 1), 2)


def test_declared_grain_two():
    assert principal_spec((2,), 2).grain == 2
    assert principal_spec((3, 1), 3).grain == 2


def test_weight_overload_uses_canonical_representative():
    mu = WeightVector(3, (2, 1))
    assert principal_spec_weight(mu) == principal_spec((3, 1), 3)
    assert principal_spec_weight(mu) == principal_spec((4, 2, 1), 3)


def _random_shape(rng, rank):
    rows = rng.randint(0, rank)
    return as_partition(sorted((rng.randint(1, 8) for _ in range(rows)), reverse=True))


def test_palindromic_and_dimension_200_random():
    rng = random.Random(20260810)
    for _ in range(200):
        rank = rng.randint(2, 5)
        lam = _random_shape(rng, rank)
        series = principal_spec(lam, rank)
        assert series.cutoff is None
        for e, c in series.terms.items():
            assert series.coefficient(-e) == c
        assert sum(series.terms.values()) == weyl_dim(weight_of_partition(lam, rank))


def test_alternant_oracle_examples():
    assert alternant_spec_oracle(WeightVector(2, (1,))) == QSeries(
        {Fraction(1, 2): 1, Fraction(-1, 2): 1}
    )
    assert alternant_spec_oracle(WeightVector(3, (0, 0))) == QSeries.one()


def test_alternant_oracle_matches_product_200_random():
    rng = random.Random(99)
    for _ in range(200):
        rank = rng.randint(2, 4)
        mu = WeightVector(rank, tuple(rng.randint(0, 6) for _ in range(rank - 1)))
        assert alternant_spec_oracle(mu) == principal_spec_weight(mu)


def test_alternant_oracle_guard():
    with pytest.raises(ValueError, match="guard"):
        alternant_spec_oracle(WeightVector(7, (0,) * 6))


# -- the denominator identity -------------------------------------------------


def test_weyl_denominator_rank_two():
    assert weyl_denominator(2) == QSeries({Fraction(1, 2): 1, Fraction(-1, 2): -1})


def test_weyl_denominator_rank_three():
    half = QSeries({Fraction(1, 2): 1, Fraction(-1, 2): -1})
    whole = QSeries({1: 1, -1: -1})
    assert weyl_denominator(3) == half * half * whole


def _delta_alternant(rank: int) -> QSeries:
    # sum over the symmetric group of sign(w) q^((w(delta), delta))
    d = epsilon_coords(weyl_vector(rank))
    acc: dict[Fraction, int] = {}
    for perm in permutations(range(rank)):
        e = sum((d[p] * d[i] for i, p in enumerate(perm)), Fraction(0))
        acc[e] = acc.get(e, 0) + perm_sign(perm)
    return QSeries(acc)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_weyl_denominator_equals_alternant(rank):
    assert weyl_denominator(rank) == _delta_alternant(rank)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_weyl_denominator_closed_form(rank):
    pairs = [(i, j) for i in range(1, rank) for j in range(i + 1, rank + 1)]
    product = QSeries.one()
    for i, j in pairs:
        product = product * QSeries({0: 1, j - i: -1})
    delta = weyl_vector(rank)
    sign = 1 if len(pairs) % 2 == 0 else -1
    closed = QSeries.monomial(sign, -pairing(delta, delta)) * product
    assert weyl_denominator(rank) == closed


def test_monomial_evaluation_oracle_small():
    # third path: evaluate the monomial expansion at the principal point
    from qtorus import schur_expand_oracle

    for rank in (2, 3):
        for lam in [(1,), (2,), (2, 1), (3, 1), (2, 2)]:
            lam = as_partition(lam)
            if len(lam) > rank:
                continue
            acc: dict[Fraction, int] = {}
            for mono, coeff in schur_expand_oracle(lam, rank).items():
                e = sum(
                    Fraction(rank + 1 - 2 * i, 2) * m
                    for i, m in enumerate(mono, 1)
                )
                acc[e] = acc.get(e, 0) + coeff
            assert QSeries(acc) == principal_spec(lam, rank)
