"""Principal specializations: product formula vs alternant oracle,
palindromicity, the dimension limit, and the denominator identity."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from qtorus import schur_spec
from qtorus import (
    QSeries,
    WeightVector,
    as_partition,
    partitions_of,
    TorusLinkSpec,
    jones_torus_link,
    principal_spec,
    weight_of_partition,
    weyl_dim,
)
from qtorus.qseries import exact_div
from qtorus.schur_spec import principal_spec_weight

import oracles
from oracles import (
    alternant,
    alternant_spec_oracle,
    epsilon_coords,
    pairing,
    weyl_denominator,
    weyl_vector,
)


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
    divide = schur_spec.divide_series_one_minus_q

    def off_by_one(coeffs, d):
        return divide(coeffs, d + 1)

    monkeypatch.setattr(schur_spec, "divide_series_one_minus_q", off_by_one)
    with pytest.raises(ValueError, match="not exactly divisible"):
        principal_spec((2, 1), 3)
    # the torus-link invariant's integer sum divides with the same check
    with pytest.raises(ValueError, match="not exactly divisible"):
        jones_torus_link(TorusLinkSpec(3, 2, 2, 2))


@pytest.mark.parametrize(
    "gaps,call,wrong",
    [
        ((2,), 0, 2),  # (1 - q^3) / (1 - q^2) is no polynomial
        ((0,), 0, 2),  # nor is (1 - q) / (1 - q^2)
        ((1, 1), 1, 1),  # a polynomial of degree D + 1: the tail check sees it
        ((0, 2), 2, 4),
        ((1, 0, 1), 5, 2),
    ],
)
def test_spec_raises_unless_the_quotient_stops_at_degree_d(
        monkeypatch, gaps, call, wrong):
    # one divisor replaced: (1 - q^wrong) at the call-th division
    divide, calls = schur_spec.divide_series_one_minus_q, []

    def wrong_once(coeffs, d):
        calls.append(d)
        return divide(coeffs, wrong if len(calls) == call + 1 else d)

    monkeypatch.setattr(schur_spec, "divide_series_one_minus_q", wrong_once)
    with pytest.raises(ValueError, match="not exactly divisible"):
        schur_spec._spec_of_gaps(gaps)
    assert calls[call] != wrong


def test_oracles_share_no_factor_kernel_with_production():
    # the Weyl denominator oracle checks the (1 - q^h) kernels, and the Weyl-form
    # characters the window, the adder and the prefactor, so they must not reach
    # them (or the production sign) by an import, an attribute or a bare name
    tree = ast.parse(Path(oracles.__file__).read_text())
    names = {alias.name.rpartition(".")[2] for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    kernels = {"times_one_minus_q", "divide_series_one_minus_q", "_spec_of_gaps",
               "_times_prefactor", "_pentagonal", "_cone_window", "_cone_sum",
               "_add_summands", "dominant_weights", "perm_sign"}
    assert {"QSeries", "exact_div", "from_grid"} <= names  # the walk sees the module
    assert {"weyl_form_character", "alternant"} <= {
        node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert not names & kernels


# (rank, components, colour): the largest colour of each jones_full family
# whose shapes reach past size 12
JONES_TOPS = [(2, 2, 100), (3, 4, 9), (4, 4, 6), (5, 5, 3)]


@pytest.mark.parametrize("rank,components,colour", JONES_TOPS)
def test_cached_core_matches_the_reference_at_the_jones_tops(rank, components, colour):
    for lam in partitions_of(colour * components, min(rank, components)):
        expected = reference_principal_spec(lam, rank).terms
        for _ in range(2):  # computed or cached, then certainly cached
            poly, d = schur_spec.principal_spec_poly(lam, rank)
            assert {Fraction(2 * k - d, 2): a for k, a in enumerate(poly) if a} == expected


def test_shapes_with_equal_row_gaps_share_one_entry():
    first = schur_spec.principal_spec_poly((5, 3), 2)
    info = schur_spec._spec_of_gaps.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 0, 1)
    assert schur_spec.principal_spec_poly((2,), 2) is first
    assert schur_spec.principal_spec_poly([9, 7, 0], 2) is first
    info = schur_spec._spec_of_gaps.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    # the same shape at another rank has other gaps, so another entry
    schur_spec.principal_spec_poly((5, 3), 3)
    assert schur_spec._spec_of_gaps.cache_info().currsize == 2


def test_cached_coefficients_are_immutable():
    poly, _ = schur_spec.principal_spec_poly((4, 2, 1), 4)
    assert isinstance(poly, tuple)
    with pytest.raises(TypeError):
        poly[0] = 2
    with pytest.raises(TypeError):
        del poly[1:]
    assert schur_spec.principal_spec_poly((4, 2, 1), 4)[0] == poly


@pytest.mark.parametrize("rank", [2, 3, 4, 5, 6])
def test_integer_core_is_the_halved_polynomial(rank):
    for size in range(13):
        for lam in partitions_of(size, rank):
            poly, d = schur_spec.principal_spec_poly(lam, rank)
            assert poly[0] == 1 and poly[-1] != 0
            assert d == sum(part * (rank + 1 - 2 * i) for i, part in enumerate(lam, 1))
            terms = {Fraction(2 * k - d, 2): a for k, a in enumerate(poly) if a}
            assert terms == reference_principal_spec(lam, rank).terms


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


def test_rejects_a_shape_that_is_not_integers():
    # int() would truncate 2.5 to 2 and print q^(-1) + 1 + q
    with pytest.raises(ValueError, match="partition parts must be positive integers, got 2.5"):
        principal_spec([2.5], 2)
    with pytest.raises(ValueError, match="got True"):
        schur_spec.principal_spec_poly((True,), 2)


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
    return alternant(d, d)


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
