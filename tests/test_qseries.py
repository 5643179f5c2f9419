"""Series arithmetic: ring axioms, exact truncation bookkeeping, inversion,
the Euler product, and the canonical renderings."""

import json
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtorus import QSeries, euler_product, exact_div, first_disagreement, invert_unit
from qtorus.qseries import divide_one_minus_q, one_minus_q_product


# -- independent oracles -------------------------------------------------------


@lru_cache(maxsize=None)
def count_partitions(n: int) -> int:
    """Brute-force partition counter (recursive by largest part)."""

    @lru_cache(maxsize=None)
    def with_max(remaining: int, largest: int) -> int:
        if remaining == 0:
            return 1
        return sum(
            with_max(remaining - part, part)
            for part in range(min(remaining, largest), 0, -1)
        )

    return with_max(n, n)


def signed_distinct_count(n: int) -> int:
    """Partitions of n into distinct parts, counted with parity sign: the
    coefficient of q^n in the Euler product."""

    def rec(remaining: int, largest: int) -> int:
        if remaining == 0:
            return 1
        return -sum(
            rec(remaining - part, part - 1)
            for part in range(min(remaining, largest), 0, -1)
        )

    return rec(n, n)


# -- construction invariants ---------------------------------------------------


def test_constructor_prunes_zeros_and_truncates():
    s = QSeries({Fraction(0): 1, Fraction(3): 0, Fraction(7): 5}, cutoff=5)
    assert s.terms == {Fraction(0): 1}
    assert s.cutoff == 5


def test_constructor_merges_duplicate_exponents():
    s = QSeries([(Fraction(1, 2), 1), (Fraction(1, 2), 1)])
    assert s.terms == {Fraction(1, 2): 2}


def test_grain_validation():
    s = QSeries({Fraction(1, 2): 1})
    assert s.grain == 2
    assert QSeries({Fraction(1, 2): 1}, grain=4).grain == 4
    with pytest.raises(ValueError):
        QSeries({Fraction(1, 3): 1}, grain=2)


# -- addition ------------------------------------------------------------------


def test_add_cancellation():
    a = QSeries({0: 1, 1: 1})
    b = QSeries({0: -1, 2: 1})
    assert a + b == QSeries({1: 1, 2: 1})


def test_add_identity():
    a = QSeries({Fraction(-1, 2): 3, 2: 1}, cutoff=9)
    assert a + QSeries.zero() == a
    assert a + 0 == a


def test_add_like_terms():
    half = QSeries({Fraction(1, 2): 1})
    assert half + half == QSeries({Fraction(1, 2): 2})


def test_add_cutoff_is_min():
    a = QSeries({0: 1}, cutoff=5)
    b = QSeries({0: 1}, cutoff=3)
    assert (a + b).cutoff == 3


# -- multiplication ------------------------------------------------------------


def test_mul_telescoping():
    geometric = QSeries({k: 1 for k in range(10)}, cutoff=10)
    assert (QSeries({0: 1, 1: -1}) * geometric) == QSeries.one(10)


def test_mul_exponent_addition():
    half = QSeries({Fraction(1, 2): 1})
    assert half * half == QSeries({1: 1})


def test_mul_laurent_hand_expansion():
    # (q^-1 + 1)(1 - q) = q^-1 + 1 - 1 - q = q^-1 - q
    a = QSeries({-1: 1, 0: 1})
    b = QSeries({0: 1, 1: -1})
    assert a * b == QSeries({-1: 1, 1: -1})


def test_mul_cutoff_rule():
    # result cutoff = min(cutoff_a + low_b, cutoff_b + low_a)
    a = QSeries({-1: 1, 0: 2}, cutoff=10)
    b = QSeries({2: 3, 4: 1}, cutoff=7)
    assert (a * b).cutoff == min(10 + 2, 7 + (-1))


def test_mul_truncated_zero():
    # a truncated zero still bounds the product's provable cutoff
    zero_to_3 = QSeries({}, cutoff=3)
    assert (zero_to_3 * QSeries({2: 1})).cutoff == 5
    # an exactly-zero factor gives an exactly-zero product
    product = QSeries.zero() * QSeries({0: 1, 1: -1}, cutoff=5)
    assert product.cutoff is None and product.is_zero()


def test_scalar_coercion():
    a = QSeries({1: 2})
    assert 3 * a == QSeries({1: 6})
    assert 1 - QSeries({1: 1}) == QSeries({0: 1, 1: -1})


# -- inversion ------------------------------------------------------------------


def test_invert_geometric():
    inv = invert_unit(QSeries({0: 1, 1: -1}, cutoff=6))
    assert inv == QSeries({k: 1 for k in range(6)}, cutoff=6)


def test_invert_one():
    assert invert_unit(QSeries.one(5)) == QSeries.one(5)
    assert invert_unit(QSeries.one()) == QSeries.one()


def test_invert_euler_gives_partition_counts():
    limit = 50
    series = invert_unit(euler_product(limit + 1))
    for n in range(limit + 1):
        assert series.coefficient(n) == count_partitions(n)


def test_invert_requires_unit_lowest_coefficient():
    with pytest.raises(ValueError, match="not \\+-1"):
        invert_unit(QSeries({0: 2, 1: 1}, cutoff=5))


def test_invert_untruncated_needs_cutoff():
    with pytest.raises(ValueError, match="cutoff"):
        invert_unit(QSeries({0: 1, 1: -1}))
    # exact monomials invert exactly
    assert invert_unit(QSeries.monomial(-1, Fraction(3, 2))) == QSeries.monomial(
        -1, Fraction(-3, 2)
    )


def test_invert_negative_valuation():
    a = QSeries({-1: 1, 0: -1}, cutoff=5)  # q^-1 (1 - q)
    inv = invert_unit(a)
    assert inv.cutoff == 5 + 2
    assert first_disagreement(a * inv, QSeries.one()) is None


# -- exact division ---------------------------------------------------------------


def test_exact_div_basic():
    num = QSeries({0: -1, 2: 1})
    den = QSeries({0: -1, 1: 1})
    assert exact_div(num, den) == QSeries({0: 1, 1: 1})


def test_exact_div_rejects_nonzero_remainder():
    with pytest.raises(ValueError, match="divisible"):
        exact_div(QSeries({0: 1, 2: 1}), QSeries({0: -1, 1: 1}))


def test_exact_div_requires_untruncated():
    with pytest.raises(ValueError, match="untruncated"):
        exact_div(QSeries({0: 1}, cutoff=5), QSeries({0: 1}))


# -- the Euler product -------------------------------------------------------------


def test_euler_product_small():
    assert euler_product(6) == QSeries({0: 1, 1: -1, 2: -1, 5: 1}, cutoff=6)


def test_euler_product_trivial_cutoff():
    assert euler_product(1) == QSeries.one(1)


def test_euler_product_pentagonal_coefficient():
    # 12 is the pentagonal number k(3k-1)/2 at k = 3, so the sign is (-1)^3;
    # the signed-distinct-parts oracle below confirms the full pattern
    assert euler_product(13).coefficient(12) == -1
    assert signed_distinct_count(12) == -1


def test_euler_product_signed_distinct_oracle():
    series = euler_product(51)
    for n in range(51):
        assert series.coefficient(n) == signed_distinct_count(n)



def euler_product_by_factors(cutoff) -> QSeries:
    """Reference: multiply in the factors (1 - q^k) with k below the cutoff."""
    cut = Fraction(cutoff)
    result = QSeries.one(cut)
    k = 1
    while k < cut:
        result = result * QSeries({Fraction(0): 1, Fraction(k): -1})
        k += 1
    return result


@pytest.mark.parametrize(
    "cutoff", [0, Fraction(1, 2), 1, 2, Fraction(31, 6), 40, 123]
)
def test_euler_product_matches_factor_loop(cutoff):
    expected = euler_product_by_factors(cutoff).to_json_dict()
    assert euler_product(cutoff).to_json_dict() == expected


def test_euler_product_rejects_negative_cutoff():
    with pytest.raises(ValueError, match="nonnegative"):
        euler_product(-1)

# -- property tests -----------------------------------------------------------------


@st.composite
def series_st(draw):
    grain = draw(st.sampled_from([1, 2, 3]))
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        terms[Fraction(draw(st.integers(-8, 12)), grain)] = draw(st.integers(-5, 5))
    cutoff = draw(
        st.one_of(st.none(), st.integers(-2, 14).map(lambda k: Fraction(k, grain)))
    )
    return QSeries(terms, cutoff)


@st.composite
def unit_series_st(draw):
    grain = draw(st.sampled_from([1, 2]))
    low = Fraction(draw(st.integers(-4, 4)), grain)
    terms = {low: draw(st.sampled_from([1, -1]))}
    for _ in range(draw(st.integers(0, 5))):
        e = low + Fraction(draw(st.integers(1, 10)), grain)
        terms.setdefault(e, draw(st.integers(-4, 4)))
    cutoff = low + Fraction(draw(st.integers(1, 14)), grain)
    return QSeries(terms, cutoff)


@given(series_st(), series_st())
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(series_st(), series_st())
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@settings(deadline=None)
@given(series_st(), series_st(), series_st())
def test_multiplication_associates_up_to_common_cutoff(a, b, c):
    assert first_disagreement((a * b) * c, a * (b * c)) is None


@settings(deadline=None)
@given(series_st(), series_st(), series_st())
def test_distributivity_up_to_common_cutoff(a, b, c):
    assert first_disagreement(a * (b + c), a * b + a * c) is None


@settings(deadline=None)
@given(unit_series_st())
def test_invert_unit_is_right_inverse(a):
    inv = invert_unit(a)
    product = a * inv
    assert product.cutoff is not None
    assert first_disagreement(product, QSeries.one()) is None


# -- rendering ---------------------------------------------------------------------


def test_text_rendering_canonical():
    s = QSeries({-1: 1, 0: 1, Fraction(1, 2): 2, 1: 1}, cutoff=10)
    assert s.to_text() == "q^(-1) + 1 + 2*q^(1/2) + q + O(q^10)"


def test_text_rendering_signs_and_zero():
    assert QSeries({0: 1, 1: -1}).to_text() == "1 - q"
    assert QSeries({1: -2}).to_text() == "-2*q"
    assert QSeries({}, cutoff=5).to_text() == "0 + O(q^5)"
    assert QSeries.zero().to_text() == "0"
    assert QSeries({Fraction(-3, 2): 1}).to_text() == "q^(-3/2)"


def test_json_round_trip_byte_identical():
    s = QSeries({Fraction(-1, 2): 3, 2: -7}, cutoff=Fraction(21, 2), grain=4)
    text = s.to_json()
    back = QSeries.from_json(text)
    assert back == s
    assert back.grain == 4
    assert back.to_json() == text


def test_json_fields():
    s = QSeries({Fraction(1, 2): 2}, cutoff=3)
    data = json.loads(s.to_json())
    assert data["grain"] == 2
    assert data["cutoff"] == {"num": 3, "den": 1}
    assert data["terms"] == [[1, 2, "2"]]
    assert json.loads(QSeries({0: 1}).to_json())["cutoff"] is None


# -- the (1 - q^h) kernel on integer coefficient lists -------------------------


def _one_minus_q_series(heights) -> QSeries:
    out = QSeries.one()
    for h in heights:
        out = out * QSeries({0: 1, h: -1})
    return out


@settings(deadline=None)
@given(st.lists(st.integers(1, 9), max_size=8))
def test_one_minus_q_product_matches_series_product(heights):
    coeffs = one_minus_q_product(heights)
    assert len(coeffs) == sum(heights) + 1
    assert QSeries(dict(enumerate(coeffs))) == _one_minus_q_series(heights)


@settings(deadline=None)
@given(st.lists(st.integers(1, 9), max_size=6), st.lists(st.integers(1, 9), max_size=6))
def test_divide_one_minus_q_undoes_the_product(kept, divided):
    coeffs = one_minus_q_product(kept + divided)
    assert divide_one_minus_q(coeffs, divided) == one_minus_q_product(kept)


@pytest.mark.parametrize(
    "heights,wrong",
    [([3, 5], [2]), ([2, 2], [2, 3]), ([4], [4, 1]), ([1], [2]), ([], [1])],
)
def test_divide_one_minus_q_raises_on_a_wrong_height(heights, wrong):
    with pytest.raises(ValueError, match="not exactly divisible"):
        divide_one_minus_q(one_minus_q_product(heights), wrong)


def test_divide_one_minus_q_checks_the_quotient_against_exact_div():
    # a polynomial that is not a product of (1 - q^h) factors
    coeffs = [2, -1, 0, 5, -6, 1, -1]
    num = QSeries(dict(enumerate(coeffs))) * QSeries({0: 1, 3: -1})
    grid = [num.coefficient(k) for k in range(len(coeffs) + 3)]
    assert divide_one_minus_q(grid, [3]) == coeffs
    assert exact_div(num, QSeries({0: 1, 3: -1})) == QSeries(dict(enumerate(coeffs)))
