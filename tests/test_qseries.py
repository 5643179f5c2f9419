"""Series arithmetic: ring axioms, exact truncation bookkeeping, inversion,
the Euler product, the canonical renderings, and the integer-grid series
against the Fraction-dict series it replaced."""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import ceil, isqrt, lcm
from typing import Iterable, Mapping, Union

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtorus import QSeries, first_disagreement
from qtorus.qseries import (divide_series_one_minus_q, euler_product, exact_div, invert_unit,
                            times_one_minus_q)


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


@st.composite
def grid_st(draw):
    grain = draw(st.sampled_from([1, 2, 4, 6]))
    coeffs = draw(
        st.dictionaries(st.integers(-30, 30), st.integers(-3, 3), max_size=12))
    cutoff = draw(st.one_of(st.none(), st.fractions(-8, 8, max_denominator=6)))
    return coeffs, grain, cutoff


@given(grid_st())
@settings(max_examples=200, deadline=None)
def test_from_grid_matches_the_constructor(grid):
    coeffs, grain, cutoff = grid
    series = QSeries.from_grid(coeffs, grain, cutoff)
    terms = {Fraction(k, grain): c for k, c in coeffs.items()}
    expected_grain = grain if cutoff is None else lcm(grain, cutoff.denominator)
    expected = QSeries(terms, cutoff, grain=expected_grain)
    assert series.to_json_dict() == expected.to_json_dict()
    assert series.terms == expected.terms and series.grain == expected.grain


def test_from_grid_keeps_a_clean_dict_and_filters_any_other():
    # a dict with no zero and no key at or above the cutoff is handed over
    clean = {-3: 2, 0: 1, 4: -5}
    assert QSeries.from_grid(clean, 2, Fraction(5, 2))._grid is clean
    assert QSeries.from_grid(clean, 2)._grid is clean
    # a zero coefficient, or a key at or above the cutoff, still drops, and
    # the handed dict stays as it was
    for grid, cutoff, kept in [({0: 1, 1: 0, 2: 3}, None, {0: 1, 2: 3}),
                               ({0: 1, 1: 0, 2: 3}, 1, {0: 1}),
                               ({0: 1, 5: 2}, Fraction(5, 2), {0: 1}),
                               ({0: 1, 4: 2}, 2, {0: 1}),
                               ({1: 0}, 3, {})]:
        handed = dict(grid)
        series = QSeries.from_grid(handed, 2, cutoff)
        assert series._grid == kept and series._grid is not handed
        assert handed == grid
    # a lifted grain builds its own grid
    assert QSeries.from_grid(clean, 2, Fraction(5, 3))._grid == {-9: 2, 0: 1}


def test_from_grid_sets_its_slots_without_the_general_constructor(monkeypatch):
    def no_init(*args, **kwargs):
        raise AssertionError("from_grid ran QSeries.__init__")

    monkeypatch.setattr(QSeries, "__init__", no_init)
    clean = {-3: 2, 0: 1}
    series = QSeries.from_grid(clean, 2)
    assert (series._grid, series.grain, series.cutoff) == (clean, 2, None)
    series = QSeries.from_grid(clean, 2, "5/3")
    assert (series._grid, series.grain, series.cutoff) == ({-9: 2, 0: 1}, 6, Fraction(5, 3))


@pytest.mark.parametrize("cutoff", [None, Fraction(1, 3)])
def test_from_grid_checks_the_grain_before_lifting_it(cutoff):
    # lcm(-2, 3) = 6 and lcm(0, 3) = 0: a bad grain is refused before the lift
    for grain in (2.5, True, "2", Fraction(2)):
        message = re.escape(f"grain must be an integer, got {grain!r}")
        with pytest.raises(ValueError, match=message):
            QSeries.from_grid({1: 1}, grain, cutoff)
    for grain in (0, -2):
        with pytest.raises(ValueError, match=f"grain must be positive, got {grain}"):
            QSeries.from_grid({1: 1}, grain, cutoff)


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


def reference_format_power(e: Fraction) -> str:
    if e == 1:
        return "q"
    if e.denominator == 1 and e >= 0:
        return f"q^{e.numerator}"
    return f"q^({e})"


def reference_text(terms: Mapping[Fraction, int], cutoff: Fraction | None) -> str:
    # term by term in the Fraction order, through reference_format_power
    bits = []
    for e, c in sorted(terms.items()):
        body = str(abs(c)) if e == 0 else reference_format_power(e)
        if e != 0 and abs(c) != 1:
            body = f"{abs(c)}*{body}"
        sign = ("" if c > 0 else "-") if not bits else ("+ " if c > 0 else "- ")
        bits.append(sign + body)
    text = " ".join(bits or ["0"])
    return text if cutoff is None else f"{text} + O({reference_format_power(cutoff)})"


@given(series_st())
@settings(max_examples=200, deadline=None)
def test_rendering_sorts_and_formats_as_the_fraction_order(s):
    assert s.to_text() == reference_text(s.terms, s.cutoff)


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
@given(
    st.lists(st.integers(-(2**70), 2**70), max_size=40),
    st.lists(st.integers(1, 45), max_size=6),
)
def test_times_one_minus_q_matches_the_truncated_series_product(coeffs, heights):
    # the strided difference against the slow path: the exact product, truncated
    cut = len(coeffs)
    expected = (QSeries(dict(enumerate(coeffs))) * _one_minus_q_series(heights)).truncate(cut)
    product = list(coeffs)
    for h in heights:
        assert times_one_minus_q(product, h) is product
    assert len(product) == cut
    assert QSeries(dict(enumerate(product)), cut) == expected


@settings(deadline=None)
@given(st.data())
def test_times_one_minus_q_past_the_length_leaves_the_list(data):
    coeffs = data.draw(st.lists(st.integers(-(2**70), 2**70), max_size=30))
    h = data.draw(st.integers(max(len(coeffs), 1), len(coeffs) + 10))
    before = list(coeffs)
    assert times_one_minus_q(coeffs, h) is coeffs
    assert coeffs == before


@settings(deadline=None)
@given(st.lists(st.integers(-9, 9), max_size=30), st.lists(st.integers(1, 9), max_size=6))
def test_series_division_undoes_times_one_minus_q(coeffs, heights):
    # both kernels are exact on power series truncated at the length
    out = list(coeffs)
    for h in heights:
        times_one_minus_q(out, h)
    for h in reversed(heights):
        divide_series_one_minus_q(out, h)
    assert out == coeffs


@settings(deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=30),
    st.lists(st.integers(1, 40), max_size=6),
)
def test_series_division_is_multiplication_by_the_inverse_product(coeffs, heights):
    # the running sum against the slow path: times the inverted product, truncated
    cut = len(coeffs)
    expected = QSeries(dict(enumerate(coeffs)), cut) * invert_unit(
        _one_minus_q_series(heights), cut
    )
    quotient = list(coeffs)
    for h in heights:
        assert divide_series_one_minus_q(quotient, h) is quotient
    assert len(quotient) == cut
    assert QSeries(dict(enumerate(quotient)), cut) == expected.truncate(cut)


def strided_divide_series_one_minus_q(coeffs: list[int], d: int) -> list[int]:
    """Divide the coefficient list in place by (1 - q^d), d >= 1, as a power
    series truncated at its length: the running sum b[k] = a[k] + b[k-d],
    over every residue of k mod d."""
    for r in range(min(d, len(coeffs))):
        coeffs[r::d] = accumulate(coeffs[r::d])
    return coeffs


def _assert_division_matches_the_strided_reference(coeffs, d):
    expected = strided_divide_series_one_minus_q(list(coeffs), d)
    quotient = list(coeffs)
    assert divide_series_one_minus_q(quotient, d) is quotient
    assert quotient == expected


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_series_division_matches_the_strided_reference(data):
    # the kernel skips the residues r >= n - d, whose slices hold one entry;
    # the reference sums every residue
    big = 2**100
    coeffs = data.draw(st.lists(st.integers(-big, big), max_size=300))
    d = data.draw(st.integers(1, len(coeffs) + 5))
    _assert_division_matches_the_strided_reference(coeffs, d)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 8, 9, 10, 15, 16, 17, 99, 100, 101, 300])
def test_series_division_at_the_schedule_boundary(n):
    # d next to n / 2, where the residues start to hold one entry, and at
    # n - 1, n, n + 1 and n + 5, where the kernel sums no residue; d*d next to n
    rng = random.Random(n)
    coeffs = [rng.randint(-(2**100), 2**100) for _ in range(n)]
    root, half = isqrt(n), n // 2
    divisors = {root - 1, root, root + 1, half - 1, half, half + 1,
                n - 1, n, n + 1, n + 5}
    for d in sorted(k for k in divisors if k >= 1):
        _assert_division_matches_the_strided_reference(coeffs, d)


def test_kernel_pair_quotient_matches_exact_div():
    # a polynomial that is not a product of (1 - q^h) factors, times one and
    # divided by it again at the length of the product
    coeffs = [2, -1, 0, 5, -6, 1, -1]
    num = QSeries(dict(enumerate(coeffs))) * QSeries({0: 1, 3: -1})
    grid = times_one_minus_q(coeffs + [0] * 3, 3)
    assert grid == [num.coefficient(k) for k in range(len(coeffs) + 3)]
    assert divide_series_one_minus_q(grid, 3) == coeffs + [0] * 3
    assert exact_div(num, QSeries({0: 1, 3: -1})) == QSeries(dict(enumerate(coeffs)))


# -- the Fraction-dict series, kept as the reference -------------------------------
#
# QSeries stores its terms on an integer exponent grid.  The class and functions
# below are the former implementation, which kept a dict keyed on reduced
# Fraction exponents; the differential tests that follow compare the two.

_ExponentLike = Union[Fraction, int, str]


def _dict_exp(value: _ExponentLike) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def _dict_min_cutoff(a: Fraction | None, b: Fraction | None) -> Fraction | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class DictQSeries:
    """The former ``QSeries``, kept verbatim as the reference: terms stored as
    a dict keyed on ``Fraction`` exponents.

    ``terms`` maps exponents (reduced fractions) to nonzero integers, ``grain``
    is a declared common denominator for all exponents (and the cutoff), and
    ``cutoff`` is the exclusive truncation bound, or ``None`` for an exact
    polynomial.  Terms at or above the cutoff are dropped on construction.
    """

    __slots__ = ("terms", "cutoff", "grain")

    def __init__(
        self,
        terms: Mapping[_ExponentLike, int] | Iterable[tuple[_ExponentLike, int]] = (),
        cutoff: _ExponentLike | None = None,
        grain: int | None = None,
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        cut = None if cutoff is None else _dict_exp(cutoff)
        clean: dict[Fraction, int] = {}
        for e, c in items:
            e = _dict_exp(e)
            c = int(c)
            if c == 0 or (cut is not None and e >= cut):
                continue
            acc = clean.get(e, 0) + c
            if acc:
                clean[e] = acc
            else:
                clean.pop(e, None)
        min_grain = 1
        for e in clean:
            min_grain = lcm(min_grain, e.denominator)
        if cut is not None:
            min_grain = lcm(min_grain, cut.denominator)
        if grain is None:
            grain = min_grain
        else:
            grain = int(grain)
            if grain <= 0 or grain % min_grain:
                raise ValueError(
                    f"grain {grain} does not cover the exponent denominators "
                    f"(needs a multiple of {min_grain})"
                )
        self.terms = clean
        self.cutoff = cut
        self.grain = grain

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, cutoff: _ExponentLike | None = None) -> "DictQSeries":
        return cls({}, cutoff)

    @classmethod
    def one(cls, cutoff: _ExponentLike | None = None) -> "DictQSeries":
        return cls({Fraction(0): 1}, cutoff)

    @classmethod
    def monomial(
        cls, coeff: int, exponent: _ExponentLike, cutoff: _ExponentLike | None = None
    ) -> "DictQSeries":
        return cls({_dict_exp(exponent): int(coeff)}, cutoff)

    @classmethod
    def from_grid(
        cls, coeffs: Mapping[int, int], grain: int, cutoff: _ExponentLike | None = None
    ) -> "DictQSeries":
        """The sum of c q^(k/grain) over ``coeffs``, whose keys k are distinct
        integers, so nothing is added up; the terms at or above ``cutoff`` drop."""
        cut = None if cutoff is None else _dict_exp(cutoff)
        series = cls((), cut, grain if cut is None else lcm(grain, cut.denominator))
        top = None if cut is None else ceil(cut * grain)
        series.terms = {Fraction(k, grain): c for k, c in coeffs.items()
                        if c and (top is None or k < top)}
        return series

    # -- inspection --------------------------------------------------------

    @property
    def low(self) -> Fraction | None:
        """Lowest known exponent, or None for a series with no known terms."""
        return min(self.terms) if self.terms else None

    def _low_bound(self) -> Fraction | None:
        # A provable lower bound for the true valuation; None means +infinity
        # (the series is exactly zero).
        if self.terms:
            return min(self.terms)
        return self.cutoff

    def coefficient(self, exponent: _ExponentLike) -> int:
        return self.terms.get(_dict_exp(exponent), 0)

    def sorted_terms(self) -> list[tuple[Fraction, int]]:
        # grain covers every denominator, so the keys are the grid indices
        g = self.grain
        return sorted(
            self.terms.items(), key=lambda t: t[0].numerator * (g // t[0].denominator)
        )

    def is_zero(self) -> bool:
        return not self.terms

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "DictQSeries | None":
        if isinstance(other, DictQSeries):
            return other
        if isinstance(other, int):
            return DictQSeries({Fraction(0): other})
        return None

    def __add__(self, other) -> "DictQSeries":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        cut = _dict_min_cutoff(self.cutoff, other.cutoff)
        acc = dict(self.terms)
        for e, c in other.terms.items():
            acc[e] = acc.get(e, 0) + c
        return DictQSeries(acc, cut, grain=lcm(self.grain, other.grain))

    __radd__ = __add__

    def __neg__(self) -> "DictQSeries":
        return DictQSeries({e: -c for e, c in self.terms.items()}, self.cutoff, self.grain)

    def __sub__(self, other) -> "DictQSeries":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other) -> "DictQSeries":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other.__add__(-self)

    def __mul__(self, other) -> "DictQSeries":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        cuts = []
        if self.cutoff is not None:
            lb = other._low_bound()
            if lb is not None:
                cuts.append(self.cutoff + lb)
        if other.cutoff is not None:
            lb = self._low_bound()
            if lb is not None:
                cuts.append(other.cutoff + lb)
        cut = min(cuts) if cuts else None
        acc: dict[Fraction, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                if cut is not None and e >= cut:
                    continue
                acc[e] = acc.get(e, 0) + c1 * c2
        return DictQSeries(acc, cut, grain=lcm(self.grain, other.grain))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "DictQSeries":
        if n < 0:
            raise ValueError("negative powers are not defined; use dict_invert_unit")
        result = DictQSeries.one()
        for _ in range(n):
            result = result * self
        return result

    def truncate(self, cutoff: _ExponentLike) -> "DictQSeries":
        cut = _dict_min_cutoff(self.cutoff, _dict_exp(cutoff))
        return DictQSeries(self.terms, cut, grain=lcm(self.grain, cut.denominator))

    # -- comparison --------------------------------------------------------

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms and self.cutoff == other.cutoff

    __hash__ = None  # mutable mapping inside; not intended as a dict key

    # -- rendering ---------------------------------------------------------

    def to_text(self) -> str:
        """Canonical rendering: terms in increasing exponent order."""
        bits: list[str] = []
        for e, c in self.sorted_terms():
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                power = _dict_format_power(e)
                body = power if mag == 1 else f"{mag}*{power}"
            if not bits:
                bits.append(body if c > 0 else f"-{body}")
            else:
                bits.append(f"+ {body}" if c > 0 else f"- {body}")
        if not bits:
            bits.append("0")
        text = " ".join(bits)
        if self.cutoff is not None:
            text += f" + O({_dict_format_power(self.cutoff)})"
        return text

    __str__ = to_text

    def __repr__(self) -> str:
        return f"DictQSeries({self.to_text()!r})"

    def to_json_dict(self) -> dict:
        return {
            "grain": self.grain,
            "cutoff": None
            if self.cutoff is None
            else {"num": self.cutoff.numerator, "den": self.cutoff.denominator},
            "terms": [
                [e.numerator, e.denominator, str(c)] for e, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "DictQSeries":
        cut = data.get("cutoff")
        cutoff = None if cut is None else Fraction(cut["num"], cut["den"])
        terms = {Fraction(num, den): int(coeff) for num, den, coeff in data["terms"]}
        return cls(terms, cutoff, grain=data["grain"])

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "DictQSeries":
        return cls.from_json_dict(json.loads(text))


def _dict_format_power(e: Fraction) -> str:
    num, den = e.numerator, e.denominator
    if den != 1:
        return f"q^({num}/{den})"
    if num == 1:
        return "q"
    return f"q^{num}" if num >= 0 else f"q^({num})"


def dict_invert_unit(series: DictQSeries, cutoff: _ExponentLike | None = None) -> DictQSeries:
    """Multiplicative inverse of a series whose lowest coefficient is +-1.

    The result cutoff is the largest provably exact order, ``series.cutoff -
    2*low``; an explicit ``cutoff`` lowers it (and is required when inverting
    an untruncated non-monomial, whose inverse is an infinite series).
    """
    if not series.terms:
        raise ValueError("cannot invert a series with no known nonzero term")
    e0 = series.low
    c0 = series.terms[e0]
    if c0 not in (1, -1):
        raise ValueError(
            f"not invertible over the integers: lowest coefficient is {c0}, not +-1"
        )
    res_cut = None if series.cutoff is None else series.cutoff - 2 * e0
    if cutoff is not None:
        res_cut = _dict_min_cutoff(res_cut, _dict_exp(cutoff))
    if res_cut is None:
        if len(series.terms) == 1:
            return DictQSeries.monomial(c0, -e0)
        raise ValueError("inverting an untruncated non-monomial needs a cutoff")
    # series = c0 * q^e0 * u  with u a unit power series; invert u by the
    # standard term-by-term recurrence on an integer exponent grid.
    rel_order = res_cut + e0
    if rel_order <= 0:
        return DictQSeries({}, res_cut)
    g = lcm(series.grain, rel_order.denominator)
    u: dict[int, int] = {}
    for e, c in series.terms.items():
        u[int((e - e0) * g)] = c * c0
    n_rel = int(rel_order * g)
    positive = sorted(k for k in u if k > 0)
    v = [0] * n_rel
    v[0] = 1
    for k in range(1, n_rel):
        s = 0
        for j in positive:
            if j > k:
                break
            cj = v[k - j]
            if cj:
                s += u[j] * cj
        v[k] = -s
    terms = {Fraction(k, g) - e0: c0 * vk for k, vk in enumerate(v) if vk}
    return DictQSeries(terms, res_cut)


def dict_exact_div(num: DictQSeries, den: DictQSeries) -> DictQSeries:
    """Exact Laurent-polynomial division; raises unless the remainder is zero.

    Both operands must be untruncated.  Division proceeds densely from the
    top degree on a common integer exponent grid, with every coefficient
    division checked for exactness.
    """
    if num.cutoff is not None or den.cutoff is not None:
        raise ValueError("exact division requires untruncated operands")
    if not den.terms:
        raise ZeroDivisionError("division by the zero series")
    if not num.terms:
        return DictQSeries({})
    g = lcm(num.grain, den.grain)
    lo_n, lo_d = num.low, den.low
    a = _dict_dense(num, lo_n, g)
    b = _dict_dense(den, lo_d, g)
    deg_a, deg_b = len(a) - 1, len(b) - 1
    if deg_a < deg_b:
        raise ValueError("not exactly divisible: numerator degree too small")
    lead = b[deg_b]
    quot = [0] * (deg_a - deg_b + 1)
    rem = list(a)
    for k in range(deg_a - deg_b, -1, -1):
        c = rem[k + deg_b]
        if c == 0:
            continue
        q, r = divmod(c, lead)
        if r:
            raise ValueError("not exactly divisible: coefficient remainder")
        quot[k] = q
        for i, bc in enumerate(b):
            if bc:
                rem[k + i] -= q * bc
    if any(rem):
        raise ValueError("not exactly divisible: nonzero remainder")
    base = lo_n - lo_d
    return DictQSeries({Fraction(k, g) + base: c for k, c in enumerate(quot) if c})


def _dict_dense(series: DictQSeries, low: Fraction, g: int) -> list[int]:
    size = int((max(series.terms) - low) * g) + 1
    out = [0] * size
    for e, c in series.terms.items():
        out[int((e - low) * g)] = c
    return out


def dict_euler_product(cutoff: _ExponentLike) -> DictQSeries:
    """The product of (1 - q^k) over k >= 1, truncated at ``cutoff``.

    By Euler's pentagonal number theorem it is the sum over all integers m of
    (-1)^m q^(m(3m-1)/2); both exponents at +-m grow with m >= 0.
    """
    cut = _dict_exp(cutoff)
    if cut < 0:
        raise ValueError("cutoff must be nonnegative")
    terms: dict[int, int] = {}
    m = 0
    while m * (3 * m - 1) // 2 < cut:
        terms[m * (3 * m - 1) // 2] = terms[m * (3 * m + 1) // 2] = (-1) ** m
        m += 1
    return DictQSeries(terms, cut)


GRAINS = [1, 2, 4, 6, 12]


def assert_same(series: QSeries, ref: DictQSeries) -> None:
    # to_json_dict carries the declared grain
    assert series.terms == ref.terms
    assert series.cutoff == ref.cutoff
    assert series.to_text() == ref.to_text()
    assert series.to_json_dict() == ref.to_json_dict()


@st.composite
def pair_st(draw, max_terms=6):
    """The same series built as a QSeries and as a DictQSeries: grains 1, 2,
    4, 6 and 12, declared or inferred; no cutoff, an integer or a fractional
    one."""
    grain = draw(st.sampled_from(GRAINS))
    keys = st.integers(-3 * grain, 6 * grain)
    terms = {Fraction(k, grain): c for k, c in draw(
        st.dictionaries(keys, st.integers(-5, 5), max_size=max_terms)).items()}
    cutoff = draw(st.one_of(
        st.none(),
        st.integers(-2, 6),
        st.integers(-2 * grain, 6 * grain).map(lambda k: Fraction(k, grain)),
    ))
    declared = draw(st.sampled_from([None, grain, 2 * grain]))
    return QSeries(terms, cutoff, declared), DictQSeries(terms, cutoff, declared)


@settings(max_examples=300, deadline=None)
@given(pair_st())
def test_construction_matches_the_dict_series(pair):
    series, ref = pair
    assert_same(series, ref)
    assert series.low == ref.low and series.is_zero() == ref.is_zero()
    assert sorted(series.terms.items()) == ref.sorted_terms()


@settings(max_examples=300, deadline=None)
@given(pair_st(), pair_st())
def test_arithmetic_matches_the_dict_series(left, right):
    (a, ra), (b, rb) = left, right
    assert_same(a + b, ra + rb)
    assert_same(a - b, ra - rb)
    assert_same(a * b, ra * rb)
    assert_same(-a, -ra)
    assert_same(3 - a, 3 - ra)
    assert_same(a + 2, ra + 2)
    assert_same(2 * a, 2 * ra)
    assert (a == b) == (ra == rb)


@settings(max_examples=100, deadline=None)
@given(pair_st(max_terms=3), st.integers(0, 3))
def test_powers_match_the_dict_series(pair, n):
    series, ref = pair
    assert_same(series**n, ref**n)


@settings(max_examples=300, deadline=None)
@given(pair_st(), st.fractions(-4, 8, max_denominator=12))
def test_truncate_matches_the_dict_series(pair, cutoff):
    series, ref = pair
    assert_same(series.truncate(cutoff), ref.truncate(cutoff))
    assert_same(series.truncate(int(cutoff)), ref.truncate(int(cutoff)))


@settings(max_examples=200, deadline=None)
@given(pair_st(), st.sampled_from(GRAINS), st.sampled_from(GRAINS))
def test_equality_ignores_the_declared_grain(pair, g1, g2):
    series, ref = pair
    g1, g2 = lcm(g1, series.grain), lcm(g2, series.grain)
    terms, cutoff = series.terms, series.cutoff
    left, right = QSeries(terms, cutoff, g1), QSeries(terms, cutoff, g2)
    assert left == right and left.grain == g1 and right.grain == g2
    assert (left == series.truncate(5)) == (DictQSeries(terms, cutoff, g1) == ref.truncate(5))


@settings(max_examples=200, deadline=None)
@given(pair_st())
def test_coefficients_match_on_and_off_the_grid(pair):
    series, ref = pair
    for den in (1, 2, 3, 4, 5, 6, 8, 12, 24):
        for num in range(-4 * den, 7 * den):
            e = Fraction(num, den)
            assert series.coefficient(e) == ref.coefficient(e)
    assert series.coefficient(1) == ref.coefficient(1)
    assert series.coefficient("-1/2") == ref.coefficient("-1/2")


@st.composite
def unit_pair_st(draw):
    series, _ = draw(pair_st())
    grain = series.grain
    low = Fraction(draw(st.integers(-3 * grain, 3 * grain)), grain)
    terms = {e: c for e, c in series.terms.items() if e > low}
    terms[low] = draw(st.sampled_from([1, -1]))
    cutoff = draw(st.one_of(
        st.none(), st.integers(1, 8 * grain).map(lambda k: low + Fraction(k, grain))))
    return QSeries(terms, cutoff, grain), DictQSeries(terms, cutoff, grain)


@settings(max_examples=300, deadline=None)
@given(unit_pair_st(), st.one_of(st.none(), st.fractions(-2, 10, max_denominator=12)))
def test_invert_unit_matches_the_dict_series(pair, cutoff):
    series, ref = pair
    try:
        expected = dict_invert_unit(ref, cutoff)
    except ValueError as err:
        with pytest.raises(ValueError, match=re.escape(str(err))):
            invert_unit(series, cutoff)
        return
    assert_same(invert_unit(series, cutoff), expected)


def test_invert_unit_rejects_what_the_dict_series_rejects():
    for terms in ({}, {Fraction(1, 2): 2, 1: 1}):
        with pytest.raises(ValueError):
            dict_invert_unit(DictQSeries(terms, cutoff=4))
        with pytest.raises(ValueError):
            invert_unit(QSeries(terms, cutoff=4))


@settings(max_examples=200, deadline=None)
@given(pair_st(), pair_st())
def test_exact_div_matches_the_dict_series(left, right):
    (a, ra), (b, rb) = left, right
    a, ra = QSeries(a.terms, grain=a.grain), DictQSeries(ra.terms, grain=ra.grain)
    b, rb = QSeries(b.terms, grain=b.grain), DictQSeries(rb.terms, grain=rb.grain)
    if b.is_zero():
        return
    assert_same(exact_div(a * b, b), dict_exact_div(ra * rb, rb))
    try:
        expected = dict_exact_div(ra + 1, rb)
    except ValueError:
        with pytest.raises(ValueError, match="not exactly divisible"):
            exact_div(a + 1, b)
        return
    assert_same(exact_div(a + 1, b), expected)


@st.composite
def grid_with_cutoff_st(draw):
    grain = draw(st.sampled_from(GRAINS))
    coeffs = draw(st.dictionaries(st.integers(-40, 40), st.integers(-3, 3), max_size=12))
    cutoff = draw(st.one_of(
        st.none(), st.integers(-3, 8), st.fractions(-3, 8, max_denominator=12)))
    return coeffs, grain, cutoff


@settings(max_examples=300, deadline=None)
@given(grid_with_cutoff_st())
def test_from_grid_and_json_match_the_dict_series(grid):
    coeffs, grain, cutoff = grid
    series = QSeries.from_grid(coeffs, grain, cutoff)
    ref = DictQSeries.from_grid(coeffs, grain, cutoff)
    assert_same(series, ref)
    back = QSeries.from_json_dict(ref.to_json_dict())
    assert_same(back, ref)
    assert back.to_json() == ref.to_json()
    assert_same(QSeries.from_json(series.to_json()), DictQSeries.from_json(ref.to_json()))


@pytest.mark.parametrize("cutoff", [0, Fraction(1, 2), 7, Fraction(31, 6), 60])
def test_euler_product_matches_the_dict_series(cutoff):
    assert_same(euler_product(cutoff), dict_euler_product(cutoff))


def test_json_rejects_a_denominator_off_the_grain():
    data = {"grain": 2, "cutoff": None, "terms": [[1, 3, "1"]]}
    with pytest.raises(ValueError, match="denominator 3"):
        QSeries.from_json_dict(data)
    with pytest.raises(ValueError, match=re.escape(
            "grain 2 does not cover the exponent denominators (needs a multiple of 3)")):
        QSeries.from_json_dict({"grain": 2, "cutoff": {"num": 1, "den": 3}, "terms": []})
    with pytest.raises(ValueError, match="grain must be positive, got 0"):
        QSeries.from_json_dict({"grain": 0, "cutoff": None, "terms": []})


@pytest.mark.parametrize("data,message", [
    pytest.param({"cutoff": None, "terms": []}, "the series has no 'grain' field",
                 id="no-grain"),
    pytest.param({"grain": 1, "cutoff": None}, "the series has no 'terms' field",
                 id="no-terms"),
    pytest.param({"grain": 1, "cutoff": {"den": 1}, "terms": []},
                 "cutoff has no 'num' field", id="no-cutoff-num"),
    pytest.param({"grain": 1, "cutoff": {"num": 1}, "terms": []},
                 "cutoff has no 'den' field", id="no-cutoff-den"),
    pytest.param({"grain": 1, "cutoff": 3, "terms": []},
                 "cutoff must be a JSON object, got int", id="cutoff-not-an-object"),
    pytest.param({"grain": 1, "cutoff": None, "terms": None},
                 "terms must be a list, got NoneType", id="terms-null"),
    pytest.param([{"grain": 1, "cutoff": None, "terms": []}],
                 "the series must be a JSON object, got list", id="top-level-list"),
    pytest.param({"grain": 2, "cutoff": None, "terms": [[1, 2]]},
                 "term [1, 2]: must be [num, den, coefficient]", id="term-of-two"),
])
def test_json_rejects_a_malformed_document_naming_the_field(data, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        QSeries.from_json_dict(data)


def test_terms_is_a_read_only_fresh_view():
    series = QSeries({Fraction(-1, 2): 3, 2: -7}, cutoff=Fraction(21, 4), grain=4)
    before = series.to_json()
    with pytest.raises(AttributeError):
        series.terms = {}
    view = series.terms
    assert view == {Fraction(-1, 2): 3, Fraction(2): -7}
    view[Fraction(1)] = 5
    del view[Fraction(2)]
    series.terms.clear()
    assert series.terms == {Fraction(-1, 2): 3, Fraction(2): -7}
    assert series.to_json() == before


def test_json_rejects_a_zero_denominator_naming_the_term_or_the_cutoff():
    with pytest.raises(ValueError, match=r"term \[1, 0, '3'\]"):
        QSeries.from_json_dict({"grain": 1, "cutoff": None, "terms": [[1, 0, "3"]]})
    with pytest.raises(ValueError, match="cutoff .* zero denominator"):
        QSeries.from_json_dict({"grain": 1, "cutoff": {"num": 1, "den": 0}, "terms": []})


def test_a_zero_denominator_exponent_string_raises_value_error():
    with pytest.raises(ValueError, match="exponent '1/0' has a zero denominator"):
        QSeries({}, cutoff="1/0")
    with pytest.raises(ValueError, match="exponent '1/0' has a zero denominator"):
        QSeries({"1/0": 1})


@pytest.mark.parametrize("grain", ["2", True, 2.5])
def test_json_rejects_a_grain_that_is_not_an_integer(grain):
    data = {"grain": grain, "cutoff": None, "terms": [[1, 1, "1"]]}
    with pytest.raises(ValueError, match=f"grain must be an integer, got {grain!r}"):
        QSeries.from_json_dict(data)


@pytest.mark.parametrize("field", ["num", "den"])
@pytest.mark.parametrize("value", [1.5, True])
def test_json_rejects_a_cutoff_field_that_is_not_an_integer(field, value):
    cut = {"num": 1, "den": 1, field: value}
    with pytest.raises(ValueError, match=f"cutoff {field} must be an integer"):
        QSeries.from_json_dict({"grain": 1, "cutoff": cut, "terms": []})


@pytest.mark.parametrize("term", [[1.5, 2, "1"], [1, 2.0, "1"], [True, 1, "1"]])
def test_json_rejects_a_term_exponent_that_is_not_an_integer(term):
    with pytest.raises(ValueError, match=r"term \[.*\]: num and den must be integers"):
        QSeries.from_json_dict({"grain": 2, "cutoff": None, "terms": [term]})


@pytest.mark.parametrize(
    "coeff", ["1.5", "1e3", "+1", " 1", "1_0", "--1", "", 7, 1.5, True, None])
def test_json_rejects_a_coefficient_that_is_not_a_decimal_string(coeff):
    # only what to_json writes: an optional minus sign, then digits
    data = {"grain": 1, "cutoff": None, "terms": [[0, 1, "1"], [2, 1, coeff]]}
    with pytest.raises(ValueError, match=r"term \[2, 1, .*\]: .*a decimal string"):
        QSeries.from_json_dict(data)


def test_json_reads_signed_decimal_string_coefficients():
    data = {"grain": 1, "cutoff": None,
            "terms": [[0, 1, "-12345678901234567890"], [1, 1, "007"], [2, 1, "-0"]]}
    assert QSeries.from_json_dict(data) == QSeries({0: -12345678901234567890, 1: 7})


@pytest.mark.parametrize("coeff", [Fraction(1, 2), Fraction(2), 2.7, 2.0, True, False, "1"])
def test_a_coefficient_that_is_not_an_int_raises_naming_its_exponent(coeff):
    # int() would truncate these silently: 1/2 to 0 and 2.7 to 2
    with pytest.raises(ValueError, match=r"q\^\(1/2\) has a non-integer coefficient"):
        QSeries({0: 1, Fraction(1, 2): coeff})
    with pytest.raises(ValueError, match=r"q\^\(5\) has a non-integer coefficient"):
        QSeries.monomial(coeff, 5)
    # also above the cutoff, where the term would drop
    with pytest.raises(ValueError, match=r"q\^\(5\) has a non-integer coefficient"):
        QSeries([(5, coeff)], cutoff=1)


def test_mixed_coefficients_raise_instead_of_truncating():
    with pytest.raises(ValueError, match=re.escape("q^(0) has a non-integer coefficient "
                                                   "Fraction(1, 2)")):
        QSeries({0: Fraction(1, 2), 1: 2.7, 2: True})
    with pytest.raises(ValueError, match=re.escape("q^(1) has a non-integer coefficient "
                                                   "Fraction(5, 2)")):
        QSeries.monomial(Fraction(5, 2), 1)
    assert QSeries({0: -3, 1: 2**100}).terms == {0: -3, 1: 2**100}


@pytest.mark.parametrize("grain", [2.5, 2.0, True, "2", Fraction(2)])
def test_a_grain_that_is_not_an_int_raises(grain):
    message = re.escape(f"grain must be an integer, got {grain!r}")
    with pytest.raises(ValueError, match=message):
        QSeries({1: 1}, grain=grain)


@pytest.mark.parametrize("grain", [0, -2])
def test_a_grain_below_one_is_reported_as_not_positive(grain):
    with pytest.raises(ValueError, match=f"grain must be positive, got {grain}"):
        QSeries((), grain=grain)
    with pytest.raises(ValueError, match="grain must be positive"):
        QSeries.from_json_dict({"grain": grain, "cutoff": None, "terms": []})


# -- the one-pass renderers against the per-term reference ------------------------

BIG = 2**64


@st.composite
def render_grid_st(draw):
    """(grid, grain, cutoff) on grains 1-12: keys of both signs in every
    residue class and k = 0, or a few random keys, or none; coefficients +-1,
    small, or beyond 2^64 in magnitude; no cutoff, or one whose denominator
    divides the grain."""
    grain = draw(st.integers(1, 12))
    keys = set(draw(st.lists(st.integers(-5 * grain, 5 * grain), max_size=8)))
    if draw(st.booleans()):
        keys |= {r + m * grain for r in range(grain) for m in (-2, -1, 0, 1, 3)}
    coeff = st.one_of(
        st.sampled_from([1, -1]), st.integers(-5, 5),
        st.integers(BIG, 2**80).flatmap(lambda c: st.sampled_from([c, -c])))
    grid = {k: draw(coeff) for k in keys}
    den = draw(st.sampled_from([d for d in range(1, grain + 1) if grain % d == 0]))
    cutoff = draw(st.one_of(st.none(), st.integers(-6 * den, 6 * den).map(
        lambda num: Fraction(num, den))))
    return grid, grain, cutoff


def assert_renders_as_the_reference(series: QSeries, ref: DictQSeries) -> None:
    assert series.to_text() == ref.to_text() == reference_text(ref.terms, ref.cutoff)
    assert series.to_json() == json.dumps(ref.to_json_dict())
    assert series.to_json_dict() == ref.to_json_dict()


@settings(max_examples=400, deadline=None)
@given(render_grid_st())
def test_one_pass_rendering_matches_the_per_term_reference(case):
    grid, grain, cutoff = case
    series = QSeries.from_grid(grid, grain, cutoff)
    assert series.grain == grain
    assert_renders_as_the_reference(series, DictQSeries.from_grid(grid, grain, cutoff))


@pytest.mark.parametrize("cutoff", [None, 0, Fraction(-5, 6), 4])
def test_the_empty_series_renders_as_the_reference(cutoff):
    assert_renders_as_the_reference(QSeries({}, cutoff, 6), DictQSeries({}, cutoff, 6))


@pytest.mark.parametrize("terms, text", [
    ({1: 1}, "q"),
    ({3: 1}, "q^3"),
    ({-2: 1}, "q^(-2)"),
    ({Fraction(5, 6): 1}, "q^(5/6)"),
    ({Fraction(-1, 2): -1}, "-q^(-1/2)"),
    ({0: -BIG, Fraction(7, 4): BIG}, f"-{BIG} + {BIG}*q^(7/4)"),
])
def test_each_power_form_renders_as_the_reference(terms, text):
    series, ref = QSeries(terms), DictQSeries(terms)
    assert series.to_text() == text
    assert_renders_as_the_reference(series, ref)


def test_a_huge_grain_renders_without_a_table_per_residue():
    grain = 10**12
    series = QSeries.from_grid({-1: 3, grain: -1}, grain)
    assert series.to_text() == "3*q^(-1/1000000000000) - q"
    assert series.to_json() == (
        '{"grain": 1000000000000, "cutoff": null, "terms": '
        '[[-1, 1000000000000, "3"], [1, 1, "-1"]]}')
