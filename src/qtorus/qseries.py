"""Exact arithmetic for truncated Laurent series in q with rational exponents.

A :class:`QSeries` stores finitely many terms ``coeff * q**exponent`` with
arbitrary-precision integer coefficients and exact rational exponents,
together with an exclusive truncation ``cutoff``: coefficients at exponents
strictly below the cutoff are exact, everything at or above it is unknown.
``cutoff=None`` marks an exact (untruncated) Laurent polynomial.

Every operation computes the largest cutoff at which all reported
coefficients are provably exact, so a result never contains silently
corrupted terms.  Values are immutable after construction and all operations
are pure, so they are safe to share across threads.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import accumulate
from math import ceil, lcm
from operator import add
from typing import Iterable, Mapping, Union

_ExponentLike = Union[Fraction, int, str]


def _exp(value: _ExponentLike) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def _min_cutoff(a: Fraction | None, b: Fraction | None) -> Fraction | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class QSeries:
    """Truncated Laurent series in q with exact integer coefficients.

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
        cut = None if cutoff is None else _exp(cutoff)
        clean: dict[Fraction, int] = {}
        for e, c in items:
            e = _exp(e)
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
    def zero(cls, cutoff: _ExponentLike | None = None) -> "QSeries":
        return cls({}, cutoff)

    @classmethod
    def one(cls, cutoff: _ExponentLike | None = None) -> "QSeries":
        return cls({Fraction(0): 1}, cutoff)

    @classmethod
    def monomial(
        cls, coeff: int, exponent: _ExponentLike, cutoff: _ExponentLike | None = None
    ) -> "QSeries":
        return cls({_exp(exponent): int(coeff)}, cutoff)

    @classmethod
    def from_grid(
        cls, coeffs: Mapping[int, int], grain: int, cutoff: _ExponentLike | None = None
    ) -> "QSeries":
        """The sum of c q^(k/grain) over ``coeffs``, whose keys k are distinct
        integers, so nothing is added up; the terms at or above ``cutoff`` drop."""
        cut = None if cutoff is None else _exp(cutoff)
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
        return self.terms.get(_exp(exponent), 0)

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
    def _coerce(other) -> "QSeries | None":
        if isinstance(other, QSeries):
            return other
        if isinstance(other, int):
            return QSeries({Fraction(0): other})
        return None

    def __add__(self, other) -> "QSeries":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        cut = _min_cutoff(self.cutoff, other.cutoff)
        acc = dict(self.terms)
        for e, c in other.terms.items():
            acc[e] = acc.get(e, 0) + c
        return QSeries(acc, cut, grain=lcm(self.grain, other.grain))

    __radd__ = __add__

    def __neg__(self) -> "QSeries":
        return QSeries({e: -c for e, c in self.terms.items()}, self.cutoff, self.grain)

    def __sub__(self, other) -> "QSeries":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other) -> "QSeries":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other.__add__(-self)

    def __mul__(self, other) -> "QSeries":
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
        return QSeries(acc, cut, grain=lcm(self.grain, other.grain))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QSeries":
        if n < 0:
            raise ValueError("negative powers are not defined; use invert_unit")
        result = QSeries.one()
        for _ in range(n):
            result = result * self
        return result

    def truncate(self, cutoff: _ExponentLike) -> "QSeries":
        cut = _min_cutoff(self.cutoff, _exp(cutoff))
        return QSeries(self.terms, cut, grain=lcm(self.grain, cut.denominator))

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
                power = _format_power(e)
                body = power if mag == 1 else f"{mag}*{power}"
            if not bits:
                bits.append(body if c > 0 else f"-{body}")
            else:
                bits.append(f"+ {body}" if c > 0 else f"- {body}")
        if not bits:
            bits.append("0")
        text = " ".join(bits)
        if self.cutoff is not None:
            text += f" + O({_format_power(self.cutoff)})"
        return text

    __str__ = to_text

    def __repr__(self) -> str:
        return f"QSeries({self.to_text()!r})"

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
    def from_json_dict(cls, data: Mapping) -> "QSeries":
        cut = data.get("cutoff")
        cutoff = None if cut is None else Fraction(cut["num"], cut["den"])
        terms = {Fraction(num, den): int(coeff) for num, den, coeff in data["terms"]}
        return cls(terms, cutoff, grain=data["grain"])

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "QSeries":
        return cls.from_json_dict(json.loads(text))


def _format_power(e: Fraction) -> str:
    num, den = e.numerator, e.denominator
    if den != 1:
        return f"q^({num}/{den})"
    if num == 1:
        return "q"
    return f"q^{num}" if num >= 0 else f"q^({num})"


def invert_unit(series: QSeries, cutoff: _ExponentLike | None = None) -> QSeries:
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
        res_cut = _min_cutoff(res_cut, _exp(cutoff))
    if res_cut is None:
        if len(series.terms) == 1:
            return QSeries.monomial(c0, -e0)
        raise ValueError("inverting an untruncated non-monomial needs a cutoff")
    # series = c0 * q^e0 * u  with u a unit power series; invert u by the
    # standard term-by-term recurrence on an integer exponent grid.
    rel_order = res_cut + e0
    if rel_order <= 0:
        return QSeries({}, res_cut)
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
    return QSeries(terms, res_cut)


def exact_div(num: QSeries, den: QSeries) -> QSeries:
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
        return QSeries({})
    g = lcm(num.grain, den.grain)
    lo_n, lo_d = num.low, den.low
    a = _dense(num, lo_n, g)
    b = _dense(den, lo_d, g)
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
    return QSeries({Fraction(k, g) + base: c for k, c in enumerate(quot) if c})


def one_minus_q_product(heights: Iterable[int]) -> list[int]:
    """Coefficient list (index = exponent) of the product of (1 - q^h), h >= 1."""
    coeffs = [1]
    for h in heights:
        coeffs = [a - b for a, b in zip(coeffs + [0] * h, [0] * h + coeffs)]
    return coeffs


def divide_series_one_minus_q(coeffs: list[int], d: int) -> list[int]:
    """Divide the coefficient list in place by (1 - q^d), d >= 1, as a power
    series truncated at its length: the running sum b[k] = a[k] + b[k-d].

    With n = len(coeffs): d strided sums if d*d <= n, else each block of
    length d added into the next, j = d, 2d, ...; entry k reads only entry
    k - d, in the block before, already final.  So min(d, n/d) slice steps.
    """
    if d * d <= len(coeffs):
        for r in range(d):
            coeffs[r::d] = accumulate(coeffs[r::d])
    else:
        for j in range(d, len(coeffs), d):
            coeffs[j : j + d] = map(add, coeffs[j : j + d], coeffs[j - d : j])
    return coeffs


def divide_one_minus_q(coeffs: list[int], heights: Iterable[int]) -> list[int]:
    """Divide the coefficient list in place by each (1 - q^d), exactly.

    The power-series quotient is the running sum of
    :func:`divide_series_one_minus_q`; it is a polynomial exactly when
    b[k] = 0 for deg(a) - d < k <= deg(a), since beyond deg(a) the sum then
    only copies zeros.  Raises ValueError if not.
    """
    for d in heights:
        divide_series_one_minus_q(coeffs, d)
        if any(coeffs[-d:]):
            raise ValueError(f"not exactly divisible by 1 - q^{d}")
        del coeffs[-d:]
    return coeffs


def _dense(series: QSeries, low: Fraction, g: int) -> list[int]:
    size = int((max(series.terms) - low) * g) + 1
    out = [0] * size
    for e, c in series.terms.items():
        out[int((e - low) * g)] = c
    return out


def euler_product(cutoff: _ExponentLike) -> QSeries:
    """The product of (1 - q^k) over k >= 1, truncated at ``cutoff``.

    By Euler's pentagonal number theorem it is the sum over all integers m of
    (-1)^m q^(m(3m-1)/2); both exponents at +-m grow with m >= 0.
    """
    cut = _exp(cutoff)
    if cut < 0:
        raise ValueError("cutoff must be nonnegative")
    terms: dict[int, int] = {}
    m = 0
    while m * (3 * m - 1) // 2 < cut:
        terms[m * (3 * m - 1) // 2] = terms[m * (3 * m + 1) // 2] = (-1) ** m
        m += 1
    return QSeries(terms, cut)
