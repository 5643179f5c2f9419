"""Exact arithmetic for truncated Laurent series in q with rational exponents.

A :class:`QSeries` stores finitely many terms ``coeff * q**(k/grain)``, with
integer keys k and arbitrary-precision integer coefficients, where ``grain``
is a declared common denominator, and an exclusive truncation ``cutoff``:
coefficients at exponents strictly below it are exact, everything at or above
it is unknown; ``cutoff=None`` marks an exact Laurent polynomial.  Exponents
are ``Fraction``s only at the API boundary: the constructor, ``terms``,
``low`` and ``coefficient``.

Every operation computes the largest cutoff at which all reported
coefficients are provably exact, so a result never contains silently
corrupted terms.  Values are immutable after construction and all operations
are pure, so they are safe to share across threads.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import accumulate
from math import ceil, gcd, inf, isqrt, lcm
from operator import sub
from typing import Callable, Iterable, Mapping, Union

_ExponentLike = Union[Fraction, int, str]


def _exp(value: _ExponentLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"exponent {value!r} has a zero denominator") from None


def _exact_int(value, field: str) -> int:
    # int() would truncate a float or Fraction and accept a bool
    if type(value) is not int:
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def _exact_cutoff(value) -> Fraction:
    # a float's Fraction has a power-of-two denominator, and the grain with it
    if type(value) not in (Fraction, int):
        raise ValueError(f"cutoff must be a Fraction or an integer, got {value!r}")
    return value if type(value) is Fraction else Fraction(value)


def _ceil_times(cut: Fraction, g: int) -> int:
    # ceil(g * cut) with no Fraction built; an integer lies below g * cut iff below it
    return -(-g * cut.numerator // cut.denominator)


def _covering_grain(grain: int, min_grain: int) -> int:
    # the grain, once it is checked to be positive and a multiple of min_grain
    if grain <= 0:
        raise ValueError(f"grain must be positive, got {grain}")
    if grain % min_grain:
        raise ValueError(f"grain {grain} does not cover the exponent denominators "
                         f"(needs a multiple of {min_grain})")
    return grain


def _min_cutoff(a: Fraction | None, b: Fraction | None) -> Fraction | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class QSeries:
    """Truncated Laurent series in q with exact integer coefficients.

    ``_grid`` maps each integer k to the nonzero coefficient of q^(k/grain),
    ``grain`` is a declared common denominator for all exponents (and the
    cutoff), and ``cutoff`` is the exclusive truncation bound, or ``None`` for
    an exact polynomial.  Terms at or above the cutoff drop on construction.
    ``terms`` is a ``Fraction``-keyed view of ``_grid``, built on each access.
    """

    __slots__ = ("_grid", "cutoff", "grain")

    def __init__(
        self,
        terms: Mapping[_ExponentLike, int] | Iterable[tuple[_ExponentLike, int]] = (),
        cutoff: _ExponentLike | None = None,
        grain: int | None = None,
    ):
        cut = None if cutoff is None else _exp(cutoff)
        acc: dict[Fraction, int] = {}
        for e, c in terms.items() if isinstance(terms, Mapping) else terms:
            e = _exp(e)
            if type(c) is not int:  # int() would truncate 2.7 and 1/2
                raise ValueError(f"q^({e}) has a non-integer coefficient {c!r}")
            if cut is None or e < cut:
                acc[e] = acc.get(e, 0) + c
        clean = {e: c for e, c in acc.items() if c}
        min_grain = lcm(*(e.denominator for e in clean),
                        1 if cut is None else cut.denominator)
        grain = _covering_grain(min_grain if grain is None else _exact_int(grain, "grain"),
                                min_grain)
        self._grid = {e.numerator * (grain // e.denominator): c for e, c in clean.items()}
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
        return cls({exponent: coeff}, cutoff)

    @classmethod
    def from_grid(
        cls, coeffs: Mapping[int, int], grain: int, cutoff: _ExponentLike | None = None
    ) -> "QSeries":
        """The sum of c q^(k/grain) over ``coeffs``, whose keys k are distinct
        integers, so nothing is added up; the terms at or above ``cutoff`` drop.
        The grain is lifted to cover the cutoff's denominator.  A dict with no zero
        and no key at or above the cutoff is kept, not copied: the caller hands it over."""
        cut = None if cutoff is None else _exp(cutoff)
        if _exact_int(grain, "grain") <= 0:
            raise ValueError(f"grain must be positive, got {grain}")
        g = grain if cut is None else lcm(grain, cut.denominator)
        if g != grain:
            coeffs = {k * (g // grain): c for k, c in coeffs.items()}
        top = inf if cut is None else _ceil_times(cut, g)
        if type(coeffs) is not dict or 0 in coeffs.values() or max(coeffs, default=0) >= top:
            coeffs = {k: c for k, c in coeffs.items() if c and k < top}
        series = cls.__new__(cls)
        series._grid, series.cutoff, series.grain = coeffs, cut, g
        return series

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[Fraction, int]:
        """A fresh dict from reduced exponents to coefficients."""
        return {Fraction(k, self.grain): c for k, c in self._grid.items()}

    @property
    def low(self) -> Fraction | None:
        """Lowest known exponent, or None for a series with no known terms."""
        return Fraction(min(self._grid), self.grain) if self._grid else None

    def _low_bound(self) -> Fraction | None:
        # a lower bound for the true valuation; None means +infinity (exactly 0)
        return self.low if self._grid else self.cutoff

    def _lift(self, g: int) -> dict[int, int]:
        # the terms keyed on the grid of 1/g, a multiple of the grain; not a copy
        s = g // self.grain
        return self._grid if s == 1 else {k * s: c for k, c in self._grid.items()}

    def coefficient(self, exponent: _ExponentLike) -> int:
        k = _exp(exponent) * self.grain  # 0 off the grid
        return self._grid.get(k.numerator, 0) if k.denominator == 1 else 0

    def is_zero(self) -> bool:
        return not self._grid

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "QSeries | None":
        if isinstance(other, int):
            return QSeries({Fraction(0): other})
        return other if isinstance(other, QSeries) else None

    def __add__(self, other) -> "QSeries":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        g = lcm(self.grain, other.grain)
        acc = dict(self._lift(g))
        for k, c in other._lift(g).items():
            acc[k] = acc.get(k, 0) + c
        return QSeries.from_grid(acc, g, _min_cutoff(self.cutoff, other.cutoff))

    __radd__ = __add__

    def __neg__(self) -> "QSeries":
        return QSeries.from_grid(
            {k: -c for k, c in self._grid.items()}, self.grain, self.cutoff)

    def __sub__(self, other) -> "QSeries":
        other = self._coerce(other)
        return NotImplemented if other is None else self.__add__(-other)

    def __rsub__(self, other) -> "QSeries":
        other = self._coerce(other)
        return NotImplemented if other is None else other.__add__(-self)

    def __mul__(self, other) -> "QSeries":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # a's terms are exact below a.cutoff, b's valuation is at least its bound
        cuts = [a.cutoff + b._low_bound() for a, b in ((self, other), (other, self))
                if a.cutoff is not None and b._low_bound() is not None]
        cut = min(cuts) if cuts else None
        # both grains cover the cutoffs and the lows, so g covers cut
        g = lcm(self.grain, other.grain)
        top = None if cut is None else _ceil_times(cut, g)
        right = other._lift(g).items()
        acc: dict[int, int] = {}
        for k1, c1 in self._lift(g).items():
            for k2, c2 in right:
                k = k1 + k2
                if top is not None and k >= top:
                    continue
                acc[k] = acc.get(k, 0) + c1 * c2
        return QSeries.from_grid(acc, g, cut)

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
        return QSeries.from_grid(self._grid, self.grain, cut)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        g = lcm(self.grain, other.grain)
        return self.cutoff == other.cutoff and self._lift(g) == other._lift(g)

    __hash__ = None  # mutable mapping inside; not intended as a dict key

    # -- rendering ---------------------------------------------------------

    def _reductions(self, fmt: Callable[[int], str]) -> dict[int, tuple[int, str]]:
        # k mod grain -> (d, fmt(grain // d)) with d = gcd(k, grain), so that
        # k/grain reduces to (k // d)/(grain // d); at most one entry per term
        g, grid = self.grain, self._grid
        residues = range(g) if g <= len(grid) else {k % g for k in grid}
        return {i: (d, fmt(g // d)) for i in residues for d in (gcd(i, g),)}

    def to_text(self) -> str:
        """Canonical rendering: terms in increasing exponent order, one pass
        with each term formatted in place as its sign, magnitude and power."""
        g, grid, parts = self.grain, self._grid, []
        table = self._reductions(lambda den: "" if den == 1 else f"/{den})")
        append = parts.append
        for k in sorted(grid):
            c = grid[k]
            sign = (" + " if c == 1 else f" + {c}*") if c > 0 else (
                " - " if c == -1 else f" - {-c}*")
            d, tail = table[k % g]
            n = k // d  # the power as one f-string; n = 0 is the constant term
            append(f"{sign}q^({n}{tail}" if tail else f"{sign}q^{n}" if n > 1
                   else f"{sign}q" if n == 1 else f"{sign}q^({n})" if n
                   else f" + {c}" if c > 0 else f" - {-c}")
        if parts:  # the first term has no separator, only its minus sign
            parts[0] = parts[0][3:] if parts[0][1] == "+" else "-" + parts[0][3:]
        cut = self.cutoff
        if cut is not None:
            parts.append(f" + O({_format_power(cut.numerator, cut.denominator)})")
        return ("" if grid else "0") + "".join(parts)

    __str__ = to_text

    def __repr__(self) -> str:
        return f"QSeries({self.to_text()!r})"

    def to_json_dict(self) -> dict:
        return json.loads(self.to_json())

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "QSeries":
        _require_fields(data, "the series", ("grain", "terms"))
        g, cut, terms = _exact_int(data["grain"], "grain"), data.get("cutoff"), data["terms"]
        if cut is not None:
            _require_fields(cut, "cutoff", ("num", "den"))
            num = _exact_int(cut["num"], "cutoff num")
            if not _exact_int(cut["den"], "cutoff den"):
                raise ValueError(f"cutoff {cut} has a zero denominator")
            cut = Fraction(num, cut["den"])
        if not isinstance(terms, (list, tuple)):
            raise ValueError(f"terms must be a list, got {type(terms).__name__}")
        grid: dict[int, int] = {}
        for term in terms:
            try:
                num, den, coeff = term
            except (TypeError, ValueError):
                raise ValueError(f"term {term!r}: must be [num, den, coefficient]") from None
            if not (type(num) is type(den) is int and type(coeff) is str
                    and re.fullmatch("-?[0-9]+", coeff)):
                raise ValueError(f"term {[num, den, coeff]}: num and den must be integers"
                                 " and the coefficient a decimal string")
            if not den or g % den:
                raise ValueError(f"term {[num, den, coeff]}: the grain {g} is not "
                                 f"a multiple of the denominator {den}")
            grid[num * (g // den)] = grid.get(num * (g // den), 0) + int(coeff)
        return cls.from_grid(grid, _covering_grain(g, 1 if cut is None else cut.denominator), cut)

    def to_json(self) -> str:
        """``json.dumps(self.to_json_dict())`` byte for byte, written in one
        pass: terms as reduced ``[num, den, "coefficient"]`` in increasing order."""
        cut, g, grid = self.cutoff, self.grain, self._grid
        table = self._reductions(lambda den: f', {den}, "')
        terms = ", ".join([f'[{k // d}{mid}{grid[k]}"]' for k in sorted(grid)
                           for d, mid in (table[k % g],)])
        cutoff = "null" if cut is None else (
            f'{{"num": {cut.numerator}, "den": {cut.denominator}}}')
        return f'{{"grain": {g}, "cutoff": {cutoff}, "terms": [{terms}]}}'

    @classmethod
    def from_json(cls, text: str) -> "QSeries":
        return cls.from_json_dict(json.loads(text))


def _require_fields(doc, name: str, keys: tuple[str, ...]) -> None:
    """ValueError naming ``name`` unless ``doc`` is a JSON object with ``keys``."""
    if not isinstance(doc, Mapping):
        raise ValueError(f"{name} must be a JSON object, got {type(doc).__name__}")
    for key in keys:
        if key not in doc:
            raise ValueError(f"{name} has no {key!r} field")


def _format_power(num: int, den: int) -> str:
    # q^(num/den) for a reduced fraction with den > 0
    if den != 1:
        return f"q^({num}/{den})"
    if num == 1:
        return "q"
    return f"q^{num}" if num >= 0 else f"q^({num})"


def _least_grain(grid: dict[int, int], grain: int, cut: Fraction | None) -> QSeries:
    # from_grid of nonzero terms on the least grain covering them and the cutoff
    d = gcd(grain, *grid)
    if cut is not None:
        d = gcd(d, grain // cut.denominator)
    return QSeries.from_grid({k // d: c for k, c in grid.items()}, grain // d, cut)


def _kept_prefix(memo: dict, key: tuple, length: int, build: Callable[[int], list[int]],
                 grain: int, cut: Fraction) -> QSeries:
    """The series of the first ``length`` entries of the grid ``memo`` keeps at
    ``key``, entry k at q^(k/grain), truncated at ``cut``.  A kept grid shorter
    than ``length``, or none, is replaced by the tuple of ``build(length)``, so
    each key keeps its longest grid; the caller proves that the prefix of a
    longer build equals a build at ``length``.  The series gets a dict of its own."""
    grid = memo.get(key, ())
    if len(grid) < length:
        grid = memo[key] = tuple(build(length))
    return QSeries.from_grid({k: a for k, a in enumerate(grid[:length]) if a}, grain, cut)


def invert_unit(series: QSeries, cutoff: _ExponentLike | None = None) -> QSeries:
    """Multiplicative inverse of a series whose lowest coefficient is +-1.

    The result cutoff is the largest provably exact order, ``series.cutoff -
    2*low``; an explicit ``cutoff`` lowers it (and is required when inverting
    an untruncated non-monomial, whose inverse is an infinite series).
    """
    if series.is_zero():
        raise ValueError("cannot invert a series with no known nonzero term")
    e0 = series.low
    c0 = series.coefficient(e0)
    if c0 not in (1, -1):
        raise ValueError(
            f"not invertible over the integers: lowest coefficient is {c0}, not +-1")
    res_cut = None if series.cutoff is None else series.cutoff - 2 * e0
    if cutoff is not None:
        res_cut = _min_cutoff(res_cut, _exp(cutoff))
    if res_cut is None:
        if len(series._grid) == 1:
            return QSeries.monomial(c0, -e0)
        raise ValueError("inverting an untruncated non-monomial needs a cutoff")
    # series = c0 * q^e0 * u  with u a unit power series; invert u by the
    # standard term-by-term recurrence on an integer exponent grid.
    rel_order = res_cut + e0
    if rel_order <= 0:
        return QSeries({}, res_cut)
    g = lcm(series.grain, rel_order.denominator)  # covers e0 and res_cut too
    k0 = int(e0 * g)
    u = {k - k0: c * c0 for k, c in series._lift(g).items()}
    n_rel = int(rel_order * g)
    positive = sorted(k for k in u if k > 0)
    v = [1] + [0] * (n_rel - 1)
    for k in range(1, n_rel):
        s = 0
        for j in positive:
            if j > k:
                break
            cj = v[k - j]
            if cj:
                s += u[j] * cj
        v[k] = -s
    return _least_grain({k - k0: c0 * vk for k, vk in enumerate(v) if vk}, g, res_cut)


def exact_div(num: QSeries, den: QSeries) -> QSeries:
    """Exact Laurent-polynomial division; raises unless the remainder is zero.

    Both operands must be untruncated.  Division proceeds densely from the
    top degree on a common integer exponent grid, with every coefficient
    division checked for exactness.
    """
    if num.cutoff is not None or den.cutoff is not None:
        raise ValueError("exact division requires untruncated operands")
    if den.is_zero():
        raise ZeroDivisionError("division by the zero series")
    if num.is_zero():
        return QSeries({})
    g = lcm(num.grain, den.grain)
    rem, lo_a = _dense(num, g)
    b, lo_b = _dense(den, g)
    deg_a, deg_b = len(rem) - 1, len(b) - 1
    if deg_a < deg_b:
        raise ValueError("not exactly divisible: numerator degree too small")
    lead = b[deg_b]
    quot = [0] * (deg_a - deg_b + 1)
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
    return _least_grain({k + lo_a - lo_b: c for k, c in enumerate(quot) if c}, g, None)


def times_one_minus_q(coeffs: list[int], h: int) -> list[int]:
    """Multiply the list in place by (1 - q^h), h >= 1, as a power series
    truncated at its length n: b[k] = a[k] - a[k-h], one strided difference;
    h >= n leaves the list as it is."""
    coeffs[h:] = map(sub, coeffs[h:], coeffs[:-h])
    return coeffs


def divide_series_one_minus_q(coeffs: list[int], d: int) -> list[int]:
    """Divide the list in place by (1 - q^d), d >= 1, as a power series truncated
    at its length n: b[k] = a[k] + b[k-d], one running sum per residue r < n - d."""
    for r in range(min(d, len(coeffs) - d)):
        coeffs[r::d] = accumulate(coeffs[r::d])
    return coeffs


def _dense(series: QSeries, g: int) -> tuple[list[int], int]:
    # (coefficients from the lowest term up, lowest key) on the grid of 1/g
    grid = series._lift(g)
    low = min(grid)
    out = [0] * (max(grid) - low + 1)
    for k, c in grid.items():
        out[k - low] = c
    return out, low


def _pentagonal(length: int) -> list[tuple[int, int]]:
    """(g, (-1)^m) for the pentagonal numbers 0 < g = m(3m -+ 1)/2 < length,
    m >= 1, increasing: prod_(k>=1) (1 - q^k) = 1 + sum (-1)^m q^g (Euler's
    pentagonal number theorem); g >= m^2, so m <= isqrt(length) covers them."""
    return [(g, (-1) ** m) for m in range(1, isqrt(length) + 1)
            for g in (m * (3 * m - 1) // 2, m * (3 * m + 1) // 2) if g < length]


def euler_product(cutoff: _ExponentLike) -> QSeries:
    """The product of (1 - q^k) over k >= 1, truncated at ``cutoff``: 1 plus
    the terms of :func:`_pentagonal` below it."""
    cut = _exp(cutoff)
    if cut < 0:
        raise ValueError("cutoff must be nonnegative")
    return QSeries.from_grid({0: 1, **dict(_pentagonal(ceil(cut)))}, 1, cut)
