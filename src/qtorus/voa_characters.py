"""Normalized characters of the higher-rank singlet and triplet logarithmic
VOAs, as truncated q-series.

Each character is a prefactor (a finite product over positive-root heights
divided by a power of the Euler product) times an infinite sum over a cone
of dominant weights in one coset of the root lattice.  Only the weights
whose summand reaches below the cutoff are visited: its lowest exponent is a
closed-form floor that grows in every coordinate, so that window is walked
directly in integer arithmetic.  Each kept summand is truncated before it is
added and its floor is re-checked at run time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, lcm
from typing import Callable, Iterable

from .lie_sl import (
    WeightVector,
    casimir_pairing,
    scaled_coeff_sum,
    weyl_dim,
    zero_weight_dim,
)
from .qseries import QSeries, euler_product, invert_unit, one_minus_q_product
from .schur_spec import principal_spec_weight

_ExponentLike = Fraction | int


@dataclass(frozen=True)
class CharacterSpec:
    """Parameters of one normalized character series."""

    rank: int
    p: int
    kind: str
    cutoff: Fraction
    coset: int = 0

    def __post_init__(self):
        if self.rank < 2:
            raise ValueError("rank must be at least 2")
        if self.p < 2:
            raise ValueError("the character family is defined for p >= 2")
        if self.kind not in ("singlet", "triplet"):
            raise ValueError(f"kind must be 'singlet' or 'triplet', got {self.kind!r}")
        if not 0 <= self.coset < self.rank:
            raise ValueError(f"coset index must be in 0..{self.rank - 1}")
        if self.kind == "singlet" and self.coset != 0:
            raise ValueError("the singlet character lives on coset 0")
        object.__setattr__(self, "cutoff", Fraction(self.cutoff))
        if self.cutoff <= 0:
            raise ValueError("cutoff must be positive")


def summand_exponent_bound(rank: int, p: int) -> Fraction:
    """Per-unit lower bound: each cone summand has lowest exponent at least
    this times sum(i * a_i) of its weight."""
    return Fraction(p, 2 * rank) + Fraction(p - 1, 2)


def enumeration_level(rank: int, p: int, cutoff: Fraction) -> int:
    """Largest scaled coordinate sum whose summand can reach below cutoff."""
    bound = summand_exponent_bound(rank, p)
    # include m only when bound * m < cutoff
    return max(ceil(cutoff / bound) - 1, 0)


def _cone_window(rank: int, p: int, coset: int, cutoff: Fraction, level: int):
    """Yield each weight of ``dominant_weights(rank, level, coset)`` whose
    floor F lies below ``cutoff``, paired with F; see :func:`_cone_sum`."""
    coords = range(1, rank)
    gram = [[min(i, j) * (rank - max(i, j)) for j in coords] for i in coords]
    linear = [rank * (p - 1) * i * (rank - i) for i in coords]
    limit = ceil(2 * rank * cutoff)  # an integer is below 2r cutoff iff below this

    def walk(k: int, coeffs: tuple[int, ...], n: int, scaled: int):
        # n is 2r F of coeffs padded with zeros
        if k == rank - 1:
            if scaled % rank == coset:
                yield WeightVector(rank, coeffs), Fraction(n, 2 * rank)
            return
        cross = 2 * p * sum(g * a for g, a in zip(gram[k], coeffs))
        a = 0
        while n < limit and scaled <= level:
            yield from walk(k + 1, coeffs + (a,), n, scaled)
            n += cross + p * gram[k][k] * (2 * a + 1) + linear[k]
            scaled += k + 1
            a += 1

    yield from walk(0, (), 0, 0)


def _cone_sum(
    rank: int,
    p: int,
    coset: int,
    cutoff: Fraction,
    dim_of: Callable[[WeightVector], int],
    enumeration_bound: int | None = None,
) -> QSeries:
    """Sum over the weights mu of ``coset`` of dim_of(mu) q^(p/2 (mu,mu+2delta))
    times the principal specialization at mu, truncated at ``cutoff``.

    Floor: the specialization is a sum of q^((nu,delta)) over the weights nu
    of the module, each the lowest weight w0.mu (multiplicity 1) plus positive
    roots alpha, with (alpha,delta) > 0.  So the summand starts exactly at
    F(mu) = p/2 (mu,mu+2delta) - (mu,delta) = p/2 (mu,mu) + (p-1)(mu,delta),
    with coefficient dim_of(mu); weights of dimension 0 are skipped.  2r F is
    an integer: r (w_i,w_j) = min(i,j)(r-max(i,j)) and 2 (w_i,delta) = i(r-i).

    Monotonicity: F(mu + w_i) - F(mu) = p (mu,w_i) + p/2 (w_i,w_i) +
    (p-1)(w_i,delta) > 0 for dominant mu, as p >= 2 and all these pairings are
    positive.  So {F < cutoff} is closed under lowering a coordinate, and
    :func:`_cone_window` stops each coordinate at its first value outside it.

    Linear bound: (mu,mu) >= sum (w_i,w_i) a_i^2 >= sum i a_i / r and
    (mu,delta) >= sum i a_i / 2, so F >= summand_exponent_bound * sum i a_i
    and the window lies within :func:`enumeration_level`, or within
    ``enumeration_bound`` when that is given.  Each kept summand is truncated
    before it is added, and an AssertionError is raised unless it starts at
    F(mu) and at or above the linear bound.
    """
    bound = summand_exponent_bound(rank, p)
    if enumeration_bound is None:
        enumeration_bound = enumeration_level(rank, p, cutoff)
    level = int(enumeration_bound)
    # All summands on a coset declare one grain; the sum declares it once the
    # coset's lowest weight is within the level, even if no summand is kept.
    lowest = WeightVector(rank, tuple(int(i == coset) for i in range(1, rank)))
    grain = cutoff.denominator
    if scaled_coeff_sum(lowest) <= level and dim_of(lowest):
        grain = lcm(grain, 2, (Fraction(p, 2) * casimir_pairing(lowest)).denominator)
    total = QSeries({}, cutoff, grain)
    for mu, floor in _cone_window(rank, p, coset, cutoff, level):
        dim = dim_of(mu)
        if dim == 0:
            continue
        exponent = Fraction(p, 2) * casimir_pairing(mu)
        term = QSeries.monomial(dim, exponent) * principal_spec_weight(mu)
        term = term.truncate(cutoff)
        linear = bound * scaled_coeff_sum(mu)
        if term.low != floor or term.low < linear:
            raise AssertionError(
                f"summand at {mu} starts at {term.low}, but its floor is {floor} "
                f"and the linear bound {linear}; truncation would be unsound"
            )
        total = total + term
    return total


def _one_minus_q_product(heights: Iterable[int]) -> QSeries:
    """Product of (1 - q^h) over the given heights; exact."""
    return QSeries(dict(enumerate(one_minus_q_product(heights))))


def _height_product(rank: int) -> QSeries:
    """Product of (1 - q^(j-i)) over 1 <= i < j <= rank; exact."""
    return _one_minus_q_product(j - i for j in range(rank + 1) for i in range(1, j))


def _cross_product(components: int, rank: int) -> QSeries:
    """Product of (1 - q^(j-i)) over i <= components < j <= rank; exact."""
    lower, upper = range(1, components + 1), range(components + 1, rank + 1)
    return _one_minus_q_product(j - i for j in upper for i in lower)


def _character(spec: CharacterSpec, dim_of, enumeration_bound: int | None) -> QSeries:
    cut = spec.cutoff
    prefactor = _height_product(spec.rank) * invert_unit(
        euler_product(cut) ** (spec.rank - 1)
    )
    cone = _cone_sum(spec.rank, spec.p, spec.coset, cut, dim_of, enumeration_bound)
    return (prefactor * cone).truncate(cut)


def singlet_char(spec: CharacterSpec, *, enumeration_bound: int | None = None) -> QSeries:
    """Normalized singlet character: height product over the Euler-product
    power, times the zero-weight-dimension cone sum on coset 0."""
    if spec.kind != "singlet":
        raise ValueError("spec.kind must be 'singlet'")
    return _character(spec, zero_weight_dim, enumeration_bound)


def triplet_char(spec: CharacterSpec, *, enumeration_bound: int | None = None) -> QSeries:
    """Normalized triplet character on the chosen coset: same prefactor,
    full-dimension cone sum."""
    if spec.kind != "triplet":
        raise ValueError("spec.kind must be 'triplet'")
    return _character(spec, weyl_dim, enumeration_bound)


def rhs_singlet_limit(
    rank: int, components: int, p: int, cutoff: _ExponentLike
) -> QSeries:
    """The colour-limit comparison series for 2 <= components <= rank:
    cross-product and height-product correction factors times the rank-
    ``components`` singlet character.

    With c = components, the correction E^(c-1) / H_c (E the Euler product,
    H_c the height product) is the inverse power series of the character's
    prefactor, so only the cross-product inverse times the cone sum is built.
    Truncation: every factor starts at exponent 0 (the cone sum at mu = 0)
    and is exact below the cutoff, so either product is exact below it and
    has the cutoff as its own.  Each factor's grain divides the cone sum's,
    which covers the cutoff's denominator, so the grain agrees too.
    """
    if not 2 <= components <= rank:
        raise ValueError(
            f"need 2 <= components <= rank, got components={components} rank={rank}"
        )
    cut = CharacterSpec(components, p, "singlet", cutoff).cutoff
    cross = invert_unit(_cross_product(components, rank), cut)
    return (cross * _cone_sum(components, p, 0, cut, zero_weight_dim)).truncate(cut)


def rhs_triplet_limit(rank: int, p: int, coset: int, cutoff: _ExponentLike) -> QSeries:
    """The colour-limit comparison series for components = rank + 1:
    Euler-product power over the height product, times the triplet character
    on the chosen coset.

    That correction inverts the character's prefactor, so the series is the
    cone sum (see :func:`rhs_singlet_limit`).  The cone sum may start above
    0, but the other factors start at 0, so the cutoff is still the cutoff.
    """
    spec = CharacterSpec(rank, p, "triplet", cutoff, coset)
    return _cone_sum(rank, p, coset, spec.cutoff, weyl_dim)
