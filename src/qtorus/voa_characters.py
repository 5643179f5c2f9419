"""Normalized characters of the higher-rank singlet and triplet logarithmic
VOAs, as truncated q-series.

Each character is a prefactor (a finite product over positive-root heights
divided by a power of the Euler product) times an infinite sum over a cone
of dominant weights in one coset of the root lattice.  Only the weights
whose summand reaches below the cutoff are visited: its lowest exponent is a
closed-form floor that grows in every coordinate, so that window is walked
directly in integer arithmetic.  The kept summands are added below the
cutoff on one integer grid, each floor re-checked at run time, and the
prefactor is applied to that grid in place by strided differences and Euler's
pentagonal recurrence.  One grid per character family, the longest built,
serves every shorter order from its prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable

from .lie_sl import (
    WeightVector,
    _cone_window,
    scaled_casimir,
    weyl_dim,
    zero_weight_dim,
)
from .qseries import (QSeries, _ceil_times, _exact_cutoff, _exact_int, _kept_prefix, _memos,
                      _pentagonal, divide_series_one_minus_q, times_one_minus_q)
from .schur_spec import _add_summands

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
        if _exact_int(self.rank, "rank") < 2:
            raise ValueError("rank must be at least 2")
        if _exact_int(self.p, "p") < 2:
            raise ValueError("the character family is defined for p >= 2")
        if self.kind not in ("singlet", "triplet"):
            raise ValueError(f"kind must be 'singlet' or 'triplet', got {self.kind!r}")
        if not 0 <= _exact_int(self.coset, "coset") < self.rank:
            raise ValueError(f"coset index must be in 0..{self.rank - 1}")
        if self.kind == "singlet" and self.coset != 0:
            raise ValueError("the singlet character lives on coset 0")
        object.__setattr__(self, "cutoff", _exact_cutoff(self.cutoff))
        if self.cutoff <= 0:
            raise ValueError("cutoff must be positive")


def summand_exponent_bound(rank: int, p: int) -> Fraction:
    """Per-unit lower bound: each cone summand has lowest exponent at least
    this times sum(i * a_i) of its weight; see :func:`_cone_sum`."""
    return Fraction(p + rank * (p - 1), 2 * rank)


def _times_prefactor(coeffs: list[int], rank: int) -> list[int]:
    """Multiply the list in place by H_r / E^(r-1), as a power series
    truncated at its length: by (1 - q^k), r - k times for each k < r, then
    r - 1 times divided by the Euler product E = 1 + sum e_g q^g, the terms
    (g, e_g) of ``_pentagonal``: c E = a reads c[n] = a[n] - sum e_g c[n-g]
    over g in 1..n, so O(r N sqrt N)."""
    for k in range(1, rank):
        for _ in range(rank - k):
            times_one_minus_q(coeffs, k)
    length = len(coeffs)
    pentagonal = _pentagonal(length)
    for _ in range(rank - 1):
        for n in range(1, length):
            coeffs[n] -= sum([e * coeffs[n - g] for g, e in pentagonal if g <= n])
    return coeffs


_memos.update(cone_sums={}, lowest_grains={})


def _cone_sum(
    rank: int,
    p: int,
    coset: int,
    cutoff: Fraction,
    dim_of: Callable[[WeightVector], int],
    divisors: tuple[int, ...] = (),
    prefactor: bool = False,
) -> QSeries:
    """Sum over the weights mu of ``coset`` of dim_of(mu) q^(p/2 (mu,mu+2delta))
    times the principal specialization at mu, divided by (1 - q^h) for each h
    in ``divisors``, times the character prefactor H_r / E^(r-1) if
    ``prefactor``, and truncated at ``cutoff``.

    Floor: the specialization is a sum of q^((nu,delta)) over the weights nu
    of the module, each the lowest weight w0.mu (multiplicity 1) plus positive
    roots alpha, with (alpha,delta) > 0.  So the summand starts exactly at
    F(mu) = p/2 (mu,mu+2delta) - (mu,delta) = p/2 (mu,mu) + (p-1)(mu,delta),
    with coefficient dim_of(mu); weights of dimension 0 are skipped.  2r F is
    an integer: r (w_i,w_j) = min(i,j)(r-max(i,j)) and 2 (w_i,delta) = i(r-i).

    Monotonicity: F(mu + w_i) - F(mu) = p (mu,w_i) + p/2 (w_i,w_i) +
    (p-1)(w_i,delta) > 0 for dominant mu, as p >= 2 and all these pairings are
    positive.  So {F < cutoff} is closed under lowering a coordinate, and
    :func:`_cone_window` stops each coordinate at its first value outside it,
    2r F >= ceil(2r cutoff).  Each kept summand, framing p ``scaled_casimir``,
    goes to :func:`schur_spec._add_summands`, which adds it on the integer grid
    of the grain below the cutoff after re-checking that it starts at F(mu).

    Prefix: H_r / E^(r-1) is a series in integer powers of q, so
    :func:`_times_prefactor` applies it to each residue slice i::grain.  The
    final grid is kept in the registry's ``cone_sums`` per family and grain, at the longest
    length built, and a request reads its first L = cutoff grain entries (an
    integer: the grain is a multiple of the cutoff's denominator) into a
    dict of its own, without the zeros (:func:`qseries._kept_prefix`).  These equal a build at L: the window
    {F < cutoff} grows with the cutoff, and a weight outside the shorter one
    starts at index F grain >= L; every later step is a strided sum, a
    strided difference or the pentagonal recurrence, and each reads only
    lower coefficients.

    Grain: on coset k, mu = w_k + beta with beta in the root lattice, so
    (mu,mu) - (w_k,w_k) is even and 2 (mu - w_k, delta) an integer; every
    exponent is p/2 (w_k,w_k+2delta) plus a multiple of 1/2.  Linear bound:
    (mu,mu) >= sum (w_i,w_i) a_i^2 >= sum i a_i / r and (mu,delta) >=
    sum i a_i / 2, so F >= summand_exponent_bound * sum i a_i, and sum i a_i
    >= k on the coset.  That grain, kept per family, is declared whenever
    this bound at w_k lies below the cutoff, even if no summand is kept.
    """
    family, limit = (rank, p, coset, dim_of), _ceil_times(cutoff, 2 * rank)
    grains = _memos["lowest_grains"]
    if family not in grains:  # p/2 (w_k, w_k + 2 delta) = p scaled_casimir / 2r
        lowest = WeightVector(rank, tuple(int(i == coset) for i in range(1, rank)))
        half = 2 * rank // gcd(p * scaled_casimir(lowest), 2 * rank)
        grains[family] = lcm(2, half) if dim_of(lowest) else 1
    # 2r times the linear bound at w_k is the integer (p + r (p - 1)) k
    grain = cutoff.denominator
    if (p + rank * (p - 1)) * coset < limit:
        grain = lcm(grain, grains[family])

    def build(length: int) -> list[int]:
        items = ((dim, mu.coeffs, p * scaled_casimir(mu), n)
                 for mu, n, _, _ in _cone_window(rank, p, coset, limit) if (dim := dim_of(mu)))
        coeffs = [0] * length
        for k, a in _add_summands(items, rank, grain, length).items():
            coeffs[k] = a
        for h in divisors:
            divide_series_one_minus_q(coeffs, h * grain)
        if prefactor:
            for i in range(grain):
                if any(coeffs[i::grain]):
                    coeffs[i::grain] = _times_prefactor(coeffs[i::grain], rank)
        return coeffs

    key = (rank, p, coset, dim_of, divisors, prefactor, grain)
    length = cutoff.numerator * (grain // cutoff.denominator)
    return _kept_prefix("cone_sums", key, length, build, grain, cutoff)


def singlet_char(spec: CharacterSpec) -> QSeries:
    """Normalized singlet character: height product over the Euler-product
    power, times the zero-weight-dimension cone sum on coset 0."""
    if spec.kind != "singlet":
        raise ValueError("spec.kind must be 'singlet'")
    return _cone_sum(spec.rank, spec.p, spec.coset, spec.cutoff, zero_weight_dim,
                     prefactor=True)


def triplet_char(spec: CharacterSpec) -> QSeries:
    """Normalized triplet character on the chosen coset: same prefactor,
    full-dimension cone sum."""
    if spec.kind != "triplet":
        raise ValueError("spec.kind must be 'triplet'")
    return _cone_sum(spec.rank, spec.p, spec.coset, spec.cutoff, weyl_dim,
                     prefactor=True)


def rhs_singlet_limit(
    rank: int, components: int, p: int, cutoff: _ExponentLike
) -> QSeries:
    """The colour-limit comparison series for 2 <= components <= rank:
    cross-product and height-product correction factors times the rank-
    ``components`` singlet character.

    With c = components, the correction E^(c-1) / H_c (E the Euler product,
    H_c the height product) is the inverse power series of the character's
    prefactor, so the series is the cone sum divided by the cross product.
    """
    if not 2 <= components <= rank:
        raise ValueError(
            f"need 2 <= components <= rank, got components={components} rank={rank}"
        )
    cut = CharacterSpec(components, p, "singlet", cutoff).cutoff
    lower, upper = range(1, components + 1), range(components + 1, rank + 1)
    cross = tuple(j - i for j in upper for i in lower)
    return _cone_sum(components, p, 0, cut, zero_weight_dim, cross)


def rhs_triplet_limit(rank: int, p: int, coset: int, cutoff: _ExponentLike) -> QSeries:
    """The colour-limit comparison series for components = rank + 1:
    Euler-product power over the height product, times the triplet character
    on the chosen coset.

    That correction inverts the character's prefactor, so the series is the
    cone sum (see :func:`rhs_singlet_limit`).
    """
    spec = CharacterSpec(rank, p, "triplet", cutoff, coset)
    return _cone_sum(rank, p, coset, spec.cutoff, weyl_dim)
