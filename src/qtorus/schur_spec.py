"""Principal specializations of Schur polynomials as exact Laurent polynomials.

The symmetric normalization is used throughout: the Schur polynomial is
evaluated at q^((r-1)/2), q^((r-3)/2), ..., q^((1-r)/2), giving a palindromic
Laurent polynomial of grain 2.  The product form is evaluated on an integer
coefficient list, by exact division of products of factors 1 - q^k; a
Weyl-group alternant quotient provides an independent oracle for small ranks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import Iterable

from .combinatorics import as_partition, perm_sign
from .lie_sl import WeightVector, epsilon_coords, partition_of_weight, weyl_vector
from .qseries import QSeries, divide_one_minus_q, exact_div, one_minus_q_product


def principal_spec(shape: Iterable[int], rank: int) -> QSeries:
    """Principal specialization of the Schur polynomial of ``shape``.

    Requires at most ``rank`` rows.  The result is exact (no truncation)
    with declared grain 2, palindromic about exponent 0, and sums to the
    module dimension at q -> 1.

    With [k] = q^(k/2) - q^(-k/2) = -q^(-k/2) (1 - q^k), it is the product
    over i < j of [h_ij] / [j - i], h_ij = lam_i - lam_j + j - i; the signs
    cancel in pairs, leaving q^(-D/2) P(q), D = sum (lam_i - lam_j), with the
    integer polynomial P = prod (1 - q^h_ij) / prod (1 - q^(j-i)).
    """
    return _halved(*principal_spec_poly(shape, rank))


def principal_spec_poly(shape: Iterable[int], rank: int) -> tuple[tuple[int, ...], int]:
    """(P's coefficients, D) for :func:`principal_spec`; P(0) = 1."""
    lam = as_partition(shape)
    if len(lam) > rank:
        raise ValueError(f"partition has {len(lam)} rows, rank is {rank}")
    padded = lam + (0,) * (rank - len(lam))
    return _spec_of_gaps(tuple(padded[i] - padded[i + 1] for i in range(rank - 1)))


# Shared (P, D) tuples, which no caller can mutate.  Seed-1 runs use 707 gap vectors
# in 400 jones_full rounds (32,423 coefficients), 67 in verify_scan, 105 in char_order.
SPEC_CACHE_SIZE = 1024


@lru_cache(maxsize=SPEC_CACHE_SIZE)
def _spec_of_gaps(gaps: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """(P, D) at rank len(gaps) + 1 for the shapes with row differences
    ``gaps``; the gap at k is counted in D by the k(rank - k) pairs i <= k < j."""
    rank = len(gaps) + 1
    pairs = [(i, j) for j in range(rank) for i in range(j)]
    poly = one_minus_q_product(sum(gaps[i:j]) + j - i for i, j in pairs)
    poly = divide_one_minus_q(poly, (j - i for i, j in pairs))
    return tuple(poly), sum(k * (rank - k) * g for k, g in enumerate(gaps, 1))


def _halved(poly: Iterable[int], shift: int, sign: int = 1) -> QSeries:
    # sign * q^(-shift/2) * sum_k poly[k] q^k, with declared grain 2
    return QSeries.from_grid({2 * k - shift: sign * c for k, c in enumerate(poly)}, 2)


def principal_spec_weight(mu: WeightVector) -> QSeries:
    """Principal specialization attached to a dominant weight.

    Well defined because the value only depends on row differences; the
    canonical partition representative (last row zero) is used.
    """
    return principal_spec(partition_of_weight(mu), mu.rank)


def weyl_denominator(rank: int) -> QSeries:
    """Product of q^(h/2) - q^(-h/2) = -q^(-h/2) (1 - q^h) over root heights h."""
    if rank < 2:
        raise ValueError("rank must be at least 2")
    heights = [j - i for j in range(rank + 1) for i in range(1, j)]
    return _halved(one_minus_q_product(heights), sum(heights), (-1) ** len(heights))


def alternant_spec_oracle(mu: WeightVector, *, max_rank: int = 6) -> QSeries:
    """Independent oracle: the alternant quotient over the Weyl group.

    Enumerates all rank! permutations, so it is guarded to small ranks and
    meant for cross-checking ``principal_spec``.
    """
    r = mu.rank
    if r > max_rank:
        raise ValueError(f"oracle guard exceeded (rank <= {max_rank})")
    shifted = WeightVector(r, tuple(a + 1 for a in mu.coeffs))
    v = epsilon_coords(shifted)
    d = epsilon_coords(weyl_vector(r))
    return exact_div(_alternant(v, d), _alternant(d, d))


def _alternant(v: tuple[Fraction, ...], d: tuple[Fraction, ...]) -> QSeries:
    acc: dict[Fraction, int] = {}
    for perm in permutations(range(len(v))):
        sign = perm_sign(perm)
        e = sum((v[perm[i]] * d[i] for i in range(len(v))), Fraction(0))
        acc[e] = acc.get(e, 0) + sign
    return QSeries(acc)
