"""Principal specializations of Schur polynomials as exact Laurent polynomials.

The symmetric normalization is used throughout: the Schur polynomial is
evaluated at q^((r-1)/2), q^((r-3)/2), ..., q^((1-r)/2), giving a palindromic
Laurent polynomial of grain 2.  The product form is evaluated on one integer
coefficient list by the in-place (1 - q^h) kernels, with one exactness check.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .combinatorics import as_partition
from .lie_sl import WeightVector, partition_of_weight
from .qseries import QSeries, divide_series_one_minus_q, times_one_minus_q


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
    poly, d = principal_spec_poly(shape, rank)
    return QSeries.from_grid({2 * k - d: c for k, c in enumerate(poly)}, 2)


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
    ``gaps``; the gap at k is counted in D by the k(rank - k) pairs i <= k < j.

    The factors act in any order on length S + 1, S = sum h_ij = D + sum (j - i):
    the (1 - q^h_ij) exactly, and the divisions leave the power-series quotient
    Q.  If Q is 0 above degree D, Q times the divisors has degree at most S and
    agrees with the product below q^(S+1), so equals it: P = Q.  Otherwise no
    P exists (it would be Q), and ValueError is raised.
    """
    rank = len(gaps) + 1
    pairs = [(i, j) for j in range(rank) for i in range(j)]
    d = sum(k * (rank - k) * g for k, g in enumerate(gaps, 1))
    poly = [1] + [0] * (d + sum(j - i for i, j in pairs))
    for i, j in pairs:
        times_one_minus_q(poly, sum(gaps[i:j]) + j - i)
        divide_series_one_minus_q(poly, j - i)
    if any(poly[d + 1:]):
        raise ValueError(f"not exactly divisible by the (1 - q^(j - i)) at gaps {gaps}")
    return tuple(poly[:d + 1]), d


def principal_spec_weight(mu: WeightVector) -> QSeries:
    """Principal specialization attached to a dominant weight.

    Well defined because the value only depends on row differences; the
    canonical partition representative (last row zero) is used.
    """
    return principal_spec(partition_of_weight(mu), mu.rank)
