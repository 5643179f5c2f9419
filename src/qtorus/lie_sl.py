"""Weight-lattice dictionary for the type-A simple Lie algebras.

Dominant integral weights are kept in fundamental-weight coordinates
(a_1, ..., a_{r-1}) with the rank carried alongside.  Pairings use the
standard form (w_i, w_j) = min(i,j) - ij/r; partitions translate to
weights by row differences, weights back to partitions by suffix sums.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import itemgetter
from typing import Iterable, Iterator

from .combinatorics import Partition, as_partition, kostka
from .qseries import _exact_int


@dataclass(frozen=True)
class WeightVector:
    """A dominant integral weight of the rank-``rank`` algebra."""

    rank: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if _exact_int(self.rank, "rank") < 2:
            raise ValueError("rank must be at least 2")
        coeffs = tuple(self.coeffs)
        if len(coeffs) != self.rank - 1:
            raise ValueError(
                f"need {self.rank - 1} fundamental-weight coordinates, "
                f"got {len(coeffs)}"
            )
        for a in coeffs:
            if _exact_int(a, "weight coordinate") < 0:
                raise ValueError("dominant integral weights need nonnegative coordinates")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def coset_index(self) -> int:
        """Index i of the coset (root lattice + i * first fundamental weight)."""
        return sum(i * a for i, a in enumerate(self.coeffs, 1)) % self.rank


def scaled_casimir(mu: WeightVector) -> int:
    """r (mu, mu + 2*delta), an integer: the sum of r (w_i, w_j) = min(i,j) r - ij."""
    r, a = mu.rank, mu.coeffs
    return sum(ai * (aj + 2) * (min(i, j) * r - i * j)
               for i, ai in enumerate(a, 1) if ai for j, aj in enumerate(a, 1))


def casimir_pairing(mu: WeightVector) -> Fraction:
    """(mu, mu + 2*delta), exactly."""
    return Fraction(scaled_casimir(mu), mu.rank)


def weight_of_partition(shape: Iterable[int], rank: int) -> WeightVector:
    """Row-difference coordinates of a partition with at most ``rank`` rows."""
    lam = as_partition(shape)
    if len(lam) > rank:
        raise ValueError(f"partition has {len(lam)} rows, rank is {rank}")
    padded = lam + (0,) * (rank - len(lam))
    return WeightVector(rank, tuple(padded[i] - padded[i + 1] for i in range(rank - 1)))


def partition_of_weight(mu: WeightVector, a_r: int = 0) -> Partition:
    """The partition with the given row differences and last row ``a_r``."""
    if a_r < 0:
        raise ValueError("last row must be nonnegative")
    # suffix sums: row i is a_i + ... + a_{r-1} + a_r
    return as_partition(tuple(accumulate(reversed((*mu.coeffs, a_r))))[::-1])


def weyl_dim(mu: WeightVector) -> int:
    """Dimension of the irreducible module, by the Weyl product formula."""
    r = mu.rank
    lam = partition_of_weight(mu)
    padded = lam + (0,) * (r - len(lam))
    num = 1
    den = 1
    for i in range(r):
        for j in range(i + 1, r):
            num *= padded[i] - padded[j] + j - i
            den *= j - i
    dim, rem = divmod(num, den)
    if rem:
        raise AssertionError("Weyl dimension product failed to divide exactly")
    return dim


def zero_weight_dim(mu: WeightVector) -> int:
    """Dimension of the zero weight space.

    Vanishes off the root-lattice coset; on it, equals the Kostka number of
    the canonical partition with balanced rectangular content.
    """
    if mu.coset_index != 0:
        return 0
    lam = partition_of_weight(mu)
    k, rem = divmod(sum(lam), mu.rank)
    if rem:
        raise AssertionError("coset-zero weight with non-divisible partition weight")
    return kostka(lam, (k,) * mu.rank)


def scaled_coeff_sum(mu: WeightVector) -> int:
    """sum of i * a_i; the weight of the canonical partition."""
    return sum(i * a for i, a in enumerate(mu.coeffs, 1))


_windows: dict[tuple[int, int, int], tuple[int, list[tuple]]] = {}


def _cone_window(rank: int, p: int, coset: int, limit: int) -> list[tuple]:
    """Each dominant weight mu of ``coset`` whose floor F (``voa_characters._cone_sum``)
    has 2r F below ``limit``, as (mu, 2r F, sum i a_i, rows) sorted by 2r F, where
    partition_of_weight(mu, k) is the nonzero entries of rows plus k.  F < cutoff
    iff 2r F < ceil(2r cutoff): an integer x < y iff x < ceil(y).

    The walk yields exactly {2r F < limit}: it recurses only on prefixes whose
    zero-padded 2r F lies below the limit, and as F grows in every coordinate, each
    such prefix of a weight below the limit lies below it.  So the window at L <= L'
    is the prefix with 2r F < L of the walk at L': ``_windows`` keeps the longest."""
    walked, entries = _windows.get((rank, p, coset), (0, []))
    if limit > walked:
        coords = range(1, rank)
        gram = [[min(i, j) * (rank - max(i, j)) for j in coords] for i in coords]
        linear = [rank * (p - 1) * i * (rank - i) for i in coords]

        def walk(k: int, coeffs: tuple[int, ...], n: int, scaled: int):
            # n is 2r F of coeffs padded with zeros
            if k == rank - 1:
                if scaled % rank == coset:
                    rows = tuple(accumulate(reversed((*coeffs, 0))))[::-1]
                    yield WeightVector(rank, coeffs), n, scaled, rows
                return
            cross = 2 * p * sum(g * a for g, a in zip(gram[k], coeffs))
            a = 0
            while n < limit:
                yield from walk(k + 1, coeffs + (a,), n, scaled)
                n += cross + p * gram[k][k] * (2 * a + 1) + linear[k]
                scaled += k + 1
                a += 1
        entries = sorted(walk(0, (), 0, 0), key=itemgetter(1))
        _windows[rank, p, coset] = limit, entries
    return entries[:bisect_left(entries, limit, key=itemgetter(1))]


def dominant_weights(
    rank: int, max_scaled_sum: int, coset: int | None = None
) -> Iterator[WeightVector]:
    """Dominant weights with sum of i*a_i at most the bound.

    Yields in increasing order of the scaled sum, coordinates lexicographic
    within each level; optionally filtered to one coset of the root lattice.
    """
    if coset is not None and not 0 <= coset < rank:
        raise ValueError(f"coset index must be in 0..{rank - 1}")

    def vectors(level: int) -> Iterator[tuple[int, ...]]:
        def rec(i: int, remaining: int) -> Iterator[tuple[int, ...]]:
            if i == rank:
                if remaining == 0:
                    yield ()
                return
            for a in range(remaining // i, -1, -1):
                for rest in rec(i + 1, remaining - i * a):
                    yield (a,) + rest

        yield from rec(1, level)

    for level in range(max_scaled_sum + 1):
        if coset is not None and level % rank != coset:
            continue
        for coeffs in sorted(vectors(level)):
            yield WeightVector(rank, coeffs)
