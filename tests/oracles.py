"""Test-side references that production code never calls.

Each one computes a quantity of the library by a second route, and the tests
compare the two: the bilinear form of the weight lattice for
``casimir_pairing``, the Weyl-group alternant quotient for
``principal_spec``, the Weyl denominator for the root-height products, the
gap form of the framing statistic for ``kappa``, the recursive
enumeration for ``partitions_of``, the strip DP with no floor for the
floored Kostka tables, and the Weyl-group form of the characters for the
cone sums.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from math import ceil, lcm
from typing import Callable, Iterable, Iterator, Sequence

from qtorus import QSeries, WeightVector, exact_div, partition_of_weight


# -- the weight lattice -------------------------------------------------------


def bilinear_form(rank: int, a: Sequence[int], b: Sequence[int]) -> Fraction:
    """Bilinear extension of (w_i, w_j) = min(i,j) - ij/rank.

    Accepts raw coordinate sequences (length <= rank-1), so it also serves
    for roots and other integral-span vectors.
    """
    total = Fraction(0)
    for i, ai in enumerate(a, 1):
        if not ai:
            continue
        for j, bj in enumerate(b, 1):
            if bj:
                total += ai * bj * Fraction(min(i, j) * rank - i * j, rank)
    return total


def pairing(mu: WeightVector, nu: WeightVector) -> Fraction:
    if mu.rank != nu.rank:
        raise ValueError(f"rank mismatch: {mu.rank} vs {nu.rank}")
    return bilinear_form(mu.rank, mu.coeffs, nu.coeffs)


def weyl_vector(rank: int) -> WeightVector:
    return WeightVector(rank, (1,) * (rank - 1))


def epsilon_coords(mu: WeightVector, a_r: int = 0) -> tuple[Fraction, ...]:
    """Coordinates in the sum-zero hyperplane model, where the form is the
    standard dot product and the Weyl group permutes entries."""
    r = mu.rank
    lam = partition_of_weight(mu, a_r)
    padded = lam + (0,) * (r - len(lam))
    mean = Fraction(sum(padded), r)
    return tuple(Fraction(x) - mean for x in padded)


# -- the framing statistic ----------------------------------------------------


def kappa_from_gaps(gaps: Iterable[int]) -> int:
    """The statistic of ``kappa`` from row differences a_i = lam_i - lam_{i+1}.

    Expects the full gap vector (a_1, ..., a_r) including a_r = lam_r; the
    quadratic part runs over all ordered index pairs.
    """
    a = [int(x) for x in gaps]
    r = len(a)
    quad = sum(
        min(i, j) * a[i - 1] * a[j - 1]
        for i in range(1, r + 1)
        for j in range(1, r + 1)
    )
    return quad - sum(i * i * a[i - 1] for i in range(1, r + 1))


# -- principal specializations ------------------------------------------------


def weyl_denominator(rank: int) -> QSeries:
    """Product of q^(h/2) - q^(-h/2) = -q^(-h/2) (1 - q^h) over root heights h."""
    if rank < 2:
        raise ValueError("rank must be at least 2")
    heights = [j - i for j in range(rank + 1) for i in range(1, j)]
    sign, shift = (-1) ** len(heights), sum(heights)
    poly = [1]
    for h in heights:
        poly = [a - b for a, b in zip(poly + [0] * h, [0] * h + poly)]
    return QSeries.from_grid({2 * k - shift: sign * c for k, c in enumerate(poly)}, 2)


def alternant_spec_oracle(mu: WeightVector, *, max_rank: int = 6) -> QSeries:
    """The alternant quotient over the Weyl group.

    Enumerates all rank! permutations, so it is guarded to small ranks and
    meant for cross-checking ``principal_spec``.
    """
    r = mu.rank
    if r > max_rank:
        raise ValueError(f"oracle guard exceeded (rank <= {max_rank})")
    shifted = WeightVector(r, tuple(a + 1 for a in mu.coeffs))
    v = epsilon_coords(shifted)
    d = epsilon_coords(weyl_vector(r))
    return exact_div(alternant(v, d), alternant(d, d))


def alternant(v: tuple[Fraction, ...], d: tuple[Fraction, ...]) -> QSeries:
    """Sum over the symmetric group of sign(w) q^((w(v), d))."""
    acc: dict[Fraction, int] = {}
    for perm in permutations(range(len(v))):
        e = sum((v[perm[i]] * d[i] for i in range(len(v))), Fraction(0))
        acc[e] = acc.get(e, 0) + sign(perm)
    return QSeries(acc)


def sign(perm: Sequence[int]) -> int:
    """(-1) to the number of inversions of the permutation."""
    return (-1) ** sum(a > b for a, b in combinations(perm, 2))


# -- partitions ---------------------------------------------------------------


def partitions_oracle(n: int, max_len: int) -> Iterator[tuple[int, ...]]:
    """The partitions of n with at most max_len parts, lexicographically
    decreasing: the first part from its largest value down, the rest by
    recursion, one nested generator per row."""

    def rec(remaining: int, cap: int, slots: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        if slots <= 0:
            return
        for first in range(min(cap, remaining), -(-remaining // slots) - 1, -1):
            for rest in rec(remaining - first, first, slots - 1):
                yield (first,) + rest

    yield from rec(n, n, max_len)


# -- Kostka numbers -------------------------------------------------------------


def unpruned_kostka_table(bound: Sequence[int], content: Sequence[int]) -> dict:
    """Tableau counts of every shape inside ``bound`` filled with ``content``,
    keyed padded to ``len(bound)`` rows: the strip DP as it stood before the
    interlacing floor, each row's range starting at the previous state's row."""
    rows = len(bound)
    states = {(0,) * rows: 1}
    for size in content:
        nxt: dict[tuple[int, ...], int] = {}
        for nu, ways in states.items():
            for mu in unpruned_strips(nu, size, bound):
                nxt[mu] = nxt.get(mu, 0) + ways
        states = nxt
    return states


def unpruned_strips(nu: tuple[int, ...], size: int,
                    bound: Sequence[int]) -> list[tuple[int, ...]]:
    """Every mu inside bound with nu_i <= mu_i <= nu_(i-1) and |mu| = |nu| + size,
    each row ranged from nu_i and checked only at the end."""
    out = []

    def rec(i: int, remaining: int, acc: tuple[int, ...]) -> None:
        if i == len(bound):
            if remaining == 0:
                out.append(acc)
            return
        cap = min(bound[i], nu[i] + remaining, nu[i - 1] if i else bound[i])
        for v in range(nu[i], cap + 1):
            rec(i + 1, remaining - (v - nu[i]), acc + (v,))

    rec(0, size, ())
    return out


# -- characters -------------------------------------------------------------------


def weyl_form_character(rank: int, p: int, coset: int, cutoff: Fraction | int,
                        dim_of: Callable[[WeightVector], int], euler_power: int | None = None,
                        heights: Sequence[int] = ()) -> dict[Fraction, int]:
    """The terms below ``cutoff`` of E^(-euler_power) / prod (1 - q^h) over
    ``heights`` times sum over the dominant mu of ``coset`` of dim_of(mu)
    sum_(w in S_r) eps(w) q^(F(mu) + (rho - w rho, mu + rho)), with E the Euler
    product and F(mu) = p/2 (mu, mu + 2 rho) - (mu, rho).

    By the Weyl denominator identity the inner sum is q^F(mu) times the height
    product H_r times the principal specialization of mu over q^(-(mu, rho)), so
    euler_power = rank - 1 (the default) gives the normalized character, and
    euler_power = 0 with the heights of H_r (and of the cross product) the
    comparison series.  Each w != 1 adds a positive exponent, and F(mu) >=
    (p + r (p - 1))/(2r) sum i a_i, so the weights run up to that level.
    """
    cut = Fraction(cutoff)
    power = rank - 1 if euler_power is None else euler_power
    level = int(cut * 2 * rank / (p + rank * (p - 1)))
    rho = tuple(Fraction(rank + 1 - 2 * i, 2) for i in range(1, rank + 1))
    signs = {w: sign(w) for w in permutations(range(rank))}
    sums: dict[Fraction, int] = {}
    for coeffs in product(*(range(level // i + 1) for i in range(1, rank))):
        scaled = sum(i * a for i, a in enumerate(coeffs, 1))
        if scaled > level or scaled % rank != coset:
            continue
        dim = dim_of(WeightVector(rank, coeffs))
        if not dim:
            continue
        ones = (1,) * (rank - 1)
        floor = (Fraction(p, 2) * bilinear_form(rank, coeffs, coeffs)
                 + (p - 1) * bilinear_form(rank, coeffs, ones))
        rows = [sum(coeffs[i:]) + rank - 1 - i for i in range(rank - 1)] + [0]
        shifted = [row - Fraction(sum(rows), rank) for row in rows]  # mu + rho
        for w, eps in signs.items():
            e = floor + sum((rho[i] - rho[w[i]]) * x for i, x in enumerate(shifted))
            if e < cut:
                sums[e] = sums.get(e, 0) + eps * dim
    grain = lcm(2 * rank, cut.denominator)
    grid = [0] * ceil(cut * grain)
    for e, c in sums.items():
        grid[int(e * grain)] += c
    divisors = [*heights, *(k for k in range(1, ceil(cut)) for _ in range(power))]
    for h in divisors:
        for k in range(h * grain, len(grid)):
            grid[k] += grid[k - h * grain]
    return {Fraction(k, grain): c for k, c in enumerate(grid) if c}
