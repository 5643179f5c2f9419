"""Partitions, Kostka numbers, the framing statistic, and tableau tools.

Kostka numbers are computed by a horizontal-strip dynamic program over
intermediate shapes (one content row at a time), which stays fast for the
rectangular contents (n)^c that dominate this package.  A Jacobi-Trudi
determinant expansion is provided as an independent cross-check path, and a
brute-force tableau enumerator backs the bijection checks.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import Iterable, Iterator

Partition = tuple[int, ...]
Composition = tuple[int, ...]
Tableau = tuple[tuple[int, ...], ...]


def as_partition(parts: Iterable[int]) -> Partition:
    """Normalize to a tuple of weakly decreasing positive parts.

    Trailing zeros are dropped; anything else out of order raises.
    """
    seq = [int(p) for p in parts]
    while seq and seq[-1] == 0:
        seq.pop()
    for i, p in enumerate(seq):
        if p <= 0:
            raise ValueError(f"partition parts must be positive, got {p}")
        if i and seq[i - 1] < p:
            raise ValueError(f"parts must weakly decrease, got {tuple(seq)}")
    return tuple(seq)


def as_composition(entries: Iterable[int]) -> Composition:
    """Normalize a composition: nonnegative entries, trailing zeros dropped."""
    # kept as is, so the cached Kostka numbers of one content share one key
    if type(entries) is tuple and all(type(e) is int and e > 0 for e in entries):
        return entries
    seq = [int(e) for e in entries]
    if any(e < 0 for e in seq):
        raise ValueError("composition entries must be nonnegative")
    while seq and seq[-1] == 0:
        seq.pop()
    return tuple(seq)


def partitions_of(n: int, max_len: int) -> Iterator[Partition]:
    """Yield the partitions of n with at most max_len parts.

    Deterministic lexicographically decreasing order: (4) before (3,1)
    before (2,2).  Weight zero yields only the empty partition.
    """
    if n < 0:
        raise ValueError("weight must be nonnegative")

    def rec(remaining: int, cap: int, slots: int) -> Iterator[Partition]:
        if remaining == 0:
            yield ()
            return
        if slots <= 0:
            return
        top = min(cap, remaining)
        lowest = -(-remaining // slots)
        for first in range(top, lowest - 1, -1):
            for rest in rec(remaining - first, first, slots - 1):
                yield (first,) + rest

    yield from rec(n, n, max_len)


def compositions_of(n: int, length: int) -> Iterator[Composition]:
    """All tuples of ``length`` nonnegative integers summing to n."""
    if length == 0:
        if n == 0:
            yield ()
        return
    for first in range(n, -1, -1):
        for rest in compositions_of(n - first, length - 1):
            yield (first,) + rest


def kostka(shape: Iterable[int], content: Iterable[int]) -> int:
    """Number of semistandard tableaux of the given shape and content.

    Zero whenever the weights disagree.  The content is a composition; its
    trailing zeros are irrelevant and stripped, internal zeros are kept
    (they contribute empty strips).
    """
    return _kostka(as_partition(shape), as_composition(content))


# Least recently used evicted first; 48 rounds of the jones_full benchmark
# hold 6,948 Kostka numbers, and the cache saves about 40 % of its run time.
KOSTKA_CACHE_SIZE = 1 << 15


@lru_cache(maxsize=KOSTKA_CACHE_SIZE)
def _kostka(shape: Partition, content: Composition) -> int:
    if sum(shape) != sum(content):
        return 0
    states: dict[Partition, int] = {(): 1}
    for size in content:
        nxt: dict[Partition, int] = {}
        for nu, ways in states.items():
            for mu in _horizontal_extensions(nu, size, shape):
                nxt[mu] = nxt.get(mu, 0) + ways
        states = nxt
        if not states:
            return 0
    return states.get(shape, 0)


def _horizontal_extensions(
    nu: Partition, size: int, bound: Partition
) -> list[Partition]:
    """All shapes inside ``bound`` obtained from nu by a horizontal strip."""
    rows = len(bound)
    out: list[Partition] = []

    def rec(i: int, prev: int, remaining: int, acc: tuple[int, ...]) -> None:
        if i == rows:
            if remaining == 0:
                trimmed = acc
                while trimmed and trimmed[-1] == 0:
                    trimmed = trimmed[:-1]
                out.append(trimmed)
            return
        base = nu[i] if i < len(nu) else 0
        cap = min(bound[i], prev)
        if i > 0:
            # strip condition: no two added cells share a column
            cap = min(cap, nu[i - 1] if i - 1 < len(nu) else 0)
        cap = min(cap, base + remaining)
        for v in range(base, cap + 1):
            rec(i + 1, v, remaining - (v - base), acc + (v,))

    rec(0, bound[0] if bound else 0, size, ())
    return out


def kappa(shape: Iterable[int]) -> int:
    """The framing statistic 2 * sum over cells (i,j) of (j - i)."""
    lam = as_partition(shape)
    return sum(l * (l + 1) - 2 * i * l for i, l in enumerate(lam, 1))


def kappa_from_gaps(gaps: Iterable[int]) -> int:
    """The same statistic from row differences a_i = lam_i - lam_{i+1}.

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


# -- tableau enumeration (brute force; used by oracles and bijection checks) --


def enumerate_ssyt(shape: Iterable[int], content: Iterable[int]) -> list[Tableau]:
    """All SSYT of the given shape with entry i occurring content[i-1] times."""
    lam = as_partition(shape)
    counts = [int(c) for c in content]
    if sum(lam) != sum(counts):
        return []
    return _fill(lam, counts, bounded=len(counts))


def enumerate_ssyt_bounded(shape: Iterable[int], max_entry: int) -> list[Tableau]:
    """All SSYT of the given shape with entries in 1..max_entry."""
    lam = as_partition(shape)
    return _fill(lam, None, bounded=max_entry)


def _fill(lam: Partition, counts: list[int] | None, bounded: int) -> list[Tableau]:
    cells = [(i, j) for i, width in enumerate(lam) for j in range(width)]
    grid = [[0] * width for width in lam]
    results: list[Tableau] = []

    def rec(idx: int) -> None:
        if idx == len(cells):
            results.append(tuple(tuple(row) for row in grid))
            return
        i, j = cells[idx]
        lo = 1
        if j > 0:
            lo = max(lo, grid[i][j - 1])
        if i > 0:
            lo = max(lo, grid[i - 1][j] + 1)
        for v in range(lo, bounded + 1):
            if counts is not None and counts[v - 1] == 0:
                continue
            grid[i][j] = v
            if counts is not None:
                counts[v - 1] -= 1
            rec(idx + 1)
            if counts is not None:
                counts[v - 1] += 1
        grid[i][j] = 0

    rec(0)
    return results


# -- Jacobi-Trudi expansion oracle -------------------------------------------


def perm_sign(perm: Iterable[int]) -> int:
    p = list(perm)
    inversions = sum(
        1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
    )
    return -1 if inversions % 2 else 1


def schur_expand_oracle(
    shape: Iterable[int],
    rank: int,
    *,
    max_weight: int = 16,
    max_rank: int = 5,
) -> dict[Composition, int]:
    """Full monomial expansion of the Schur polynomial in ``rank`` variables.

    Computed as a Jacobi-Trudi determinant of complete homogeneous
    polynomials: a path independent of the tableau dynamic program, intended
    for cross-checks on small instances only (hence the size guard).
    """
    lam = as_partition(shape)
    if len(lam) > rank:
        raise ValueError("shape has more rows than variables")
    if sum(lam) > max_weight or rank > max_rank:
        raise ValueError(
            f"oracle guard exceeded (|shape| <= {max_weight}, rank <= {max_rank})"
        )
    return dict(_schur_expand(lam, rank))


@lru_cache(maxsize=256)  # oracle expansions, up to a few thousand terms each
def _schur_expand(lam: Partition, rank: int) -> tuple[tuple[Composition, int], ...]:
    m = len(lam)
    if m == 0:
        return (((0,) * rank, 1),)
    acc: dict[Composition, int] = {}
    for perm in permutations(range(m)):
        sign = perm_sign(perm)
        poly: dict[Composition, int] | None = {(0,) * rank: 1}
        for i in range(m):
            k = lam[i] - (i + 1) + (perm[i] + 1)
            poly = _hmul(poly, k, rank)
            if poly is None:
                break
        if poly is None:
            continue
        for mono, c in poly.items():
            acc[mono] = acc.get(mono, 0) + sign * c
    return tuple((mono, c) for mono, c in acc.items() if c)


def _hmul(
    poly: dict[Composition, int] | None, k: int, rank: int
) -> dict[Composition, int] | None:
    # multiply by the complete homogeneous polynomial of degree k
    if poly is None or k < 0:
        return None
    if k == 0:
        return poly
    out: dict[Composition, int] = {}
    for mono, c in poly.items():
        for extra in compositions_of(k, rank):
            new = tuple(a + b for a, b in zip(mono, extra))
            out[new] = out.get(new, 0) + c
    return out
