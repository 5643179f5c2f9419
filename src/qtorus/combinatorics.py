"""Partitions, Kostka numbers, the framing statistic, and tableau tools.

Kostka numbers are computed by a horizontal-strip dynamic program over
intermediate shapes (one content row at a time), which stays fast for the
rectangular contents (n)^c that dominate this package.  One run tables every
shape between the componentwise minimum and maximum of the asked shapes for
one content; a single number is the table between its own shape and itself.
One LRU cache in the memo registry, ``kostka_tables``, holds the tables, keyed
on (bound, content, floor); ``qseries.clear_memos()`` empties it.  A Jacobi-Trudi
determinant expansion is provided as an independent cross-check path, and a
brute-force tableau enumerator backs the bijection checks.
"""

from __future__ import annotations

from itertools import accumulate, permutations
from typing import Iterable, Iterator

from .qseries import _cache

Partition = tuple[int, ...]
Composition = tuple[int, ...]
Tableau = tuple[tuple[int, ...], ...]


def as_partition(parts: Iterable[int]) -> Partition:
    """Normalize to a tuple of weakly decreasing positive parts.

    Trailing zeros are dropped; anything else out of order, or a part that
    is not an ``int`` (``int()`` would truncate 2.9 and take ``True``), raises.
    """
    seq = list(parts)
    while seq and seq[-1] == 0 and type(seq[-1]) is int:
        seq.pop()
    for i, p in enumerate(seq):
        if type(p) is not int or p <= 0:
            raise ValueError(f"partition parts must be positive integers, got {p!r}")
        if i and seq[i - 1] < p:
            raise ValueError(f"parts must weakly decrease, got {tuple(seq)}")
    return tuple(seq)


def as_composition(entries: Iterable[int]) -> Composition:
    """Normalize a composition: nonnegative entries, trailing zeros dropped."""
    # kept as is, so the cached Kostka tables of one content share its tuple
    if type(entries) is tuple and all(type(e) is int and e > 0 for e in entries):
        return entries
    seq = list(entries)
    for e in seq:
        if type(e) is not int or e < 0:
            raise ValueError(f"composition entries must be nonnegative integers, got {e!r}")
    while seq and seq[-1] == 0:
        seq.pop()
    return tuple(seq)


def partitions_of(n: int, max_len: int) -> Iterator[Partition]:
    """Yield the partitions of n with at most max_len parts.

    Deterministic lexicographically decreasing order: (4) before (3,1)
    before (2,2).  Weight zero yields only the empty partition.  The next one
    lowers the last part whose tail still fits the slots left, and refills greedily.
    """
    if n < 0:
        raise ValueError("weight must be nonnegative")
    if n and max_len <= 0:
        return
    parts = [n] if n else []
    while True:
        yield tuple(parts)
        tail = 0
        while parts:
            part = parts.pop()
            tail += part
            if part > 1 and tail - part + 1 <= (part - 1) * (max_len - len(parts) - 1):
                break
        else:
            return
        whole, rest = divmod(tail - part + 1, part - 1)
        parts += [part - 1] * (whole + 1) + [rest] * (rest > 0)


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
    (they contribute empty strips).  One entry of the table bounded and
    floored by the shape itself, where the shape's key needs no padding.
    """
    lam = as_partition(shape)
    return _kostka_table(lam, as_composition(content), lam).get(lam, 0)


# Least recently used evicted first.  400 seed-1 benchmark rounds fill 240
# tables in verify_scan, 156 in jones_full and 33 in char_order.
KOSTKA_TABLE_CACHE_SIZE = 512


# shared by every caller, which must not mutate a table
@_cache("kostka_tables", KOSTKA_TABLE_CACHE_SIZE)
def _kostka_table(bound: Partition, content: Composition, floor: Partition = ()) -> dict:
    """Tableau counts of every shape between ``floor`` and ``bound`` filled with
    ``content``, one strip per content entry, keyed padded to ``len(bound)`` rows.

    Floor: in an SSYT of shape lam with entries 1..c, c = len(content), the cell
    (i, j) with j <= lam_(i+c-k) has c - k cells below it, rising strictly to c,
    so its entry is at most k: after k strips row i is at least lam_(i+c-k) >=
    floor_(i+c-k) (0 past the end) for each lam on or above ``floor``, and each
    row's range starts there.  Dominance: a partition of nc with at most c rows
    dominates (n)^c (its first j rows average at least n), and K(lam, mu) >= 1
    when lam dominates mu; ``schur_spec._add_summands`` re-checks each summand's."""
    rows, c = len(bound), len(content)
    states: dict[tuple[int, ...], int] = {(0,) * rows: 1}
    for k, size in enumerate(content, 1):
        low, nxt = floor[c - k:] + (0,) * rows, {}  # row i's floor is floor_(i+c-k)
        for nu, ways in states.items():
            for mu in _horizontal_extensions(nu, size, bound, low):
                nxt[mu] = nxt.get(mu, 0) + ways
        states = nxt
        if not states:
            break
    return states


def _horizontal_extensions(nu: tuple[int, ...], size: int, bound: Partition,
                           low: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All shapes between ``low`` and ``bound`` obtained from nu by a horizontal
    strip of ``size`` cells, nu and the results padded to ``len(bound)`` rows.

    The strip condition (no two added cells share a column) reads
    nu_i <= mu_i <= nu_(i-1) for every row i >= 1.  It also keeps mu a
    partition, with no cap from mu's own previous row: nu is a partition
    and nu_(i-1) <= mu_(i-1), so mu_i <= nu_(i-1) <= mu_(i-1).  So row i's range
    [start_i, cap_i], cap_i = min(bound_i, nu_(i-1)), is fixed, and rows j >= i
    can add exactly need_i = sum (start_j - nu_j) to room_i = sum (cap_j - nu_j)
    cells.  Row i keeps the v that leave a count in [need_(i+1), room_(i+1)]:
    no strip is lost, and every call ends in a leaf.
    """
    rows, starts = len(bound), tuple(map(max, nu, low))
    caps = tuple(map(min, bound, bound[:1] + nu))
    need = [*accumulate((s - n for s, n in zip(starts[::-1], nu[::-1])), initial=0)][::-1]
    room = [*accumulate((c - n for c, n in zip(caps[::-1], nu[::-1])), initial=0)][::-1]
    if any(s > c for s, c in zip(starts, caps)) or not need[0] <= size <= room[0]:
        return []
    out: list[tuple[int, ...]] = []

    def rec(i: int, remaining: int, acc: tuple[int, ...]) -> None:
        if i == rows:
            out.append(acc)
            return
        top = nu[i] + remaining  # row i's value if it took every cell left
        for v in range(max(starts[i], top - room[i + 1]), min(caps[i], top - need[i + 1]) + 1):
            rec(i + 1, top - v, acc + (v,))

    rec(0, size, ())
    return out


def kappa(shape: Iterable[int]) -> int:
    """The framing statistic 2 * sum over cells (i,j) of (j - i)."""
    lam = as_partition(shape)
    return sum(l * (l + 1) - 2 * i * l for i, l in enumerate(lam, 1))


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


# Size guard of the Jacobi-Trudi expansion: the largest shape weight and rank.
ORACLE_MAX_WEIGHT = 16
ORACLE_MAX_RANK = 5


def schur_expand_oracle(shape: Iterable[int], rank: int) -> dict[Composition, int]:
    """Full monomial expansion of the Schur polynomial in ``rank`` variables.

    Computed as a Jacobi-Trudi determinant of complete homogeneous
    polynomials: a path independent of the tableau dynamic program, intended
    for cross-checks on small instances only (hence the size guard).
    """
    lam = as_partition(shape)
    if len(lam) > rank:
        raise ValueError("shape has more rows than variables")
    if sum(lam) > ORACLE_MAX_WEIGHT or rank > ORACLE_MAX_RANK:
        raise ValueError(f"oracle guard exceeded (|shape| <= {ORACLE_MAX_WEIGHT}, "
                         f"rank <= {ORACLE_MAX_RANK})")
    return dict(_schur_expand(lam, rank))


@_cache("schur_expansions", 256)  # oracle expansions, up to a few thousand terms each
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
