"""Coloured invariants of torus links whose components all carry the same
symmetric-power colour.

The invariant of the c-component torus link T(c, cp), with every component
coloured by the n-th symmetric power, is a finite Kostka-weighted sum of
framing monomials times principal specializations: an exact Laurent
polynomial of grain 2, summed on the integers of twice its exponents.  Two
shifted forms move its lowest terms to the origin for comparison with
character series.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import lcm
from operator import sub
from typing import Iterator

from .combinatorics import Partition, _kostka_table, kappa, kostka, partitions_of
from .lie_sl import _cone_window
from .qseries import QSeries, _ceil_times, _exact_cutoff, _exact_int
from .schur_spec import _spec_of_gaps, principal_spec


@dataclass(frozen=True)
class TorusLinkSpec:
    """T(components, components * p) with every component coloured by the
    ``colour``-th symmetric power of the rank-``rank`` defining module."""

    rank: int
    components: int
    p: int
    colour: int

    def __post_init__(self):
        for field, low in (("rank", 2), ("components", 1), ("p", 1), ("colour", 0)):
            if _exact_int(getattr(self, field), field) < low:
                raise ValueError(f"{field} must be at least {low}")


def summand_floor(spec: TorusLinkSpec, lam: Partition) -> Fraction:
    """Lowest exponent of the summand at ``lam`` in :func:`jones_summands`."""
    return Fraction(_doubled_floor(spec, lam), 2)


def _doubled_floor(spec: TorusLinkSpec, lam: Partition) -> int:
    """Twice :func:`summand_floor`, an integer.

    Floor: the summand is weight * q^(p kappa(lam)/2) times the principal
    specialization, the sum over the weights mu of s_lam of K(lam, mu)
    q^(sum mu_i rho_i), rho_i = (r+1-2i)/2 strictly decreasing.  With mu+ the
    decreasing sort of mu, which lam dominates, the rearrangement inequality
    gives sum mu_i rho_i >= -sum mu+_i rho_i, and Abel summation gives
    sum (lam_i - mu+_i) rho_i = sum_k (partial-sum gap at k)(rho_k -
    rho_(k+1)) >= 0.  Both are equalities only at mu = w0.lam, where
    K(lam, lam) = 1.  So the summand starts at weight * q^floor, floor =
    p kappa(lam)/2 - sum_i lam_i rho_i, and 2 floor = p kappa(lam) -
    sum_i lam_i (r+1-2i) is an integer.

    Window: let |lam| = N = nc, m = min(r, c) and mu(lam) the rank-m weight
    with labels lam_i - lam_(i+1), i < m; in the sum-zero model it is
    lam_i - N/m, lam padded to m rows.  With sigma_i = (m+1-2i)/2 =
    rho_i - (r-m)/2, (mu,mu) = sum lam_i^2 - N^2/m, (mu,delta) =
    sum lam_i sigma_i and kappa(lam) = sum lam_i^2 + 2 sum lam_i sigma_i - mN,
    so the floor F(mu) = p/2 (mu,mu) + (p-1)(mu,delta) of
    ``voa_characters._cone_sum`` at rank m is F(mu(lam)) = floor +
    p/2 (mN - N^2/m) + (r-m) N/2: floor plus the singlet shift when
    m = c <= r, plus the triplet shift when c = r + 1.  As sum i a_i =
    N - m lam_m, mu(lam) lies in coset N mod m and lam =
    ``partition_of_weight(mu, k)``, k = (N - sum i a_i)/m; each weight of that
    coset with k >= 0 is some mu(lam).  So the shapes whose floor plus the
    shift lies below a cutoff are the images of the cone window below it; its
    integer 2m F(mu(lam)) is m times the doubled floor plus 2m shift, an
    integer as the shift's denominator divides 2 (singlet) or 2r = 2m (triplet).
    """
    r = spec.rank
    return spec.p * kappa(lam) - sum(l * (r + 1 - 2 * i) for i, l in enumerate(lam, 1))


def jones_summands(spec: TorusLinkSpec) -> Iterator[tuple[Partition, int, QSeries]]:
    """Per-partition contributions (shape, Kostka weight, term series): the
    reference form of the sum that :func:`jones_torus_link` makes on integers.

    The sum runs over partitions of colour * components with at most
    min(rank, components) rows; shapes with Kostka weight zero are skipped.
    Each term starts at :func:`summand_floor`.
    """
    n, c, r, p = spec.colour, spec.components, spec.rank, spec.p
    content = (n,) * c
    for lam in partitions_of(n * c, min(r, c)):
        weight = kostka(lam, content)
        if weight:
            framing = Fraction(p * kappa(lam), 2)
            yield lam, weight, QSeries.monomial(weight, framing) * principal_spec(lam, r)


def jones_torus_link(spec: TorusLinkSpec) -> QSeries:
    """The specialized coloured invariant, as an exact Laurent polynomial."""
    return QSeries.from_grid(_doubled_sum(spec), 2)


def _kept_shapes(spec: TorusLinkSpec, limit: int, shift: int) -> dict[Partition, int]:
    """Each shape whose floor F has 2m F + ``shift`` (2m times the shift) below
    ``limit``, with 2m F, from the rank-m cone window: partition_of_weight(mu, k)
    is the nonzero entries of its rows plus k; see :func:`_doubled_floor`."""
    n, c, r, p = spec.colour, spec.components, spec.rank, spec.p
    m, kept = min(r, c), {}
    for _, scaled, s, rows in _cone_window(m, p, n * c % m, limit):
        k = (n * c - s) // m  # exact on the coset
        if k >= 0:
            kept[tuple([x + k for x in rows if x + k])] = scaled - shift
    return kept


def _doubled_sum(spec: TorusLinkSpec, limit: int | None = None, shift: int = 0,
                 step: int = 1, offset: int = 0) -> dict[int, int]:
    # jones_summands on integers: the k-th term of weight * q^(p*kappa/2 - D/2) P(q)
    # is keyed step * (p*kappa - D + 2k) + offset; P(0) = 1 is its floor.  The shapes
    # are partitions: Kostka from one table on their union (floored by their minimum
    # if cut, each count re-checked), (P, D) by gaps.
    # Cut at limit = ceil(2m cutoff), shift = 2m s: term k of doubled floor base stays
    # iff m (base + 2k) + shift < limit, iff base + 2k < top2 = ceil((limit - shift)/m)
    # (an integer x < y iff x < ceil(y)), iff k < (top2 - base + 1) // 2.  top2 is
    # the former ceil(2 (cutoff - s)), as ceil(ceil(x)/m) = ceil(x/m).
    n, c, r, p = spec.colour, spec.components, spec.rank, spec.p
    m = min(r, c)
    shapes = list(partitions_of(n * c, m)) if limit is None else _kept_shapes(spec, limit, shift)
    bound = tuple(map(max, zip_longest(*shapes, fillvalue=0)))
    floor = () if limit is None else tuple(map(min, zip_longest(*shapes, fillvalue=0)))
    table, rows, zeros = _kostka_table(bound, (n,) * c, floor), len(bound), (0,) * r
    top2 = None if limit is None else -((shift - limit) // m)
    acc: dict[int, int] = {}
    get = acc.get
    for lam in shapes:
        padded = lam + zeros[len(lam):]
        weight = table.get(padded[:rows], 0)
        poly, d = _spec_of_gaps(tuple(map(sub, padded, padded[1:])))
        base = p * sum(l * (l + 1 - 2 * i) for i, l in enumerate(lam, 1)) - d
        if top2 is not None:
            if base != _doubled_floor(spec, lam) or m * base != shapes[lam] or not poly[0]:
                raise AssertionError(f"summand {lam} does not start at its floor")
            poly = poly[:(top2 - base + 1) // 2]
        if weight < 1:  # lam dominates (n)^c; see _kostka_table
            raise AssertionError(f"summand {lam} reads Kostka number {weight}")
        start = base * step + offset
        for e, a in zip(range(start, start + 2 * step * len(poly), 2 * step), poly):
            acc[e] = get(e, 0) + weight * a
    return acc


def singlet_shift_exponent(spec: TorusLinkSpec) -> Fraction:
    n, c, r, p = spec.colour, spec.components, spec.rank, spec.p
    return Fraction(p * n * c * (c - n) + n * c * (r - c), 2)


def triplet_shift_exponent(spec: TorusLinkSpec) -> Fraction:
    n, r, p = spec.colour, spec.rank, spec.p
    return Fraction(p * n * (r + 1) * (r * r - n * (r + 1)), 2 * r)


def _shifted(
    spec: TorusLinkSpec, shift: Fraction, grain: int, cutoff: Fraction | int | None
) -> QSeries:
    # q^shift times the invariant, on the grid of 1/grain, from the integers
    # grain shift, 2m shift (the grain, 2 or 2r, divides 2m) and ceil(2m cutoff)
    offset, rem = divmod(shift.numerator * grain, shift.denominator)
    if rem:
        raise ValueError(f"grain {grain} does not cover the shift {shift}")
    cut = None if cutoff is None else _exact_cutoff(cutoff)
    m = min(spec.rank, spec.components)
    limit = None if cut is None else _ceil_times(cut, 2 * m)
    terms = _doubled_sum(spec, limit, 2 * m * offset // grain, grain // 2, offset)
    return QSeries.from_grid(terms, grain, cut)


def shifted_invariant_singlet(
    spec: TorusLinkSpec, cutoff: Fraction | int | None = None
) -> QSeries:
    """Monomial-shifted invariant whose colour limit is a singlet character
    series; defined for 2 <= components <= rank.  With ``cutoff`` set it
    equals the exact series truncated there, without building the rest."""
    if not 2 <= spec.components <= spec.rank:
        raise ValueError(
            f"need 2 <= components <= rank, got components={spec.components} "
            f"rank={spec.rank}"
        )
    return _shifted(spec, singlet_shift_exponent(spec), 2, cutoff)


def shifted_invariant_triplet(
    spec: TorusLinkSpec, cutoff: Fraction | int | None = None
) -> QSeries:
    """Monomial-shifted invariant whose colour limit (along one residue class
    of colours) is a triplet character series; needs components = rank + 1.
    ``cutoff`` truncates as in :func:`shifted_invariant_singlet`."""
    if spec.components != spec.rank + 1:
        raise ValueError(
            f"need components = rank + 1, got components={spec.components} "
            f"rank={spec.rank}"
        )
    return _shifted(spec, triplet_shift_exponent(spec), lcm(2, 2 * spec.rank), cutoff)
