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
from .qseries import QSeries, _ceil_times, _exact_cutoff, _exact_int, _kept_prefix
from .schur_spec import _add_summands, principal_spec


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


def _doubled_floor(spec: TorusLinkSpec, lam: Partition) -> int:
    """Twice the lowest exponent of the summand at ``lam`` in :func:`jones_summands`.

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
    Each term starts at half of :func:`_doubled_floor`.
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
    return _shifted(spec, 0, 2, None)


def singlet_shift_exponent(spec: TorusLinkSpec) -> Fraction:
    n, c, r, p = spec.colour, spec.components, spec.rank, spec.p
    return Fraction(p * n * c * (c - n) + n * c * (r - c), 2)


def triplet_shift_exponent(spec: TorusLinkSpec) -> Fraction:
    n, r, p = spec.colour, spec.rank, spec.p
    return Fraction(p * n * (r + 1) * (r * r - n * (r + 1)), 2 * r)


_cut_sums: dict[tuple, tuple[int, ...]] = {}


def _shifted(
    spec: TorusLinkSpec, shift: Fraction | int, grain: int, cutoff: Fraction | int | None
) -> QSeries:
    """q^shift times :func:`jones_summands`' sum on the grid of 1/grain (2 or 2r,
    dividing 2m), truncated at ``cutoff``; see :func:`_shifted_sum`.  Cut, the
    shift must be the one the window's floor carries (see :func:`_doubled_floor`).

    Prefix: cut, the summed grid of length top = ceil(grain cutoff) is kept in
    ``_cut_sums`` per (spec, offset, grain) at the longest length built, and a
    request reads its first top entries (:func:`qseries._kept_prefix`).  These
    equal a build at top.  The window {2m F < ceil(2m cutoff)} grows with the
    cutoff.  A shape only in the longer window has 2m F >= ceil(2m cutoff) >=
    2m cutoff, so its start key, 2m F grain/2m, is an integer at least grain
    cutoff (grain divides 2m), hence at least top, and its terms lie at or above
    it.  Each kept shape reads the same Kostka entry from either table: a table
    floored by the componentwise minimum and bounded by the maximum of its shapes
    holds each such shape's full tableau count (``combinatorics._kostka_table``),
    whatever that floor.  Its gaps and framing do not depend on the cutoff, so the
    adder's sum below top is the same integer sum in both builds.
    """
    offset, rem = divmod(shift.numerator * grain, shift.denominator)
    if rem:
        raise ValueError(f"grain {grain} does not cover the shift {shift}")
    if cutoff is None:
        return QSeries.from_grid(_shifted_sum(spec, offset, grain, None), grain)
    cut = _exact_cutoff(cutoff)

    def build(top: int) -> list[int]:
        grid = _shifted_sum(spec, offset, grain, cut)
        return [grid.get(k, 0) for k in range(top)]

    return _kept_prefix(_cut_sums, (spec, offset, grain), _ceil_times(cut, grain), build,
                        grain, cut)


def _shifted_sum(spec: TorusLinkSpec, offset: int, grain: int,
                 cut: Fraction | None) -> dict[int, int]:
    # q^(offset/grain) times jones_summands' sum below cut, keyed on the grid of
    # 1/grain, framing 2m (p kappa/2) + lift.  Cut, the shapes and their 2m F come
    # from the window below ceil(2m cut) (see _doubled_floor), each F re-checked in
    # closed form; uncut, from partitions_of.  One Kostka table on their union,
    # floored by their minimum if cut
    n, c, r, p = spec.colour, spec.components, spec.rank, spec.p
    m, size = min(r, c), n * c
    lift = 2 * m * offset // grain
    if cut is None:
        top = None
        shapes = dict.fromkeys(partitions_of(size, m))
    else:
        top, shapes = _ceil_times(cut, grain), {}
        for _, scaled, s, sums in _cone_window(m, p, size % m, _ceil_times(cut, 2 * m)):
            k = (size - s) // m  # exact on the coset
            if k >= 0:
                lam = tuple([x + k for x in sums if x + k])
                if m * _doubled_floor(spec, lam) != scaled - lift:
                    raise AssertionError(f"summand {lam} does not start at its floor")
                shapes[lam] = scaled
    bound = tuple(map(max, zip_longest(*shapes, fillvalue=0)))
    floor = () if cut is None else tuple(map(min, zip_longest(*shapes, fillvalue=0)))
    table, rows, zeros = _kostka_table(bound, (n,) * c, floor), len(bound), (0,) * r

    def items():  # one at a time, so no list of every summand is held
        for lam, scaled in shapes.items():
            padded = lam + zeros[len(lam):]
            framing = m * p * sum(l * (l + 1 - 2 * i) for i, l in enumerate(lam, 1)) + lift
            yield table.get(padded[:rows], 0), tuple(map(sub, padded, padded[1:])), framing, scaled

    return _add_summands(items(), m, grain, top)


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
