"""Coloured invariants of torus links whose components all carry the same
symmetric-power colour.

The invariant of the c-component torus link T(c, cp), with every component
coloured by the n-th symmetric power, is a finite Kostka-weighted sum of
framing monomials times principal specializations: an exact Laurent
polynomial of grain 2.  Two shifted forms move its lowest terms to the
origin for comparison with character series.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator

from .combinatorics import Partition, kappa, kostka, partitions_of
from .qseries import QSeries
from .schur_spec import principal_spec


@dataclass(frozen=True)
class TorusLinkSpec:
    """T(components, components * p) with every component coloured by the
    ``colour``-th symmetric power of the rank-``rank`` defining module."""

    rank: int
    components: int
    p: int
    colour: int

    def __post_init__(self):
        if self.rank < 2:
            raise ValueError("rank must be at least 2")
        if self.components < 1:
            raise ValueError("need at least one component")
        if self.p < 1:
            raise ValueError("p must be positive")
        if self.colour < 0:
            raise ValueError("colour must be nonnegative")


def summand_floor(spec: TorusLinkSpec, lam: Partition) -> Fraction:
    """Lowest exponent of the summand at ``lam``; see :func:`jones_summands`."""
    r = spec.rank
    lowest_weight = sum(l * (r + 1 - 2 * i) for i, l in enumerate(lam, 1))
    return Fraction(spec.p * kappa(lam) - lowest_weight, 2)


def jones_summands(
    spec: TorusLinkSpec, below: Fraction | None = None
) -> Iterator[tuple[Partition, int, QSeries]]:
    """Per-partition contributions (shape, Kostka weight, term series).

    The sum runs over partitions of colour * components with at most
    min(rank, components) rows; shapes with Kostka weight zero are skipped.

    With ``below`` set, a shape whose floor is at or above it is skipped
    before its Kostka number and principal specialization are computed, and
    each kept term is truncated at ``below``.

    Proof that the floor p*kappa(lam)/2 - sum_i lam_i*rho_i, with rho_i =
    (r+1-2i)/2 strictly decreasing, is each term's lowest exponent: the
    principal specialization is the sum over the weights mu of s_lam of
    K(lam, mu) q^(sum mu_i rho_i).  With mu+ the decreasing sort of mu, which
    lam dominates, the rearrangement inequality gives sum mu_i rho_i >=
    -sum mu+_i rho_i, and Abel summation gives sum (lam_i - mu+_i) rho_i =
    sum_k (partial-sum gap at k)(rho_k - rho_(k+1)) >= 0.  Both are equalities
    only at mu = w0.lam = (lam_r, ..., lam_1), where K(lam, lam) = 1.  So the
    lowest term is weight * q^floor, kept by the truncation when floor <
    below; every kept term is re-checked against the floor.  Without
    ``below`` nothing is pruned and no floor is computed.
    """
    n, c, r, p = spec.colour, spec.components, spec.rank, spec.p
    content = (n,) * c
    for lam in partitions_of(n * c, min(r, c)):
        if below is not None:
            floor = summand_floor(spec, lam)
            if floor >= below:
                continue
        weight = kostka(lam, content)
        if weight == 0:
            continue
        framing = Fraction(p * kappa(lam), 2)
        term = QSeries.monomial(weight, framing) * principal_spec(lam, r)
        if below is not None:
            term = term.truncate(below)
            if term.low != floor:
                raise AssertionError(f"summand {lam} starts at {term.low}, not {floor}")
        yield lam, weight, term


def jones_torus_link(spec: TorusLinkSpec, below: Fraction | None = None) -> QSeries:
    """The specialized coloured invariant, as an exact Laurent polynomial,
    or truncated at ``below`` when that is given."""
    # one pass: the constructor adds up the terms at equal exponents
    terms = (t for _, _, s in jones_summands(spec, below) for t in s.terms.items())
    series = QSeries(terms, grain=2)
    return series if below is None else series.truncate(below)


def singlet_shift_exponent(spec: TorusLinkSpec) -> Fraction:
    n, c, r, p = spec.colour, spec.components, spec.rank, spec.p
    return Fraction(p, 2) * (-n * n * c + n * c * c) + Fraction(n * c * (r - c), 2)


def triplet_shift_exponent(spec: TorusLinkSpec) -> Fraction:
    n, r, p = spec.colour, spec.rank, spec.p
    return Fraction(p, 2) * (Fraction(-n * n * (r + 1) ** 2, r) + n * r * (r + 1))


def _shifted(
    spec: TorusLinkSpec, shift: Fraction, grain: int, cutoff: Fraction | int | None
) -> QSeries:
    below = None if cutoff is None else Fraction(cutoff) - shift
    shifted = QSeries.monomial(1, shift) * jones_torus_link(spec, below)
    series = QSeries(shifted.terms, grain=grain)
    return series if cutoff is None else series.truncate(cutoff)


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
