"""Executable verification of the character limit identities and the
Kostka-dimension propositions, with structured reports.

The two limit checks compare a shifted link invariant against the matching
character-side series and report the agreement order: the least exponent at
which coefficients differ, or full agreement up to the common cutoff.  The
proposition checks compare the Kostka dynamic program against independent
oracle paths, and the column-stripping bijection on tableaux is materialized
and round-tripped literally.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable

from .combinatorics import (
    Partition,
    Tableau,
    as_partition,
    enumerate_ssyt,
    enumerate_ssyt_bounded,
    kostka,
    partitions_of,
    schur_expand_oracle,
)
from .lie_sl import weight_of_partition, weyl_dim, zero_weight_dim
from .link_invariants import (
    TorusLinkSpec,
    shifted_invariant_singlet,
    shifted_invariant_triplet,
)
from .qseries import QSeries, _ceil_times, _exact_cutoff, _min_cutoff
from .voa_characters import (
    rhs_singlet_limit,
    rhs_triplet_limit,
    summand_exponent_bound,
)


def first_disagreement(
    a: QSeries, b: QSeries
) -> tuple[Fraction, int, int] | None:
    """Least exponent below the common cutoff where coefficients differ,
    with both coefficients as witness; None if the series agree there."""
    cut = _min_cutoff(a.cutoff, b.cutoff)
    # on the grid of 1/g, which covers both series and so the common cutoff;
    # neither grid holds a zero, so the keys of the items in one grid only
    # are exactly those where the coefficients differ
    g = lcm(a.grain, b.grain)
    ga, gb = a._lift(g), b._lift(g)
    k = min((k for k, _ in ga.items() ^ gb.items()), default=None)
    if k is None or cut is not None and k >= _ceil_times(cut, g):
        return None
    return Fraction(k, g), ga.get(k, 0), gb.get(k, 0)


@dataclass
class VerificationReport:
    """Outcome of one verification run."""

    kind: str
    params: dict[str, int]
    cutoff: Fraction
    threshold: Fraction
    order: Fraction | None  # None means full agreement below the cutoff
    witness: tuple[Fraction, int, int] | None
    passed: bool

    def describe(self) -> str:
        where = "full" if self.order is None else str(self.order)
        status = "PASS" if self.passed else "FAIL"
        args = " ".join(f"{k}={v}" for k, v in self.params.items())
        text = (
            f"{status} {self.kind} {args} order N={self.cutoff}: "
            f"agreement to {where} (threshold {self.threshold})"
        )
        if self.witness is not None:
            e, lhs, rhs = self.witness
            text += f"; first disagreement at q^{e}: {lhs} vs {rhs}"
        return text

    def to_json_dict(self) -> dict:
        def frac(x: Fraction) -> dict:
            return {"num": x.numerator, "den": x.denominator}

        return {
            "kind": self.kind,
            "params": dict(self.params),
            "cutoff": frac(self.cutoff),
            "threshold": frac(self.threshold),
            "agreement_order": "full" if self.order is None else frac(self.order),
            "first_disagreement": None
            if self.witness is None
            else {
                "exponent": frac(self.witness[0]),
                "lhs": str(self.witness[1]),
                "rhs": str(self.witness[2]),
            },
            "passed": self.passed,
        }


def _build_report(
    kind: str,
    params: dict[str, int],
    lhs: QSeries,
    rhs: QSeries,
    cutoff: Fraction,
    threshold: Fraction,
) -> VerificationReport:
    witness = first_disagreement(lhs, rhs)
    order = None if witness is None else witness[0]
    effective = min(threshold, cutoff)
    passed = order is None or order >= effective
    return VerificationReport(kind, params, cutoff, threshold, order, witness, passed)


def verify_singlet_theorem(
    rank: int, components: int, p: int, colour: int, cutoff: Fraction | int
) -> VerificationReport:
    """Compare the singlet-shifted invariant with its limit series.

    Passes when the agreement order reaches (p/(2c) + (p-1)/2) * colour,
    capped at the cutoff.
    """
    cut = _exact_cutoff(cutoff)
    spec = TorusLinkSpec(rank, components, p, colour)
    lhs = shifted_invariant_singlet(spec, cut)
    rhs = rhs_singlet_limit(rank, components, p, cut)
    threshold = summand_exponent_bound(components, p) * colour
    params = {"rank": rank, "components": components, "p": p, "colour": colour}
    return _build_report("singlet", params, lhs, rhs, cut, threshold)


def verify_triplet_theorem(
    rank: int, p: int, coset: int, colour: int, cutoff: Fraction | int
) -> VerificationReport:
    """Compare the triplet-shifted invariant with its limit series.

    The colour must lie in the coset's residue class mod rank; the pass
    threshold is (p/(2r) + (p-1)/2) * colour, capped at the cutoff.
    """
    if not 0 <= coset < rank:
        raise ValueError(f"coset index must be in 0..{rank - 1}")
    if colour % rank != coset:
        raise ValueError(
            f"colour {colour} is not congruent to coset {coset} modulo rank {rank}"
        )
    cut = _exact_cutoff(cutoff)
    spec = TorusLinkSpec(rank, rank + 1, p, colour)
    lhs = shifted_invariant_triplet(spec, cut)
    rhs = rhs_triplet_limit(rank, p, coset, cut)
    threshold = summand_exponent_bound(rank, p) * colour
    params = {"rank": rank, "p": p, "coset": coset, "colour": colour}
    return _build_report("triplet", params, lhs, rhs, cut, threshold)


# -- proposition checks -------------------------------------------------------


def check_prop_zero_weight(shape: Iterable[int], rank: int) -> bool:
    """Zero-weight dimension proposition on one shape.

    Off the divisible case the zero-weight space must vanish; on it, the
    Kostka number with balanced rectangular content must match the
    determinant-oracle coefficient of the balanced monomial.
    """
    lam = as_partition(shape)
    mu = weight_of_partition(lam, rank)
    if sum(lam) % rank:
        return zero_weight_dim(mu) == 0
    k = sum(lam) // rank
    oracle = schur_expand_oracle(lam, rank).get((k,) * rank, 0)
    return kostka(lam, (k,) * rank) == oracle == zero_weight_dim(mu)


def _in_full_dim_domain(lam: Partition, colour: int, rank: int) -> bool:
    """The full-dimension proposition's domain: weight colour * (rank + 1),
    at most ``rank`` rows, the ``rank``-th row at least the colour."""
    return (sum(lam) == colour * (rank + 1) and len(lam) <= rank
            and (lam + (0,) * rank)[rank - 1] >= colour)


def check_prop_full_dim(shape: Iterable[int], colour: int, rank: int) -> str:
    """Full-dimension proposition on one shape: returns pass/fail/skipped;
    a shape outside :func:`_in_full_dim_domain` is skipped, not failed."""
    lam = as_partition(shape)
    if not _in_full_dim_domain(lam, colour, rank):
        return "skipped"
    lhs = kostka(lam, (colour,) * (rank + 1))
    rhs = weyl_dim(weight_of_partition(lam, rank))
    return "pass" if lhs == rhs else "fail"


# -- the column-stripping bijection ------------------------------------------


def strip_columns(shape: Iterable[int]) -> tuple[int, ...]:
    """Shape left after deleting the full-height columns (the last row)."""
    lam = as_partition(shape)
    if not lam:
        return ()
    width = lam[-1]
    return as_partition(tuple(part - width for part in lam))


def phi(tableau: Tableau) -> Tableau:
    """Strip the full-height columns and decrement the remaining entries."""
    if not tableau:
        return ()
    width = len(tableau[-1])
    out = []
    for row in tableau:
        tail = row[width:]
        if any(v < 2 for v in tail):
            raise ValueError("tableau is not in the bijection's domain")
        out.append(tuple(v - 1 for v in tail))
    return tuple(row for row in out if row)


def phi_inverse(t_small: Tableau, colour: int, rank: int, width: int) -> Tableau:
    """Rebuild the big tableau: greedily fill a rank x width rectangle with
    the unused entry multiplicities, then append the incremented small
    tableau to its rows."""
    counts = [0] * (rank + 1)
    for row in t_small:
        for v in row:
            counts[v] += 1  # occurrences of v+1 in the incremented tableau
    flat: list[int] = []
    for value in range(1, rank + 2):
        missing = colour - counts[value - 1]
        if missing < 0:
            raise ValueError("small tableau uses an entry more than colour times")
        flat.extend([value] * missing)
    if len(flat) != rank * width:
        raise ValueError("entry multiplicities do not fill the rectangle")
    rect = [tuple(flat[i * width : (i + 1) * width]) for i in range(rank)]
    small_rows = list(t_small) + [()] * (rank - len(t_small))
    fused = tuple(
        row
        for i in range(rank)
        if (row := rect[i] + tuple(v + 1 for v in small_rows[i]))
    )
    _check_ssyt(fused)
    return fused


def _check_ssyt(tableau: Tableau) -> None:
    for i, row in enumerate(tableau):
        for j, v in enumerate(row):
            if j and row[j - 1] > v:
                raise ValueError("rows must weakly increase")
            if i and j < len(tableau[i - 1]) and tableau[i - 1][j] >= v:
                raise ValueError("columns must strictly increase")


def phi_bijection_check(shape: Iterable[int], colour: int, rank: int) -> bool:
    """Materialize the bijection on every tableau of the given shape.

    Both round trips must be identities and the image must be exactly the
    set of small tableaux.  Requires a shape in the full-dimension
    proposition's domain.
    """
    lam = as_partition(shape)
    if not _in_full_dim_domain(lam, colour, rank):
        raise ValueError("shape is outside the bijection's domain")
    width = (lam + (0,) * rank)[rank - 1]
    small_shape = strip_columns(lam) if len(lam) == rank else lam
    big = enumerate_ssyt(lam, (colour,) * (rank + 1))
    small = enumerate_ssyt_bounded(small_shape, rank)
    images = []
    for t in big:
        image = phi(t)
        if phi_inverse(image, colour, rank, width) != t:
            return False
        images.append(image)
    if sorted(images) != sorted(small):
        return False
    for t in small:
        if phi(phi_inverse(t, colour, rank, width)) != t:
            return False
    return True


# -- the proposition scan -----------------------------------------------------


def scan_propositions(
    rank: int, max_weight: int
) -> list[tuple[str, int, list[Partition]]]:
    """Both propositions and the bijection on every case up to ``max_weight``,
    as (kind, number of cases, failing shapes) for each of the three checks.

    The zero-weight check runs on every shape of weight at most
    ``max_weight`` with at most ``rank`` rows; the full-dimension check and
    the bijection on every shape of weight at most ``max_weight`` in
    :func:`_in_full_dim_domain` at a colour >= 1.
    """
    zero_shapes = [
        lam for weight in range(max_weight + 1) for lam in partitions_of(weight, rank)
    ]
    full_cases = [
        (lam, colour)
        for colour in range(1, max_weight // (rank + 1) + 1)
        for lam in partitions_of(colour * (rank + 1), rank)
        if _in_full_dim_domain(lam, colour, rank)
    ]
    return [
        ("props-zero-weight", len(zero_shapes),
         [lam for lam in zero_shapes if not check_prop_zero_weight(lam, rank)]),
        ("props-full-dim", len(full_cases),
         [lam for lam, colour in full_cases
          if check_prop_full_dim(lam, colour, rank) == "fail"]),
        ("props-bijection", len(full_cases),
         [lam for lam, colour in full_cases
          if not phi_bijection_check(lam, colour, rank)]),
    ]
