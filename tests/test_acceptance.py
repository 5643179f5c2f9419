"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line per criterion (run with ``pytest tests/test_acceptance.py -v -s``).

All comparisons are exact integer equalities on q-series coefficients;
there are no numerical tolerances anywhere.
"""

import random
from fractions import Fraction
from functools import lru_cache

from qtorus import (
    CharacterSpec,
    QSeries,
    TorusLinkSpec,
    WeightVector,
    check_prop_full_dim,
    check_prop_zero_weight,
    first_disagreement,
    kappa,
    kostka,
    partition_of_weight,
    partitions_of,
    phi_bijection_check,
    principal_spec,
    rhs_singlet_limit,
    shifted_invariant_singlet,
    singlet_char,
    singlet_shift_exponent,
    summand_exponent_bound,
    triplet_char,
    triplet_shift_exponent,
    verify_singlet_theorem,
    verify_triplet_theorem,
    weight_of_partition,
    weyl_dim,
)
from qtorus.lie_sl import casimir_pairing, scaled_coeff_sum
from qtorus.link_invariants import jones_summands
from qtorus.qseries import euler_product, invert_unit

from oracles import alternant, epsilon_coords, weyl_denominator, weyl_vector


def _criterion(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def test_criterion_1_singlet_identity_rank_two():
    rank, components, p, colour, cutoff = 2, 2, 2, 40, 30
    spec = TorusLinkSpec(rank, components, p, colour)

    # justify the threshold first: every summand beyond the colour's cone
    # level sits far above the cutoff (the tail grows like p * colour^2 / 4)
    shift = singlet_shift_exponent(spec)
    tail_lows = [
        shift + term.low
        for lam, _, term in jones_summands(spec)
        if scaled_coeff_sum(weight_of_partition(lam, components)) > colour
    ]
    tail_ok = all(low > cutoff for low in tail_lows)
    tail_ok = tail_ok and min(tail_lows) >= Fraction(p * colour * colour, 4)

    lhs = shifted_invariant_singlet(spec).truncate(cutoff)
    rhs = rhs_singlet_limit(rank, components, p, cutoff)
    exact = first_disagreement(lhs, rhs) is None
    report = verify_singlet_theorem(rank, components, p, colour, cutoff)
    _criterion(
        1,
        f"singlet identity (r,c,p)=({rank},{components},{p}), colour {colour}: "
        f"exact below q^{cutoff}",
        exact and report.passed and tail_ok,
    )


def test_criterion_2_singlet_identity_rank_three():
    cutoff = 12
    ok = True
    for components in (2, 3):
        last = Fraction(-10)
        for colour in range(1, 13):
            report = verify_singlet_theorem(3, components, 2, colour, cutoff)
            order = Fraction(cutoff) if report.order is None else report.order
            ok = ok and order >= last
            last = order
        ok = ok and last >= 10
    _criterion(
        2,
        "singlet identity (3,2,2) and (3,3,2): agreement order nondecreasing "
        "over colours 1..12 and at least q^10 by colour 12",
        ok,
    )


def test_criterion_3_triplet_identity():
    rank, p, cutoff = 2, 2, 15
    ok = True
    for coset, colour in ((0, 20), (1, 21)):
        # per-summand scan behind the threshold: short-last-row shapes stay
        # at or above (p/(2r) + (p-1)/2) * colour, beyond the cutoff
        spec = TorusLinkSpec(rank, rank + 1, p, colour)
        shift = triplet_shift_exponent(spec)
        floor = summand_exponent_bound(rank, p) * colour
        for lam, _, term in jones_summands(spec):
            padded = lam + (0,) * (rank - len(lam))
            if padded[rank - 1] < colour:
                ok = ok and shift + term.low >= floor > cutoff

        report = verify_triplet_theorem(rank, p, coset, colour, cutoff)
        ok = ok and report.passed and report.order is None
    _criterion(
        3,
        f"triplet identity (r,p)=({rank},{p}), cosets 0 and 1: exact below "
        f"q^{cutoff}",
        ok,
    )


def test_criterion_4_kostka_dimension_propositions():
    ok = True
    for rank in range(2, 5):
        for weight in range(0, 13):
            for lam in partitions_of(weight, rank):
                ok = ok and check_prop_zero_weight(lam, rank)
    for rank in range(2, 4):
        colour = 1
        while colour * (rank + 1) <= 16:
            for lam in partitions_of(colour * (rank + 1), rank):
                ok = ok and check_prop_full_dim(lam, colour, rank) != "fail"
            colour += 1
    worked = (
        kostka((11, 9, 8), (7, 7, 7, 7)) == 15
        and check_prop_full_dim((11, 9, 8), 7, 3) == "pass"
    )
    _criterion(
        4,
        "zero-weight proposition (|shape| <= 12, rank <= 4) and full-dimension "
        "proposition (weight <= 16, rank <= 3) incl. shape [11,9,8]",
        ok and worked,
    )


def test_criterion_5_bijection_round_trips():
    ok = True
    cases = 0
    for rank in range(2, 12):
        colour = 1
        while colour * (rank + 1) <= 12:
            for lam in partitions_of(colour * (rank + 1), rank):
                padded = lam + (0,) * rank
                if len(lam) == rank and padded[rank - 1] >= colour:
                    cases += 1
                    ok = ok and phi_bijection_check(lam, colour, rank)
            colour += 1
    _criterion(
        5,
        f"column-stripping bijection: round trips and cardinalities on all "
        f"{cases} qualifying shapes of weight <= 12",
        ok and cases > 0,
    )


def test_criterion_6_property_suites():
    # tensor-power specialization identity, rank <= 3, components <= 4,
    # colour <= 6, exact
    tens = True
    for rank in (2, 3):
        for components in range(1, 5):
            for colour in range(0, 7):
                total = QSeries.zero()
                for lam in partitions_of(colour * components, min(rank, components)):
                    w = kostka(lam, (colour,) * components)
                    if w:
                        total = total + w * principal_spec(lam, rank)
                tens = tens and total == principal_spec((colour,), rank) ** components

    # Casimir-vs-framing identity on 500 random weights, exact
    rng = random.Random(20260810)
    theta = True
    for _ in range(500):
        rank = rng.randint(2, 5)
        mu = WeightVector(rank, tuple(rng.randint(0, 7) for _ in range(rank - 1)))
        a_r = rng.randint(0, 5)
        lam = partition_of_weight(mu, a_r)
        n = sum(lam)
        theta = theta and casimir_pairing(mu) == kappa(lam) + rank * n - Fraction(
            n * n, rank
        )

    # denominator identity: group alternant vs root-height product, rank <= 4
    denom = True
    for rank in (2, 3, 4):
        d = epsilon_coords(weyl_vector(rank))
        denom = denom and alternant(d, d) == weyl_denominator(rank)

    # palindromicity and the q -> 1 dimension count on 200 random shapes
    palin = True
    for _ in range(200):
        rank = rng.randint(2, 5)
        rows = rng.randint(0, rank)
        lam = tuple(sorted((rng.randint(1, 8) for _ in range(rows)), reverse=True))
        series = principal_spec(lam, rank)
        palin = palin and all(
            series.coefficient(-e) == c for e, c in series.terms.items()
        )
        palin = palin and sum(series.terms.values()) == weyl_dim(
            weight_of_partition(lam, rank)
        )

    # cutoff doubling stability at order 25: char(50) truncated is char(25)
    stable = True
    for rank in (2, 3):
        for p in (2, 3):
            wide = singlet_char(CharacterSpec(rank, p, "singlet", 50))
            spec = CharacterSpec(rank, p, "singlet", 25)
            stable = stable and wide.truncate(25) == singlet_char(spec)
            for coset in range(rank):
                wide = triplet_char(CharacterSpec(rank, p, "triplet", 50, coset))
                tspec = CharacterSpec(rank, p, "triplet", 25, coset)
                stable = stable and wide.truncate(25) == triplet_char(tspec)

    _criterion(
        6,
        "property suites: tensor-power specialization, Casimir-framing "
        "identity (500 weights), denominator identity, palindromicity and "
        "dimension (200 shapes), cutoff doubling at order 25",
        tens and theta and denom and palin and stable,
    )


def test_criterion_7_partition_counts_via_inversion():
    @lru_cache(maxsize=None)
    def count(remaining: int, largest: int) -> int:
        if remaining == 0:
            return 1
        return sum(
            count(remaining - part, part)
            for part in range(min(remaining, largest), 0, -1)
        )

    series = invert_unit(euler_product(51))
    ok = all(series.coefficient(n) == count(n, n) for n in range(51))
    _criterion(
        7,
        "partition numbers p(0..50) from the inverted Euler product match "
        "the brute-force counter",
        ok,
    )
