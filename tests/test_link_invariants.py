"""Torus-link invariants: worked examples, the tensor-power reassembly
oracle, grain bookkeeping, the shifted forms and their pruning at a cutoff."""

from fractions import Fraction

import pytest
from qtorus import link_invariants
from qtorus import (
    QSeries,
    TorusLinkSpec,
    agreement_order,
    jones_summands,
    jones_torus_link,
    kappa,
    kostka,
    partitions_of,
    principal_spec,
    shifted_invariant_singlet,
    shifted_invariant_triplet,
    singlet_shift_exponent,
    summand_exponent_bound,
    summand_floor,
    triplet_shift_exponent,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        TorusLinkSpec(1, 2, 2, 1)
    with pytest.raises(ValueError):
        TorusLinkSpec(2, 0, 2, 1)
    with pytest.raises(ValueError):
        TorusLinkSpec(2, 2, 0, 1)
    with pytest.raises(ValueError):
        TorusLinkSpec(2, 2, 2, -1)


def test_unknot_single_summand():
    spec = TorusLinkSpec(2, 1, 5, 1)
    assert jones_torus_link(spec) == principal_spec((1,), 2)


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("n", range(0, 6))
def test_knot_case_is_one_summand(p, n):
    # a single component gives the framed symmetric-power character
    spec = TorusLinkSpec(3, 1, p, n)
    expected = QSeries.monomial(1, Fraction(p * kappa((n,)), 2)) * principal_spec(
        (n,), 3
    ) if n else QSeries.one()
    assert jones_torus_link(spec) == QSeries(expected.terms, grain=2)
    assert len(list(jones_summands(spec))) == 1


def test_two_component_hand_expansion():
    # lambda = (2) and (1,1): q^2 (q + 1 + q^-1) + q^-2
    series = jones_torus_link(TorusLinkSpec(2, 2, 2, 1))
    assert series == QSeries({3: 1, 2: 1, 1: 1, -2: 1})


def test_dimension_count_at_q_one():
    series = jones_torus_link(TorusLinkSpec(2, 2, 2, 1))
    assert sum(series.terms.values()) == 4  # squared dimension of the colour


def test_framing_independence_of_coefficient_sum():
    for p in (1, 2, 3):
        series = jones_torus_link(TorusLinkSpec(2, 2, p, 1))
        assert sum(series.terms.values()) == 4


@pytest.mark.parametrize("rank,components", [(2, 2), (2, 3), (3, 2), (3, 4)])
def test_reassembly_oracle(rank, components):
    # dropping the framing weights must reassemble the power of the
    # symmetric-power specialization
    for n in range(0, 7):
        total = QSeries.zero()
        for lam in partitions_of(n * components, min(rank, components)):
            weight = kostka(lam, (n,) * components)
            if weight:
                total = total + weight * principal_spec(lam, rank)
        assert total == principal_spec((n,), rank) ** components


def test_every_exponent_has_grain_dividing_two():
    for rank, components, p, n in [(2, 2, 2, 3), (3, 2, 1, 4), (3, 3, 2, 2)]:
        series = jones_torus_link(TorusLinkSpec(rank, components, p, n))
        for e in series.terms:
            assert (2 * e).denominator == 1
        assert series.grain == 2


# -- singlet shift ---------------------------------------------------------------


def test_singlet_shift_exponent_reduces_when_ranks_match():
    spec = TorusLinkSpec(2, 2, 2, 5)
    assert singlet_shift_exponent(spec) == Fraction(2, 2) * (-25 * 2 + 5 * 4)
    spec = TorusLinkSpec(5, 3, 2, 4)
    assert singlet_shift_exponent(spec) == Fraction(2, 2) * (-16 * 3 + 4 * 9) + Fraction(
        4 * 3 * 2, 2
    )


def test_shifted_singlet_hand_example():
    series = shifted_invariant_singlet(TorusLinkSpec(2, 2, 2, 1))
    assert series == QSeries({5: 1, 4: 1, 3: 1, 0: 1})


@pytest.mark.parametrize("n", range(0, 11))
def test_shifted_singlet_lowest_exponent_zero_when_ranks_match(n):
    for rank in (2, 3):
        series = shifted_invariant_singlet(TorusLinkSpec(rank, rank, 2, n))
        assert series.low == 0
        assert series.coefficient(0) == 1


def test_shifted_singlet_requires_component_range():
    with pytest.raises(ValueError, match="components"):
        shifted_invariant_singlet(TorusLinkSpec(2, 3, 2, 1))
    with pytest.raises(ValueError, match="components"):
        shifted_invariant_singlet(TorusLinkSpec(3, 1, 2, 1))


def test_shifted_singlet_stabilizes():
    # consecutive colours agree to an order that never decreases
    previous = None
    last_order = Fraction(-1)
    for n in range(1, 11):
        series = shifted_invariant_singlet(TorusLinkSpec(2, 2, 2, n))
        if previous is not None:
            order = agreement_order(previous, series)
            assert order is not None  # exact polynomials, eventually differ
            assert order >= last_order
            last_order = order
        previous = series
    assert last_order >= 10


# -- triplet shift -----------------------------------------------------------------


def test_shifted_triplet_requires_one_more_component():
    with pytest.raises(ValueError, match="components"):
        shifted_invariant_triplet(TorusLinkSpec(2, 2, 2, 1))


def test_shifted_triplet_colour_zero():
    assert shifted_invariant_triplet(TorusLinkSpec(2, 3, 1, 0)) == QSeries.one()


def test_shifted_triplet_low_and_constant_term():
    series = shifted_invariant_triplet(TorusLinkSpec(2, 3, 2, 2))
    assert series.low >= 0
    assert series.coefficient(0) == 1


def test_shifted_triplet_grain():
    series = shifted_invariant_triplet(TorusLinkSpec(3, 4, 2, 3))
    assert series.grain == 6
    for e in series.terms:
        assert (6 * e).denominator == 1


@pytest.mark.parametrize("n", range(1, 11))
def test_triplet_tail_summand_bound(n):
    # summands whose shape has a short last row sit above the scaling bound
    rank, p = 2, 2
    spec = TorusLinkSpec(rank, rank + 1, p, n)
    shift = triplet_shift_exponent(spec)
    bound = summand_exponent_bound(rank, p) * n
    for lam, _, term in jones_summands(spec):
        padded = lam + (0,) * (rank - len(lam))
        if padded[rank - 1] < n:
            assert shift + term.low >= bound


# -- cutoff-aware pruning ------------------------------------------------------

# (rank, components, colours): components below rank, at rank (singlet) and
# rank + 1 (triplet), with colours from 0 up to the benchmark's largest.
PRUNING_FAMILIES = [
    (2, 2, (0, 1, 7, 60)),
    (3, 2, (0, 1, 5, 12)),
    (3, 3, (0, 2, 12)),
    (4, 2, (0, 3, 8)),
    (4, 3, (0, 1, 6)),
    (4, 4, (0, 2, 5)),
    (2, 3, (0, 1, 5, 36)),
    (3, 4, (0, 2, 10)),
    (4, 5, (0, 1, 3)),
]
# integer and fractional cutoffs; the triplet shifts have denominator rank
PRUNING_CUTOFFS = [Fraction(1, 2), 1, Fraction(7, 3), Fraction(31, 6), 12, 30]


def _shifted(spec):
    if spec.components == spec.rank + 1:
        return shifted_invariant_triplet
    return shifted_invariant_singlet


@pytest.mark.parametrize("rank,components,colours", PRUNING_FAMILIES)
@pytest.mark.parametrize("p", [2, 3])
def test_pruned_invariant_matches_truncated_exact(rank, components, colours, p):
    for n in colours:
        spec = TorusLinkSpec(rank, components, p, n)
        shifted = _shifted(spec)
        exact = shifted(spec)
        for cutoff in PRUNING_CUTOFFS:
            pruned = shifted(spec, cutoff)
            assert pruned.to_json_dict() == exact.truncate(cutoff).to_json_dict()


@pytest.mark.parametrize(
    "rank,components,p,n", [(2, 2, 3, 9), (3, 2, 2, 6), (3, 4, 3, 3), (4, 4, 2, 3)]
)
def test_summand_floor_is_lowest_exponent(rank, components, p, n):
    spec = TorusLinkSpec(rank, components, p, n)
    summands = list(jones_summands(spec))
    shapes = list(partitions_of(n * components, min(rank, components)))
    assert [lam for lam, _, _ in summands] == shapes
    for lam, weight, term in summands:
        assert term.low == summand_floor(spec, lam)
        assert term.coefficient(term.low) == weight


@pytest.mark.parametrize(
    "rank,components,p,n", [(2, 2, 2, 30), (3, 3, 3, 8), (2, 3, 2, 20), (3, 4, 2, 7)]
)
def test_pruning_at_double_window_changes_nothing(rank, components, p, n):
    spec = TorusLinkSpec(rank, components, p, n)
    shifted = _shifted(spec)
    for cutoff in (Fraction(31, 6), 16, 30):
        assert shifted(spec, 2 * cutoff).truncate(cutoff) == shifted(spec, cutoff)


def test_pruning_skips_shapes_before_kostka(monkeypatch):
    calls = []

    def counted_kostka(lam, content):
        calls.append(lam)
        return kostka(lam, content)

    monkeypatch.setattr(link_invariants, "kostka", counted_kostka)
    spec = TorusLinkSpec(2, 2, 2, 40)
    below = 30 - singlet_shift_exponent(spec)
    kept = [lam for lam, _, _ in jones_summands(spec, below)]
    assert calls == kept == [
        lam for lam in partitions_of(80, 2) if summand_floor(spec, lam) < below
    ]
    assert 0 < len(kept) < 41


# -- one-pass summation against the summand-by-summand series sum -------------


def reference_jones_torus_link(spec, below=None):
    """The invariant as a running QSeries sum, one addition per summand."""
    total = QSeries.zero()
    for _, _, term in jones_summands(spec, below):
        total = total + term
    series = QSeries(total.terms, grain=2)
    return series if below is None else series.truncate(below)


# (rank, components, colour): the largest colour of each benchmark family
BENCHMARK_TOPS = [(2, 2, 100), (2, 3, 30), (3, 3, 12), (3, 4, 9), (4, 4, 6), (5, 5, 3)]


@pytest.mark.parametrize("rank,components,colour", BENCHMARK_TOPS)
@pytest.mark.parametrize("p", [2, 3])
def test_one_pass_sum_matches_the_running_sum(rank, components, colour, p):
    for n in sorted({0, 1, colour // 2, colour}):
        spec = TorusLinkSpec(rank, components, p, n)
        shift = (
            triplet_shift_exponent(spec)
            if components == rank + 1
            else singlet_shift_exponent(spec)
        )
        belows = [None] + [Fraction(cutoff) - shift for cutoff in PRUNING_CUTOFFS]
        for below in belows:
            expected = reference_jones_torus_link(spec, below).to_json_dict()
            assert jones_torus_link(spec, below).to_json_dict() == expected
