"""Character series: leading terms, the rank-two closed-form oracle,
positivity, enumeration-bound safety, and the comparison-side assemblies."""

from fractions import Fraction

import pytest
import qtorus.voa_characters as voa_characters
from qtorus import (
    CharacterSpec,
    QSeries,
    WeightVector,
    dominant_weights,
    enumeration_level,
    euler_product,
    first_disagreement,
    invert_unit,
    pairing,
    principal_spec_weight,
    rhs_singlet_limit,
    rhs_triplet_limit,
    scaled_coeff_sum,
    singlet_char,
    summand_exponent_bound,
    triplet_char,
    weyl_vector,
)
from qtorus.voa_characters import (
    _cone_sum,
    _cone_window,
    _cross_product,
    _height_product,
)
from qtorus.lie_sl import casimir_pairing, weyl_dim, zero_weight_dim


def test_spec_validation():
    with pytest.raises(ValueError, match="p >= 2"):
        CharacterSpec(2, 1, "singlet", 10)
    with pytest.raises(ValueError, match="kind"):
        CharacterSpec(2, 2, "doublet", 10)
    with pytest.raises(ValueError, match="coset"):
        CharacterSpec(2, 2, "triplet", 10, coset=2)
    with pytest.raises(ValueError, match="coset 0"):
        CharacterSpec(3, 2, "singlet", 10, coset=1)
    with pytest.raises(ValueError, match="cutoff"):
        CharacterSpec(2, 2, "singlet", 0)


def test_singlet_leading_term_is_vacuum():
    series = singlet_char(CharacterSpec(2, 2, "singlet", 6))
    assert series.low == 0 and series.coefficient(0) == 1


def test_singlet_rank_two_has_no_linear_term():
    series = singlet_char(CharacterSpec(2, 2, "singlet", 8))
    assert series.coefficient(1) == 0
    assert series.coefficient(2) == 1


def closed_form_rank_two_singlet(cutoff: int) -> QSeries:
    """Independent assembly: sum over m of q^(2m^2+2m) [2m+1]_q, times
    (1-q) over the Euler product."""
    cut = Fraction(cutoff)
    total = QSeries.zero()
    m = 0
    while 2 * m * m + m < cut:  # lowest exponent of the m-th summand
        bracket = QSeries({Fraction(j): 1 for j in range(-m, m + 1)})
        total = total + QSeries.monomial(1, 2 * m * m + 2 * m) * bracket
        m += 1
    prefactor = QSeries({0: 1, 1: -1}) * invert_unit(euler_product(cut))
    return (prefactor * total.truncate(cut)).truncate(cut)


def test_singlet_rank_two_closed_form_to_order_40():
    assert singlet_char(CharacterSpec(2, 2, "singlet", 40)) == closed_form_rank_two_singlet(40)


@pytest.mark.parametrize("rank,p", [(2, 2), (2, 3), (3, 2)])
def test_singlet_coefficients_nonnegative_to_30(rank, p):
    series = singlet_char(CharacterSpec(rank, p, "singlet", 31))
    assert all(c >= 0 for c in series.terms.values())
    assert series.coefficient(0) == 1


def test_triplet_vacuum_coset():
    series = triplet_char(CharacterSpec(2, 2, "triplet", 6, coset=0))
    assert series.low == 0 and series.coefficient(0) == 1


def test_triplet_nontrivial_coset_lowest_term():
    series = triplet_char(CharacterSpec(2, 2, "triplet", 8, coset=1))
    assert series.low == 1
    assert series.coefficient(1) == 2


def test_triplet_dominates_singlet_before_prefactor():
    # full dimensions dominate zero-weight dimensions term by term
    cut = Fraction(20)
    singlet_sum = _cone_sum(2, 2, 0, cut, zero_weight_dim)
    triplet_sum = _cone_sum(2, 2, 0, cut, weyl_dim)
    for e, c in singlet_sum.terms.items():
        assert triplet_sum.coefficient(e) >= c >= 0


# -- enumeration-bound safety ---------------------------------------------------


def test_enumeration_level_is_the_strict_threshold():
    for rank, p in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        bound = summand_exponent_bound(rank, p)
        for cutoff in (Fraction(10), Fraction(25), Fraction(31, 2)):
            level = enumeration_level(rank, p, cutoff)
            assert bound * level < cutoff <= bound * (level + 1)


@pytest.mark.parametrize("rank,p", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_doubling_the_enumeration_bound_changes_nothing(rank, p):
    cutoff = 25
    level = enumeration_level(rank, p, Fraction(cutoff))
    spec = CharacterSpec(rank, p, "singlet", cutoff)
    assert singlet_char(spec) == singlet_char(spec, enumeration_bound=2 * level)
    for coset in range(rank):
        tspec = CharacterSpec(rank, p, "triplet", cutoff, coset)
        assert triplet_char(tspec) == triplet_char(
            tspec, enumeration_bound=2 * level
        )


def test_per_summand_exponent_floor():
    for rank, p in [(2, 2), (3, 2), (2, 3)]:
        bound = summand_exponent_bound(rank, p)
        for mu in dominant_weights(rank, 12):
            term = QSeries.monomial(
                1, Fraction(p, 2) * casimir_pairing(mu)
            ) * principal_spec_weight(mu)
            assert term.low >= bound * scaled_coeff_sum(mu)
            # the true low is the Casimir exponent minus the pairing with delta
            assert term.low == Fraction(p, 2) * casimir_pairing(mu) - pairing(
                mu, weyl_vector(rank)
            )


# -- the cone window against the unpruned cone sum ------------------------------


def reference_cone_sum(rank, p, coset, cutoff, dim_of):
    """The unpruned cone sum: every weight up to the enumeration level is
    summed in full, and the total is truncated at the end."""
    bound = summand_exponent_bound(rank, p)
    total = QSeries.zero()
    for mu in dominant_weights(rank, enumeration_level(rank, p, cutoff), coset):
        dim = dim_of(mu)
        if dim == 0:
            continue
        exponent = Fraction(p, 2) * casimir_pairing(mu)
        term = QSeries.monomial(dim, exponent) * principal_spec_weight(mu)
        assert term.low >= bound * scaled_coeff_sum(mu)
        total = total + term
    return total.truncate(cutoff)


def floor_of(mu, p):
    return Fraction(p, 2) * casimir_pairing(mu) - pairing(mu, weyl_vector(mu.rank))


WINDOW_CUTOFFS = [
    Fraction(1, 2), Fraction(1), Fraction(7, 3), Fraction(31, 6), Fraction(12)
]


@pytest.mark.parametrize(
    "rank,p", [(r, p) for r in (2, 3, 4) for p in (2, 3, 4)] + [(5, 2), (5, 3)]
)
def test_windowed_cone_sum_matches_the_unpruned_sum(rank, p):
    for cutoff in WINDOW_CUTOFFS + ([Fraction(25)] if rank < 5 else []):
        for coset in range(rank):
            for dim_of in (zero_weight_dim, weyl_dim):
                fast = _cone_sum(rank, p, coset, cutoff, dim_of)
                slow = reference_cone_sum(rank, p, coset, cutoff, dim_of)
                assert fast.to_json_dict() == slow.to_json_dict(), (coset, cutoff)


@pytest.mark.parametrize("rank,p", [(2, 2), (3, 2), (3, 4), (4, 3), (5, 2)])
def test_cone_window_is_the_floor_filtered_cone(rank, p):
    for cutoff in WINDOW_CUTOFFS + [Fraction(25)]:
        full = enumeration_level(rank, p, cutoff)
        for level in (full, full // 2):
            for coset in range(rank):
                items = list(_cone_window(rank, p, coset, cutoff, level))
                window = {mu.coeffs: floor for mu, floor in items}
                expected = {
                    mu.coeffs: floor_of(mu, p)
                    for mu in dominant_weights(rank, level, coset)
                    if floor_of(mu, p) < cutoff
                }
                assert len(window) == len(items) and window == expected


@pytest.mark.parametrize("rank,p", [(2, 2), (3, 2), (3, 3), (4, 2)])
def test_doubling_the_window_changes_nothing(rank, p):
    for cutoff in (Fraction(7, 3), Fraction(12)):
        for coset in range(rank):
            for dim_of in (zero_weight_dim, weyl_dim):
                wide = _cone_sum(rank, p, coset, 2 * cutoff, dim_of)
                assert wide.truncate(cutoff) == _cone_sum(rank, p, coset, cutoff, dim_of)


def test_summands_are_truncated_before_they_are_added(monkeypatch):
    cutoff = Fraction(25)
    addends = []
    add = QSeries.__add__

    def spy(a, b):
        addends.append(b)
        return add(a, b)

    monkeypatch.setattr(QSeries, "__add__", spy)
    _cone_sum(3, 2, 0, cutoff, weyl_dim)
    assert len(addends) > 4
    assert all(term.cutoff == cutoff for term in addends)
    assert all(e < cutoff for term in addends for e in term.terms)


def test_wrong_floor_raises(monkeypatch):
    window = voa_characters._cone_window

    def shifted(*args):
        for mu, floor in window(*args):
            yield mu, floor + Fraction(1, 2 * mu.rank)

    monkeypatch.setattr(voa_characters, "_cone_window", shifted)
    with pytest.raises(AssertionError, match="floor"):
        _cone_sum(3, 2, 0, Fraction(12), weyl_dim)


def test_linear_bound_violation_raises(monkeypatch):
    bound = voa_characters.summand_exponent_bound
    monkeypatch.setattr(
        voa_characters, "summand_exponent_bound", lambda r, p: 3 * bound(r, p)
    )
    with pytest.raises(AssertionError, match="linear bound"):
        _cone_sum(2, 2, 0, Fraction(20), weyl_dim)


def test_cone_weights_lie_in_the_right_coset():
    for mu in dominant_weights(3, 9, coset=0):
        assert mu.coset_index == 0
    for mu in dominant_weights(3, 9, coset=2):
        assert mu.coset_index == 2


# -- comparison-side assemblies ----------------------------------------------------


def test_cross_product_rank_three():
    assert _cross_product(2, 3) == QSeries({0: 1, 1: -1}) * QSeries({0: 1, 2: -1})
    assert _cross_product(2, 2) == QSeries.one()


def test_height_product_rank_three():
    expected = QSeries({0: 1, 1: -1}) ** 2 * QSeries({0: 1, 2: -1})
    assert _height_product(3) == expected


def test_rhs_singlet_equal_ranks_cancels_prefactor():
    # the correction factors undo the character's own prefactor exactly
    cut = Fraction(18)
    rhs = rhs_singlet_limit(2, 2, 2, cut)
    cone = _cone_sum(2, 2, 0, cut, zero_weight_dim)
    assert first_disagreement(rhs, cone) is None


def test_rhs_singlet_validation():
    with pytest.raises(ValueError, match="components"):
        rhs_singlet_limit(2, 3, 2, 10)
    with pytest.raises(ValueError, match="components"):
        rhs_singlet_limit(3, 1, 2, 10)


def test_rhs_triplet_prefactor_rank_two():
    # Euler product over (1 - q): the factors from k >= 2 survive
    cut = Fraction(15)
    prefactor = euler_product(cut) * invert_unit(QSeries({0: 1, 1: -1}), cut)
    expected = QSeries.one(cut)
    k = 2
    while k < cut:
        expected = expected * QSeries({0: 1, k: -1})
        k += 1
    assert first_disagreement(prefactor, expected) is None


def test_rhs_triplet_leading_terms():
    assert rhs_triplet_limit(2, 2, 0, 10).coefficient(0) == 1
    series = rhs_triplet_limit(2, 2, 1, 10)
    assert series.low == 1


def test_characters_are_schedule_independent_values():
    # two independent evaluations construct equal values
    spec = CharacterSpec(3, 2, "singlet", 14)
    assert singlet_char(spec) == singlet_char(spec)


# -- the comparison series against the prefactor-times-inverse formulas -------


def reference_rhs_singlet(rank, components, p, cutoff):
    """Cross and height corrections times the whole singlet character."""
    cut = Fraction(cutoff)
    cross = invert_unit(_cross_product(components, rank), cut)
    correction = euler_product(cut) ** (components - 1) * invert_unit(
        _height_product(components), cut
    )
    char = singlet_char(CharacterSpec(components, p, "singlet", cut))
    return (cross * correction * char).truncate(cut)


def reference_rhs_triplet(rank, p, coset, cutoff):
    """Euler power over the height product times the whole triplet character."""
    cut = Fraction(cutoff)
    correction = euler_product(cut) ** (rank - 1) * invert_unit(_height_product(rank), cut)
    char = triplet_char(CharacterSpec(rank, p, "triplet", cut, coset))
    return (correction * char).truncate(cut)


RHS_CUTOFFS = [Fraction(1, 2), 1, Fraction(7, 3), Fraction(31, 6), 12, 16]


@pytest.mark.parametrize("rank", [2, 3, 4])
@pytest.mark.parametrize("p", [2, 3])
def test_rhs_limits_match_the_prefactor_formulas(rank, p):
    for cutoff in RHS_CUTOFFS:
        for components in range(2, rank + 1):
            expected = reference_rhs_singlet(rank, components, p, cutoff).to_json_dict()
            assert rhs_singlet_limit(rank, components, p, cutoff).to_json_dict() == expected
        for coset in range(rank):
            expected = reference_rhs_triplet(rank, p, coset, cutoff).to_json_dict()
            assert rhs_triplet_limit(rank, p, coset, cutoff).to_json_dict() == expected


def test_rhs_triplet_validation():
    with pytest.raises(ValueError, match="coset"):
        rhs_triplet_limit(2, 2, 2, 10)
    with pytest.raises(ValueError, match="p >= 2"):
        rhs_triplet_limit(2, 1, 0, 10)
    with pytest.raises(ValueError, match="cutoff"):
        rhs_triplet_limit(2, 2, 0, 0)
