"""Character series: leading terms, the rank-two closed-form oracle,
positivity, cone-window safety, and the comparison-side assemblies."""

import random
import re
from fractions import Fraction
from functools import lru_cache, partial
from itertools import repeat
from math import ceil, gcd, lcm
from operator import add, mul

import pytest
import qtorus.lie_sl as lie_sl
import qtorus.link_invariants as link_invariants
import qtorus.schur_spec as schur_spec
import qtorus.voa_characters as voa_characters
from qtorus import (
    CharacterSpec,
    QSeries,
    TorusLinkSpec,
    WeightVector,
    first_disagreement,
    rhs_singlet_limit,
    rhs_triplet_limit,
    shifted_invariant_singlet,
    shifted_invariant_triplet,
    singlet_char,
    summand_exponent_bound,
    triplet_char,
    verify_singlet_theorem,
    verify_triplet_theorem,
)
from qtorus.voa_characters import _cone_sum, _cone_window, _times_prefactor
from qtorus.lie_sl import (casimir_pairing, dominant_weights, scaled_coeff_sum, weyl_dim,
                           zero_weight_dim)
from qtorus.qseries import divide_series_one_minus_q, euler_product, invert_unit
from qtorus.schur_spec import principal_spec_weight

from oracles import pairing, weyl_form_character, weyl_vector


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


@pytest.mark.parametrize("field", ["rank", "p", "coset"])
@pytest.mark.parametrize("value", [True, 2.0, Fraction(1), "2"])
def test_spec_fields_must_be_ints(field, value):
    # a float rank would otherwise fail later, with a TypeError
    args = dict(rank=3, p=2, kind="triplet", cutoff=10, coset=1)
    args[field] = value
    with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {value!r}")):
        CharacterSpec(**args)


def unreachable(*args):
    raise AssertionError(f"a bad cutoff reached the build: {args}")


@pytest.mark.parametrize("cutoff", [0.1, 2.5, True, "7/3"])
def test_spec_cutoff_must_be_a_fraction_or_an_int(monkeypatch, cutoff):
    # Fraction(0.1) has the denominator 2^55, which would become the grain: the
    # character grid would be about 3.6e15 entries long, so no build may start
    monkeypatch.setattr(voa_characters, "_cone_sum", unreachable)
    monkeypatch.setattr(link_invariants, "_cone_window", unreachable)
    monkeypatch.setattr(link_invariants, "_add_summands", unreachable)
    calls = [
        lambda: CharacterSpec(2, 2, "singlet", cutoff),
        lambda: rhs_singlet_limit(3, 2, 2, cutoff),
        lambda: rhs_triplet_limit(2, 2, 0, cutoff),
        lambda: verify_singlet_theorem(2, 2, 2, 10, cutoff),
        lambda: verify_triplet_theorem(2, 2, 0, 10, cutoff),
        lambda: shifted_invariant_singlet(TorusLinkSpec(2, 2, 2, 10), cutoff),
        lambda: shifted_invariant_triplet(TorusLinkSpec(2, 3, 2, 10), cutoff),
    ]
    match = re.escape(f"cutoff must be a Fraction or an integer, got {cutoff!r}")
    for call in calls:
        with pytest.raises(ValueError, match=match):
            call()


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


# -- the linear bound and cutoff doubling ------------------------------------------


def enumeration_level(rank, p, cutoff):
    """Largest sum(i * a_i) whose summand can reach below ``cutoff`` by the
    linear bound: the unpruned cone of the reference sums."""
    return max(ceil(cutoff / summand_exponent_bound(rank, p)) - 1, 0)


def test_enumeration_level_is_the_strict_threshold():
    for rank, p in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        bound = summand_exponent_bound(rank, p)
        for cutoff in (Fraction(10), Fraction(25), Fraction(31, 2)):
            level = enumeration_level(rank, p, cutoff)
            assert bound * level < cutoff <= bound * (level + 1)


@pytest.mark.parametrize("rank,p", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_doubling_the_enumeration_bound_changes_nothing(rank, p):
    # the cutoff is the cone window's only bound: doubling it and truncating
    # back changes no character
    cutoff = 25
    wide = singlet_char(CharacterSpec(rank, p, "singlet", 2 * cutoff))
    assert wide.truncate(cutoff) == singlet_char(CharacterSpec(rank, p, "singlet", cutoff))
    for coset in range(rank):
        wide = triplet_char(CharacterSpec(rank, p, "triplet", 2 * cutoff, coset))
        tspec = CharacterSpec(rank, p, "triplet", cutoff, coset)
        assert wide.truncate(cutoff) == triplet_char(tspec)


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
    """The unpruned cone sum: every weight up to the linear bound's level is
    summed in full as a series, and the total is truncated at the end."""
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
        for coset in range(rank):
            items = _cone_window(rank, p, coset, ceil(2 * rank * cutoff))
            window = {mu.coeffs: Fraction(n, 2 * rank) for mu, n, _, _ in items}
            assert len(window) == len(items)
            # at the full level the linear bound holds the whole window
            for level in (full, full // 2):
                expected = {
                    mu.coeffs: floor_of(mu, p)
                    for mu in dominant_weights(rank, level, coset)
                    if floor_of(mu, p) < cutoff
                }
                low = {
                    c: f for c, f in window.items()
                    if scaled_coeff_sum(WeightVector(rank, c)) <= level
                }
                assert low == expected


@pytest.mark.parametrize("rank,p", [(2, 2), (3, 2), (3, 3), (4, 2)])
def test_doubling_the_window_changes_nothing(rank, p):
    for cutoff in (Fraction(7, 3), Fraction(12)):
        for coset in range(rank):
            for dim_of in (zero_weight_dim, weyl_dim):
                wide = _cone_sum(rank, p, coset, 2 * cutoff, dim_of)
                assert wide.truncate(cutoff) == _cone_sum(rank, p, coset, cutoff, dim_of)


# (call at a cutoff, its window family): the four entry points of _cone_sum
CONE_ENTRY_POINTS = [
    (lambda cut: singlet_char(CharacterSpec(3, 2, "singlet", cut)), (3, 2, 0)),
    (lambda cut: triplet_char(CharacterSpec(3, 3, "triplet", cut, 1)), (3, 3, 1)),
    (lambda cut: rhs_singlet_limit(4, 3, 2, cut), (3, 2, 0)),
    (lambda cut: rhs_triplet_limit(4, 2, 2, cut), (4, 2, 2)),
]


@pytest.mark.parametrize("schedule", ["ascending", "descending", "shuffled"])
def test_warm_window_reads_equal_cold_walks_on_the_character_side(schedule):
    # each call drops the kept grids, so it builds its cone sum from the window
    cutoffs = [Fraction(1, 2), Fraction(7, 3), 5, Fraction(25, 2), 20, Fraction(61, 3)]
    requests = [(call, cut, family) for call, family in CONE_ENTRY_POINTS
                for cut in cutoffs]
    if schedule != "shuffled":
        requests.sort(key=lambda request: request[1], reverse=schedule == "descending")
    else:
        random.Random(5).shuffle(requests)
    warm = []
    for call, cut, family in requests:
        voa_characters._cone_sums.clear()
        limit = ceil(2 * family[0] * Fraction(cut))
        warm.append((call(cut).to_json(), lie_sl._cone_window(*family, limit)))
    # one window per family, kept at the longest limit asked
    assert {key: walked for key, (walked, _) in lie_sl._windows.items()} == {
        family: ceil(2 * family[0] * max(cutoffs)) for _, family in CONE_ENTRY_POINTS}
    for (call, cut, family), (series, window) in zip(requests, warm):
        voa_characters._cone_sums.clear()
        lie_sl._windows.clear()
        assert window == lie_sl._cone_window(*family, ceil(2 * family[0] * Fraction(cut)))
        lie_sl._windows.clear()
        assert series == call(cut).to_json()


def test_wrong_floor_raises(monkeypatch):
    window = voa_characters._cone_window
    # a shift by 2r = 6 moves each floor by a whole unit, onto the grid, so
    # only the Casimir re-check can catch it
    for shift in (1, 6):

        def shifted(*args):
            return [(mu, n + shift, *rest) for mu, n, *rest in window(*args)]

        monkeypatch.setattr(voa_characters, "_cone_window", shifted)
        with pytest.raises(AssertionError, match="floor"):
            _cone_sum(3, 2, 0, Fraction(12), weyl_dim)


def test_summand_without_its_floor_term_raises(monkeypatch):
    spec_poly = schur_spec._spec_of_gaps

    def raised(gaps):
        poly, d = spec_poly(gaps)
        return [0, *poly], d

    monkeypatch.setattr(schur_spec, "_spec_of_gaps", raised)
    with pytest.raises(AssertionError, match="floor"):
        _cone_sum(2, 2, 0, Fraction(20), weyl_dim)


def test_a_grain_too_coarse_for_the_coset_raises(monkeypatch):
    # coset 1 of rank 3 needs the grain 6; on the grid of 1/2 the summand at w_1
    # (floor 5/3) starts between two keys, and only the grid re-check sees it
    monkeypatch.setitem(voa_characters._lowest_grains, (3, 2, 1, weyl_dim), 2)
    with pytest.raises(AssertionError, match="grid of 1/2"):
        _cone_sum(3, 2, 1, Fraction(12), weyl_dim)


@pytest.mark.parametrize("rank", [2, 3, 4])
@pytest.mark.parametrize("p", [2, 3])
def test_characters_match_the_weyl_form(rank, p):
    # a second route to every cone sum: the Weyl-group form walks its own weights
    # and uses no window, specialization, prefactor kernel or adder
    heights = [j - i for j in range(1, rank + 1) for i in range(1, j)]
    for cutoff in (Fraction(7, 3), 12, Fraction(61, 3) if rank < 4 else 14):
        singlet = singlet_char(CharacterSpec(rank, p, "singlet", cutoff))
        assert singlet.terms == weyl_form_character(rank, p, 0, cutoff, zero_weight_dim)
        for coset in range(rank):
            weyl = partial(weyl_form_character, rank, p, coset, cutoff, weyl_dim)
            assert triplet_char(CharacterSpec(rank, p, "triplet", cutoff, coset)).terms == weyl()
            assert rhs_triplet_limit(rank, p, coset, cutoff).terms == weyl(0, heights)
        for big in range(rank, 5):
            cross = [j - i for j in range(rank + 1, big + 1) for i in range(1, rank + 1)]
            assert rhs_singlet_limit(big, rank, p, cutoff).terms == weyl_form_character(
                rank, p, 0, cutoff, zero_weight_dim, 0, heights + cross)


def test_cone_weights_lie_in_the_right_coset():
    for mu in dominant_weights(3, 9, coset=0):
        assert mu.coset_index == 0
    for mu in dominant_weights(3, 9, coset=2):
        assert mu.coset_index == 2


# -- comparison-side assemblies ----------------------------------------------------


def product_series(heights):
    """Product of (1 - q^h) over ``heights``, as an exact series."""
    out = QSeries.one()
    for h in heights:
        out = out * QSeries({0: 1, h: -1})
    return out


def height_product(rank):
    return product_series(j - i for j in range(rank + 1) for i in range(1, j))


def cross_product(components, rank):
    lower, upper = range(1, components + 1), range(components + 1, rank + 1)
    return product_series(j - i for j in upper for i in lower)


def test_cross_product_rank_three():
    # the rank-three comparison series is the rank-two one over (1-q)(1-q^2)
    cut = Fraction(14)
    cross = QSeries({0: 1, 1: -1}) * QSeries({0: 1, 2: -1})
    assert cross_product(2, 3) == cross and cross_product(2, 2) == QSeries.one()
    for p in (2, 3):
        rhs = rhs_singlet_limit(3, 2, p, cut)
        assert (cross * rhs).truncate(cut) == rhs_singlet_limit(2, 2, p, cut)


def test_height_product_rank_three():
    # the rank-three prefactor is (1-q)^2 (1-q^2) over the Euler power
    cut = Fraction(14)
    expected = QSeries({0: 1, 1: -1}) ** 2 * QSeries({0: 1, 2: -1})
    assert height_product(3) == expected
    for coset in range(3):
        char = triplet_char(CharacterSpec(3, 2, "triplet", cut, coset))
        cone = rhs_triplet_limit(3, 2, coset, cut)
        assert (euler_product(cut) ** 2 * char).truncate(cut) == (expected * cone).truncate(cut)


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


def test_characters_are_schedule_independent_values(cold_cone_sums):
    # two independent evaluations construct equal values
    spec = CharacterSpec(3, 2, "singlet", 14)
    assert singlet_char(spec) == singlet_char(spec)
    # order 300 rebuilds the rank-3 grid that order 100 built, and order 100
    # then reads the longer one; neither may change what the other computes
    low, high = (CharacterSpec(3, 2, "singlet", order) for order in (100, 300))
    cold_low = singlet_char(low).to_json_dict()
    cold_cone_sums.clear()
    cold_high = singlet_char(high).to_json_dict()
    assert singlet_char(low).to_json_dict() == cold_low
    cold_cone_sums.clear()
    assert singlet_char(low).to_json_dict() == cold_low
    assert singlet_char(high).to_json_dict() == cold_high
    # one grid for the family, at order 300 on the grain 2
    assert [len(grid) for grid in cold_cone_sums.values()] == [600]


# -- the pentagonal prefactor against the per-factor division -----------------


def per_factor_prefactor(rank, length):
    """The first ``length`` coefficients of H_r / E^(r-1), that is of
    1 / prod_k (1 - q^k)^(min(k, r) - 1), by dividing [1, 0, ...] once by each
    factor; factors with k >= length leave them.  The build that Euler's
    pentagonal recurrence replaced."""
    coeffs = [1] + [0] * (length - 1)
    for k in range(2, length):
        for _ in range(min(k, rank) - 1):
            divide_series_one_minus_q(coeffs, k)
    return tuple(coeffs)


def prefactor_series(rank, n):
    """The first n coefficients of H_r / E^(r-1): the in-place operator
    applied to the series 1 truncated at n."""
    coeffs = ([1] + [0] * n)[:n]
    assert _times_prefactor(coeffs, rank) is coeffs
    return tuple(coeffs)


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_prefactor_matches_the_per_factor_division(order):
    # factors with k >= n leave the first n coefficients, so the length-200
    # reference covers every shorter length
    expected = {rank: per_factor_prefactor(rank, 200) for rank in (2, 3, 4, 5)}
    requests = [(rank, n) for rank in expected for n in range(201)]
    if order == "descending":
        requests.sort(key=lambda request: -request[1])
    elif order == "shuffled":
        random.Random(16).shuffle(requests)
    for rank, n in requests:
        pref = prefactor_series(rank, n)
        assert isinstance(pref, tuple) and len(pref) == n
        assert pref == expected[rank][:n], (rank, n)


def test_prefactor_matches_the_per_factor_division_past_a_power_of_two():
    assert prefactor_series(2, 2049) == per_factor_prefactor(2, 2049)


def test_cone_memo_keeps_one_grid_per_family_at_the_longest_length(cold_cone_sums):
    # a longer order rebuilds at exactly its length, cutoff times the grain 2,
    # with no rounding up; a shorter one reads the longer grid
    for rank, n in [(2, 1), (3, 65), (2, 129), (3, 33), (5, 17), (2, 100)]:
        singlet_char(CharacterSpec(rank, 2, "singlet", n))
    assert {key[0]: len(grid) for key, grid in cold_cone_sums.items()} == {
        2: 258, 3: 130, 5: 34}
    (key,) = (key for key in cold_cone_sums if key[0] == 2)
    longest = cold_cone_sums[key]
    for n in (129, 5):
        singlet_char(CharacterSpec(2, 2, "singlet", n))
        assert cold_cone_sums[key] is longest
    singlet_char(CharacterSpec(2, 2, "singlet", Fraction(401, 2)))
    assert len(cold_cone_sums[key]) == 401  # cutoff times the grain


def test_cone_reads_share_no_dict_with_each_other_or_the_memo(cold_cone_sums):
    # one read at the kept length, one shorter: each is a dict of its own, and
    # the memo keeps a tuple that no read can change
    spec_long = CharacterSpec(2, 2, "singlet", 60)
    spec_short = CharacterSpec(2, 2, "singlet", 25)
    long, short = singlet_char(spec_long), singlet_char(spec_short)
    (grid,) = cold_cone_sums.values()
    assert type(grid) is tuple and len(grid) == 120  # 60 times the grain 2
    assert long._grid is not short._grid
    expected_long, expected_short = long.to_json(), short.to_json()
    for key in list(short._grid):
        short._grid[key] += 1
    long._grid.clear()
    assert singlet_char(spec_long).to_json() == expected_long
    assert singlet_char(spec_short).to_json() == expected_short
    assert cold_cone_sums[next(iter(cold_cone_sums))] is grid


# Integer and fractional cutoffs; on each family they change the grain, and
# order 1 holds the grain boundary of the triplet r3 p2 (grain 6 on coset 1,
# 1 on coset 2, both with no terms).
MEMO_CUTOFFS = (Fraction(1, 2), 1, 2, Fraction(7, 3), 5, Fraction(11, 2), 9)


def memo_requests():
    """One request per entry point, rank 2-4, p 2-3, coset or component count
    and cutoff, as (label, thunk)."""
    for rank in (2, 3, 4):
        for p in (2, 3):
            for cut in MEMO_CUTOFFS:
                yield (rank, p, "singlet", cut), partial(
                    singlet_char, CharacterSpec(rank, p, "singlet", cut))
                for coset in range(rank):
                    yield (rank, p, "triplet", coset, cut), partial(
                        triplet_char, CharacterSpec(rank, p, "triplet", cut, coset))
                    yield (rank, p, "rhs triplet", coset, cut), partial(
                        rhs_triplet_limit, rank, p, coset, cut)
                for components in range(2, rank + 1):
                    yield (rank, p, "rhs singlet", components, cut), partial(
                        rhs_singlet_limit, rank, components, p, cut)


@pytest.mark.parametrize("schedule", ["ascending", "descending", "shuffled"])
def test_memo_reads_equal_the_cold_builds(cold_cone_sums, schedule):
    boundary = [triplet_char(CharacterSpec(3, 2, "triplet", 1, coset)) for coset in (1, 2)]
    assert [(series.grain, series.terms) for series in boundary] == [(6, {}), (1, {})]
    cold_cone_sums.clear()
    requests = sorted(memo_requests(), key=lambda request: Fraction(request[0][-1]))
    if schedule == "descending":
        requests.reverse()
    elif schedule == "shuffled":
        random.Random(18).shuffle(requests)
    for label, thunk in requests:
        warm = thunk().to_json()
        kept = dict(cold_cone_sums)
        # a repeat at the same length reads the kept grid and builds nothing
        assert thunk().to_json() == warm, label
        assert all(cold_cone_sums[key] is grid for key, grid in kept.items()), label
        cold_cone_sums.clear()
        assert thunk().to_json() == warm, label
        cold_cone_sums.clear()
        cold_cone_sums.update(kept)


def test_prefactor_is_an_immutable_prefix_of_the_longer_ones():
    for rank in (2, 3, 5):
        series = prefactor_series(rank, 16)
        assert isinstance(series, tuple) and len(series) == 16
        for n in (1, 2, 4, 8, 16):
            assert prefactor_series(rank, 2 * n)[:n] == series[:n]
    # rank 2: 1 / prod_(k >= 2) (1 - q^k), the partitions without a part 1
    assert prefactor_series(2, 8)[:8] == (1, 0, 1, 1, 2, 2, 4, 4)


# -- the in-place prefactor against the cone-times-series product ------------


def reference_times_prefactor(grid, rank, grain):
    """The prefactor applied to a grid of step 1/grain by the product that the
    in-place operator replaced: the series at ceil(len / grain) terms, added
    into a second buffer once per nonzero coefficient c at index i, as c times
    term j at index i + j grain."""
    pref = per_factor_prefactor(rank, ceil(len(grid) / grain))
    out = [0] * len(grid)
    for i, c in enumerate(grid):
        if c:
            out[i::grain] = map(add, out[i::grain], map(mul, pref, repeat(c)))
    return out


def random_grid(rng, n, grain, parity):
    """Sparse and dense integer coefficients, with the residue slices i::grain
    of i = parity mod 2 left at zero."""
    grid = [rng.choice((0, 0, 0, 1, -1, rng.randint(-10**6, 10**6))) for _ in range(n)]
    for i in range(parity, grain, 2):
        grid[i::grain] = [0] * len(grid[i::grain])
    return grid


def test_times_prefactor_matches_the_product_and_is_causal():
    rng = random.Random(19)
    for rank in (2, 3, 4, 5):
        for n in list(range(12)) + [31, 64, 65, 150]:
            grid = random_grid(rng, n, 1, 1)
            result = _times_prefactor(list(grid), rank)
            assert result == reference_times_prefactor(grid, rank, 1), (rank, n)
            for m in range(n + 1):
                assert _times_prefactor(grid[:m], rank) == result[:m], (rank, n, m)


@pytest.mark.parametrize("grain", [1, 2, 6, 8, 10, 24])
def test_cone_sum_applies_the_prefactor_to_every_residue_slice(
        cold_cone_sums, monkeypatch, grain):
    # zero_weight_dim off the root lattice keeps no weight, so the grain is
    # the cutoff's denominator and the grid is the one the division leaves:
    # here a random one, so that every residue slice can be nonzero
    grids = []
    monkeypatch.setattr(voa_characters, "divide_series_one_minus_q",
                        lambda coeffs, d: coeffs.__setitem__(slice(None), grids[-1]))
    rng = random.Random(grain)
    lengths = [n for n in (1, 2, grain - 1, grain + 1, 3 * grain + 1, 7 * grain - 1)
               if n > 0 and gcd(n, grain) == 1]
    for rank in (2, 3, 4, 5):
        # even ranks keep the odd slices, at an even grain the last one among them
        grid = random_grid(rng, max(lengths), grain, rank % 2)
        results = {}
        for n in lengths:
            cold_cone_sums.clear()
            grids.append(grid[:n])
            char = _cone_sum(rank, 2, 1, Fraction(n, grain), zero_weight_dim, (1,), True)
            assert char.grain == grain
            results[n] = [char._grid.get(j, 0) for j in range(n)]
            assert results[n] == reference_times_prefactor(grid[:n], rank, grain), (rank, n)
        # each shorter build is the prefix of the longest
        assert all(results[n] == results[max(lengths)][:n] for n in lengths), rank


# -- the characters against the per-factor division ----------------------------


def reference_character(spec):
    """The cone sum divided in place by each (1 - q^k) of the prefactor,
    min(k, r) - 1 times, as the running sum b[j] = a[j] + b[j - k grain] on
    the exponent grid: the per-factor division that the pentagonal
    recurrence replaced."""
    r, cut = spec.rank, spec.cutoff
    dim_of = zero_weight_dim if spec.kind == "singlet" else weyl_dim
    cone = _cone_sum(r, spec.p, spec.coset, cut, dim_of)
    g = cone.grain
    grid = {int(e * g): c for e, c in cone.terms.items()}
    coeffs = [grid.get(j, 0) for j in range(ceil(cut * g))]
    for k in range(2, ceil(cut)):
        for _ in range(min(k, r) - 1):
            for j in range(k * g, len(coeffs)):
                coeffs[j] += coeffs[j - k * g]
    return QSeries.from_grid(dict(enumerate(coeffs)), g, cut)


# integer cutoffs on both sides of powers of two, where the prefactor was once
# rounded up, and two fractional cutoffs
PREFACTOR_CUTOFFS = [Fraction(7, 3), Fraction(31, 6)] + [
    1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65, 128, 129
]


@pytest.mark.parametrize("rank,p", [(r, p) for r in (2, 3, 4, 5) for p in (2, 3, 4)])
def test_characters_match_the_per_factor_division(rank, p):
    for cut in PREFACTOR_CUTOFFS:
        spec = CharacterSpec(rank, p, "singlet", cut)
        assert singlet_char(spec).to_json_dict() == reference_character(spec).to_json_dict()
        for coset in range(rank):
            spec = CharacterSpec(rank, p, "triplet", cut, coset)
            expected = reference_character(spec).to_json_dict()
            assert triplet_char(spec).to_json_dict() == expected, (cut, coset)


# -- the integer-grid characters against the Fraction-dict assembly ------------


@lru_cache(maxsize=None)
def fraction_cone_sum(rank, p, coset, cutoff, dim_of):
    """The cone sum as series: each weight whose floor lies below the cutoff
    gets its monomial times principal specialization, truncated, then added."""
    cut = Fraction(cutoff)
    lowest = WeightVector(rank, tuple(int(i == coset) for i in range(1, rank)))
    grain = cut.denominator
    if summand_exponent_bound(rank, p) * scaled_coeff_sum(lowest) < cut and dim_of(lowest):
        grain = lcm(grain, 2, (Fraction(p, 2) * casimir_pairing(lowest)).denominator)
    total = QSeries({}, cut, grain)
    for mu in dominant_weights(rank, enumeration_level(rank, p, cut), coset):
        if floor_of(mu, p) >= cut:
            continue
        dim = dim_of(mu)
        if dim == 0:
            continue
        exponent = Fraction(p, 2) * casimir_pairing(mu)
        term = QSeries.monomial(dim, exponent) * principal_spec_weight(mu)
        total = total + term.truncate(cut)
    return total


def fraction_character(spec):
    """Height product over the Euler power, times the Fraction-dict cone sum."""
    cut, r = spec.cutoff, spec.rank
    dim_of = zero_weight_dim if spec.kind == "singlet" else weyl_dim
    prefactor = height_product(r) * invert_unit(euler_product(cut) ** (r - 1))
    return (prefactor * fraction_cone_sum(r, spec.p, spec.coset, cut, dim_of)).truncate(cut)


CHARACTER_CUTOFFS = WINDOW_CUTOFFS + [Fraction(25)]


@pytest.mark.parametrize("rank,p", [(r, p) for r in (2, 3, 4, 5) for p in (2, 3, 4)])
def test_characters_match_the_fraction_assembly(rank, p):
    for cut in CHARACTER_CUTOFFS:
        spec = CharacterSpec(rank, p, "singlet", cut)
        assert singlet_char(spec).to_json_dict() == fraction_character(spec).to_json_dict()
        for coset in range(rank):
            spec = CharacterSpec(rank, p, "triplet", cut, coset)
            cone = fraction_cone_sum(rank, p, coset, cut, weyl_dim)
            assert triplet_char(spec).to_json_dict() == fraction_character(spec).to_json_dict()
            assert rhs_triplet_limit(rank, p, coset, cut).to_json_dict() == cone.to_json_dict()
        for components in range(2, rank + 1):
            cone = fraction_cone_sum(components, p, 0, cut, zero_weight_dim)
            expected = invert_unit(cross_product(components, rank), cut) * cone
            assert (
                rhs_singlet_limit(rank, components, p, cut).to_json_dict()
                == expected.truncate(cut).to_json_dict()
            )


# -- the comparison series against the prefactor-times-inverse formulas -------


def reference_rhs_singlet(rank, components, p, cutoff):
    """Cross and height corrections times the whole singlet character."""
    cut = Fraction(cutoff)
    cross = invert_unit(cross_product(components, rank), cut)
    correction = euler_product(cut) ** (components - 1) * invert_unit(
        height_product(components), cut
    )
    char = fraction_character(CharacterSpec(components, p, "singlet", cut))
    return (cross * correction * char).truncate(cut)


def reference_rhs_triplet(rank, p, coset, cutoff):
    """Euler power over the height product times the whole triplet character."""
    cut = Fraction(cutoff)
    correction = euler_product(cut) ** (rank - 1) * invert_unit(height_product(rank), cut)
    char = fraction_character(CharacterSpec(rank, p, "triplet", cut, coset))
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
