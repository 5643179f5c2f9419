"""Torus-link invariants: worked examples, the tensor-power reassembly
oracle, grain bookkeeping, the shifted forms and their pruning at a cutoff."""

import random
import re
import sys
from fractions import Fraction
from math import ceil

import pytest
from qtorus import combinatorics, lie_sl, link_invariants, schur_spec
from qtorus.link_invariants import jones_summands
from qtorus import (
    QSeries,
    TorusLinkSpec,
    WeightVector,
    first_disagreement,
    jones_torus_link,
    kappa,
    kostka,
    partition_of_weight,
    partitions_of,
    principal_spec,
    rhs_singlet_limit,
    rhs_triplet_limit,
    shifted_invariant_singlet,
    shifted_invariant_triplet,
    singlet_shift_exponent,
    summand_exponent_bound,
    triplet_shift_exponent,
    verify_singlet_theorem,
    verify_triplet_theorem,
    weight_of_partition,
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


@pytest.mark.parametrize("field", ["rank", "components", "p", "colour"])
@pytest.mark.parametrize("value", [True, 2.0, 2.5, Fraction(2), "2"])
def test_spec_fields_must_be_ints(field, value):
    # int() would read TorusLinkSpec(2, 2, True, 2) as p = 1
    args = dict(rank=2, components=2, p=2, colour=2)
    args[field] = value
    with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {value!r}")):
        TorusLinkSpec(**args)


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
            witness = first_disagreement(previous, series)
            assert witness is not None  # exact polynomials, eventually differ
            order = witness[0]
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
        doubled = link_invariants._doubled_floor(spec, lam)
        assert type(doubled) is int and term.low == Fraction(doubled, 2)
        assert term.coefficient(term.low) == weight


@pytest.mark.parametrize(
    "rank,components,p,n", [(2, 2, 2, 30), (3, 3, 3, 8), (2, 3, 2, 20), (3, 4, 2, 7)]
)
def test_pruning_at_double_window_changes_nothing(rank, components, p, n):
    spec = TorusLinkSpec(rank, components, p, n)
    shifted = _shifted(spec)
    for cutoff in (Fraction(31, 6), 16, 30):
        assert shifted(spec, 2 * cutoff).truncate(cutoff) == shifted(spec, cutoff)


def reference_kept_shapes(spec, below):
    """The filtered enumeration the cone walk replaced: each partition of
    colour * components with at most min(rank, components) rows whose floor
    lies below ``below``, with that floor."""
    n, c, r = spec.colour, spec.components, spec.rank
    floors = {lam: Fraction(link_invariants._doubled_floor(spec, lam), 2)
              for lam in partitions_of(n * c, min(r, c))}
    return {lam: floor for lam, floor in floors.items() if floor < below}


def _shift(spec):
    if spec.components == spec.rank + 1:
        return triplet_shift_exponent(spec)
    return singlet_shift_exponent(spec)


def summed(spec, cutoff):
    """(items, grid, series) of the shifted invariant at ``cutoff``, built on an
    empty memo of cut sums: each item (weight, gaps, framing, n) it hands to the
    one adder, the grid it gets back and the series it returns."""
    calls, add = [], link_invariants._add_summands

    def recorded(items, *args):
        items = list(items)
        calls.append((items, add(items, *args)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(link_invariants, "_add_summands", recorded)
        patch.setattr(link_invariants, "_cut_sums", {})
        series = _shifted(spec)(spec, cutoff)
    [(items, grid)] = calls
    return items, grid, series


def kept_shapes(spec, items):
    """Each summed shape with its n (2m F): the shape of colour * components
    whose rank-r row gaps the item carries."""
    kept = {}
    for _, gaps, _, n in items:
        last, rem = divmod(spec.colour * spec.components
                           - sum(i * g for i, g in enumerate(gaps, 1)), spec.rank)
        assert not rem
        kept[partition_of_weight(WeightVector(spec.rank, gaps), last)] = n
    return kept


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_walked_shapes_match_the_filtered_enumeration(rank, p):
    for components in range(2, rank + 2):
        m = min(rank, components)
        for n in range(5 if rank == 5 else 9):
            spec = TorusLinkSpec(rank, components, p, n)
            for cutoff in PRUNING_CUTOFFS:
                below = cutoff - _shift(spec)
                walked = kept_shapes(spec, summed(spec, cutoff)[0])
                floors = {lam: Fraction(v, 2 * m) - _shift(spec) for lam, v in walked.items()}
                assert floors == reference_kept_shapes(spec, below), (spec, cutoff)


# (rank, components, colours): every singlet rank 2-5 with 2 <= c <= r, and
# the triplet (c = r + 1) at ranks 2-4
LIMIT_FAMILIES = [
    (2, 2, (3, 8)), (3, 2, (2, 6)), (3, 3, (2, 5)), (4, 2, (2, 5)), (4, 3, (1, 4)),
    (4, 4, (1, 3)), (5, 2, (1, 4)), (5, 3, (1, 3)), (5, 4, (1, 2)), (5, 5, (1, 2)),
    (2, 3, (4, 9)), (3, 4, (2, 5)), (4, 5, (1, 3)),
]


def untruncated_comparison(exact, rhs, cutoff):
    """First exponent below the cutoff where the untruncated shifted
    invariant and the character side differ, with both coefficients."""
    lhs, right = exact.terms, rhs.terms
    for e in sorted(lhs.keys() | right.keys()):
        if e >= cutoff:
            return None
        if lhs.get(e, 0) != right.get(e, 0):
            return e, lhs.get(e, 0), right.get(e, 0)
    return None


@pytest.mark.parametrize("rank,components,colours", LIMIT_FAMILIES)
@pytest.mark.parametrize("p", [2, 3])
def test_integer_limits_match_the_untruncated_invariant(rank, components, colours, p):
    # cutoffs of denominators 1, 2, 3, 4, 6 and 2m, and one on a term's exponent
    m = min(rank, components)
    for n in colours:
        spec = TorusLinkSpec(rank, components, p, n)
        exact, unshifted = _shifted(spec)(spec), jones_torus_link(spec)
        on_a_term = min(e for e in exact.terms if e > 0)
        for cutoff in (7, Fraction(13, 2), Fraction(16, 3), Fraction(21, 4),
                       Fraction(31, 6), Fraction(10 * m + 1, 2 * m), on_a_term):
            truncated = _shifted(spec)(spec, cutoff)
            assert truncated.to_json() == exact.truncate(cutoff).to_json(), (spec, cutoff)
            # the integer sum itself keeps no term at or above the cutoff
            below, grain = cutoff - _shift(spec), 2 * rank if components > rank else 2
            grid = {Fraction(k, grain) - _shift(spec): a for k, a in summed(spec, cutoff)[1].items()}
            assert grid == unshifted.truncate(below).terms
            if components == rank + 1:
                coset = n % rank
                report = verify_triplet_theorem(rank, p, coset, n, cutoff)
                rhs = rhs_triplet_limit(rank, p, coset, cutoff)
            else:
                report = verify_singlet_theorem(rank, components, p, n, cutoff)
                rhs = rhs_singlet_limit(rank, components, p, cutoff)
            witness = untruncated_comparison(exact, rhs, cutoff)
            assert report.witness == witness, (spec, cutoff)
            assert report.order == (None if witness is None else witness[0])


def record_the_integer_sum(monkeypatch):
    """Lists that fill as the integer sum runs: the bound of each Kostka table
    it builds, each key it reads from one, each gap vector it specializes, and
    the floor of each table."""
    bounds, looked_up, specialized, floors = [], [], [], []
    table_of, spec_of = link_invariants._kostka_table, schur_spec._spec_of_gaps

    class RecordedTable(dict):
        def get(self, key, default=None):
            looked_up.append(key)
            return super().get(key, default)

    def recorded_table(bound, content, floor=()):
        bounds.append(bound)
        floors.append(floor)
        return RecordedTable(table_of(bound, content, floor))

    def recorded_spec(gaps):
        specialized.append(gaps)
        return spec_of(gaps)

    monkeypatch.setattr(link_invariants, "_kostka_table", recorded_table)
    monkeypatch.setattr(schur_spec, "_spec_of_gaps", recorded_spec)
    return bounds, looked_up, specialized, floors


def unpadded(key):
    # a table key is a shape padded with zeros; parts of a shape are positive
    return tuple(part for part in key if part)


def test_pruning_skips_shapes_before_kostka(monkeypatch):
    _, looked_up, specialized, _ = record_the_integer_sum(monkeypatch)
    spec = TorusLinkSpec(2, 2, 2, 40)
    below = 30 - singlet_shift_exponent(spec)
    shifted_invariant_singlet(spec, 30)
    kept = set(reference_kept_shapes(spec, below))
    tabled = [unpadded(key) for key in looked_up]
    # at a fixed size the row gaps determine the shape, so each gap vector
    # stands for one kept shape
    assert set(tabled) == kept
    assert set(specialized) == {weight_of_partition(lam, 2).coeffs for lam in kept}
    assert len(tabled) == len(specialized) == len(kept)
    assert 0 < len(kept) < 41


@pytest.mark.parametrize(
    "verify,args", [(verify_singlet_theorem, (3, 2, 2, 12, 16)),
                    (verify_singlet_theorem, (3, 3, 3, 6, 12)),
                    (verify_triplet_theorem, (3, 2, 0, 9, 12)),
                    (verify_triplet_theorem, (2, 3, 1, 7, 20))])
def test_verify_never_enumerates_partitions(verify, args, monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("verify enumerated every partition")

    expected = verify(*args).describe()
    monkeypatch.setattr(link_invariants, "partitions_of", no_enumeration)
    assert verify(*args).describe() == expected


# -- one-pass summation against the summand-by-summand series sum -------------


def reference_jones_torus_link(spec, below=None):
    """The invariant as a running QSeries sum, one addition per summand."""
    total = QSeries.zero()
    for _, _, term in jones_summands(spec):
        total = total + term
    series = QSeries(total.terms, grain=2)
    return series if below is None else series.truncate(below)


# (rank, components, colour): the largest colour of each benchmark family
BENCHMARK_TOPS = [(2, 2, 100), (2, 3, 30), (3, 3, 12), (3, 4, 9), (4, 4, 6), (5, 5, 3)]


def reference_shifted(exact, shift, grain, cutoff):
    """The shifted form as a monomial times the running-sum invariant."""
    shifted = QSeries.monomial(1, shift) * exact
    series = QSeries(shifted.terms, grain=grain)
    return series if cutoff is None else series.truncate(cutoff)


@pytest.mark.parametrize("rank,components,colour", BENCHMARK_TOPS)
@pytest.mark.parametrize("p", [2, 3])
def test_one_pass_sum_matches_the_running_sum(rank, components, colour, p):
    for n in sorted({0, 1, colour // 2, colour}):
        spec = TorusLinkSpec(rank, components, p, n)
        if components == rank + 1:
            shifted, shift = shifted_invariant_triplet, triplet_shift_exponent(spec)
            grain = 2 * rank
        else:
            shifted, shift = shifted_invariant_singlet, singlet_shift_exponent(spec)
            grain = 2
        exact = reference_jones_torus_link(spec)
        assert jones_torus_link(spec).to_json_dict() == exact.to_json_dict()
        for cutoff in [None] + PRUNING_CUTOFFS:
            expected = reference_shifted(exact, shift, grain, cutoff).to_json_dict()
            assert shifted(spec, cutoff).to_json_dict() == expected


# (rank, components, colour): fewer components than the rank, down to one,
# where only the unshifted invariant is defined
UNSHIFTED_TOPS = [(3, 2, 12), (4, 2, 8), (5, 3, 3), (3, 1, 12), (2, 1, 30)]


@pytest.mark.parametrize("rank,components,colour", UNSHIFTED_TOPS)
@pytest.mark.parametrize("p", [1, 2, 3])
def test_unshifted_sum_below_the_rank_matches_the_running_sum(rank, components, colour, p):
    for n in sorted({0, 1, colour // 2, colour}):
        spec = TorusLinkSpec(rank, components, p, n)
        expected = reference_jones_torus_link(spec).to_json_dict()
        assert jones_torus_link(spec).to_json_dict() == expected


@pytest.mark.parametrize(
    "rank,components,p,n",
    [(2, 2, 3, 9), (3, 2, 2, 6), (3, 3, 2, 5), (2, 3, 2, 7), (3, 4, 3, 4), (4, 5, 2, 2)])
def test_folded_keys_equal_the_remapped_doubled_sum(rank, components, p, n):
    # adding 2m t to each framing and floor on the grid of 1/(2 half) must equal
    # remapping each doubled key e to e * half + 2 half t: half is 1 at grain 2 and
    # rank at grain 2 * rank; the shifted forms fold their shift the same way
    spec, m = TorusLinkSpec(rank, components, p, n), min(rank, components)
    lift = 2 * m * _shift(spec)
    for cutoff in (None, Fraction(31, 6), 12):
        items, grid, _ = summed(spec, cutoff)
        unshifted = [(w, g, f - lift, v if v is None else v - lift) for w, g, f, v in items]
        doubled = link_invariants._add_summands(unshifted, m, 2)
        assert doubled
        grain = 2 * rank if components > rank else 2
        offset = grain * _shift(spec)
        remapped = {e * grain // 2 + offset.numerator: a for e, a in doubled.items()}
        assert offset.denominator == 1 and grid == {
            k: a for k, a in remapped.items() if cutoff is None or k < grain * cutoff}
        for half in (1, rank):
            for t in (-7 * rank - 3, -1, 0, 5):
                moved = [(w, g, f + 2 * m * t, v if v is None else v + 2 * m * t)
                         for w, g, f, v in unshifted]
                folded = link_invariants._add_summands(moved, m, 2 * half)
                assert folded == {e * half + 2 * half * t: a for e, a in doubled.items()}


@pytest.mark.parametrize(
    "rank,components,p,n", [(2, 2, 3, 40), (3, 3, 2, 9), (2, 3, 2, 30), (4, 5, 3, 3)]
)
def test_each_summand_stops_below_twice_the_window(rank, components, p, n):
    spec, grain = TorusLinkSpec(rank, components, p, n), 2 * rank if components > rank else 2
    low = min(Fraction(link_invariants._doubled_floor(spec, lam), 2)
              for lam in partitions_of(n * components, rank))
    for below in (low + Fraction(1, 3), low + 1, low + Fraction(31, 6), low + 12):
        grid = summed(spec, below + _shift(spec))[1]
        assert grid and max(grid) < grain * (below + _shift(spec))
        expected = reference_jones_torus_link(spec, below)
        assert expected.terms == {
            Fraction(k, grain) - _shift(spec): a for k, a in grid.items() if a}


def test_a_truncated_sum_leaves_the_cached_specializations_whole():
    # the truncated sum cuts each summand below its window; it must not cut
    # the cached polynomial that the next, untruncated sum reads
    schur_spec._spec_of_gaps.cache_clear()
    spec = TorusLinkSpec(3, 3, 2, 5)
    expected = reference_jones_torus_link(spec).to_json_dict()
    below = 12 - singlet_shift_exponent(spec)
    # some kept summand reaches past the window, so the sum does cut one
    assert any(
        Fraction(link_invariants._doubled_floor(spec, lam), 2)
        + len(schur_spec.principal_spec_poly(lam, 3)[0]) > below
        for lam in kept_shapes(spec, summed(spec, 12)[0]))
    shifted_invariant_singlet(spec, 12)
    assert jones_torus_link(spec).to_json_dict() == expected


def test_integer_sum_tables_only_the_kept_shapes(monkeypatch):
    bounds, looked_up, _, floors = record_the_integer_sum(monkeypatch)

    def no_single_kostka(lam, content):
        raise AssertionError("the integer sum looked up a single Kostka number")

    monkeypatch.setattr(link_invariants, "kostka", no_single_kostka)
    spec = TorusLinkSpec(2, 2, 2, 40)
    below = 30 - singlet_shift_exponent(spec)
    shifted_invariant_singlet(spec, 30)
    kept = set(reference_kept_shapes(spec, below))
    # one table, bounded by the union of the kept shapes, read at exactly the
    # kept shapes, each once, each padded to the bound's rows
    assert len(bounds) == 1
    assert bounds[0] == tuple(max(lam[i] if i < len(lam) else 0 for lam in kept)
                              for i in range(max(map(len, kept))))
    # floored by their componentwise minimum, padded to the same rows
    assert floors == [tuple(min(lam[i] if i < len(lam) else 0 for lam in kept)
                            for i in range(len(bounds[0])))]
    assert len(looked_up) == len(kept)
    assert {unpadded(key) for key in looked_up} == kept
    assert {len(key) for key in looked_up} == {len(bounds[0])}
    assert 0 < len(kept) < 41


def test_integer_sum_rechecks_each_floor(monkeypatch):
    spec = TorusLinkSpec(3, 3, 2, 5)
    floor = link_invariants._doubled_floor
    monkeypatch.setattr(link_invariants, "_doubled_floor", lambda s, lam: floor(s, lam) - 1)
    with pytest.raises(AssertionError, match="floor"):
        shifted_invariant_singlet(spec, 12)
    monkeypatch.setattr(link_invariants, "_doubled_floor", floor)
    spec_of = schur_spec._spec_of_gaps

    def lowest_term_missing(gaps):
        poly, d = spec_of(gaps)
        return (0, *poly), d

    monkeypatch.setattr(schur_spec, "_spec_of_gaps", lowest_term_missing)
    with pytest.raises(AssertionError, match="floor"):
        shifted_invariant_singlet(spec, 12)


def test_integer_sum_rechecks_the_window_floor(monkeypatch, cold_cut_sums):
    window = link_invariants._cone_window

    def shifted(*args):
        return [(mu, n + 1, *rest) for mu, n, *rest in window(*args)]

    # a warm window memo is read through the same name, so the shift reaches it
    # once the cut sum is built again instead of read from its memo
    shifted_invariant_triplet(TorusLinkSpec(3, 4, 2, 5), 12)
    cold_cut_sums.clear()
    monkeypatch.setattr(link_invariants, "_cone_window", shifted)
    with pytest.raises(AssertionError, match="floor"):
        shifted_invariant_triplet(TorusLinkSpec(3, 4, 2, 5), 12)
    monkeypatch.setattr(link_invariants, "_cone_window", window)
    spec_of = schur_spec._spec_of_gaps

    def one_more_d(gaps):
        # the closed form of the floor reads no D, so only the window's 2m F
        # can catch a D off by one; an even shift of m keeps the start on the grid
        poly, d = spec_of(gaps)
        return poly, d + 1

    monkeypatch.setattr(schur_spec, "_spec_of_gaps", one_more_d)
    for build in (lambda: shifted_invariant_singlet(TorusLinkSpec(3, 3, 2, 5), 12),
                  lambda: shifted_invariant_triplet(TorusLinkSpec(3, 4, 2, 5), 12)):
        with pytest.raises(AssertionError, match="floor"):
            build()


def test_integer_sum_rechecks_each_kostka_number(monkeypatch):
    # a floor raised to the bound keeps only the bound's own shape, so every
    # other shape reads 0 although it dominates the content (n)^c
    table_of = link_invariants._kostka_table

    def over_pruned(bound, content, floor=()):
        return table_of(bound, content, bound)

    monkeypatch.setattr(link_invariants, "_kostka_table", over_pruned)
    for build in (lambda: shifted_invariant_triplet(TorusLinkSpec(3, 4, 2, 5), 12),
                  lambda: shifted_invariant_singlet(TorusLinkSpec(3, 3, 2, 5), 12),
                  lambda: jones_torus_link(TorusLinkSpec(2, 2, 2, 3))):
        with pytest.raises(AssertionError, match="weight 0"):
            build()


@pytest.mark.parametrize(
    "rank,components,p,n", [(2, 2, 2, 7), (3, 2, 3, 5), (3, 3, 2, 4), (2, 3, 2, 6), (3, 4, 2, 3)])
def test_the_uncut_invariant_never_walks_the_window(rank, components, p, n, monkeypatch):
    # without a cutoff the shapes come from partitions_of alone, so the differential
    # tests against the cut sum compare two independent shape sets
    def no_window(*args):
        raise AssertionError("the uncut invariant walked the cone window")

    monkeypatch.setattr(link_invariants, "_cone_window", no_window)
    spec = TorusLinkSpec(rank, components, p, n)
    exact = reference_jones_torus_link(spec)
    assert jones_torus_link(spec).to_json_dict() == exact.to_json_dict()
    if components == rank + 1:
        shifted, shift, grain = shifted_invariant_triplet, triplet_shift_exponent(spec), 2 * rank
    else:
        shifted, shift, grain = shifted_invariant_singlet, singlet_shift_exponent(spec), 2
    expected = reference_shifted(exact, shift, grain, None).to_json_dict()
    assert shifted(spec).to_json_dict() == shifted(spec, None).to_json_dict() == expected


# (items, m, grain) the one adder must refuse: gaps (1,) at rank 2 have P = 1 + q, D = 1
REFUSED_SUMS = [
    ([(1, (1,), 5, 2)], 2, 4, "floor"),  # framing - m D = 3, not n = 2
    ([(1, (1,), 3, 1)], 2, 2, "floor"),  # start 1 * 2/4 off the grid of 1/2
    ([(1, (1,), 3, None)], 2, 2, "floor"),  # off the grid with no floor to check
    ([(0, (1,), 3, 1)], 2, 4, "weight 0"),
    ([(-2, (1,), 3, 1)], 2, 4, "weight -2"),
]


@pytest.mark.parametrize("items,m,grain,match", REFUSED_SUMS)
def test_the_adder_refuses_a_summand_off_its_floor_or_grid(items, m, grain, match):
    with pytest.raises(AssertionError, match=match):
        link_invariants._add_summands(items, m, grain)


def test_the_adder_keeps_exactly_the_keys_below_its_top():
    # 3 q^(1/4) (1 + q) + 2 q^(1/2) (1 + q + q^2) at scale 4 on the grid of 1/4:
    # keys 1, 5 and 2, 6, 10 (gaps (2,) have P = 1 + q + q^2, D = 2)
    items = [(3, (1,), 3, 1), (2, (2,), 6, 2)]
    whole = link_invariants._add_summands(items, 2, 4)
    assert whole == {1: 3, 5: 3, 2: 2, 6: 2, 10: 2}
    for top in range(12):
        assert link_invariants._add_summands(items, 2, 4, top) == {
            k: a for k, a in whole.items() if k < top}


# -- the interlacing floor keeps the Kostka table flat in the colour ------------------


def strip_dp_work(monkeypatch, rank, colour):
    """The states the strip DP makes, counted with repeats, and the calls of its
    row recursion, in one verify triplet at p = 2 and order 16 with every Kostka
    table cold."""
    extensions, made, calls = combinatorics._horizontal_extensions, [], [0]

    def counted(*args):
        out = extensions(*args)
        made.append(len(out))
        return out

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "rec" and (
                frame.f_globals is vars(combinatorics)):
            calls[0] += 1

    monkeypatch.setattr(combinatorics, "_horizontal_extensions", counted)
    combinatorics._kostka_table.cache_clear()
    sys.setprofile(profile)
    try:
        assert verify_triplet_theorem(rank, 2, colour % rank, colour, 16).passed
    finally:
        sys.setprofile(None)
        monkeypatch.setattr(combinatorics, "_horizontal_extensions", extensions)
    return sum(made), calls[0]


@pytest.mark.parametrize("rank,colour", [(3, 90), (4, 40), (5, 20)])
def test_doubling_the_colour_keeps_the_strip_dp_states(rank, colour, monkeypatch):
    # 61, 170 and 310 states; filtered after the strips are made, they would
    # grow with the colour
    states, calls = strip_dp_work(monkeypatch, rank, colour)
    doubled_states, doubled_calls = strip_dp_work(monkeypatch, rank, 2 * colour)
    assert states == doubled_states > 0
    # 177, 577 and 1,233 calls: each row's range is cut to the cells the rows
    # after it can still take, so no call is a dead end.  Without that cut the
    # last row's dead ends grow with the colour (2,109 calls at r3 n90, 3,969
    # at n180), and rows ranged from nu_i and filtered after the recursion make
    # about 3.7 times as many calls per doubling
    assert calls == doubled_calls


# -- one cone window per family, read by the invariant side ---------------------------


def reference_window_shapes(spec, limit):
    """The summed shapes with their 2m F from a cold walk, each shape built by
    partition_of_weight."""
    lie_sl._windows.clear()
    n, c, m = spec.colour, spec.components, min(spec.rank, spec.components)
    kept = {}
    for mu, scaled, _, _ in lie_sl._cone_window(m, spec.p, n * c % m, limit):
        k = (n * c - sum(i * a for i, a in enumerate(mu.coeffs, 1))) // m
        if k >= 0:
            kept[partition_of_weight(mu, k)] = scaled
    return kept


@pytest.mark.parametrize("schedule", ["ascending", "descending", "shuffled"])
def test_warm_window_reads_equal_cold_walks_on_the_invariant_side(schedule):
    requests = [(TorusLinkSpec(rank, c, p, n), cutoff)
                for rank, c in ((3, 2), (3, 3), (3, 4), (4, 5))
                for p in (2, 3) for n in (4, 7, 12)
                for cutoff in (Fraction(7, 3), 5, Fraction(25, 2), 20)]
    if schedule != "shuffled":
        requests.sort(key=lambda request: request[1], reverse=schedule == "descending")
    else:
        random.Random(4).shuffle(requests)
    warm, families = [], {}
    for spec, cutoff in requests:
        m = min(spec.rank, spec.components)
        limit, family = ceil(2 * m * cutoff), (m, spec.p, spec.colour * spec.components % m)
        families[family] = max(families.get(family, 0), limit)
        items, _, series = summed(spec, cutoff)
        warm.append((limit, kept_shapes(spec, items), series.to_json()))
    # one window per family, kept at the longest limit asked
    assert {key: walked for key, (walked, _) in lie_sl._windows.items()} == families
    for (spec, cutoff), (limit, shapes, series) in zip(requests, warm):
        assert shapes == reference_window_shapes(spec, limit)
        lie_sl._windows.clear()
        assert series == _shifted(spec)(spec, cutoff).to_json()


def test_a_grain_that_misses_the_shift_raises():
    with pytest.raises(ValueError, match="does not cover the shift"):
        link_invariants._shifted(TorusLinkSpec(3, 4, 2, 1), Fraction(1, 3), 2, None)


# -- one kept grid per cut invariant, read by its prefix ------------------------------

# singlet at c < r and c = r, and the triplet on every coset of ranks 2 and 3
CUT_MEMO_SPECS = [TorusLinkSpec(3, 2, 2, 5), TorusLinkSpec(4, 2, 3, 3), TorusLinkSpec(3, 3, 2, 4),
                  TorusLinkSpec(2, 2, 3, 6), *(TorusLinkSpec(3, 4, 2, n) for n in (3, 4, 5)),
                  *(TorusLinkSpec(2, 3, 3, n) for n in (6, 7))]
# 37/3 lifts the grain of the singlet (2) to 6
CUT_MEMO_CUTOFFS = [Fraction(1, 2), Fraction(31, 2), Fraction(37, 3)]


@pytest.mark.parametrize("schedule", ["ascending", "descending", "shuffled"])
def test_cut_memo_reads_equal_the_cold_builds(cold_cut_sums, schedule):
    requests = [(spec, cutoff) for spec in CUT_MEMO_SPECS for cutoff in CUT_MEMO_CUTOFFS]
    if schedule != "shuffled":
        requests.sort(key=lambda request: request[1], reverse=schedule == "descending")
    else:
        random.Random(30).shuffle(requests)
    for spec, cutoff in requests:
        warm = _shifted(spec)(spec, cutoff).to_json()
        kept = dict(cold_cut_sums)
        # a repeat at the same length reads the kept grid and builds nothing
        assert _shifted(spec)(spec, cutoff).to_json() == warm, (spec, cutoff)
        assert all(cold_cut_sums[key] is grid for key, grid in kept.items()), (spec, cutoff)
        cold_cut_sums.clear()
        assert _shifted(spec)(spec, cutoff).to_json() == warm, (spec, cutoff)
        assert _shifted(spec)(spec).truncate(cutoff).to_json() == warm, (spec, cutoff)
        cold_cut_sums.clear()
        cold_cut_sums.update(kept)
    # one grid per family, kept at the longest top = ceil(grain 31/2)
    assert len(cold_cut_sums) == len(CUT_MEMO_SPECS)
    assert {spec: len(grid) for (spec, _, _), grid in cold_cut_sums.items()} == {
        spec: 31 * (spec.rank if spec.components > spec.rank else 1) for spec in CUT_MEMO_SPECS}


@pytest.mark.parametrize("spec", [TorusLinkSpec(3, 3, 2, 3), TorusLinkSpec(2, 2, 3, 2)])
def test_unshifted_and_singlet_reads_share_one_grid(cold_cut_sums, spec):
    # at colour = components = rank the singlet shift is 0, so both forms key
    # (spec, 0, 2): each read, in either order, equals its own cold build
    assert singlet_shift_exponent(spec) == 0
    forms = [lambda cutoff: link_invariants._shifted(spec, 0, 2, cutoff),
             lambda cutoff: shifted_invariant_singlet(spec, cutoff)]
    cold = {}
    for i, form in enumerate(forms):
        for cutoff in CUT_MEMO_CUTOFFS:
            cold_cut_sums.clear()
            cold[i, cutoff] = form(cutoff).to_json()
    cold_cut_sums.clear()
    for cutoff in (Fraction(37, 3), Fraction(1, 2), Fraction(31, 2), Fraction(37, 3)):
        for i in (1, 0):
            assert forms[i](cutoff).to_json() == cold[i, cutoff], (i, cutoff)
    assert [(key, len(grid)) for key, grid in cold_cut_sums.items()] == [((spec, 0, 2), 31)]


def test_a_returned_grid_is_the_callers_own(cold_cut_sums):
    spec = TorusLinkSpec(3, 4, 2, 5)
    first = shifted_invariant_triplet(spec, Fraction(31, 2))
    expected, kept = first.to_json(), dict(cold_cut_sums)
    first._grid.clear()
    shorter = shifted_invariant_triplet(spec, Fraction(37, 3))
    shorter._grid[0] = shorter._grid.get(0, 0) + 1
    assert cold_cut_sums == kept
    assert shifted_invariant_triplet(spec, Fraction(31, 2)).to_json() == expected
