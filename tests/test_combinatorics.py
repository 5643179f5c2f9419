"""Partitions, Kostka numbers, the framing statistic, and the expansion
oracle, cross-checked against brute-force enumeration."""

import random
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, zip_longest
from operator import ge

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtorus import combinatorics, schur_spec
from qtorus.combinatorics import Composition, Partition
from qtorus import (
    QSeries,
    as_composition,
    as_partition,
    compositions_of,
    enumerate_ssyt,
    kappa,
    kostka,
    partitions_of,
    principal_spec,
    schur_expand_oracle,
    weyl_dim,
    weight_of_partition,
)
from qtorus.cli import PROPS_WEIGHT_CAP

from oracles import kappa_from_gaps, partitions_oracle, unpruned_kostka_table, unpruned_strips


# -- independent oracle: partition counting recurrence ---------------------------


@lru_cache(maxsize=None)
def count_at_most(n: int, k: int) -> int:
    if n == 0:
        return 1
    if n < 0 or k == 0:
        return 0
    return count_at_most(n - k, k) + count_at_most(n, k - 1)


# -- partitions_of ---------------------------------------------------------------


def test_partitions_listed_by_hand():
    assert list(partitions_of(4, 2)) == [(4,), (3, 1), (2, 2)]


def test_partitions_weight_zero():
    assert list(partitions_of(0, 5)) == [()]


def test_partitions_count_30_3():
    # brute-force recurrence gives 91 partitions of 30 into at most 3 parts
    assert count_at_most(30, 3) == 91
    assert sum(1 for _ in partitions_of(30, 3)) == 91


@pytest.mark.parametrize("n,k", [(8, 3), (12, 4), (9, 9), (15, 2)])
def test_partitions_exhaustive_properties(n, k):
    seen = list(partitions_of(n, k))
    assert len(seen) == count_at_most(n, k)
    assert len(set(seen)) == len(seen)
    assert seen == sorted(seen, reverse=True)
    for lam in seen:
        assert sum(lam) == n and len(lam) <= k
        assert as_partition(lam) == lam


def test_partitions_match_the_recursive_enumeration():
    # every weight up to 40 and every row cap, one more than the weight
    # included; a cap keeps the shapes with at most that many rows, in the same
    # lexicographic order, so the uncapped recursive list, filtered, stands for
    # the others, and the recursion runs itself at the caps up to 6
    for n in range(41):
        full = list(partitions_oracle(n, n + 1))
        for max_len in range(n + 2):
            expected = [lam for lam in full if len(lam) <= max_len]
            if max_len <= 6:
                assert expected == list(partitions_oracle(n, max_len)), (n, max_len)
            assert list(partitions_of(n, max_len)) == expected, (n, max_len)
    assert list(partitions_of(5, 0)) == list(partitions_oracle(5, 0)) == []
    assert list(partitions_of(0, 0)) == list(partitions_oracle(0, 0)) == [()]


# -- kostka ----------------------------------------------------------------------


def test_kostka_hand_examples():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((5,), (5,)) == 1
    assert kostka((2, 2), (2, 2)) == 1


def test_kostka_weight_mismatch_is_zero():
    assert kostka((3, 1), (1, 1, 1)) == 0


def test_kostka_tall_shape_needs_enough_rows():
    # K vanishes when the shape has more rows than the content has entries
    for n in range(1, 5):
        for c in range(1, 4):
            for lam in partitions_of(n * c, n * c):
                if len(lam) > c:
                    assert kostka(lam, (n,) * c) == 0


def test_kostka_matches_tableau_enumeration():
    for weight in range(0, 8):
        for lam in partitions_of(weight, 4):
            for content in partitions_of(weight, 4):
                assert kostka(lam, content) == len(enumerate_ssyt(lam, content))


def test_kostka_content_permutation_invariance_exhaustive():
    # symmetric-function symmetry, exhaustively through weight 8
    for weight in range(0, 9):
        for lam in partitions_of(weight, weight or 1):
            for content in partitions_of(weight, weight or 1):
                base = kostka(lam, content)
                for perm in set(permutations(content)):
                    assert kostka(lam, perm) == base


def test_kostka_ignores_zero_entries():
    assert kostka((2, 1), (1, 0, 1, 1, 0)) == kostka((2, 1), (1, 1, 1))
    assert kostka((4, 2), (0, 2, 0, 2, 2)) == kostka((4, 2), (2, 2, 2))


def test_kostka_counts_a_column_of_2000_rows():
    # one strip per row, every row pinned: no recursion, so no depth limit
    assert kostka((1,) * 2000, (1,) * 2000) == 1


def test_kostka_of_tall_small_shapes_matches_the_tableau_oracle():
    # every shape of up to 8 cells, columns included, against enumeration: the
    # standard content, one with a 2 first and one with internal zeros
    for weight in range(1, 9):
        contents = {(1,) * weight, (2,) + (1,) * (weight - 2) if weight > 1 else (1,),
                    (0, 1) * weight}
        for lam in partitions_of(weight, weight):
            for content in contents:
                expected = len(enumerate_ssyt(lam, content))
                assert kostka(lam, content) == expected, (lam, content)
            assert table_numbers([lam, (weight,)], (1,) * weight)[lam] == len(
                enumerate_ssyt(lam, (1,) * weight))


def test_kostka_large_rectangular_content():
    # the dynamic program must stay fast at colour-40 scale
    assert kostka((80,), (40, 40)) == 1
    assert kostka((41, 39), (40, 40)) == 1


# -- the strip DP against its unpadded reference -----------------------------------

# The strip DP as it stood before its states were padded to the bound's rows,
# copied verbatim: trailing zeros trimmed, and each row capped by mu's own
# previous row as well as by the strip condition.


def _strip_dp(bound: Partition, content: Composition) -> dict[Partition, int]:
    """Tableau counts of every shape inside ``bound`` filled with ``content``,
    one horizontal strip per content entry."""
    states: dict[Partition, int] = {(): 1}
    for size in content:
        nxt: dict[Partition, int] = {}
        for nu, ways in states.items():
            for mu in _horizontal_extensions(nu, size, bound):
                nxt[mu] = nxt.get(mu, 0) + ways
        states = nxt
        if not states:
            break
    return states


def _horizontal_extensions(
    nu: Partition, size: int, bound: Partition
) -> list[Partition]:
    """All shapes inside ``bound`` obtained from nu by a horizontal strip."""
    rows = len(bound)
    out: list[Partition] = []

    def rec(i: int, prev: int, remaining: int, acc: tuple[int, ...]) -> None:
        if i == rows:
            if remaining == 0:
                trimmed = acc
                while trimmed and trimmed[-1] == 0:
                    trimmed = trimmed[:-1]
                out.append(trimmed)
            return
        base = nu[i] if i < len(nu) else 0
        cap = min(bound[i], prev)
        if i > 0:
            # strip condition: no two added cells share a column
            cap = min(cap, nu[i - 1] if i - 1 < len(nu) else 0)
        cap = min(cap, base + remaining)
        for v in range(base, cap + 1):
            rec(i + 1, v, remaining - (v - base), acc + (v,))

    rec(0, bound[0] if bound else 0, size, ())
    return out


def _random_composition(size, rng):
    # internal zeros included: they are empty strips
    parts = []
    while size:
        parts.append(rng.randint(0, min(size, 5)))
        size -= parts[-1]
    return tuple(parts)


def _contents(size, rng):
    rectangles = {(size // c,) * c for c in range(1, size + 1) if size % c == 0}
    return sorted(rectangles | {_random_composition(size, rng) for _ in range(3)})


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_kostka_table_matches_the_unpadded_reference(rank):
    # every bound with `rank` rows up to size 12 (rank 2 also takes the
    # empty and one-row bounds), filled with contents of every size up to
    # the bound's, so the tables hold shapes with fewer rows than the bound
    rng = random.Random(rank)
    for size in range(13):
        for bound in partitions_of(size, rank):
            if len(bound) != rank and rank != 2:
                continue
            for content in [c for m in range(size + 1) for c in _contents(m, rng)]:
                table = combinatorics._kostka_table(bound, as_composition(content))
                assert all(len(mu) == len(bound) for mu in table)
                unpadded = {as_partition(mu): ways for mu, ways in table.items()}
                assert unpadded == _strip_dp(bound, content)


# -- the interlacing floor against the unpruned strip DP ----------------------------


def _floor_contents(length, rng):
    # a rectangle (n)^c, the verify content, and compositions with internal zeros
    n = rng.randint(1, 12 // length + 1)
    cap = max(1, 8 // length)
    return [(n,) * length] + [tuple(rng.randint(0, cap) for _ in range(length - 1))
                              + (rng.randint(1, cap),) for _ in range(2)]


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_floored_tables_match_the_unpruned_dp_and_enumeration(rank):
    # random subsets of the shapes of contents with 1 to 6 entries: the table
    # between their componentwise minimum and maximum holds exactly the unpruned
    # counts of the shapes on or above that minimum, and every requested count
    # agrees with the single-shape table and, up to size 12, with enumeration
    rng = random.Random(100 + rank)
    checked = 0
    for length in range(1, 7):
        for content in [c for _ in range(12) for c in _floor_contents(length, rng)]:
            shapes = list(partitions_of(sum(content), rank))
            subset = rng.sample(shapes, rng.randint(1, min(len(shapes), 8)))
            bound = tuple(map(max, zip_longest(*subset, fillvalue=0)))
            floor = tuple(map(min, zip_longest(*subset, fillvalue=0)))
            full = unpruned_kostka_table(bound, content)
            table = combinatorics._kostka_table(bound, as_composition(content), floor)
            assert table == {mu: w for mu, w in full.items() if all(map(ge, mu, floor))}
            numbers = table_numbers(subset, content)
            for lam in subset:
                expected = full.get(lam + (0,) * (len(bound) - len(lam)), 0)
                assert numbers[lam] == kostka(lam, content) == expected, (lam, content)
                if sum(lam) <= 12:
                    assert expected == len(enumerate_ssyt(lam, content))
                checked += 1
    assert checked >= 500  # 2,527 entries over the four ranks


def _strip_partials(nu, size, bound, low):
    """``_horizontal_extensions``' strips and the most partial strips it held at once,
    read from its ``partial`` list at every line it runs."""
    widest, code = [0], combinatorics._horizontal_extensions.__code__

    def line(frame, event, arg):
        widest[0] = max(widest[0], len(frame.f_locals.get("partial", ())))
        return line

    sys.settrace(lambda frame, event, arg: line if frame.f_code is code else None)
    try:
        out = combinatorics._horizontal_extensions(nu, size, bound, low)
    finally:
        sys.settrace(None)
    return out, widest[0]


@pytest.mark.parametrize("rows", [1, 2, 3, 4, 5])
def test_strip_ranges_drop_no_strip_and_make_no_dead_end(rows):
    # each row's range, cut by what the rows after it can still take, yields
    # the unpruned strips on or above the floor, in the same order, and every
    # partial strip lies on a path to a strip: never more partial strips than
    # strips, none when there is no strip
    rng, strips = random.Random(300 + rows), 0
    for _ in range(400):
        bound = tuple(sorted((rng.randint(1, 9) for _ in range(rows)), reverse=True))
        nu = []
        for b in bound:
            nu.append(rng.randint(0, min([b] + nu[-1:])))
        nu = tuple(nu)
        low = tuple(rng.randint(0, b) if rng.random() < 0.4 else 0 for b in bound)
        size = rng.randint(0, 12)
        expected = [mu for mu in unpruned_strips(nu, size, bound) if all(map(ge, mu, low))]
        out, widest = _strip_partials(nu, size, bound, low)
        assert out == expected, (nu, size, bound, low)
        assert widest <= len(out)
        strips += len(out)
    assert strips >= 50


# -- one strip DP for many shapes ------------------------------------------------


def table_numbers(shapes, content):
    """The Kostka numbers of several shapes for one content, each read at its
    padded shape from one table bounded by the shapes' componentwise maximum and
    floored by their minimum, as the invariant reads them."""
    lams = [as_partition(shape) for shape in shapes]
    bound = tuple(map(max, zip_longest(*lams, fillvalue=0)))
    floor = tuple(map(min, zip_longest(*lams, fillvalue=0)))
    table = combinatorics._kostka_table(bound, as_composition(content), floor)
    return {lam: table.get(lam + (0,) * (len(bound) - len(lam)), 0) for lam in lams}

# (rank, components, colour): the largest colour of each benchmark family
BENCHMARK_TOPS = [(2, 2, 100), (2, 3, 30), (3, 3, 12), (3, 4, 9), (4, 4, 6), (5, 5, 3)]


def _check_against_single_shapes(shapes, content, rng):
    expected = {lam: kostka(lam, content) for lam in shapes}
    assert table_numbers(shapes, content) == expected
    # a subset has a smaller union, so a smaller program
    subset = rng.sample(shapes, rng.randint(1, len(shapes))) if shapes else []
    assert table_numbers(subset, content) == {lam: expected[lam] for lam in subset}


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_kostka_numbers_match_single_shapes(rank):
    rng = random.Random(rank)
    for size in range(17):
        shapes = list(partitions_of(size, rank))
        for content in _contents(size, rng):
            _check_against_single_shapes(shapes, content, rng)


@pytest.mark.parametrize("rank,components,colour", BENCHMARK_TOPS)
def test_kostka_numbers_match_single_shapes_at_the_benchmark_tops(
    rank, components, colour
):
    rng = random.Random(colour)
    for n in sorted({1, colour // 2, colour}):
        content = (n,) * components
        shapes = list(partitions_of(n * components, min(rank, components)))
        _check_against_single_shapes(shapes, content, rng)
        assert table_numbers(shapes, content) == {
            lam: _strip_dp(lam, content).get(lam, 0) for lam in shapes}


def test_kostka_numbers_match_tableau_enumeration():
    rng = random.Random(10)
    for size in range(11):
        shapes = list(partitions_of(size, size))
        for content in _contents(size, rng)[:4]:
            counts = {lam: len(enumerate_ssyt(lam, content)) for lam in shapes}
            assert table_numbers(shapes, content) == counts


def test_kostka_numbers_edge_cases():
    assert table_numbers([], (2, 1)) == {}
    # a shape of the wrong size, one with too many rows, and the empty shape
    assert table_numbers([(2, 1), (4,), (1, 1, 1), ()], (1, 2, 0)) == {
        (2, 1): 1, (4,): 0, (1, 1, 1): 0, (): 0}
    assert table_numbers([()], ()) == {(): 1}
    assert table_numbers([[3, 1, 0]], [2, 0, 2]) == {(3, 1): 1}


# -- kappa ------------------------------------------------------------------------


def test_kappa_hand_values():
    assert kappa((2,)) == 2
    assert kappa((1, 1)) == -2
    assert kappa(()) == 0
    assert kappa((3, 2, 1)) == 0


def test_kappa_gap_form_three_rows():
    lam = (3, 2, 1)
    assert kappa(lam) == kappa_from_gaps((1, 1, 1))


def test_kappa_gap_form_random():
    rng = random.Random(20260810)
    for _ in range(1000):
        r = rng.randint(2, 6)
        gaps = tuple(rng.randint(0, 9) for _ in range(r))
        lam = tuple(sum(gaps[i:]) for i in range(r))
        lam = as_partition(lam)
        assert kappa(lam) == kappa_from_gaps(gaps)


def test_kappa_is_even():
    rng = random.Random(4)
    for _ in range(200):
        lam = as_partition(
            sorted((rng.randint(1, 12) for _ in range(rng.randint(0, 5))), reverse=True)
        )
        assert kappa(lam) % 2 == 0


# -- the expansion oracle -----------------------------------------------------------


def test_oracle_defining_representation():
    assert schur_expand_oracle((1,), 2) == {(1, 0): 1, (0, 1): 1}


def test_oracle_adjoint_coefficients():
    expansion = schur_expand_oracle((2, 1), 2)
    assert expansion[(2, 1)] == 1
    assert expansion[(1, 2)] == 1


def test_oracle_total_is_dimension():
    expansion = schur_expand_oracle((2, 1), 3)
    assert sum(expansion.values()) == 8


def test_oracle_guard():
    with pytest.raises(ValueError, match="guard"):
        schur_expand_oracle((20, 5), 4)
    with pytest.raises(ValueError, match="guard"):
        schur_expand_oracle((1,), 7)
    # the bounds themselves: weight 16 and rank 5 expand, 17 and 6 raise
    assert sum(schur_expand_oracle((16,), 2).values()) == 17
    assert sum(schur_expand_oracle((1,), 5).values()) == 5
    with pytest.raises(ValueError, match=r"oracle guard exceeded \(\|shape\| <= 16"):
        schur_expand_oracle((9, 8), 2)
    with pytest.raises(ValueError, match=r"oracle guard exceeded .* rank <= 5\)"):
        schur_expand_oracle((1,), 6)


def test_props_weight_caps_lie_inside_the_oracle_guard():
    for rank, cap in PROPS_WEIGHT_CAP.items():
        assert rank <= combinatorics.ORACLE_MAX_RANK
        assert cap <= combinatorics.ORACLE_MAX_WEIGHT


def test_kostka_agrees_with_oracle_through_weight_8():
    for rank in range(2, 5):
        for weight in range(0, 9):
            for lam in partitions_of(weight, rank):
                expansion = schur_expand_oracle(lam, rank)
                assert all(c > 0 for c in expansion.values())
                for content in compositions_of(weight, rank):
                    assert kostka(lam, content) == expansion.get(content, 0)


# -- the tensor-power expansion as exact series -------------------------------------


@pytest.mark.parametrize("rank", [2, 3])
def test_symmetric_power_specialization_identity(rank):
    for n in range(0, 5):
        for m in range(1, 4):
            lhs = principal_spec((n,), rank) ** m
            rhs = QSeries.zero()
            for lam in partitions_of(n * m, rank):
                weight = kostka(lam, (n,) * m)
                if weight:
                    rhs = rhs + weight * principal_spec(lam, rank)
            assert lhs == rhs


# -- property tests -------------------------------------------------------------------


partition_st = st.lists(st.integers(1, 9), max_size=6).map(
    lambda xs: as_partition(sorted(xs, reverse=True))
)


@settings(deadline=None)
@given(partition_st)
def test_dimension_sum_rule(lam):
    # total of the oracle expansion equals the Weyl dimension
    rank = max(len(lam), 2)
    if sum(lam) > 10 or rank > 4:
        return
    expansion = schur_expand_oracle(lam, rank)
    assert sum(expansion.values()) == weyl_dim(weight_of_partition(lam, rank))


@given(st.integers(0, 12), st.integers(1, 5))
def test_partitions_of_agree_with_recurrence(n, k):
    assert sum(1 for _ in partitions_of(n, k)) == count_at_most(n, k)


# -- bounded caches -------------------------------------------------------------------


@pytest.mark.parametrize(
    "cached,call",
    [
        # a strip too long for the bound empties the table at once, so
        # filling the cache is cheap
        (combinatorics._kostka_table,
         lambda k: combinatorics._kostka_table((k,), (k + 1,))),
        (combinatorics._schur_expand, lambda k: combinatorics._schur_expand((k,), 1)),
        # rank-2 specializations have k + 1 coefficients
        (schur_spec._spec_of_gaps, lambda k: schur_spec._spec_of_gaps((k,))),
    ],
)
def test_caches_are_bounded_and_evict(cached, call):
    bound = cached.cache_info().maxsize
    assert bound is not None and 0 < bound < 1 << 20
    for k in range(bound + 1):
        call(k)
    assert cached.cache_info().currsize == bound
    misses = cached.cache_info().misses
    call(0)  # the least recently used entry was evicted
    assert cached.cache_info().misses == misses + 1


def test_a_normalized_content_is_kept_as_is():
    # the Kostka table cache then holds one content tuple per content, not
    # per bound
    content = (5, 5, 5)
    assert as_composition(content) is content
    assert as_composition([5, 0, 2, 0]) == (5, 0, 2)
    assert as_composition((4, 0)) == (4,)
    with pytest.raises(ValueError):
        as_composition((3, -1))


# -- strict integer input ------------------------------------------------------


@pytest.mark.parametrize("parts", [(2.9, 1.2), (2, 1.0), (True, 1), (2, False), (2, 0.0),
                                   (Fraction(2),), ("2",)])
def test_partition_parts_must_be_ints(parts):
    # int() would truncate 2.9 to 2 and read True as 1
    with pytest.raises(ValueError, match="partition parts must be positive integers"):
        as_partition(parts)


def test_kostka_rejects_a_float_shape_instead_of_truncating_it():
    with pytest.raises(ValueError, match="partition parts must be positive integers, got 2.9"):
        kostka([2.9, 1.2], [1, 1, 1])
    assert as_partition([3, 1, 0, 0]) == (3, 1)


@pytest.mark.parametrize("entries", [(True, 2), (1.5,), (2, 0.0), [2, Fraction(1)], (-1, 4)])
def test_composition_entries_must_be_nonnegative_ints(entries):
    with pytest.raises(ValueError, match="composition entries must be nonnegative integers"):
        as_composition(entries)
    with pytest.raises(ValueError, match="composition entries"):
        kostka((1,), entries)
