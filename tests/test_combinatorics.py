"""Partitions, Kostka numbers, the framing statistic, and the expansion
oracle, cross-checked against brute-force enumeration."""

import random
from functools import lru_cache
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtorus import combinatorics
from qtorus import (
    QSeries,
    as_composition,
    as_partition,
    compositions_of,
    enumerate_ssyt,
    kappa,
    kappa_from_gaps,
    kostka,
    partitions_of,
    principal_spec,
    schur_expand_oracle,
    weyl_dim,
    weight_of_partition,
)


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


def test_kostka_large_rectangular_content():
    # the dynamic program must stay fast at colour-40 scale
    assert kostka((80,), (40, 40)) == 1
    assert kostka((41, 39), (40, 40)) == 1


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
        # size mismatches are answered at once, so filling the cache is cheap
        (combinatorics._kostka, lambda k: combinatorics._kostka((k,), (k + 1,))),
        (combinatorics._schur_expand, lambda k: combinatorics._schur_expand((k,), 1)),
    ],
)
def test_caches_are_bounded_and_evict(cached, call):
    bound = cached.cache_info().maxsize
    assert bound is not None and 0 < bound < 1 << 20
    cached.cache_clear()
    try:
        for k in range(bound + 1):
            call(k)
        assert cached.cache_info().currsize == bound
        misses = cached.cache_info().misses
        call(0)  # the least recently used entry was evicted
        assert cached.cache_info().misses == misses + 1
    finally:
        cached.cache_clear()


def test_kostka_cache_holds_the_benchmark_working_set():
    assert combinatorics.KOSTKA_CACHE_SIZE >= 4 * 6948


def test_a_normalized_content_is_kept_as_is():
    # the Kostka cache then holds one content tuple per content, not per shape
    content = (5, 5, 5)
    assert as_composition(content) is content
    assert as_composition([5, 0, 2, 0]) == (5, 0, 2)
    assert as_composition((4, 0)) == (4,)
    with pytest.raises(ValueError):
        as_composition((3, -1))
