"""Weight-lattice dictionary: pairings, translations, dimensions, and the
framing-to-Casimir identity."""

import random
import re
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtorus import (
    WeightVector,
    compositions_of,
    kappa,
    kostka,
    partition_of_weight,
    partitions_of,
    weight_of_partition,
    weyl_dim,
    zero_weight_dim,
)
from qtorus.lie_sl import casimir_pairing, dominant_weights, scaled_casimir, scaled_coeff_sum

from oracles import bilinear_form, epsilon_coords, pairing, weyl_vector


def simple_root_coords(rank: int, i: int) -> list[int]:
    coords = [0] * (rank - 1)
    coords[i - 1] = 2
    if i - 2 >= 0:
        coords[i - 2] = -1
    if i < rank - 1:
        coords[i] = -1
    return coords


# -- the bilinear form ------------------------------------------------------------


def test_fundamental_pairing_rank_two():
    assert pairing(WeightVector(2, (1,)), WeightVector(2, (1,))) == Fraction(1, 2)


@pytest.mark.parametrize("rank", range(2, 7))
def test_weyl_vector_pairings(rank):
    delta = weyl_vector(rank)
    for i in range(1, rank):
        unit = WeightVector(rank, tuple(1 if j == i else 0 for j in range(1, rank)))
        assert pairing(delta, unit) == Fraction(rank * i - i * i, 2)
        assert bilinear_form(rank, delta.coeffs, simple_root_coords(rank, i)) == 1


def test_pairing_rank_mismatch():
    with pytest.raises(ValueError, match="rank"):
        pairing(WeightVector(2, (1,)), WeightVector(3, (1, 0)))


def test_weight_vector_validation():
    with pytest.raises(ValueError):
        WeightVector(2, (-1,))
    with pytest.raises(ValueError):
        WeightVector(3, (1,))
    with pytest.raises(ValueError):
        WeightVector(1, ())


@pytest.mark.parametrize("coeffs", [(1.9,), (True,), (Fraction(1),), ("1",)])
def test_weight_coordinates_must_be_ints(coeffs):
    # int() would truncate 1.9 to the coordinate 1
    message = re.escape(f"weight coordinate must be an integer, got {coeffs[0]!r}")
    with pytest.raises(ValueError, match=message):
        WeightVector(2, coeffs)


def test_weight_rank_must_be_an_int_and_coordinates_a_tuple():
    with pytest.raises(ValueError, match="rank must be an integer, got 2.0"):
        WeightVector(2.0, (1,))
    assert WeightVector(3, [1, 2]).coeffs == (1, 2)


def test_epsilon_coords_reproduce_the_form():
    rng = random.Random(5)
    for _ in range(200):
        r = rng.randint(2, 5)
        mu = WeightVector(r, tuple(rng.randint(0, 6) for _ in range(r - 1)))
        nu = WeightVector(r, tuple(rng.randint(0, 6) for _ in range(r - 1)))
        u, v = epsilon_coords(mu), epsilon_coords(nu)
        assert sum(a * b for a, b in zip(u, v)) == pairing(mu, nu)
        assert pairing(mu, nu) == pairing(nu, mu)


def test_weyl_group_orbit_norm_invariance():
    rng = random.Random(6)
    for _ in range(100):
        r = rng.randint(2, 4)
        mu = WeightVector(r, tuple(rng.randint(0, 5) for _ in range(r - 1)))
        shifted = WeightVector(r, tuple(a + 1 for a in mu.coeffs))
        coords = epsilon_coords(shifted)
        norm = pairing(shifted, shifted)
        for perm in permutations(range(r)):
            permuted = [coords[p] for p in perm]
            assert sum(x * x for x in permuted) == norm


# -- Casimir pairing ---------------------------------------------------------------


@pytest.mark.parametrize("n", range(0, 21))
def test_casimir_symmetric_powers_rank_two(n):
    mu = WeightVector(2, (n,))
    assert casimir_pairing(mu) == Fraction(n * n, 2) + n


def test_casimir_zero_weight():
    assert casimir_pairing(WeightVector(3, (0, 0))) == 0


def test_casimir_equals_kappa_plus_correction():
    rng = random.Random(20260810)
    for _ in range(500):
        r = rng.randint(2, 5)
        mu = WeightVector(r, tuple(rng.randint(0, 7) for _ in range(r - 1)))
        a_r = rng.randint(0, 5)
        lam = partition_of_weight(mu, a_r)
        n = sum(lam)
        assert casimir_pairing(mu) == kappa(lam) + r * n - Fraction(n * n, r)


@pytest.mark.parametrize("rank", range(2, 7))
def test_casimir_matches_the_bilinear_form(rank):
    # the integer sum against the Fraction pairings it replaces
    delta = weyl_vector(rank)
    weights = list(dominant_weights(rank, 12))
    assert len(weights) > 12
    for mu in weights:
        value = casimir_pairing(mu)
        assert isinstance(value, Fraction)
        assert value == pairing(mu, mu) + 2 * pairing(mu, delta)


@pytest.mark.parametrize("rank", range(2, 7))
def test_scaled_casimir_is_rank_times_the_pairing(rank):
    # the integer the cone sum re-checks its floors with
    rng = random.Random(20261018 + rank)
    delta = weyl_vector(rank)
    for _ in range(60):
        mu = WeightVector(rank, tuple(rng.randint(0, 9) for _ in range(rank - 1)))
        value = scaled_casimir(mu)
        assert isinstance(value, int)
        assert value == rank * casimir_pairing(mu)
        assert value == rank * (pairing(mu, mu) + 2 * pairing(mu, delta))


# -- partition <-> weight dictionary -------------------------------------------------


def test_weight_of_partition_examples():
    assert weight_of_partition((5,), 2) == WeightVector(2, (5,))
    assert weight_of_partition((2, 2), 2) == WeightVector(2, (0,))
    assert weight_of_partition((3, 1), 3) == WeightVector(3, (2, 1))


def test_weight_of_partition_rejects_long_shapes():
    with pytest.raises(ValueError, match="rows"):
        weight_of_partition((1, 1, 1), 2)


def test_partition_of_weight_examples():
    assert partition_of_weight(WeightVector(2, (0,)), 3) == (3, 3)
    assert partition_of_weight(WeightVector(3, (2, 1)), 0) == (3, 1)


def test_coset_index_tracks_partition_weight():
    rng = random.Random(9)
    for _ in range(200):
        r = rng.randint(2, 5)
        lam = tuple(
            sorted((rng.randint(1, 9) for _ in range(rng.randint(0, r))), reverse=True)
        )
        assert weight_of_partition(lam, r).coset_index == sum(lam) % r


ranks_st = st.integers(2, 5)


@given(ranks_st, st.data())
def test_dictionary_round_trip(rank, data):
    coeffs = tuple(
        data.draw(st.integers(0, 8), label=f"a{i}") for i in range(1, rank)
    )
    a_r = data.draw(st.integers(0, 6), label="a_r")
    mu = WeightVector(rank, coeffs)
    assert weight_of_partition(partition_of_weight(mu, a_r), rank) == mu


# -- dimensions ----------------------------------------------------------------------


def binomial(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


@pytest.mark.parametrize("rank", [2, 3, 4])
@pytest.mark.parametrize("n", range(0, 7))
def test_weyl_dim_symmetric_powers(rank, n):
    mu = WeightVector(rank, (n,) + (0,) * (rank - 2))
    assert weyl_dim(mu) == binomial(n + rank - 1, rank - 1)


def test_weyl_dim_trivial_and_adjoint():
    assert weyl_dim(WeightVector(3, (0, 0))) == 1
    assert weyl_dim(WeightVector(3, (1, 1))) == 8


def test_weyl_dim_is_total_tableau_count():
    # dimension equals the number of tableaux with entries bounded by the rank
    for rank in range(2, 5):
        for weight in range(0, 9):
            for lam in partitions_of(weight, rank):
                total = sum(
                    kostka(lam, content)
                    for content in compositions_of(weight, rank)
                )
                assert total == weyl_dim(weight_of_partition(lam, rank))


# -- zero-weight dimensions ------------------------------------------------------------


@pytest.mark.parametrize("m", range(0, 8))
def test_zero_weight_dim_even_symmetric_powers(m):
    assert zero_weight_dim(WeightVector(2, (2 * m,))) == 1


def test_zero_weight_dim_off_coset_vanishes():
    assert zero_weight_dim(WeightVector(2, (3,))) == 0
    assert zero_weight_dim(WeightVector(3, (1, 0))) == 0
    assert zero_weight_dim(WeightVector(3, (1, 1))) == 2  # adjoint Cartan


def test_zero_weight_dim_bounded_by_dimension():
    for rank in (2, 3):
        for mu in dominant_weights(rank, 8):
            zero = zero_weight_dim(mu)
            full = weyl_dim(mu)
            assert zero <= full
            if any(mu.coeffs):
                assert zero < full


# -- cone enumeration --------------------------------------------------------------------


def test_dominant_weights_levels_and_cosets():
    seen = list(dominant_weights(3, 6))
    assert len(seen) == len(set(seen))
    levels = [scaled_coeff_sum(mu) for mu in seen]
    assert levels == sorted(levels)
    assert all(level <= 6 for level in levels)
    # brute-force count of pairs (a1, a2) with a1 + 2*a2 <= 6
    expected = sum(1 for a1 in range(7) for a2 in range(4) if a1 + 2 * a2 <= 6)
    assert len(seen) == expected

    coset1 = list(dominant_weights(3, 6, coset=1))
    assert all(mu.coset_index == 1 for mu in coset1)
    assert set(coset1) == {mu for mu in seen if mu.coset_index == 1}


def test_dominant_weights_rejects_bad_coset():
    with pytest.raises(ValueError, match="coset"):
        list(dominant_weights(3, 5, coset=3))
