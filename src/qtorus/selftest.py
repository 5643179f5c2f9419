"""Small-scale end-to-end checks, runnable from the CLI.

Each check exercises one cross-path of the library (dynamic program vs
enumeration, Casimir vs framing, invariant vs character) on the integer
kernels the commands run, at sizes that finish in well under a second.  The
full-depth versions live in the test suite; this battery is for quick health
checks of an installation.
"""

from __future__ import annotations

import random
from itertools import permutations
from operator import sub
from typing import Callable

from .combinatorics import enumerate_ssyt, kappa, kostka, partitions_of
from .lie_sl import (WeightVector, partition_of_weight, scaled_casimir, weight_of_partition,
                     weyl_dim)
from .link_invariants import TorusLinkSpec, jones_torus_link
from .qseries import QSeries, _pentagonal
from .schur_spec import _add_summands, _spec_of_gaps, principal_spec
from .verifier import scan_propositions, verify_singlet_theorem, verify_triplet_theorem
from .voa_characters import _times_prefactor


def _partition_count_table(limit: int) -> list[int]:
    # classic part-size DP; independent of the series machinery
    counts = [1] + [0] * limit
    for part in range(1, limit + 1):
        for n in range(part, limit + 1):
            counts[n] += counts[n - part]
    return counts


def _check_euler_inverse() -> bool:
    # (1 - q)/E, the rank-2 prefactor, is the first difference of 1/E
    table = _partition_count_table(30)
    return _times_prefactor([1] + [0] * 30, 2) == list(map(sub, table, [0] + table))


def _check_euler_signs() -> bool:
    limit = 25
    series = {0: 1, **dict(_pentagonal(limit + 1))}

    def parity_count(n: int) -> int:
        # partitions of n into distinct parts, counted with parity sign
        def rec(remaining: int, largest: int) -> int:
            if remaining == 0:
                return 1
            total = 0
            for part in range(min(remaining, largest), 0, -1):
                total -= rec(remaining - part, part - 1)
            return total

        return rec(n, n)

    return all(series.get(n, 0) == parity_count(n) for n in range(limit + 1))


def _check_kostka_enumeration() -> bool:
    for weight in range(7):
        for lam in partitions_of(weight, 3):
            for content in partitions_of(weight, 3):
                for perm in set(permutations(content)):
                    if kostka(lam, perm) != len(enumerate_ssyt(lam, perm)):
                        return False
    return True


def _check_casimir_kappa() -> bool:
    rng = random.Random(11)
    for _ in range(200):
        r = rng.randint(2, 5)
        mu = WeightVector(r, tuple(rng.randint(0, 5) for _ in range(r - 1)))
        a_r = rng.randint(0, 4)
        lam = partition_of_weight(mu, a_r)
        n = sum(lam)
        if scaled_casimir(mu) != r * kappa(lam) + r * r * n - n * n:
            return False
    return True


def _check_principal_spec() -> bool:
    rng = random.Random(13)
    for _ in range(50):
        r = rng.randint(2, 4)
        lam = tuple(sorted((rng.randint(1, 6) for _ in range(rng.randint(0, r))), reverse=True))
        series = principal_spec(lam, r)
        palindromic = all(series.coefficient(-e) == c for e, c in series.terms.items())
        dim = sum(series.terms.values())
        if not palindromic or dim != weyl_dim(weight_of_partition(lam, r)):
            return False
    return True


def _check_symmetric_power_expansion() -> bool:
    # s_(n)^m = sum K(lam, (n)^m) s_lam, specialized: both sides on the grid of 1/2
    for r in range(2, 4):
        for n in range(0, 4):
            poly, d = _spec_of_gaps((n,) + (0,) * (r - 2))
            power = [1]
            for m in range(1, 4):
                power = [sum(power[i] * poly[k - i] for i in range(len(power))
                             if 0 <= k - i < len(poly))
                         for k in range(len(power) + len(poly) - 1)]
                lhs = {2 * k - m * d: c for k, c in enumerate(power) if c}
                items = [(weight, tuple(map(sub, padded, padded[1:])), 0, None)
                         for lam in partitions_of(n * m, r) if (weight := kostka(lam, (n,) * m))
                         for padded in [lam + (0,) * (r - len(lam))]]
                if lhs != _add_summands(items, 1, 2):
                    return False
    return True


def _check_singlet_verify() -> bool:
    return (
        verify_singlet_theorem(2, 2, 2, 10, 8).passed
        and verify_singlet_theorem(3, 2, 2, 8, 6).passed
    )


def _check_triplet_verify() -> bool:
    return (
        verify_triplet_theorem(2, 2, 0, 10, 8).passed
        and verify_triplet_theorem(2, 2, 1, 11, 8).passed
    )


def _check_propositions() -> bool:
    return not any(
        failures for r in (2, 3) for _, _, failures in scan_propositions(r, 9)
    )


def _check_json_round_trip() -> bool:
    series = jones_torus_link(TorusLinkSpec(2, 2, 2, 1))
    text = series.to_json()
    back = QSeries.from_json(text)
    return back == series and back.to_json() == text


CHECKS: list[tuple[str, Callable[[], bool]]] = [
    ("euler-product-inverse", _check_euler_inverse),
    ("euler-product-signs", _check_euler_signs),
    ("kostka-vs-enumeration", _check_kostka_enumeration),
    ("casimir-vs-kappa", _check_casimir_kappa),
    ("principal-spec-palindrome-dim", _check_principal_spec),
    ("symmetric-power-expansion", _check_symmetric_power_expansion),
    ("singlet-verify-small", _check_singlet_verify),
    ("triplet-verify-small", _check_triplet_verify),
    ("propositions-small", _check_propositions),
    ("series-json-round-trip", _check_json_round_trip),
]


def run_all() -> list[tuple[str, bool]]:
    """Run every check; results come back in the fixed declaration order.  A
    check that raises (a run-time re-check's AssertionError, say) has failed."""
    results = []
    for name, fn in CHECKS:
        try:
            passed = fn()
        except Exception:
            passed = False
        results.append((name, passed))
    return results
