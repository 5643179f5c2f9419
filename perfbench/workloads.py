"""Seeded request streams for the three benchmark workloads.

Each workload is a table of slots.  A slot is one request family with a
parameter band; one *round* draws one request from every slot and shuffles
them.  The timed loop runs whole rounds, so every run sees the same mix of
light and heavy requests whatever the seed.

Inside a slot, round pair m takes the point x = frac(u0 + m * 0.618...) of
the slot's numeric band (colour or order), with a seeded start u0, and its
mirror 1 - x: successive pairs fill the band evenly, like a scan, and each
pair costs about the same as a pair at the band's middle.
Discrete choices (p, order from a list, kind, coset, shift, --json) follow
golden-ratio sequences from fixed starts, so they come out alike for every
seed.  Any run of a few rounds then costs about the same whatever the seed,
while the inputs still differ.

The program receives only the generated argv lists.
"""

from __future__ import annotations

import random

WORKLOADS = ("verify_scan", "char_order", "jones_full")
DEFAULT_SEED = 1

# verify_scan: (mode, rank, components, colour band, orders, p choices).
# A researcher's agreement scan.  Each request builds the whole invariant and
# then truncates it, so this is where a cutoff-aware invariant shows.  The
# (3, 2) family with p = 3 reports FAIL on the seed commit (see NOTES.md);
# it stays in, and its verdicts are counted, not filtered.
_VERIFY_SLOTS = [
    ("singlet", 2, 2, (4, 15), (12, 16, 20, 24, 30), (2, 3)),
    ("singlet", 2, 2, (16, 30), (12, 16, 20, 24, 30), (2, 3)),
    ("singlet", 2, 2, (31, 45), (12, 16, 20, 24, 30), (2, 3)),
    ("singlet", 2, 2, (46, 60), (12, 16, 20, 24, 30), (2, 3)),
    ("singlet", 3, 2, (4, 8), (12, 16, 20, 24, 30), (2,)),
    ("singlet", 3, 2, (9, 12), (12, 16, 20, 24, 30), (2,)),
    ("singlet", 3, 2, (4, 8), (12, 16, 20, 24, 30), (3,)),
    ("singlet", 3, 2, (9, 12), (12, 16, 20, 24, 30), (3,)),
    ("singlet", 3, 3, (4, 8), (12, 16, 20), (2, 3)),
    ("singlet", 3, 3, (9, 12), (12, 16, 20), (2, 3)),
    ("singlet", 4, 4, (3, 5), (12, 16), (2, 3)),
    ("triplet", 2, 3, (4, 20), (12, 16, 20, 24, 30), (2, 3)),
    ("triplet", 2, 3, (21, 36), (12, 16, 20, 24, 30), (2, 3)),
    ("triplet", 3, 4, (3, 6), (12, 16, 20), (2, 3)),
    ("triplet", 3, 4, (7, 10), (12, 16, 20), (2, 3)),
]

# char_order: (rank, p, order band).  Character tables: every family comes
# back at several orders, from a cheap start to rank 2 ~ 200, rank 3 ~ 60 and
# rank 4 ~ 30.  No link-invariant code runs here.
_CHAR_SLOTS = [
    (rank, p, band)
    for rank, p, bands in (
        (2, 2, ((10, 40), (41, 80), (81, 120), (121, 160))),
        (2, 3, ((10, 50), (51, 100), (101, 150), (151, 200))),
        (3, 2, ((4, 14), (15, 26), (27, 38), (39, 48))),
        (3, 3, ((4, 16), (17, 30), (31, 45), (46, 60))),
        (4, 2, ((3, 8), (9, 14), (15, 20), (21, 25))),
        (4, 3, ((3, 10), (11, 17), (18, 24), (25, 30))),
    )
    for band in bands
]

# jones_full: (rank, components, colour band).  Whole Laurent polynomials,
# no cutoff; the shift mode is drawn from the ones the components allow and
# half the requests ask for --json.
_JONES_SLOTS = [
    (2, 2, (2, 12)),
    (2, 2, (13, 25)),
    (2, 2, (26, 50)),
    (2, 2, (51, 75)),
    (2, 2, (76, 100)),
    (2, 3, (2, 8)),
    (2, 3, (9, 15)),
    (2, 3, (16, 30)),
    (3, 3, (2, 4)),
    (3, 3, (5, 7)),
    (3, 3, (8, 12)),
    (3, 4, (2, 5)),
    (3, 4, (6, 9)),
    (4, 4, (1, 2)),
    (4, 4, (3, 3)),
    (4, 4, (4, 6)),
    (5, 5, (1, 2)),
    (5, 5, (3, 3)),
]


_GOLDEN_STEP = (5 ** 0.5 - 1) / 2


def _pick(u: float, choices):
    return choices[int(u * len(choices))]


def _between(u: float, lo: int, hi: int) -> int:
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


def _verify_request(x, d, slot) -> list[str]:
    mode, rank, components, (lo, hi), orders, ps = slot
    colour = _between(x, lo, hi)
    argv = ["verify", mode, "--rank", str(rank)]
    if mode == "singlet":
        argv += ["--components", str(components)]
    argv += ["--p", str(_pick(d(0), ps))]
    if mode == "triplet":
        argv += ["--coset", str(colour % rank)]
    argv += ["--colour", str(colour), "--order", str(_pick(d(1), orders))]
    if d(2) < 0.5:
        argv.append("--json")
    return argv


def _char_request(x, d, slot) -> list[str]:
    rank, p, (lo, hi) = slot
    kind = _pick(d(0), ("singlet", "triplet"))
    coset = _pick(d(1), range(rank)) if kind == "triplet" else 0
    return [
        "char", "--kind", kind, "--rank", str(rank), "--p", str(p),
        "--coset", str(coset), "--order", str(_between(x, lo, hi)),
    ]


def _jones_request(x, d, slot) -> list[str]:
    rank, components, (lo, hi) = slot
    shifts = ["none"]
    if 2 <= components <= rank:
        shifts.append("singlet")
    if components == rank + 1:
        shifts.append("triplet")
    argv = [
        "jones", "--rank", str(rank), "--components", str(components),
        "--p", str(_pick(d(0), (2, 3))), "--colour", str(_between(x, lo, hi)),
        "--shift", _pick(d(1), shifts),
    ]
    if d(2) < 0.5:
        argv.append("--json")
    return argv


_TABLES = {
    "verify_scan": (_VERIFY_SLOTS, _verify_request),
    "char_order": (_CHAR_SLOTS, _char_request),
    "jones_full": (_JONES_SLOTS, _jones_request),
}


def round_size(workload: str) -> int:
    """Requests in one round of the workload."""
    return len(_TABLES[workload][0])


def rounds(workload: str, seed: int, count: int) -> list[list[list[str]]]:
    """``count`` rounds of argv lists; the same seed gives the same lists."""
    if workload not in _TABLES:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    slots, make = _TABLES[workload]
    rng = random.Random(f"{workload}:{seed}")
    starts = [rng.random() for _ in slots]
    out = []
    for k in range(count):
        batch = []
        for j, slot in enumerate(slots):
            def d(choice: int, j=j) -> float:
                # Unseeded point for the slot's discrete choice number ``choice``;
                # each choice steps by a different multiple of the golden ratio.
                return ((j + 1) * 0.3 + k * (choice + 1) * _GOLDEN_STEP) % 1.0

            x = (starts[j] + (k // 2) * _GOLDEN_STEP) % 1.0
            batch.append(make(1.0 - x if k % 2 else x, d, slot))
        rng.shuffle(batch)
        out.append(batch)
    return out
