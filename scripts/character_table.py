#!/usr/bin/env python3
"""Tabulate the normalized singlet and triplet characters for a grid of
small parameters.

Singlet characters live on the root lattice and have integer exponents, so
they print as coefficient rows; triplet characters on nonzero cosets can
have fractional exponents (grain up to 2*rank*p) and print in canonical
series form.

Example:
    python scripts/character_table.py --max-rank 3 --max-p 3 --order 16
"""

import argparse

from qtorus import CharacterSpec, singlet_char, triplet_char


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-rank", type=int, default=3)
    parser.add_argument("--max-p", type=int, default=3)
    parser.add_argument("--order", type=int, default=16)
    args = parser.parse_args()
    try:
        return tabulate(args)
    except ValueError as err:  # a flag the library rejects: usage and the reason, exit 2
        parser.error(str(err))


def tabulate(args: argparse.Namespace) -> int:
    for flag, value in (("--max-rank", args.max_rank), ("--max-p", args.max_p)):
        if value < 2:
            raise ValueError(f"{flag} must be at least 2, got {value}")
    CharacterSpec(2, 2, "singlet", args.order)  # the library checks --order before any output
    print(f"# singlet rows list the coefficients of q^0 .. q^{args.order - 1}")
    for rank in range(2, args.max_rank + 1):
        for p in range(2, args.max_p + 1):
            series = singlet_char(CharacterSpec(rank, p, "singlet", args.order))
            row = " ".join(str(series.coefficient(n)) for n in range(args.order))
            print(f"singlet rank={rank} p={p}: {row}")
            for coset in range(rank):
                series = triplet_char(
                    CharacterSpec(rank, p, "triplet", args.order, coset)
                )
                print(f"triplet rank={rank} p={p} coset={coset}: {series}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
