"""Output checks for benchmark requests.

Every response is checked outside the timed region.  The checks rest on
facts that do not depend on the code under test where one exists:

* a coloured invariant summed at q = 1 is the dimension C(n+r-1, r-1)^c of
  the coloured module, whatever the shift;
* two requests for the same character at different orders agree below the
  smaller order;
* every ``--json`` output round-trips byte-identically;
* a verify verdict agrees with its exit status and echoes its parameters.

The gate adds the committed CLI goldens and a digest of the default seed's
first round, recorded on the commit that defined the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from math import comb
from pathlib import Path

from qtorus import QSeries

GOLDEN_CASES = [
    (["jones", "--rank", "2", "--components", "2", "--p", "2", "--colour", "1"],
     "jones_r2_c2_p2_n1.txt"),
    (["char", "--kind", "singlet", "--rank", "2", "--p", "2", "--order", "12"],
     "char_singlet_r2_p2_o12.txt"),
    (["verify", "singlet", "--rank", "2", "--components", "2", "--p", "2",
      "--colour", "40", "--order", "30", "--json"],
     "verify_singlet_r2_c2_p2_n40_o30.json"),
    (["verify", "triplet", "--rank", "2", "--p", "2", "--coset", "1",
      "--colour", "21", "--order", "15", "--json"],
     "verify_triplet_r2_p2_i1_n21_o15.json"),
    (["verify", "props", "--rank", "2", "--max-weight", "8"], "props_r2_w8.txt"),
    (["schur", "--shape", "2,1", "--rank", "3", "--json"], "schur_r3_21.json"),
]

_BODY = re.compile(r"(?:(\d+)\*)?q(?:\^(\d+|\((-?\d+(?:/\d+)?)\)))?")


def _parse_power(text: str) -> Fraction:
    m = _BODY.fullmatch(text)
    if not m or m.group(1):
        raise ValueError(f"not a power of q: {text!r}")
    if m.group(2) is None:
        return Fraction(1)
    return Fraction(m.group(3) or m.group(2))


def parse_series_text(text: str) -> tuple[dict[Fraction, int], Fraction | None]:
    """Terms and cutoff of a series in the CLI's canonical text form."""
    tokens = text.split(" ")
    cutoff = None
    if len(tokens) >= 2 and tokens[-1].startswith("O(") and tokens[-2] == "+":
        cutoff = _parse_power(tokens[-1][2:-1])
        tokens = tokens[:-2]
    if tokens == ["0"]:
        return {}, cutoff
    first = tokens[0]
    signed = [("-", first[1:]) if first.startswith("-") else ("+", first)]
    if len(tokens) % 2 == 0:
        raise ValueError("malformed series text")
    signed += [(tokens[i], tokens[i + 1]) for i in range(1, len(tokens), 2)]
    terms: dict[Fraction, int] = {}
    last = None
    for sign, body in signed:
        if sign not in "+-":
            raise ValueError(f"expected a sign, got {sign!r}")
        if body.isdigit():
            exponent, mag = Fraction(0), int(body)
        else:
            m = _BODY.fullmatch(body)
            if not m:
                raise ValueError(f"malformed term {body!r}")
            mag = int(m.group(1) or 1)
            exponent = _parse_power(body.split("*")[-1])
        if last is not None and exponent <= last:
            raise ValueError("terms are not in increasing exponent order")
        last = exponent
        terms[exponent] = mag if sign == "+" else -mag
    return terms, cutoff


def _series_from_json(out: str) -> tuple[dict[Fraction, int], Fraction | None, list]:
    data = json.loads(out)
    problems = []
    if json.dumps(QSeries.from_json_dict(data).to_json_dict()) != out:
        problems.append("series JSON does not round-trip")
    cut = data["cutoff"]
    cutoff = None if cut is None else Fraction(cut["num"], cut["den"])
    terms = {Fraction(num, den): int(c) for num, den, c in data["terms"]}
    return terms, cutoff, problems


def _flag(argv: list[str], name: str, default=None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def _series(argv: list[str], out: str):
    if "--json" in argv:
        return _series_from_json(out)
    terms, cutoff = parse_series_text(out)
    return terms, cutoff, []


class Checker:
    """Checks responses in order; keeps what the cross-request checks need."""

    def __init__(self) -> None:
        self.characters: dict[tuple, tuple[Fraction, dict[Fraction, int]]] = {}
        self.fail_verdicts = 0

    def check(self, argv: list[str], code: int, out: str) -> list[str]:
        """Problems with one response; an empty list means it is correct."""
        try:
            return getattr(self, "_check_" + argv[0])(argv, code, out)
        except (ValueError, KeyError, TypeError, IndexError) as err:
            return [f"unreadable output: {err}"]

    def _check_jones(self, argv, code, out):
        if code != 0:
            return [f"exit status {code}"]
        terms, cutoff, problems = _series(argv, out)
        if cutoff is not None:
            problems.append("invariant is truncated")
        r, c, n = (int(_flag(argv, k)) for k in ("--rank", "--components", "--colour"))
        expected = comb(n + r - 1, r - 1) ** c
        if sum(terms.values()) != expected:
            problems.append(f"sum at q=1 is {sum(terms.values())}, expected {expected}")
        return problems

    def _check_char(self, argv, code, out):
        if code != 0:
            return [f"exit status {code}"]
        terms, cutoff, problems = _series(argv, out)
        order = Fraction(_flag(argv, "--order"))
        if cutoff != order:
            problems.append(f"cutoff {cutoff} is not the order {order}")
        key = tuple(_flag(argv, k, "0") for k in ("--kind", "--rank", "--p", "--coset"))
        if key in self.characters:
            seen_order, seen = self.characters[key]
            below = min(order, seen_order)
            for e in set(terms) | set(seen):
                if e < below and terms.get(e, 0) != seen.get(e, 0):
                    problems.append(
                        f"coefficient of q^{e} differs between orders {seen_order} "
                        f"and {order}"
                    )
                    break
            if order <= seen_order:
                return problems
        self.characters[key] = (order, terms)
        return problems

    def _check_verify(self, argv, code, out):
        if code not in (0, 1):
            return [f"exit status {code}"]
        problems = []
        order = Fraction(_flag(argv, "--order"))
        if "--json" in argv:
            (report,) = json.loads(out)
            if json.dumps([report]) != out:
                problems.append("report JSON does not round-trip")
            passed = report["passed"]
            if report["kind"] != argv[1]:
                problems.append(f"report kind {report['kind']}")
            cut = report["cutoff"]
            if Fraction(cut["num"], cut["den"]) != order:
                problems.append("report cutoff is not the order")
            for name, value in report["params"].items():
                if str(value) != _flag(argv, "--" + name, "0"):
                    problems.append(f"report parameter {name}={value}")
        else:
            passed = out.startswith("PASS ")
            if not (passed or out.startswith("FAIL ")):
                problems.append("report has no verdict")
            if f"order N={order}:" not in out:
                problems.append("report does not state the order")
        if passed != (code == 0):
            problems.append(f"verdict passed={passed} but exit status {code}")
        if not passed:
            self.fail_verdicts += 1
        return problems


def digest(responses: list[tuple[list[str], int, str]]) -> str:
    """Stable digest of (argv, exit status, output) triples."""
    blob = json.dumps([[argv, code, out] for argv, code, out in responses])
    return hashlib.sha256(blob.encode()).hexdigest()


def golden_problems(run_argv, golden_dir: Path) -> list[str]:
    """Re-run the CLI goldens; ``run_argv`` maps argv to (status, text)."""
    problems = []
    for argv, name in GOLDEN_CASES:
        code, out = run_argv(argv)
        if code != 0 or out + "\n" != (golden_dir / name).read_text():
            problems.append(f"golden {name} differs (exit status {code})")
    return problems
