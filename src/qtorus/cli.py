"""Command-line entry point: computation, verification, and regression output.

Subcommands mirror the library surface: ``kostka`` and ``schur`` for the
combinatorial layer, ``jones`` for torus-link invariants, ``char`` and ``char-table`` for
the character series, ``verify`` for the limit identities (``verify scan`` over the colour)
and propositions, and ``selftest`` for a health battery.  Each ``verify`` mode declares only
its own flags, so argparse rejects any other.  ``_Parser`` hands a leading
subcommand straight down; a leaf reads a line of exact flags with good values
from its own argparse actions into argparse's namespace, and leaves help and bad
lines to argparse's own pass, which writes each message.  Each leaf sets the
``handler`` that :func:`run` calls with it.  Output is canonical text or JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import selftest as selftest_battery
from .combinatorics import as_composition, as_partition, kostka
from .link_invariants import (
    TorusLinkSpec,
    jones_torus_link,
    shifted_invariant_singlet,
    shifted_invariant_triplet,
)
from .qseries import QSeries
from .schur_spec import principal_spec
from .verifier import scan_propositions, verify_singlet_theorem, verify_triplet_theorem
from .voa_characters import CharacterSpec, singlet_char, triplet_char

ORDER_ENV = "QTORUS_ORDER"
DEFAULT_ORDER = 20
# Largest --max-weight per --rank at which verify props finishes in about a
# second or two; one step higher, rank 4 takes over 10 s and rank 5 over 60 s.
PROPS_WEIGHT_CAP = {2: 16, 3: 16, 4: 11, 5: 9}
CONTENT_REPEAT_CAP = 100_000  # largest count in --content's base^count, checked first
SHAPE_ROW_CAP = 500  # most rows in --shape, an input budget: each Kostka strip walks every row
SCHUR_CELL_BUDGET = 2_000_000  # most schur kernel cells, at least its D + 1 terms: 1.5 s at rank 2


def parse_partition(text: str):
    body = text.strip().strip("[]")
    shape = as_partition(int(x) for x in body.split(",")) if body else ()
    if len(shape) > SHAPE_ROW_CAP:
        raise ValueError(f"{len(shape)} rows exceed the cap {SHAPE_ROW_CAP}")
    return shape


def parse_content(text: str):
    body = text.strip().strip("[]")
    if "^" in body:
        base, _, reps = body.partition("^")
        count = int(reps)
        if count < 0:
            raise ValueError(f"repeat count must be nonnegative, got {count}")
        if count > CONTENT_REPEAT_CAP:
            raise ValueError(f"repeat count {count} exceeds the cap {CONTENT_REPEAT_CAP}")
        content = (int(base),) * count
    else:
        content = tuple(int(x) for x in body.split(",")) if body else ()
    as_composition(content)  # raises on a negative entry
    return content


def _flag_type(parse):
    """``parse`` as an argparse type that keeps its ValueError's reason."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
    return convert


def _int_at_least(low: int, reason: str | None = None):
    """An integer flag type that rejects values below ``low``, saying why."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"{reason or f'must be at least {low}'}, got {value}")
        return value
    return _flag_type(parse)


class _Parser(argparse.ArgumentParser):
    """Reads a well-formed line without argparse's own pass.  A leading subcommand
    goes straight to its parser: besides ``-h`` it is the only argument.  A leaf reads
    exact ``store_true`` and ``store`` flags whose values do not begin with ``-`` and
    pass argparse's type and choice checks, with every required flag given, setting
    defaults, ``set_defaults`` and values in argparse's order.  Help, ``--``, ``=``
    forms, abbreviations and bad values take that pass, which writes each message."""

    def add_subparsers(self, **kwargs):
        self._commands = super().add_subparsers(**kwargs)
        return self._commands

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        namespace = argparse.Namespace() if namespace is None else namespace
        commands = getattr(self, "_commands", None)  # None on a leaf parser
        if commands is None and self._walk(args, namespace) is not None:
            return namespace, []
        if commands is not None and args and args[0] in commands.choices:
            setattr(namespace, commands.dest, args[0])
            return commands.choices[args[0]].parse_known_args(args[1:], namespace)
        return super().parse_known_args(args, namespace)

    def _walk(self, args, namespace):
        """``namespace`` filled as argparse's own pass fills it, or None if it cannot be."""
        given, words = {}, iter(args)
        try:
            for word in words:
                action = self._option_string_actions.get(word)
                if type(action) is argparse._StoreTrueAction:
                    given[action] = action.const
                elif type(action) is argparse._StoreAction and action.nargs is None and not (
                        value := next(words, "-")).startswith("-"):
                    given[action] = self._get_value(action, value)
                    self._check_value(action, given[action])
                else:
                    return None
            if self._mutually_exclusive_groups or self.fromfile_prefix_chars or any(
                    getattr(action, "deprecated", False) or action.required and action not in given
                    for action in self._actions):
                return None
            attrs = vars(namespace)
            for action in self._actions:  # a string default not given goes through type
                if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
                    kept = attrs.setdefault(action.dest, action.default)
                    if kept is action.default and isinstance(kept, str) and action not in given:
                        attrs[action.dest] = self._get_value(action, kept)
            attrs.update((dest, v) for dest, v in self._defaults.items() if dest not in attrs)
            attrs.update((action.dest, value) for action, value in given.items())
        except argparse.ArgumentError:  # a bad value: argparse's own pass reports it
            return None
        return namespace


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qtorus",
        description=(
            "Exact q-series computations: Kostka numbers, principal "
            "specializations, coloured torus-link invariants, logarithmic "
            "VOA characters, and verification of their limit identities."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    character_p = _int_at_least(2, "the character family is defined for p >= 2")

    def common(p: argparse.ArgumentParser, handler, with_order: bool = False):
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="emit JSON output")
        p.add_argument("--output", metavar="PATH", help="write output to a file")
        if with_order:
            p.add_argument(
                "--order",
                type=int,
                default=None,
                help=f"truncation order (default ${ORDER_ENV} or {DEFAULT_ORDER})",
            )

    p = sub.add_parser("kostka", help="count tableaux of a shape and content")
    shape_help = f"partition, e.g. 2,1 (rows <= {SHAPE_ROW_CAP})"
    p.add_argument("--shape", type=_flag_type(parse_partition), required=True, help=shape_help)
    p.add_argument("--content", type=_flag_type(parse_content), required=True,
                   help=f"composition, e.g. 1,1,1 or 7^4 (count <= {CONTENT_REPEAT_CAP:,})")
    common(p, _run_kostka)

    p = sub.add_parser("schur", help="principal specialization of a Schur polynomial")
    p.add_argument("--shape", type=_flag_type(parse_partition), required=True, help=shape_help)
    p.add_argument("--rank", type=_int_at_least(1), required=True, help=f"rank(rank-1)/2 (D + "
                   f"rank(rank^2-1)/6) <= {SCHUR_CELL_BUDGET:,} cells, D = sum of lam_i - lam_j")
    common(p, _run_schur)

    p = sub.add_parser("jones", help="coloured invariant of the torus link T(c, cp)")
    for flag, low in (("--rank", 2), ("--components", 1), ("--p", 1), ("--colour", 0)):
        p.add_argument(flag, type=_int_at_least(low), required=True)
    p.add_argument(
        "--shift", choices=["none", "singlet", "triplet"], default="none",
        help="apply the monomial shift used in the limit comparisons",
    )
    common(p, _run_jones)

    p = sub.add_parser("char", help="normalized singlet or triplet character")
    p.add_argument("--kind", choices=["singlet", "triplet"], required=True)
    p.add_argument("--rank", type=_int_at_least(2), required=True)
    p.add_argument("--p", type=character_p, required=True)
    p.add_argument("--coset", type=int, default=0)
    common(p, _run_char, with_order=True)

    p = sub.add_parser("char-table", help="singlet and triplet characters for ranks and p from 2")
    for flag in ("--max-rank", "--max-p"):
        p.add_argument(flag, type=_int_at_least(2), required=True)
    common(p, _run_char_table, with_order=True)

    p = sub.add_parser("verify", help="check a limit identity or the propositions")
    modes = p.add_subparsers(dest="mode", required=True)

    for mode, last, handler, about in (
        ("singlet", "--colour", _run_singlet, "singlet limit identity, 2 <= components <= rank"),
        ("scan", "--max-colour", _run_scan, "agreement order of each colour up to --max-colour")):
        m = modes.add_parser(mode, help=about)
        for flag, kind in (("--rank", _int_at_least(2)), ("--components", _int_at_least(2)),
                           ("--p", character_p), (last, _int_at_least(0))):
            m.add_argument(flag, type=kind, required=True)
        common(m, handler, with_order=True)

    m = modes.add_parser("triplet", help="triplet limit identity, components = rank + 1")
    for flag, kind in (("--rank", _int_at_least(2)), ("--p", character_p),
                       ("--colour", _int_at_least(0))):
        m.add_argument(flag, type=kind, required=True)
    m.add_argument("--coset", type=int, default=0, help="triplet coset (default 0)")
    common(m, _run_triplet, with_order=True)

    # The zero-weight check expands Schur polynomials with the Jacobi-Trudi
    # oracle, which is guarded to rank <= 5 and weight <= 16; the handler
    # applies the tighter cap of PROPS_WEIGHT_CAP for the rank.
    m = modes.add_parser("props", help="the Kostka propositions behind both identities")
    m.add_argument("--rank", type=int, choices=range(2, 6), required=True, metavar="{2..5}")
    m.add_argument(
        "--max-weight", type=int, choices=range(17), default=None, metavar="{0..16}",
        help="scan bound for the proposition checks, at most 16, 16, 11, 9 at "
        "ranks 2 to 5 (default 10, or the cap if lower)",
    )
    common(m, _run_props)

    p = sub.add_parser("selftest", help="run the small-scale invariant battery")
    common(p, _run_selftest)

    return parser


def _resolve_order(value: int | None) -> int:
    source = "--order"
    if value is None:
        env = os.environ.get(ORDER_ENV)
        if not env:
            return DEFAULT_ORDER
        source = ORDER_ENV
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"{ORDER_ENV} must be an integer, got {env!r}") from None
    if value <= 0:
        raise ValueError(f"{source} must be positive, got {value}")
    return value


def config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """The request :func:`run` takes: the parsed namespace itself."""
    return args


def run(args: argparse.Namespace) -> tuple[int, str]:
    """Execute one parsed request; returns (exit status, rendered output)."""
    return args.handler(args)


def _render_series(series: QSeries, args: argparse.Namespace) -> str:
    return series.to_json() if args.json else series.to_text()


def _run_kostka(args: argparse.Namespace) -> tuple[int, str]:
    value = kostka(args.shape, args.content)
    if args.json:
        return 0, json.dumps(
            {
                "shape": list(args.shape),
                "content": list(args.content),
                "value": str(value),
            }
        )
    return 0, str(value)


def _run_schur(args: argparse.Namespace) -> tuple[int, str]:
    rank, shape = args.rank, args.shape
    if len(shape) > rank:
        raise ValueError(f"--shape has {len(shape)} rows, more than --rank {rank}")
    d = sum(part * (rank - 1 - 2 * i) for i, part in enumerate(shape))  # sum of lam_i - lam_j
    cells = rank * (rank - 1) // 2 * (d + rank * (rank * rank - 1) // 6)
    if cells > SCHUR_CELL_BUDGET:
        raise ValueError(f"--rank {rank} and --shape need {cells:,} cells, over the budget of "
                         f"{SCHUR_CELL_BUDGET:,}")
    return 0, _render_series(principal_spec(shape, rank), args)


def _run_jones(args: argparse.Namespace) -> tuple[int, str]:
    spec = TorusLinkSpec(args.rank, args.components, args.p, args.colour)
    if args.shift == "none":
        return 0, _render_series(jones_torus_link(spec), args)
    _check_components(args, args.shift, f"--shift {args.shift}")
    shifted = shifted_invariant_singlet if args.shift == "singlet" else shifted_invariant_triplet
    return 0, _render_series(shifted(spec), args)


def _check_components(args: argparse.Namespace, form: str, via: str) -> None:
    """--components against --rank for the singlet or triplet form."""
    rank, components = args.rank, args.components
    if form == "singlet" and not 2 <= components <= rank:
        raise ValueError(f"{via} needs 2 <= --components <= --rank {rank}, got {components}")
    if form == "triplet" and components != rank + 1:
        raise ValueError(f"{via} needs --components = --rank + 1 = {rank + 1}, got {components}")


def _check_coset(args: argparse.Namespace) -> None:
    """--coset against --rank."""
    if not 0 <= args.coset < args.rank:
        raise ValueError(f"--coset must be in 0..{args.rank - 1} at --rank {args.rank}, "
                         f"got {args.coset}")


def _run_char(args: argparse.Namespace) -> tuple[int, str]:
    _check_coset(args)
    if args.kind == "singlet" and args.coset:
        raise ValueError(f"--coset: the singlet character lives on coset 0, got {args.coset}")
    spec = CharacterSpec(rank=args.rank, p=args.p, kind=args.kind,
                         cutoff=_resolve_order(args.order), coset=args.coset)
    series = singlet_char(spec) if spec.kind == "singlet" else triplet_char(spec)
    return 0, _render_series(series, args)


def _run_char_table(args: argparse.Namespace) -> tuple[int, str]:
    order, rows = _resolve_order(args.order), []
    for rank in range(2, args.max_rank + 1):
        for p in range(2, args.max_p + 1):
            for kind, coset in [("singlet", 0)] + [("triplet", coset) for coset in range(rank)]:
                spec = CharacterSpec(rank, p, kind, order, coset)
                series = singlet_char(spec) if kind == "singlet" else triplet_char(spec)
                if args.json:
                    rows.append({"kind": kind, "rank": rank, "p": p, "coset": coset,
                                 "series": series.to_json_dict()})
                elif kind == "singlet":
                    rows.append(f"singlet rank={rank} p={p}: "
                                + " ".join(str(series.coefficient(n)) for n in range(order)))
                else:
                    rows.append(f"triplet rank={rank} p={p} coset={coset}: {series}")
    header = f"# singlet rows list the coefficients of q^0 .. q^{order - 1}"
    return 0, json.dumps(rows) if args.json else "\n".join([header, *rows])


def _run_singlet(args: argparse.Namespace) -> tuple[int, str]:
    _check_components(args, "singlet", "verify singlet")
    order = _resolve_order(args.order)
    report = verify_singlet_theorem(args.rank, args.components, args.p, args.colour, order)
    return _report([report], args, report.describe)


def _run_triplet(args: argparse.Namespace) -> tuple[int, str]:
    _check_coset(args)
    if args.colour % args.rank != args.coset:
        raise ValueError(f"--colour {args.colour} is not congruent to --coset "
                         f"{args.coset} modulo --rank {args.rank}")
    order = _resolve_order(args.order)
    report = verify_triplet_theorem(args.rank, args.p, args.coset, args.colour, order)
    return _report([report], args, report.describe)


def _run_scan(args: argparse.Namespace) -> tuple[int, str]:
    """A row per colour: the triplet, on coset colour mod rank, at --components = --rank + 1."""
    triplet = args.components > args.rank
    _check_components(args, "triplet" if triplet else "singlet", "verify scan")
    rank, components, p, order = args.rank, args.components, args.p, _resolve_order(args.order)
    reports = [verify_triplet_theorem(rank, p, colour % rank, colour, order) if triplet
               else verify_singlet_theorem(rank, components, p, colour, order)
               for colour in range(args.max_colour + 1)]
    lines = [f"# {'triplet' if triplet else 'singlet'} comparison, rank={rank} "
             f"components={components} p={p}, series compared below q^{order}",
             f"{'colour':>7}  {'order':>8}  {'threshold':>9}  verdict"]
    for colour, report in enumerate(reports):
        agreed = "full" if report.order is None else str(report.order)
        lines.append(f"{colour:>7}  {agreed:>8}  {str(report.threshold):>9}  "
                     f"{'pass' if report.passed else 'FAIL'}")
    return _report(reports, args, lambda: "\n".join(lines))


def _report(reports, args: argparse.Namespace, describe) -> tuple[int, str]:
    """Exit 0 exactly when every verdict passes; --json lists every report, else describe()."""
    text = json.dumps([report.to_json_dict() for report in reports]) if args.json else describe()
    return (0 if all(report.passed for report in reports) else 1), text


def _run_props(args: argparse.Namespace) -> tuple[int, str]:
    rank, cap = args.rank, PROPS_WEIGHT_CAP[args.rank]
    max_weight = min(10, cap) if args.max_weight is None else args.max_weight
    if max_weight > cap:
        raise ValueError(f"--max-weight {max_weight} exceeds the cap {cap} at --rank {rank}")

    sections = [
        (kind, cases, [f"[{','.join(map(str, lam))}]" for lam in failures])
        for kind, cases, failures in scan_propositions(rank, max_weight)
    ]
    passed = not any(failures for _, _, failures in sections)
    if args.json:
        text = json.dumps(
            [
                {
                    "kind": kind,
                    "rank": rank,
                    "max_weight": max_weight,
                    "cases": cases,
                    "failures": failures,
                    "passed": not failures,
                }
                for kind, cases, failures in sections
            ]
        )
    else:
        lines = []
        for kind, cases, failures in sections:
            status = "PASS" if not failures else "FAIL"
            line = f"{status} {kind} rank={rank} cases={cases}"
            if failures:
                line += " failures=" + ",".join(failures)
            lines.append(line)
        text = "\n".join(lines)
    return (0 if passed else 1), text


def _run_selftest(args: argparse.Namespace) -> tuple[int, str]:
    results = selftest_battery.run_all()
    if args.json:
        text = json.dumps([{"check": name, "passed": ok} for name, ok in results])
    else:
        lines = [("ok " if ok else "FAIL ") + name for name, ok in results]
        good = sum(1 for _, ok in results if ok)
        lines.append(f"{good}/{len(results)} checks passed")
        text = "\n".join(lines)
    return (0 if all(ok for _, ok in results) else 1), text


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, text = run(args)
    except (ValueError, ZeroDivisionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.output is None:
        try:
            print(text, flush=True)
        except BrokenPipeError:  # the reader left: stdout goes to devnull for the exit flush
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
        return code
    try:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    except OSError as err:
        print(f"error: --output: {err}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
