"""Command-line entry point: computation, verification, and regression output.

Subcommands mirror the library surface: ``kostka`` and ``schur`` for the
combinatorial layer, ``jones`` for torus-link invariants, ``char`` for the
character series, ``verify`` for the limit identities and propositions, and
``selftest`` for a quick health battery.  Output is canonical text or JSON;
runs are deterministic for a fixed configuration regardless of --jobs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from . import selftest as selftest_battery
from .combinatorics import as_partition, kostka, partitions_of
from .link_invariants import (
    TorusLinkSpec,
    jones_torus_link,
    shifted_invariant_singlet,
    shifted_invariant_triplet,
)
from .qseries import QSeries
from .schur_spec import principal_spec
from .verifier import (
    check_prop_full_dim,
    check_prop_zero_weight,
    phi_bijection_check,
    verify_singlet_theorem,
    verify_triplet_theorem,
)
from .voa_characters import CharacterSpec, singlet_char, triplet_char

ORDER_ENV = "QTORUS_ORDER"
DEFAULT_ORDER = 20


@dataclass
class CliConfig:
    """One resolved invocation: everything needed for a deterministic run."""

    subcommand: str
    params: dict = field(default_factory=dict)
    output: str = "text"
    order: int | None = None
    jobs: int = 1
    out_path: str | None = None


def parse_partition(text: str):
    body = text.strip().strip("[]")
    if not body:
        return ()
    return as_partition(int(x) for x in body.split(","))


def parse_content(text: str):
    body = text.strip().strip("[]")
    if "^" in body:
        base, _, reps = body.partition("^")
        return (int(base),) * int(reps)
    if not body:
        return ()
    return tuple(int(x) for x in body.split(","))


def format_partition(shape) -> str:
    return "[" + ",".join(str(p) for p in shape) + "]"


def _dumps(obj) -> str:
    return json.dumps(obj)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtorus",
        description=(
            "Exact q-series computations: Kostka numbers, principal "
            "specializations, coloured torus-link invariants, logarithmic "
            "VOA characters, and verification of their limit identities."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser, with_order: bool = False):
        p.add_argument("--json", action="store_true", help="emit JSON output")
        p.add_argument("--output", metavar="PATH", help="write output to a file")
        p.add_argument("--jobs", type=int, default=1, help="parallelism degree")
        if with_order:
            p.add_argument(
                "--order",
                type=int,
                default=None,
                help=f"truncation order (default ${ORDER_ENV} or {DEFAULT_ORDER})",
            )

    p = sub.add_parser("kostka", help="count tableaux of a shape and content")
    p.add_argument("--shape", required=True, help="partition, e.g. 2,1")
    p.add_argument("--content", required=True, help="composition, e.g. 1,1,1 or 7^4")
    common(p)

    p = sub.add_parser("schur", help="principal specialization of a Schur polynomial")
    p.add_argument("--shape", required=True)
    p.add_argument("--rank", type=int, required=True)
    common(p)

    p = sub.add_parser("jones", help="coloured invariant of the torus link T(c, cp)")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--components", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--colour", type=int, required=True)
    p.add_argument(
        "--shift", choices=["none", "singlet", "triplet"], default="none",
        help="apply the monomial shift used in the limit comparisons",
    )
    common(p)

    p = sub.add_parser("char", help="normalized singlet or triplet character")
    p.add_argument("--kind", choices=["singlet", "triplet"], required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--coset", type=int, default=0)
    common(p, with_order=True)

    p = sub.add_parser("verify", help="check a limit identity or the propositions")
    p.add_argument("mode", choices=["singlet", "triplet", "props"])
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--components", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--coset", type=int, help="triplet coset (default 0)")
    p.add_argument("--colour", type=int)
    p.add_argument(
        "--max-weight", type=int,
        help="scan bound for the proposition checks (props mode, default 10)",
    )
    common(p, with_order=True)

    p = sub.add_parser("selftest", help="run the small-scale invariant battery")
    common(p)

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


def config_from_args(args: argparse.Namespace) -> CliConfig:
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("subcommand", "json", "output", "jobs", "order") and v is not None
    }
    return CliConfig(
        subcommand=args.subcommand,
        params=params,
        output="json" if args.json else "text",
        order=getattr(args, "order", None),
        jobs=args.jobs,
        out_path=args.output,
    )


def run(config: CliConfig) -> tuple[int, str]:
    """Execute one configuration; returns (exit status, rendered output)."""
    if config.jobs < 1:
        raise ValueError(f"--jobs must be positive, got {config.jobs}")
    handler = {
        "kostka": _run_kostka,
        "schur": _run_schur,
        "jones": _run_jones,
        "char": _run_char,
        "verify": _run_verify,
        "selftest": _run_selftest,
    }[config.subcommand]
    return handler(config)


def _render_series(series: QSeries, config: CliConfig) -> str:
    if config.output == "json":
        return _dumps(series.to_json_dict())
    return series.to_text()


def _run_kostka(config: CliConfig) -> tuple[int, str]:
    shape = parse_partition(config.params["shape"])
    content = parse_content(config.params["content"])
    value = kostka(shape, content)
    if config.output == "json":
        return 0, _dumps(
            {
                "shape": list(shape),
                "content": list(content),
                "value": str(value),
            }
        )
    return 0, str(value)


def _run_schur(config: CliConfig) -> tuple[int, str]:
    shape = parse_partition(config.params["shape"])
    rank = config.params["rank"]
    if rank < 1:
        raise ValueError(f"--rank must be positive, got {rank}")
    series = principal_spec(shape, rank)
    return 0, _render_series(series, config)


def _run_jones(config: CliConfig) -> tuple[int, str]:
    spec = TorusLinkSpec(
        rank=config.params["rank"],
        components=config.params["components"],
        p=config.params["p"],
        colour=config.params["colour"],
    )
    shift = config.params.get("shift", "none")
    if shift == "singlet":
        series = shifted_invariant_singlet(spec)
    elif shift == "triplet":
        series = shifted_invariant_triplet(spec)
    else:
        series = jones_torus_link(spec)
    return 0, _render_series(series, config)


def _run_char(config: CliConfig) -> tuple[int, str]:
    order = _resolve_order(config.order)
    spec = CharacterSpec(
        rank=config.params["rank"],
        p=config.params["p"],
        kind=config.params["kind"],
        cutoff=order,
        coset=config.params.get("coset", 0),
    )
    series = singlet_char(spec) if spec.kind == "singlet" else triplet_char(spec)
    return 0, _render_series(series, config)


def _require(params: dict, names: list[str], mode: str) -> None:
    missing = [n for n in names if params.get(n) is None]
    if missing:
        raise ValueError(
            f"verify {mode} requires --" + " --".join(missing)
        )


# Flags each verify mode would otherwise ignore; giving one is an error.
_NOT_TAKEN = {
    "singlet": ["coset", "max_weight"],
    "triplet": ["components", "max_weight"],
    "props": ["components", "p", "coset", "colour", "order"],
}


def _run_verify(config: CliConfig) -> tuple[int, str]:
    mode = config.params["mode"]
    given = dict(config.params, order=config.order)
    extra = [n for n in _NOT_TAKEN[mode] if given.get(n) is not None]
    if extra:
        flags = " ".join("--" + n.replace("_", "-") for n in extra)
        raise ValueError(f"verify {mode} does not take {flags}")
    if mode == "props":
        return _run_props(config)
    order = _resolve_order(config.order)
    if mode == "singlet":
        _require(config.params, ["components", "p", "colour"], mode)
        report = verify_singlet_theorem(
            config.params["rank"],
            config.params["components"],
            config.params["p"],
            config.params["colour"],
            order,
        )
    else:
        _require(config.params, ["p", "colour"], mode)
        report = verify_triplet_theorem(
            config.params["rank"],
            config.params["p"],
            config.params.get("coset", 0),
            config.params["colour"],
            order,
        )
    if config.output == "json":
        text = _dumps([report.to_json_dict()])
    else:
        text = report.describe()
    return (0 if report.passed else 1), text


def _map_ordered(fn, items, jobs: int):
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _run_props(config: CliConfig) -> tuple[int, str]:
    rank = config.params["rank"]
    max_weight = config.params.get("max_weight", 10)
    if max_weight > 16:
        raise ValueError("props scan bound must be at most 16 (oracle guard)")

    zero_shapes = [
        lam
        for weight in range(max_weight + 1)
        for lam in partitions_of(weight, rank)
    ]
    zero_results = _map_ordered(
        lambda lam: check_prop_zero_weight(lam, rank), zero_shapes, config.jobs
    )
    zero_failures = [
        format_partition(lam) for lam, ok in zip(zero_shapes, zero_results) if not ok
    ]

    full_cases = []
    colour = 1
    while colour * (rank + 1) <= max_weight:
        for lam in partitions_of(colour * (rank + 1), rank):
            if len(lam) == rank and lam[-1] >= colour:
                full_cases.append((lam, colour))
        colour += 1
    full_results = _map_ordered(
        lambda case: check_prop_full_dim(case[0], case[1], rank),
        full_cases,
        config.jobs,
    )
    full_failures = [
        format_partition(lam)
        for (lam, _), verdict in zip(full_cases, full_results)
        if verdict == "fail"
    ]
    phi_results = _map_ordered(
        lambda case: phi_bijection_check(case[0], case[1], rank),
        full_cases,
        config.jobs,
    )
    phi_failures = [
        format_partition(lam)
        for (lam, _), ok in zip(full_cases, phi_results)
        if not ok
    ]

    sections = [
        ("props-zero-weight", len(zero_shapes), zero_failures),
        ("props-full-dim", len(full_cases), full_failures),
        ("props-bijection", len(full_cases), phi_failures),
    ]
    passed = not (zero_failures or full_failures or phi_failures)
    if config.output == "json":
        text = _dumps(
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


def _run_selftest(config: CliConfig) -> tuple[int, str]:
    results = selftest_battery.run_all(config.jobs)
    if config.output == "json":
        text = _dumps([{"check": name, "passed": ok} for name, ok in results])
    else:
        lines = [("ok " if ok else "FAIL ") + name for name, ok in results]
        good = sum(1 for _, ok in results if ok)
        lines.append(f"{good}/{len(results)} checks passed")
        text = "\n".join(lines)
    return (0 if all(ok for _, ok in results) else 1), text


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = config_from_args(args)
    try:
        code, text = run(config)
    except (ValueError, ZeroDivisionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if config.out_path:
        with open(config.out_path, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
