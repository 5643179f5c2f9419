"""Span recording from outside the program, and the per-layer metrics.

The tracer wraps public functions of the ``qtorus`` modules.  A module that
imported a function by name (``from .schur_spec import principal_spec``)
looks it up in its own namespace, so every namespace that holds the original
object gets the wrapper.  Spans (name, start, end, parent) are kept in
memory in flat arrays and written out when the run ends.

Counts and the ratio metrics are computed from the arguments and results of
the wrapped calls, so for a fixed request list they repeat exactly.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

# Span name -> (module, attribute) pairs it covers.  Dotted attributes name a
# method on a class.
SPANS = {
    "qseries.add": [("qseries", f"QSeries.{m}")
                    for m in ("__add__", "__sub__", "__rsub__", "__neg__")],
    "qseries.mul": [("qseries", f"QSeries.{m}") for m in ("__mul__", "__pow__")],
    "qseries.exact_div": [("qseries", "exact_div")],
    "qseries.euler_product": [("qseries", "euler_product")],
    "qseries.invert_unit": [("qseries", "invert_unit")],
    "combinatorics.kostka": [("combinatorics", "kostka")],
    "schur_spec.principal_spec": [("schur_spec", "principal_spec"),
                                  ("schur_spec", "principal_spec_weight")],
    "lie_sl.zero_weight_dim": [("lie_sl", "zero_weight_dim")],
    "lie_sl.weight_algebra": [("lie_sl", n) for n in
                              ("casimir_pairing", "weyl_dim", "scaled_coeff_sum")],
    "link_invariants.jones": [("link_invariants", "jones_torus_link")],
    "link_invariants.shift": [("link_invariants", "shifted_invariant_singlet"),
                              ("link_invariants", "shifted_invariant_triplet")],
    "voa_characters.char": [("voa_characters", "singlet_char"),
                            ("voa_characters", "triplet_char")],
    "voa_characters.rhs": [("voa_characters", "rhs_singlet_limit"),
                           ("voa_characters", "rhs_triplet_limit")],
    "verifier.verify": [("verifier", "verify_singlet_theorem"),
                        ("verifier", "verify_triplet_theorem")],
    "verifier.compare": [("verifier", "first_disagreement")],
    "cli.render": [("qseries", "QSeries.to_text"), ("qseries", "QSeries.to_json_dict"),
                   ("verifier", "VerificationReport.describe"),
                   ("verifier", "VerificationReport.to_json_dict")],
}
ROOT_SPAN = "cli.request"
# Time the tracer spends computing counts; kept out of the layers' self time.
HOOK_SPAN = "trace.hooks"

# Per-layer time metric -> span it reports: self time, except for the two
# inclusive metrics below, which report whole-call times.
TIME_METRICS = {
    "qseries.add_s": "qseries.add",
    "qseries.mul_s": "qseries.mul",
    "qseries.exact_div_s": "qseries.exact_div",
    "qseries.euler_product_s": "qseries.euler_product",
    "qseries.invert_unit_s": "qseries.invert_unit",
    "combinatorics.kostka_s": "combinatorics.kostka",
    "schur_spec.principal_spec_s": "schur_spec.principal_spec",
    "lie_sl.zero_weight_dim_s": "lie_sl.zero_weight_dim",
    "lie_sl.weight_algebra_s": "lie_sl.weight_algebra",
    "voa_characters.rhs_s": "voa_characters.rhs",
    "verifier.compare_s": "verifier.compare",
    "cli.render_s": "cli.render",
}
INCLUSIVE_METRICS = {
    "link_invariants.jones_s": "link_invariants.jones",
    "voa_characters.char_s": "voa_characters.char",
}


def self_times(names, starts, ends, parents) -> dict[str, float]:
    """Self time per span name: duration minus the time of direct children.

    Spans of one thread nest, so direct children never overlap and their
    durations can be summed.  ``parents[i]`` is the index of span i's
    parent, or -1 for a root.
    """
    child = [0.0] * len(starts)
    for i, parent in enumerate(parents):
        if parent >= 0:
            child[parent] += ends[i] - starts[i]
    out: dict[str, float] = {}
    for i, name in enumerate(names):
        out[name] = out.get(name, 0.0) + (ends[i] - starts[i]) - child[i]
    return out


def inclusive_times(names, starts, ends, parents) -> dict[str, float]:
    """Time per span name, counting a span nested in one of the same name once."""
    out: dict[str, float] = {}
    for i, name in enumerate(names):
        p = parents[i]
        while p >= 0 and names[p] != name:
            p = parents[p]
        if p < 0:
            out[name] = out.get(name, 0.0) + ends[i] - starts[i]
    return out


class Tracer:
    """Installs wrappers on the qtorus modules and records spans and counts."""

    def __init__(self) -> None:
        self.name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.max_coeff_bits = 0
        self.verify_ctx: list[tuple[Fraction, Fraction]] = []
        self.char_ctx: list[tuple[int, Fraction]] = []
        self.rhs_seen: set = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.starts)
        self.span_name.append(self.name_ids.setdefault(name, len(self.name_ids)))
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def _spanned(self, name: str, fn, before=None, after=None):
        def wrapper(*args, **kwargs):
            if before is not None:
                self._hook(before, args, kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
                if before is not None:
                    self._pop_ctx(name)
            if after is not None:
                self._hook(after, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hook(self, hook, *args) -> None:
        idx = self.open(HOOK_SPAN)
        try:
            hook(*args)
        finally:
            self.close(idx)

    # -- installation ------------------------------------------------------

    def _replace(self, orig, new) -> None:
        """Point every qtorus namespace that holds ``orig`` at ``new``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "qtorus" and not mod_name.startswith("qtorus."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, new)

    def install(self) -> None:
        names = {name for targets in SPANS.values() for name, _ in targets}
        modules = {name: importlib.import_module(f"qtorus.{name}")
                   for name in names | {"cli"}}
        cli, lie_sl, link_invariants, qseries = (
            modules[name] for name in ("cli", "lie_sl", "link_invariants", "qseries"))
        hooks = self._hooks(lie_sl, link_invariants)
        for span, targets in SPANS.items():
            for mod_name, attr in targets:
                before, after = hooks.get(attr, (None, None))
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(modules[mod_name], cls_name)
                    orig = cls.__dict__[meth]
                    new = self._spanned(span, orig, before, after)
                    for key, value in list(vars(cls).items()):
                        if value is orig:
                            self._undo.append((cls, key, orig))
                            setattr(cls, key, new)
                else:
                    orig = getattr(modules[mod_name], attr)
                    self._replace(orig, self._spanned(span, orig, before, after))

        orig_init = qseries.QSeries.__init__

        def counted_init(series, *args, **kwargs):
            orig_init(series, *args, **kwargs)
            self.counts["qseries.series_built"] += 1
            self.counts["qseries.terms_built"] += len(series.terms)

        self._undo.append((qseries.QSeries, "__init__", orig_init))
        qseries.QSeries.__init__ = counted_init

        self._replace(link_invariants.jones_summands,
                      self._counted_generator(link_invariants.jones_summands,
                                              self._on_summand))
        self._replace(lie_sl.dominant_weights,
                      self._counted_generator(lie_sl.dominant_weights,
                                              self._on_cone_weight))

        self._undo.append((cli, "json", cli.json))
        cli.json = SimpleNamespace(dumps=self._spanned("cli.render", json.dumps))

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._undo):
            setattr(target, attr, orig)
        self._undo.clear()

    def _counted_generator(self, fn, item_hook):
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self._hook(item_hook, item)
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks: counts and ratios from arguments and results ----------------

    def _hooks(self, lie_sl, link_invariants):
        casimir = lie_sl.casimir_pairing
        spec_of = link_invariants.TorusLinkSpec

        def verify_singlet(args, kwargs):
            rank, components, p, colour, cutoff = args
            shift = link_invariants.singlet_shift_exponent(
                spec_of(rank, components, p, colour))
            self.verify_ctx.append((shift, Fraction(cutoff)))

        def verify_triplet(args, kwargs):
            rank, p, _coset, colour, cutoff = args
            shift = link_invariants.triplet_shift_exponent(
                spec_of(rank, rank + 1, p, colour))
            self.verify_ctx.append((shift, Fraction(cutoff)))

        def verdict(args, report):
            if not report.passed:
                self.counts["verifier.fail_verdicts"] += 1

        def char(args, kwargs):
            spec = args[0]
            self.char_ctx.append((spec.p, spec.cutoff))

        def rhs(name):
            def hook(args, kwargs):
                key = (name,) + tuple(args[:-1]) + (Fraction(args[-1]),)
                self.counts["voa_characters.rhs_calls"] += 1
                if key in self.rhs_seen:
                    self.counts["voa_characters.rhs_repeats"] += 1
                self.rhs_seen.add(key)
            return hook

        def cone_summand(args, result):
            self._series_result(args, result)
            if not self.char_ctx:
                return
            p, cutoff = self.char_ctx[-1]
            shift = Fraction(p, 2) * casimir(args[0])
            self.counts["voa_characters.cone_terms"] += len(result.terms)
            self.counts["voa_characters.cone_terms_kept"] += sum(
                1 for e in result.terms if e + shift < cutoff)

        def spec_call(args, result):
            self.counts["schur_spec.principal_spec_calls"] += 1
            self._series_result(args, result)

        def kostka_call(args, result):
            self.counts["combinatorics.kostka_calls"] += 1

        series = (None, self._series_result)
        return {
            "verify_singlet_theorem": (verify_singlet, verdict),
            "verify_triplet_theorem": (verify_triplet, verdict),
            "singlet_char": (char, self._series_result),
            "triplet_char": (char, self._series_result),
            "rhs_singlet_limit": (rhs("singlet"), self._series_result),
            "rhs_triplet_limit": (rhs("triplet"), self._series_result),
            "principal_spec": (None, spec_call),
            "principal_spec_weight": (None, cone_summand),
            "kostka": (None, kostka_call),
            "jones_torus_link": series,
            "exact_div": series,
            "euler_product": series,
            "invert_unit": series,
        }

    def _pop_ctx(self, span: str) -> None:
        if span == "verifier.verify":
            self.verify_ctx.pop()
        elif span == "voa_characters.char":
            self.char_ctx.pop()

    def _series_result(self, args, result) -> None:
        if result.terms:
            bits = max(abs(c) for c in result.terms.values()).bit_length()
            self.max_coeff_bits = max(self.max_coeff_bits, bits)

    def _on_summand(self, item) -> None:
        self.counts["link_invariants.summands"] += 1
        if not self.verify_ctx:
            return
        shift, cutoff = self.verify_ctx[-1]
        term = item[2]
        self.counts["link_invariants.verify_summands"] += 1
        if term.low + shift < cutoff:
            self.counts["link_invariants.summands_kept"] += 1
        self.counts["link_invariants.terms"] += len(term.terms)
        self.counts["link_invariants.terms_kept"] += sum(
            1 for e in term.terms if e + shift < cutoff)

    def _on_cone_weight(self, item) -> None:
        self.counts["lie_sl.cone_weights"] += 1

    # -- results -------------------------------------------------------------

    def names(self) -> list[str]:
        by_id = {i: n for n, i in self.name_ids.items()}
        return [by_id[i] for i in self.span_name]

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; ``trace.overhead_frac`` needs a second run and
        is added by the caller."""
        names = self.names()
        selfs = self_times(names, self.starts, self.ends, self.parents)
        incl = inclusive_times(names, self.starts, self.ends, self.parents)
        c = self.counts

        def ratio(num: str, den: str) -> float:
            return c[num] / c[den] if c[den] else 0.0

        out = {m: selfs.get(span, 0.0) for m, span in TIME_METRICS.items()}
        out.update({m: incl.get(span, 0.0) for m, span in INCLUSIVE_METRICS.items()})
        out.update({
            "qseries.series_built": c["qseries.series_built"],
            "qseries.terms_built": c["qseries.terms_built"],
            "qseries.max_coeff_bits": self.max_coeff_bits,
            "combinatorics.kostka_calls": c["combinatorics.kostka_calls"],
            "schur_spec.principal_spec_calls": c["schur_spec.principal_spec_calls"],
            "lie_sl.cone_weights": c["lie_sl.cone_weights"],
            "link_invariants.summands": c["link_invariants.summands"],
            "link_invariants.summands_kept_ratio":
                ratio("link_invariants.summands_kept", "link_invariants.verify_summands"),
            "link_invariants.terms_kept_ratio":
                ratio("link_invariants.terms_kept", "link_invariants.terms"),
            "voa_characters.rhs_repeat_ratio":
                ratio("voa_characters.rhs_repeats", "voa_characters.rhs_calls"),
            "voa_characters.cone_terms_kept_ratio":
                ratio("voa_characters.cone_terms_kept", "voa_characters.cone_terms"),
            "verifier.fail_verdicts": c["verifier.fail_verdicts"],
            "cli.output_bytes": c["cli.output_bytes"],
        })
        return out

    def self_time_table(self) -> dict[str, float]:
        names = self.names()
        return self_times(names, self.starts, self.ends, self.parents)

    def write(self, path: Path) -> None:
        """Write spans and counts as one JSON document."""
        names = self.names()
        spans = [
            [names[i], self.starts[i], self.ends[i], self.parents[i]]
            for i in range(len(names))
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": spans, "counts": dict(self.counts)}, handle)
