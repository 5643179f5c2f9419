"""Self time on a hand-built span tree, and the wrappers on the program."""

import pytest
from qtorus import link_invariants, schur_spec
from qtorus.cli import build_parser, config_from_args, run
from tracer import ROOT_SPAN, Tracer, inclusive_times, self_times


def test_self_time_on_a_hand_built_tree():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9] > a [6, 8]
    names = ["root", "a", "b", "c", "a"]
    starts = [0.0, 1.0, 2.0, 5.0, 6.0]
    ends = [10.0, 4.0, 3.0, 9.0, 8.0]
    parents = [-1, 0, 1, 0, 3]
    selfs = self_times(names, starts, ends, parents)
    assert selfs == {"root": 3.0, "a": 4.0, "b": 1.0, "c": 2.0}
    assert sum(selfs.values()) == 10.0


def test_inclusive_time_counts_nested_same_name_once():
    names = ["root", "a", "a", "b"]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 6.0]
    parents = [-1, 0, 1, 0]
    assert inclusive_times(names, starts, ends, parents) == {
        "root": 10.0, "a": 3.0, "b": 1.0}


def _traced(argvs):
    parser = build_parser()
    tracer = Tracer()
    tracer.install()
    try:
        for argv in argvs:
            span = tracer.open(ROOT_SPAN)
            run(config_from_args(parser.parse_args(argv)))
            tracer.close(span)
    finally:
        tracer.uninstall()
    return tracer


def test_install_patches_names_where_consumers_look_them_up():
    original = schur_spec.principal_spec
    tracer = Tracer()
    tracer.install()
    try:
        assert link_invariants.principal_spec is not original
        assert link_invariants.principal_spec.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert link_invariants.principal_spec is original
    assert schur_spec.principal_spec is original


VERIFY = ["verify", "singlet", "--rank", "2", "--components", "2", "--p", "2",
          "--colour", "40", "--order", "30"]


def test_verify_counts_match_the_measured_survival():
    # 4 of 41 summands and 16 of 1681 terms lie below the cutoff at r2 c2 n40 o30.
    metrics = _traced([VERIFY]).metrics()
    assert metrics["link_invariants.summands"] == 41
    assert metrics["link_invariants.summands_kept_ratio"] == pytest.approx(4 / 41)
    assert metrics["link_invariants.terms_kept_ratio"] == pytest.approx(16 / 1681)


def test_counts_repeat_and_self_times_cover_the_wall():
    argvs = [VERIFY, VERIFY,
             ["char", "--kind", "triplet", "--rank", "3", "--p", "2",
              "--coset", "1", "--order", "12"]]
    first, second = _traced(argvs), _traced(argvs)
    timed = {k for k in first.metrics() if k.endswith("_s")}
    a = {k: v for k, v in first.metrics().items() if k not in timed}
    b = {k: v for k, v in second.metrics().items() if k not in timed}
    assert a == b
    assert a["voa_characters.rhs_repeat_ratio"] == 0.5
    roots = [i for i, p in enumerate(first.parents) if p < 0]
    wall = sum(first.ends[i] - first.starts[i] for i in roots)
    assert sum(first.self_time_table().values()) == pytest.approx(wall)
    assert {first.names()[i] for i in roots} <= {ROOT_SPAN, "trace.hooks"}
