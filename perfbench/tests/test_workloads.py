"""The request streams: seeded, reproducible, and drawn from fixed families."""

import pytest
import workloads
from qtorus.cli import build_parser


def _family(argv):
    # What a seed must not change: the slot a request was drawn for.
    flags = {argv[i]: argv[i + 1] for i in range(len(argv) - 1) if argv[i].startswith("--")}
    if argv[0] == "verify":
        return (argv[1], flags["--rank"], flags.get("--components"))
    if argv[0] == "char":
        return ("char", flags["--rank"], flags["--p"])
    return ("jones", flags["--rank"], flags["--components"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_argv_lists(workload):
    assert workloads.rounds(workload, 7, 5) == workloads.rounds(workload, 7, 5)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seeds_differ_but_keep_the_families(workload):
    a = workloads.rounds(workload, 1, 5)
    b = workloads.rounds(workload, 2, 5)
    assert a != b
    for ra, rb in zip(a, b):
        assert len(ra) == len(rb) == workloads.round_size(workload)
        assert sorted(map(_family, ra)) == sorted(map(_family, rb))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_request_parses(workload):
    parser = build_parser()
    for batch in workloads.rounds(workload, 3, 3):
        for argv in batch:
            parser.parse_args(argv)


def test_verify_scan_keeps_the_failing_family():
    # components < rank with p = 3 reports FAIL on the current code; the
    # benchmark keeps it in every round and counts the verdicts.
    for batch in workloads.rounds("verify_scan", 5, 4):
        assert any(
            argv[:2] == ["verify", "singlet"]
            and argv[argv.index("--rank") + 1] == "3"
            and argv[argv.index("--components") + 1] == "2"
            and argv[argv.index("--p") + 1] == "3"
            for argv in batch
        )


def test_triplet_coset_is_colour_mod_rank():
    for batch in workloads.rounds("verify_scan", 9, 4):
        for argv in batch:
            if argv[1] == "triplet":
                rank = int(argv[argv.index("--rank") + 1])
                colour = int(argv[argv.index("--colour") + 1])
                assert int(argv[argv.index("--coset") + 1]) == colour % rank


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError, match="unknown workload"):
        workloads.rounds("nope", 1, 1)
