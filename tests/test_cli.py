"""Command-line surface: worked outputs, JSON round trips, error paths,
golden regressions, and the README's examples."""

import argparse
import importlib.util
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
import qtorus
from qtorus import QSeries, verify_singlet_theorem
from qtorus import cli, combinatorics, lie_sl, link_invariants, qseries, schur_spec
from qtorus.cli import main, parse_content, parse_partition
from qtorus.link_invariants import (TorusLinkSpec, shifted_invariant_singlet,
                                    shifted_invariant_triplet)

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"


def run_cli(argv, capsys):
    """Run the CLI as a shell would: argparse's SystemExit is the status."""
    try:
        code = main(argv)
    except SystemExit as exit:
        code = exit.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- parsing helpers ----------------------------------------------------------


def test_parse_partition_formats():
    assert parse_partition("11,9,8") == (11, 9, 8)
    assert parse_partition("[11,9,8]") == (11, 9, 8)
    assert parse_partition("") == ()


def test_parse_content_shorthand():
    assert parse_content("7^4") == (7, 7, 7, 7)
    assert parse_content("1,1,1") == (1, 1, 1)
    assert parse_content("1,0,2") == (1, 0, 2)


def test_content_repeat_cap_is_checked_before_the_content_is_built():
    # one past the cap would be a 100,001-entry tuple (0.8 MB); the check comes
    # first, so the rejection allocates almost nothing
    count = cli.CONTENT_REPEAT_CAP + 1
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"repeat count {count} exceeds the cap"):
            parse_content(f"0^{count}")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50_000
    assert parse_content(f"0^{count - 1}") == (0,) * (count - 1)


@pytest.mark.parametrize("leaf,rest", [("kostka", ["--content", "1^990"]),
                                       ("schur", ["--rank", "990"])])
def test_a_shape_past_the_row_cap_exits_2_naming_the_flag(leaf, rest, capsys):
    # the row cap is an input budget, read before any work
    code, out, err = run_cli([leaf, "--shape", ",".join(["1"] * 990), *rest], capsys)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument --shape: 990 rows exceed the cap {cli.SHAPE_ROW_CAP}\n")
    assert f"rows <= {cli.SHAPE_ROW_CAP}" in " ".join(run_cli([leaf, "--help"], capsys)[1].split())


def test_a_shape_at_the_row_cap_is_counted(capsys):
    shape, cap = ",".join(["1"] * cli.SHAPE_ROW_CAP), cli.SHAPE_ROW_CAP
    assert run_cli(["kostka", "--shape", shape, "--content", f"1^{cap}"], capsys) == (0, "1\n", "")


def schur_cells(rank, shape):
    """rank(rank - 1)/2 kernel passes over D + rank(rank^2 - 1)/6 cells, D = sum of
    lam_i - lam_j over i < j, counted pair by pair."""
    lam = list(shape) + [0] * (rank - len(shape))
    pairs = [(i, j) for j in range(rank) for i in range(j)]
    return len(pairs) * sum(lam[i] - lam[j] + j - i for i, j in pairs)


@pytest.mark.parametrize("rank,shape,admitted", [
    (2, "1999999", True), (2, "2000000", False), (30, "", True), (31, "", False),
    (4, "111107", True), (4, "111108", False), (80, "1", False), (500, "", False)])
def test_schur_refuses_a_line_over_its_cell_budget_before_any_work(
        rank, shape, admitted, capsys, monkeypatch):
    cells = schur_cells(rank, tuple(map(int, shape.split(","))) if shape else ())
    assert (cells <= cli.SCHUR_CELL_BUDGET) == admitted
    reached = []
    monkeypatch.setattr(cli, "principal_spec", lambda *args: reached.append(args) or QSeries.one())
    code, out, err = run_cli(["schur", "--rank", str(rank), "--shape", shape], capsys)
    if admitted:
        assert (code, out, err, len(reached)) == (0, "1\n", "", 1)
    else:
        assert (code, out, reached) == (2, "", [])
        assert err == (f"error: --rank {rank} and --shape need {cells:,} cells, over the budget "
                       f"of {cli.SCHUR_CELL_BUDGET:,}\n")


def test_schur_runs_the_largest_admitted_rank_and_states_its_budget(capsys):
    # the empty shape at rank 30 is the highest rank the budget admits: P = 1
    assert run_cli(["schur", "--rank", "30", "--shape", ""], capsys) == (0, "1\n", "")
    assert f"<= {cli.SCHUR_CELL_BUDGET:,} cells" in " ".join(
        run_cli(["schur", "--help"], capsys)[1].split())


# -- worked outputs -----------------------------------------------------------


def test_kostka_command(capsys):
    code, out, _ = run_cli(["kostka", "--shape", "2,1", "--content", "1,1,1"], capsys)
    assert code == 0 and out == "2\n"


def test_kostka_shorthand_content(capsys):
    code, out, _ = run_cli(
        ["kostka", "--shape", "11,9,8", "--content", "7^4"], capsys
    )
    assert code == 0 and out == "15\n"


def test_jones_command_text(capsys):
    code, out, _ = run_cli(
        ["jones", "--rank", "2", "--components", "2", "--p", "2", "--colour", "1"],
        capsys,
    )
    assert code == 0
    assert out == "q^(-2) + q + q^2 + q^3\n"


def test_jones_shift_flag(capsys):
    code, out, _ = run_cli(
        [
            "jones", "--rank", "2", "--components", "2", "--p", "2",
            "--colour", "1", "--shift", "singlet",
        ],
        capsys,
    )
    assert code == 0
    assert out == "1 + q^3 + q^4 + q^5\n"


def test_verify_triplet_residue_diagnostic(capsys):
    code, out, err = run_cli(
        [
            "verify", "triplet", "--rank", "2", "--p", "2",
            "--coset", "0", "--colour", "19", "--order", "10",
        ],
        capsys,
    )
    assert code == 2
    assert "congruent" in err and "19" in err
    assert out == ""


def test_verify_singlet_pass_exit_zero(capsys):
    code, out, _ = run_cli(
        [
            "verify", "singlet", "--rank", "2", "--components", "2",
            "--p", "2", "--colour", "12", "--order", "10",
        ],
        capsys,
    )
    assert code == 0
    assert out.startswith("PASS singlet")


def test_verify_missing_flags_diagnostic(capsys):
    code, _, err = run_cli(["verify", "singlet", "--rank", "2"], capsys)
    assert code == 2
    assert "--components" in err


def test_char_invalid_p_diagnostic(capsys):
    code, _, err = run_cli(
        ["char", "--kind", "singlet", "--rank", "2", "--p", "1"], capsys
    )
    assert code == 2
    assert "p >= 2" in err


def test_selftest_passes(capsys):
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 0
    assert "10/10 checks passed" in out


# -- JSON round trips ----------------------------------------------------------


def test_jones_json_round_trip(capsys):
    argv = ["jones", "--rank", "3", "--components", "2", "--p", "2",
            "--colour", "2", "--json"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    series = QSeries.from_json(out.strip())
    assert json.dumps(series.to_json_dict()) == out.strip()


def test_char_json_round_trip(capsys):
    argv = ["char", "--kind", "triplet", "--rank", "2", "--p", "2",
            "--coset", "1", "--order", "9", "--json"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    series = QSeries.from_json(out.strip())
    assert json.dumps(series.to_json_dict()) == out.strip()
    assert series.cutoff == 9


# -- configuration plumbing -------------------------------------------------------


def test_order_environment_default(capsys, monkeypatch):
    monkeypatch.setenv("QTORUS_ORDER", "7")
    code, out, _ = run_cli(["char", "--kind", "singlet", "--rank", "2", "--p", "2"], capsys)
    assert code == 0
    assert out.strip().endswith("O(q^7)")



def test_order_environment_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("QTORUS_ORDER", "abc")
    code, out, err = run_cli(["char", "--kind", "singlet", "--rank", "2", "--p", "2"], capsys)
    assert code == 2 and out == ""
    assert "QTORUS_ORDER" in err and "invalid literal" not in err


def test_order_environment_not_positive(capsys, monkeypatch):
    monkeypatch.setenv("QTORUS_ORDER", "0")
    argv = ["verify", "singlet", "--rank", "2", "--components", "2",
            "--p", "2", "--colour", "4"]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert "QTORUS_ORDER" in err and "--order" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "singlet", "--rank", "2", "--components", "2", "--p", "2",
         "--colour", "4", "--order", "-5"],
        ["char", "--kind", "singlet", "--rank", "2", "--p", "2", "--order", "0"],
    ],
)
def test_order_not_positive_names_flag(argv, capsys, monkeypatch):
    monkeypatch.setenv("QTORUS_ORDER", "7")
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert "--order must be positive" in err and "QTORUS_ORDER" not in err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["verify", "triplet", "--rank", "2", "--p", "2", "--colour", "4",
          "--components", "9"], "--components"),
        (["verify", "singlet", "--rank", "2", "--components", "2", "--p", "2",
          "--colour", "4", "--coset", "0"], "--coset"),
        (["schur", "--shape", "2,1", "--rank", "-3"], "--rank"),
        pytest.param(["verify", "props", "--rank", "2", "--max-weight", "-3"],
                     "--max-weight: invalid choice: -3", id="props-weight-negative"),
        pytest.param(["verify", "props", "--rank", "2", "--max-weight", "17"],
                     "--max-weight: invalid choice: 17", id="props-weight-too-large"),
        pytest.param(["verify", "props", "--rank", "-2"],
                     "--rank: invalid choice: -2", id="props-rank-negative"),
        pytest.param(["verify", "props", "--rank", "9"],
                     "--rank: invalid choice: 9", id="props-rank-too-large"),
        pytest.param(["verify", "props", "--rank", "5", "--max-weight", "10"],
                     "--max-weight 10 exceeds the cap 9", id="props-weight-above-rank-cap"),
        pytest.param(["kostka", "--shape", "2,x", "--content", "1"],
                     "--shape: invalid literal for int()", id="shape-not-integer"),
        pytest.param(["schur", "--shape", "3,4", "--rank", "3"],
                     "--shape: parts must weakly decrease", id="shape-increasing"),
        pytest.param(["kostka", "--shape", "2", "--content=-1,4"],
                     "--content: composition entries must be nonnegative",
                     id="content-negative"),
        pytest.param(["kostka", "--shape", "2", "--content", "7^-1"],
                     "--content: repeat count must be nonnegative",
                     id="content-negative-repeat"),
        pytest.param(["kostka", "--shape", "2", "--content", "7^100001"],
                     "--content: repeat count 100001 exceeds the cap 100000",
                     id="content-repeat-above-cap"),
        pytest.param(["jones", "--rank", "1", "--components", "2", "--p", "2",
                      "--colour", "1"],
                     "--rank: must be at least 2, got 1", id="jones-rank-below-two"),
        pytest.param(["jones", "--rank", "2", "--components", "0", "--p", "2",
                      "--colour", "1"],
                     "--components: must be at least 1, got 0", id="jones-no-components"),
        pytest.param(["jones", "--rank", "2", "--components", "2", "--p", "0",
                      "--colour", "1"],
                     "--p: must be at least 1, got 0", id="jones-p-not-positive"),
        pytest.param(["jones", "--rank", "2", "--components", "2", "--p", "2",
                      "--colour", "-1"],
                     "--colour: must be at least 0, got -1", id="jones-colour-negative"),
        pytest.param(["schur", "--shape", "3,1", "--rank", "1"],
                     "--shape has 2 rows, more than --rank 1", id="schur-shape-above-rank"),
        pytest.param(["char", "--kind", "singlet", "--rank", "1", "--p", "2"],
                     "--rank: must be at least 2, got 1", id="char-rank-below-two"),
        pytest.param(["char", "--kind", "singlet", "--rank", "2", "--p", "1"],
                     "--p: the character family is defined for p >= 2, got 1",
                     id="char-p-below-two"),
        pytest.param(["verify", "singlet", "--rank", "1", "--components", "2", "--p", "2",
                      "--colour", "3"],
                     "--rank: must be at least 2, got 1", id="singlet-rank-below-two"),
        pytest.param(["verify", "singlet", "--rank", "2", "--components", "1", "--p", "2",
                      "--colour", "3"],
                     "--components: must be at least 2, got 1",
                     id="singlet-components-below-two"),
        pytest.param(["verify", "singlet", "--rank", "2", "--components", "2", "--p", "0",
                      "--colour", "3"],
                     "--p: the character family is defined for p >= 2, got 0",
                     id="singlet-p-below-two"),
        pytest.param(["verify", "singlet", "--rank", "2", "--components", "2", "--p", "2",
                      "--colour", "-1"],
                     "--colour: must be at least 0, got -1", id="singlet-colour-negative"),
        pytest.param(["verify", "triplet", "--rank", "1", "--p", "2", "--colour", "2"],
                     "--rank: must be at least 2, got 1", id="triplet-rank-below-two"),
        pytest.param(["verify", "triplet", "--rank", "2", "--p", "1", "--colour", "2"],
                     "--p: the character family is defined for p >= 2, got 1",
                     id="triplet-p-below-two"),
        pytest.param(["verify", "triplet", "--rank", "2", "--p", "2", "--colour", "-2",
                      "--coset", "0"],
                     "--colour: must be at least 0, got -2", id="triplet-colour-negative"),
    ],
)
def test_bad_flag_diagnostic_names_the_flag(argv, flag, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert flag in err and "partition" not in err


JONES = ["jones", "--rank", "3", "--p", "2", "--colour", "2"]


@pytest.mark.parametrize(
    "argv,parts",
    [
        pytest.param(["verify", "singlet", "--rank", "3", "--components", "5", "--p", "2",
                      "--colour", "3"],
                     ["--components", "--rank 3", "got 5"], id="singlet-components-above-rank"),
        pytest.param(["verify", "triplet", "--rank", "3", "--p", "2", "--colour", "3",
                      "--coset", "4"],
                     ["--coset", "0..2", "got 4"], id="triplet-coset-out-of-range"),
        pytest.param(["verify", "triplet", "--rank", "3", "--p", "2", "--colour", "3",
                      "--coset", "-1"],
                     ["--coset", "0..2", "got -1"], id="triplet-coset-negative"),
        pytest.param(["verify", "triplet", "--rank", "4", "--p", "2", "--colour", "3",
                      "--coset", "1"],
                     ["--colour 3", "congruent", "--coset 1", "--rank 4"],
                     id="triplet-colour-off-coset"),
        pytest.param(["char", "--kind", "singlet", "--rank", "3", "--p", "2", "--coset", "1"],
                     ["--coset", "lives on coset 0", "got 1"], id="char-singlet-coset"),
        pytest.param(["char", "--kind", "triplet", "--rank", "3", "--p", "2", "--coset", "3"],
                     ["--coset", "0..2", "got 3"], id="char-coset-out-of-range"),
        pytest.param(JONES + ["--components", "5", "--shift", "singlet"],
                     ["--shift singlet", "--components", "got 5"],
                     id="jones-singlet-components-above-rank"),
        pytest.param(JONES + ["--components", "1", "--shift", "singlet"],
                     ["--shift singlet", "--components", "got 1"],
                     id="jones-singlet-one-component"),
        pytest.param(JONES + ["--components", "3", "--shift", "triplet"],
                     ["--shift triplet", "--components", "= 4", "got 3"],
                     id="jones-triplet-components"),
    ],
)
def test_flag_mix_diagnostic_names_the_flags(argv, parts, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert all(part in err for part in parts), err

PROPS = ["verify", "props", "--rank", "2", "--max-weight", "4"]
SINGLET = ["verify", "singlet", "--rank", "2", "--components", "2", "--p", "2",
           "--colour", "4"]
TRIPLET = ["verify", "triplet", "--rank", "2", "--p", "2", "--colour", "4"]


@pytest.mark.parametrize(
    "argv,flags",
    [
        (PROPS + ["--colour", "5", "--p", "9", "--order", "-3"],
         ["--p", "--colour", "--order"]),
        (PROPS + ["--components", "2"], ["--components"]),
        (PROPS + ["--p", "2"], ["--p"]),
        (PROPS + ["--coset", "1"], ["--coset"]),
        (PROPS + ["--colour", "5"], ["--colour"]),
        (PROPS + ["--order", "7"], ["--order"]),
        (SINGLET + ["--max-weight", "99"], ["--max-weight"]),
        (TRIPLET + ["--max-weight", "99"], ["--max-weight"]),
        (["char", "--kind", "singlet", "--rank", "2", "--p", "2", "--jobs", "-4"],
         ["--jobs"]),
        (PROPS + ["--jobs", "0"], ["--jobs"]),
    ],
)
def test_ignored_flag_is_rejected(argv, flags, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert all(flag in err for flag in flags)


def readme_commands():
    """The argv of every ``qtorus ...`` line in the README's command block."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.split()[1:] for line in block.splitlines()
                if line.startswith("qtorus ")]
    assert commands, "the README's command-line block has no qtorus examples"
    return commands


@pytest.mark.parametrize("argv", readme_commands())
def test_readme_examples_run(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and out and err == ""


def test_props_keeps_the_order_environment_global(capsys, monkeypatch):
    monkeypatch.setenv("QTORUS_ORDER", "7")
    code, out, _ = run_cli(PROPS, capsys)
    assert code == 0 and out.startswith("PASS props-zero-weight")


def test_props_weight_cap_is_checked_before_any_expansion(capsys, monkeypatch):
    def expand(*args):
        raise AssertionError("expanded a shape above the cap")

    monkeypatch.setattr(cli, "scan_propositions", expand)
    code, out, err = run_cli(["verify", "props", "--rank", "4", "--max-weight", "16"], capsys)
    assert code == 2 and out == "" and "--max-weight 16 exceeds the cap 11" in err


@pytest.mark.parametrize("rank,weight", [(2, 10), (3, 10), (4, 10), (5, 9)])
def test_props_default_weight_is_ten_or_the_rank_cap(rank, weight, capsys):
    code, out, _ = run_cli(["verify", "props", "--rank", str(rank), "--json"], capsys)
    assert code == 0 and {s["max_weight"] for s in json.loads(out)} == {weight}


@pytest.mark.parametrize("coset,grain", [(1, 6), (2, 1)])
def test_empty_character_declares_the_grain_of_its_lowest_weight(coset, grain, capsys):
    # no term lies below order 1 on either coset; the grain is declared when
    # the linear bound at the coset's lowest weight is below the order
    argv = ["char", "--kind", "triplet", "--rank", "3", "--p", "2", "--coset",
            str(coset), "--order", "1", "--json"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and json.loads(out) == {
        "grain": grain, "cutoff": {"num": 1, "den": 1}, "terms": []
    }


def test_output_file(tmp_path, capsys):
    target = tmp_path / "series.txt"
    code, out, _ = run_cli(
        ["schur", "--shape", "1", "--rank", "2", "--output", str(target)], capsys
    )
    assert code == 0 and out == ""
    assert target.read_text() == "q^(-1/2) + q^(1/2)\n"


def test_an_empty_output_path_is_a_usage_error(capsys):
    argv = ["kostka", "--shape", "2,1", "--content", "1,1,1", "--output", ""]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: --output: ") and "Traceback" not in err


def test_output_to_an_unwritable_path_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    argv = ["kostka", "--shape", "1", "--content", "1", "--output", str(target)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: --output: ") and "Traceback" not in err
    assert not target.exists()


SCAN = ["verify", "scan", "--rank", "2", "--components", "2", "--p", "2", "--max-colour", "12",
        "--order", "16"]
TABLE = ["char-table", "--max-rank", "3", "--max-p", "3", "--order", "16"]


@pytest.mark.parametrize("argv,message", [
    pytest.param(SCAN[:2] + ["--rank", "3", "--components", "5"] + SCAN[6:],
                 "error: verify scan needs --components = --rank + 1 = 4, got 5\n",
                 id="scan-components-above-rank-plus-one"),
    pytest.param(SCAN[:6] + ["--p", "1"] + SCAN[8:],
                 "error: argument --p: the character family is defined for p >= 2, got 1\n",
                 id="scan-p-below-two"),
    pytest.param(TABLE[:-1] + ["0"], "error: --order must be positive, got 0\n",
                 id="table-order-zero"),
    pytest.param(SCAN[:8] + ["--max-colour", "-1"] + SCAN[10:],
                 "error: argument --max-colour: must be at least 0, got -1\n",
                 id="scan-max-colour-negative"),
    pytest.param(["char-table", "--max-rank", "1"] + TABLE[3:],
                 "error: argument --max-rank: must be at least 2, got 1\n",
                 id="table-max-rank-below-two"),
    pytest.param(TABLE[:3] + ["--max-p", "1"] + TABLE[5:],
                 "error: argument --max-p: must be at least 2, got 1\n",
                 id="table-max-p-below-two"),
])
def test_a_bad_scan_or_table_line_exits_two(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == "" and err.endswith(message)
    assert err == message or err.startswith("usage: qtorus ")


@pytest.mark.parametrize("components,mode", [("2", "singlet"), ("3", "triplet")])
def test_the_scan_json_lists_each_colours_verify_report(components, mode, capsys):
    scan = ["verify", "scan", "--rank", "2", "--components", components, "--p", "2",
            "--max-colour", "3", "--order", "12", "--json"]
    code, out, _ = run_cli(scan, capsys)
    rows = []
    for colour in range(4):
        flags = ["--components", components] if mode == "singlet" else ["--coset", str(colour % 2)]
        argv = ["verify", mode, "--rank", "2", "--p", "2", "--colour", str(colour), "--order",
                "12", "--json", *flags]
        rows += json.loads(run_cli(argv, capsys)[1])
    assert code == 0 and json.loads(out) == rows


def test_a_failing_colour_makes_the_scan_exit_one(capsys, monkeypatch):
    def fail_colour_two(*args):
        report = verify_singlet_theorem(*args)
        report.passed = args[3] != 2
        return report

    monkeypatch.setattr(cli, "verify_singlet_theorem", fail_colour_two)
    code, out, _ = run_cli(SCAN[:8] + ["--max-colour", "3"] + SCAN[10:], capsys)
    assert code == 1
    assert [row.split()[-1] for row in out.splitlines()[2:]] == ["pass", "pass", "FAIL", "pass"]


def test_the_table_json_holds_each_char_json_series(capsys):
    code, out, _ = run_cli(["char-table", "--max-rank", "3", "--max-p", "2", "--order", "9",
                            "--json"], capsys)
    expected = []
    for kind, rank, coset in [("singlet", 2, 0), ("triplet", 2, 0), ("triplet", 2, 1),
                              ("singlet", 3, 0), ("triplet", 3, 0), ("triplet", 3, 1),
                              ("triplet", 3, 2)]:
        argv = ["char", "--kind", kind, "--rank", str(rank), "--p", "2", "--coset", str(coset),
                "--order", "9", "--json"]
        series = json.loads(run_cli(argv, capsys)[1])
        expected.append({"kind": kind, "rank": rank, "p": 2, "coset": coset, "series": series})
    assert code == 0 and json.loads(out) == expected


def test_a_closed_stdout_exits_one_without_a_traceback():
    # one line of about 0.9 MB: far more than a pipe buffer holds
    argv = ["jones", "--rank", "2", "--components", "2", "--p", "3", "--colour", "300",
            "--shift", "singlet"]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    with subprocess.Popen([sys.executable, "-m", "qtorus.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as reader:
        assert reader.stdout.read(7) == b"1 + q^5"
        reader.stdout.close()
        err = reader.stderr.read().decode()
        assert reader.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


# -- golden regressions ------------------------------------------------------------


GOLDEN_CASES = [
    (
        ["jones", "--rank", "2", "--components", "2", "--p", "2", "--colour", "1"],
        "jones_r2_c2_p2_n1.txt",
    ),
    (
        ["char", "--kind", "singlet", "--rank", "2", "--p", "2", "--order", "12"],
        "char_singlet_r2_p2_o12.txt",
    ),
    (
        [
            "verify", "singlet", "--rank", "2", "--components", "2",
            "--p", "2", "--colour", "40", "--order", "30", "--json",
        ],
        "verify_singlet_r2_c2_p2_n40_o30.json",
    ),
    (
        [
            "verify", "triplet", "--rank", "2", "--p", "2",
            "--coset", "1", "--colour", "21", "--order", "15", "--json",
        ],
        "verify_triplet_r2_p2_i1_n21_o15.json",
    ),
    (
        ["verify", "props", "--rank", "2", "--max-weight", "8"],
        "props_r2_w8.txt",
    ),
    (
        ["schur", "--shape", "2,1", "--rank", "3", "--json"],
        "schur_r3_21.json",
    ),
    (
        [
            "jones", "--rank", "3", "--components", "4", "--p", "3",
            "--colour", "6", "--shift", "triplet", "--json",
        ],
        "jones_r3_c4_p3_n6_triplet.json",
    ),
    (
        [
            "jones", "--rank", "4", "--components", "4", "--p", "2",
            "--colour", "4", "--shift", "singlet",
        ],
        "jones_r4_c4_p2_n4_singlet.txt",
    ),
    (
        [
            "jones", "--rank", "2", "--components", "3", "--p", "3",
            "--colour", "3", "--shift", "triplet",
        ],
        "jones_r2_c3_p3_n3_triplet.txt",
    ),
    (
        ["jones", "--rank", "3", "--components", "3", "--p", "3", "--colour", "2"],
        "jones_r3_c3_p3_n2.txt",
    ),
    (
        [
            "char", "--kind", "triplet", "--rank", "3", "--p", "2",
            "--coset", "1", "--order", "7", "--json",
        ],
        "char_triplet_r3_p2_i1_o7.json",
    ),
    (
        [
            "verify", "scan", "--rank", "3", "--components", "4", "--p", "2",
            "--max-colour", "12", "--order", "20",
        ],
        "scan_triplet_r3_c4_p2_m12_o20.txt",
    ),
    (
        [
            "verify", "scan", "--rank", "2", "--components", "2", "--p", "2",
            "--max-colour", "12", "--order", "16",
        ],
        "scan_singlet_r2_c2_p2_m12_o16.txt",
    ),
    (
        ["char-table", "--max-rank", "3", "--max-p", "3", "--order", "16"],
        "char_table_r3_p3_o16.txt",
    ),
]


@pytest.mark.parametrize("argv,golden", GOLDEN_CASES)
def test_golden_outputs(argv, golden, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


# -- the request entry that main shares: run on the parsed namespace -----------------


def _leaf_parsers(parser):
    commands = getattr(parser, "_commands", None)  # None on a leaf parser
    if commands is None:
        return [parser]
    return [leaf for sub in commands.choices.values() for leaf in _leaf_parsers(sub)]


def test_every_leaf_parser_sets_its_own_handler():
    handlers = {leaf.prog: leaf.get_default("handler")
                for leaf in _leaf_parsers(cli.build_parser())}
    assert sorted(handlers) == [
        "qtorus char", "qtorus char-table", "qtorus jones", "qtorus kostka", "qtorus schur",
        "qtorus selftest", "qtorus verify props", "qtorus verify scan", "qtorus verify singlet",
        "qtorus verify triplet"]
    assert all(callable(handler) for handler in handlers.values())
    assert len(set(handlers.values())) == len(handlers)


@pytest.mark.parametrize("source", ["golden-and-readme", "verify_scan", "char_order",
                                    "jones_full"])
def test_run_returns_the_status_and_text_that_main_prints(source, capsys):
    if source == "golden-and-readme":
        lines = [argv for argv, _ in GOLDEN_CASES] + readme_commands()
    else:
        lines = _workload_lines()[source]
    parser = cli.build_parser()
    for argv in lines:
        code, text = cli.run(cli.config_from_args(parser.parse_args(argv)))
        assert run_cli(argv, capsys) == (code, text + "\n", ""), argv


# -- two faults on one line: the cross-flag check comes before the order -------------

CROSS_FLAG_FAULTS = [
    (["char", "--kind", "singlet", "--rank", "3", "--p", "2", "--coset", "1"],
     "--coset: the singlet character lives on coset 0, got 1"),
    (["char", "--kind", "triplet", "--rank", "3", "--p", "2", "--coset", "3"],
     "--coset must be in 0..2 at --rank 3, got 3"),
    (["verify", "singlet", "--rank", "3", "--components", "5", "--p", "2", "--colour", "3"],
     "verify singlet needs 2 <= --components <= --rank 3, got 5"),
    (["verify", "triplet", "--rank", "4", "--p", "2", "--colour", "3", "--coset", "1"],
     "--colour 3 is not congruent to --coset 1 modulo --rank 4"),
    (["verify", "triplet", "--rank", "3", "--p", "2", "--colour", "3", "--coset", "4"],
     "--coset must be in 0..2 at --rank 3, got 4"),
    (["verify", "scan", "--rank", "3", "--components", "5", "--p", "2", "--max-colour", "3"],
     "verify scan needs --components = --rank + 1 = 4, got 5"),
]


@pytest.mark.parametrize("argv,message", CROSS_FLAG_FAULTS)
@pytest.mark.parametrize("order,env", [
    pytest.param(["--order", "0"], None, id="order-zero"),
    pytest.param(["--order", "-3"], "7", id="order-negative"),
    pytest.param([], "0", id="env-zero"),
    pytest.param([], "abc", id="env-not-an-integer"),
])
def test_a_flag_mix_is_named_before_a_bad_order(argv, message, order, env, capsys,
                                                monkeypatch):
    if env is None:
        monkeypatch.delenv("QTORUS_ORDER", raising=False)
    else:
        monkeypatch.setenv("QTORUS_ORDER", env)
    assert run_cli(argv + order, capsys) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv,message", CROSS_FLAG_FAULTS)
def test_an_order_that_is_no_integer_is_named_before_a_flag_mix(argv, message, capsys):
    code, out, err = run_cli(argv + ["--order", "x"], capsys)
    assert code == 2 and out == "" and message not in err
    assert err.endswith("error: argument --order: invalid int value: 'x'\n")


# -- the leaf dispatch and walk against argparse's own path ---------------------------


def _workload_lines(count=50, seed=1):
    """The argv of ``count`` rounds at ``seed`` of every benchmark workload."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", Path(__file__).parent.parent / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return {name: [argv for batch in workloads.rounds(name, seed, count) for argv in batch]
            for name in workloads.WORKLOADS}


SINGLET = ["verify", "singlet", "--rank", "3", "--components", "3", "--p", "2", "--colour", "4"]
MALFORMED_LINES = [
    [], ["-h"], ["--help"], ["-h", "verify"], ["verify"], ["verify", "-h"],
    ["verify", "singlet", "-h"], ["verify", "singlet", "--help"], SINGLET + ["--he"],
    ["bogus"], ["verify", "bogus"], ["verify", "--json", "singlet"], ["--json", "char"],
    ["kostka"], ["selftest", "--json", "--json"], ["verify", "singlet", "--rank", "2"],
    ["char", "--kind", "singlet", "--rank", "2", "--p", "2", "--ord", "5"],
    ["char", "--kind", "singlet", "--rank", "2", "--p", "2", "--order", "5", "-h"],
    ["char", "--kind", "quartet", "--rank", "2", "--p", "2"],
    ["verify", "singlet", "--rank=3", "--components=3", "--p=2", "--colour=4"],
    ["--"], ["--", "selftest"], ["verify", "--", "singlet"], ["verify", "singlet", "--"],
    SINGLET + ["--", "--json"], ["schur", "--shape", "2,1", "--rank", "3", "--", "x"],
    SINGLET + ["junk"], SINGLET + ["--json", "junk", "--more"], ["selftest", "junk"],
    ["jones", "--rank", "x", "--components", "2", "--p", "2", "--colour", "1"],
    ["verify", "triplet", "--rank", "2", "--p", "1", "--colour", "2"],
    ["verify", "props", "--rank", "9"], ["verify", "props", "--max-weight", "17"],
    ["kostka", "--shape", "2,1", "--content", "1,1,1", "--shape", "3"],
    ["kostka", "--shape", "1", "--content", "0^100001"],
    ["verify", "singlet", "verify", "singlet"], ["char", "kostka"], ["Verify"],
    ["verify", "scan", "-h"], ["char-table", "--help"], ["char-table", "--max-rank", "3"],
    SCAN[:8] + ["--max-colour", "-1"] + SCAN[10:], SCAN[:4] + ["--components", "1"] + SCAN[6:],
    ["char-table", "--max-rank", "3", "--max-p", "1"], TABLE + ["--order", "x"],
    SCAN + ["--colour", "4"], ["char-table", "--max-rank=3", "--max-p=3"], ["char_table"],
]

CHAR = ["char", "--kind", "triplet", "--rank", "3", "--p", "2"]
KOSTKA = ["kostka", "--shape", "2,1", "--content", "1,1,1"]
# One line for each branch of the leaf walk that the sets above leave out.
WALK_BRANCH_LINES = [
    SINGLET[:2] + ["--rank", "2"] + SINGLET[2:], SINGLET + ["--json", "--json"],
    KOSTKA + ["--output", "series.txt"], KOSTKA + ["--output", ""],
    KOSTKA + ["--output", "--json"], CHAR + ["--order"], SINGLET + ["--order", "-3"],
    CHAR + ["--coset", "-1"], SINGLET[:-2] + ["--col", "4"], SINGLET + ["--coset", "0"],
    ["verify", "singlet", "--colour", "4", "--json", "--p", "2", "--components", "3",
     "--order", "5", "--rank", "3"],
    ["jones", "--rank", "2", "--components", "2", "--p", "3", "--colour", "2"],
    SCAN, SCAN[:-2] + ["--json"], SCAN + ["--order", "0"], TABLE, TABLE + ["--json", "--json"],
    ["char-table", "--order", "5", "--max-p", "2", "--max-rank", "2", "--output", "t.txt"],
    ["char-table", "--max-rank", "2", "--max-p", "2", "--order"],
]


def _outcome(parser, argv, capsys):
    """The namespace's items in order with their types, or the exit status; then
    stdout and stderr."""
    try:
        result = [(key, type(value), value)
                  for key, value in vars(parser.parse_args(argv)).items()]
    except SystemExit as exit:
        result = exit.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


def _assert_dispatch_matches_argparse(lines, capsys, monkeypatch):
    parser = cli.build_parser()
    dispatched = [_outcome(parser, argv, capsys) for argv in lines]
    # the reference: every level parses the whole line again, as argparse does
    monkeypatch.setattr(cli._Parser, "parse_known_args",
                        argparse.ArgumentParser.parse_known_args)
    for argv, outcome in zip(lines, dispatched):
        assert outcome == _outcome(parser, argv, capsys), argv


@pytest.mark.parametrize("workload", ["verify_scan", "char_order", "jones_full"])
def test_leaf_dispatch_matches_argparse_on_workload_lines(workload, capsys, monkeypatch):
    lines = _workload_lines()[workload]
    assert len(lines) >= 700
    _assert_dispatch_matches_argparse(lines, capsys, monkeypatch)


def test_leaf_dispatch_matches_argparse_on_golden_and_readme_lines(capsys, monkeypatch):
    lines = [argv for argv, _ in GOLDEN_CASES] + readme_commands()
    _assert_dispatch_matches_argparse(lines, capsys, monkeypatch)


@pytest.mark.parametrize("argv", MALFORMED_LINES, ids=" ".join)
def test_leaf_dispatch_matches_argparse_on_malformed_lines(argv, capsys, monkeypatch):
    _assert_dispatch_matches_argparse([argv], capsys, monkeypatch)


@pytest.mark.parametrize("argv", WALK_BRANCH_LINES, ids=" ".join)
def test_leaf_dispatch_matches_argparse_on_every_walk_branch(argv, capsys, monkeypatch):
    _assert_dispatch_matches_argparse([argv], capsys, monkeypatch)


def test_leaf_dispatch_reads_sys_argv_when_given_none(capsys, monkeypatch):
    parser = cli.build_parser()
    monkeypatch.setattr(sys, "argv", ["qtorus"] + SINGLET)
    assert vars(parser.parse_args()) == vars(parser.parse_args(SINGLET))
    monkeypatch.setattr(sys, "argv", ["qtorus", "bogus"])
    assert _outcome(parser, None, capsys) == _outcome(parser, ["bogus"], capsys)


def _spy_argparse_passes(monkeypatch):
    """The prog of every parser that runs argparse's own pass, in order."""
    core, passes = argparse.ArgumentParser._parse_known_args, []

    def spy(self, *args, **kwargs):
        passes.append(self.prog)
        return core(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "_parse_known_args", spy)
    return passes


def test_a_well_formed_verify_line_runs_no_argparse_pass(monkeypatch):
    passes = _spy_argparse_passes(monkeypatch)
    cli.build_parser().parse_args(SINGLET)
    cli.build_parser().parse_args(SCAN)
    assert passes == []
    # the walk leaves a "--flag=value" line to argparse's pass at the leaf
    cli.build_parser().parse_args(SINGLET[:2] + ["--rank=3"] + SINGLET[4:])
    assert passes == ["qtorus verify singlet"]
    # argparse's own path runs one pass per level
    passes.clear()
    monkeypatch.setattr(cli._Parser, "parse_known_args",
                        argparse.ArgumentParser.parse_known_args)
    cli.build_parser().parse_args(SINGLET)
    assert passes == ["qtorus", "qtorus verify", "qtorus verify singlet"]


def test_the_walk_leaves_mutex_groups_argument_files_and_deprecated_flags_to_argparse(
        tmp_path, monkeypatch):
    (tmp_path / "args").write_text("x\n")
    mutex = cli._Parser(prog="mutex")
    mutex.add_mutually_exclusive_group().add_argument("--name")
    files = cli._Parser(prog="files", fromfile_prefix_chars="@")
    files.add_argument("--name")
    deprecated = cli._Parser(prog="deprecated")
    deprecated.add_argument("--name").deprecated = True
    passes = _spy_argparse_passes(monkeypatch)
    assert mutex.parse_args(["--name", "x"]).name == "x"
    assert files.parse_args(["--name", f"@{tmp_path / 'args'}"]).name == "x"
    assert deprecated.parse_args(["--name", "x"]).name == "x"
    assert passes == ["mutex", "files", "deprecated"]


@pytest.mark.parametrize("seed", [1, 2])
def test_the_walk_reads_every_workload_line(seed, monkeypatch):
    lines = [argv for batch in _workload_lines(400, seed).values() for argv in batch]
    assert len(lines) == 22_800
    passes = _spy_argparse_passes(monkeypatch)
    parser = cli.build_parser()
    for argv in lines:
        parser.parse_args(argv)
    assert passes == []


# -- one series representation on every command path ---------------------------------

# The Fraction-keyed series arithmetic and the reference forms built on it; the
# tracer and the tests read them from their modules, and no command reaches them.
DICT_LAYER_METHODS = ["__init__", "zero", "one", "monomial", "truncate", "__add__", "__radd__",
                      "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__pow__"]
DICT_LAYER_FUNCTIONS = [
    (qseries, ["invert_unit", "exact_div", "euler_product"]),
    (link_invariants, ["jones_summands"]),
    (lie_sl, ["dominant_weights", "scaled_coeff_sum", "casimir_pairing"]),
    (schur_spec, ["principal_spec_weight"]),
]


def test_no_command_reaches_the_dict_series_layer(capsys, monkeypatch, replace_everywhere):
    lines = [argv for argv, _ in GOLDEN_CASES] + readme_commands() + [
        ["selftest"], ["selftest", "--json"]] + [
        ["verify", "props", "--rank", str(rank), "--max-weight", "6"] for rank in range(2, 6)]
    lines += [argv for batch in _workload_lines(1).values() for argv in batch]
    reached = []

    def refuse(name):
        def refused(*args, **kwargs):
            reached.append(name)
            raise AssertionError(f"{name} was reached")
        return refused

    with monkeypatch.context() as patched:
        for method in DICT_LAYER_METHODS:
            patched.setattr(QSeries, method, refuse(f"QSeries.{method}"))
        for module, names in DICT_LAYER_FUNCTIONS:
            for name in names:
                replace_everywhere(getattr(module, name), refuse(name))
        qseries.clear_memos()
        guarded = [run_cli(argv, capsys) for argv in lines]
    assert reached == []
    assert not hasattr(link_invariants, "summand_floor")
    assert not {name for _, names in DICT_LAYER_FUNCTIONS for name in names} & set(vars(qtorus))
    qseries.clear_memos()
    for argv, outcome in zip(lines, guarded):
        assert outcome == run_cli(argv, capsys), argv


# -- one registry for the kept memos --------------------------------------------------

# 400 seed-1 rounds from cold: (builds, reads, keys) of each kept memo, and the entries
# of the Kostka table and specialization caches, whose size comments quote them
REGISTRY_TRAFFIC = {
    "verify_scan": ({"cut_sums": (381, 6000, 217), "cone_sums": (37, 6000, 18),
                     "windows": (23, 418, 12), "texts": (0, 0, 0)}, 240, 67),
    "char_order": ({"cut_sums": (0, 0, 0), "cone_sums": (86, 9600, 24),
                    "windows": (61, 86, 18), "texts": (86, 9600, 24)}, 33, 105),
}


@pytest.mark.parametrize("workload", REGISTRY_TRAFFIC)
def test_the_registry_counts_the_workload_traffic(workload):
    parser, (kept, tables, specs) = cli.build_parser(), REGISTRY_TRAFFIC[workload]
    qseries.clear_memos()
    for argv in _workload_lines(400)[workload]:
        cli.run(parser.parse_args(argv))
    assert {name: (qseries._counts[name, "builds"], qseries._counts[name, "reads"],
                   len(qseries._memos[name])) for name in kept} == kept
    assert combinatorics._kostka_table.cache_info().currsize == tables
    assert schur_spec._spec_of_gaps.cache_info().currsize == specs


def _scheduled(requests, schedule):
    """The (family, order) requests with each family's orders ascending, descending or
    shuffled, in the places that family held in the stream."""
    places, out, rng = {}, list(requests), random.Random(35)
    for i, (family, _) in enumerate(requests):
        places.setdefault(family, []).append(i)
    for family, where in places.items():
        orders = sorted(requests[i][1] for i in where)
        if schedule == "descending":
            orders.reverse()
        elif schedule == "shuffled":
            rng.shuffle(orders)
        for i, order in zip(where, orders):
            out[i] = family, order
    return out


def _fresh_text(series):
    """The text of a series built afresh from its terms, which no kept body serves."""
    return QSeries.from_grid(dict(series._grid), series.grain, series.cutoff).to_text()


@pytest.mark.parametrize("schedule", ["ascending", "descending", "shuffled"])
def test_char_order_texts_equal_fresh_renders(monkeypatch, schedule):
    # each kept grid's body is sliced at every order the family asks for, in any order
    parser, rendered = cli.build_parser(), []
    render = cli._render_series
    monkeypatch.setattr(cli, "_render_series",
                        lambda series, args: rendered.append(series) or render(series, args))
    requests = [(tuple(argv[:-1]), int(argv[-1])) for argv in _workload_lines(400)["char_order"]]
    assert all(argv[-1] == "--order" for argv, _ in requests)
    qseries.clear_memos()
    for argv, order in _scheduled(requests, schedule):
        code, text = cli.run(parser.parse_args([*argv, str(order)]))
        assert code == 0 and text == _fresh_text(rendered[-1]), (argv, order)
    # a body is rendered at most once per grid built, and read by every request
    counts = qseries._counts
    assert counts["texts", "builds"] <= counts["cone_sums", "builds"]
    assert len(rendered) == counts["texts", "reads"] == 9600


@pytest.mark.parametrize("schedule", ["ascending", "descending", "shuffled"])
def test_cut_invariant_texts_equal_fresh_renders(schedule):
    # the cut invariants verify_scan reads, each rendered from its kept grid's body
    parser, requests = cli.build_parser(), []
    for argv in _workload_lines(400)["verify_scan"]:
        args = parser.parse_args(argv)
        components = args.rank + 1 if args.mode == "triplet" else args.components
        requests.append(((args.mode, args.rank, components, args.p, args.colour), args.order))
    qseries.clear_memos()
    for (mode, *spec), order in _scheduled(requests, schedule):
        shifted = shifted_invariant_triplet if mode == "triplet" else shifted_invariant_singlet
        series = shifted(TorusLinkSpec(*spec), order)
        assert series.to_text() == _fresh_text(series), (mode, spec, order)
    assert qseries._counts["texts", "reads"] == len(requests) == 6000


def test_every_memo_is_registered_and_cleared(capsys):
    caches = {id(value) for name, module in sys.modules.items() if name.startswith("qtorus")
              for value in vars(module).values() if hasattr(value, "cache_clear")}
    assert caches and caches <= set(map(id, qseries._memos.values()))
    for argv in (SINGLET, ["char", "--kind", "triplet", "--rank", "3", "--p", "2"],
                 ["verify", "props", "--rank", "2", "--max-weight", "4"]):
        assert run_cli(argv, capsys)[0] == 0

    def sizes():
        return [memo.cache_info().currsize if hasattr(memo, "cache_info") else len(memo)
                for memo in qseries._memos.values()] + list(qseries._counts.values())

    assert all(sizes())
    qseries.clear_memos()
    assert not any(sizes())
