"""The experiment scripts as a shell runs them: a flag the library rejects, or
a loop bound that leaves no row, exits 2 with usage and the reason before
anything is printed, not with a traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


@pytest.mark.parametrize("script,argv,reason", [
    ("agreement_scan.py", ["--rank", "3", "--components", "5"],
     "need 2 <= components <= rank, got components=5 rank=3"),
    ("agreement_scan.py", ["--p", "1"], "the character family is defined for p >= 2"),
    ("character_table.py", ["--order", "0"], "cutoff must be positive"),
    ("agreement_scan.py", ["--max-colour", "-1"], "--max-colour must be at least 0, got -1"),
    ("character_table.py", ["--max-rank", "1"], "--max-rank must be at least 2, got 1"),
    ("character_table.py", ["--max-p", "1"], "--max-p must be at least 2, got 1"),
])
def test_a_rejected_flag_exits_two_with_usage(script, argv, reason):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("usage:") and f"error: {reason}\n" in done.stderr
    assert "Traceback" not in done.stderr
