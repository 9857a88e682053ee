"""Smoke test of the scripts: each runs to exit 0 at a tiny size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

TINY = ["--days", "40", "--ncust", "4", "--nfeeders", "2", "--epochs", "5",
        "--patience", "5", "--committee", "1", "--block", "0"]


@pytest.mark.parametrize(
    "script,args",
    [
        ("margin_survey.py", [*TINY, "--retries", "1", "--max-days", "2"]),
        ("diag_row.py", [*TINY, "--synth-seed", "1", "--pipe-seed", "1",
                         "--day", "2023-04-08"]),
        ("demo.py", ["--help"]),
    ],
)
def test_script_runs(script, args):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
