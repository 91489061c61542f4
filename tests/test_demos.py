"""Each demo script runs to completion against the library in src/, and
demo 02's output matches its golden file."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


def run_demo(demo):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    run_demo(demo)


def test_datapath_demo_matches_golden_file():
    # the table, mux and shifter tour is the one demo reading the ladder
    expected = (ROOT / "tests" / "data" / "demo_02_datapath_blocks.txt").read_text()
    assert run_demo(ROOT / "demos" / "02_datapath_blocks.py") == expected
