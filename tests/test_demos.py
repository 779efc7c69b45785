"""Smoke test: every demo script runs to completion as a child process."""
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import cli_env

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    # an empty glob would leave test_demo_runs with nothing to run
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(tmp_path, demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, cwd=tmp_path, env=cli_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
