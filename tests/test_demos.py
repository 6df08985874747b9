"""Every script in demos/ runs to completion as a standalone program."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
        cwd=ROOT,
    )


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(path):
    result = run_demo(path)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stdout + result.stderr
    assert result.stdout.strip()


def test_degree_sixteen_demo_reports_the_census():
    result = run_demo(ROOT / "demos" / "degree_sixteen_census.py")
    assert result.returncode == 0, result.stderr
    assert "1602 branches" in result.stdout
    assert "447 fine polygons" in result.stdout
