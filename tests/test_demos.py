"""Every demo script runs to completion and prints exactly its pinned output
(`fixtures/demos/<name>.stdout`)."""

import pathlib
import subprocess
import sys

import pytest

from conftest import src_env

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINNED = pathlib.Path(__file__).parent / "fixtures" / "demos"


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=src_env(), capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (PINNED / f"{demo.stem}.stdout").read_text()
