"""Smoke test for the scripts in ``demos/``: each runs cleanly and prints
the same output every time."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = [
    ROOT / "demos" / name
    for name in (
        "author_rankings.py",
        "journal_screening.py",
        "synthetic_pipeline.py",
        "weight_family.py",
    )
]


def run_demo(path: Path) -> str:
    src = str(ROOT / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(path)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_and_is_deterministic(path):
    first = run_demo(path)
    assert first.strip()
    assert run_demo(path) == first


def test_synthetic_demo_fills_h_star():
    out = run_demo(DEMOS[2])
    rows = [line.strip("|").split("|") for line in out.splitlines() if line.startswith("|")]
    header = [cell.strip() for cell in rows[0]]
    h, h_star = header.index("h"), header.index("h_star")
    body = [[cell.strip() for cell in row] for row in rows[2:]]
    assert len(body) == 12  # one row per author in the demo's pool
    for row in body:
        assert row[h_star].isdigit(), row
        assert int(row[h_star]) <= int(row[h])
