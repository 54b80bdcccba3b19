"""The supported Python versions are stated once, as ``requires-python`` in
``pyproject.toml``. The CI matrices in ``.github/workflows/tier1.yml``
follow it: the ``tests`` job runs every minor version from that floor to
its newest entry, and the ``console-script`` job runs the two ends."""

from __future__ import annotations

import re
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _floor() -> int:
    with open(ROOT / "pyproject.toml", "rb") as handle:
        spec = tomllib.load(handle)["project"]["requires-python"]
    found = re.fullmatch(r">=3\.(\d+)", spec)
    assert found, spec
    return int(found[1])


def _matrix_minors(workflow: str, job: str) -> list[int]:
    # A job is a key indented two spaces under `jobs:`; its body is the
    # blank lines and the lines indented further that follow it.
    body = re.search(rf"^  {re.escape(job)}:\n((?:(?:    .*)?\n)*)", workflow, re.MULTILINE)
    assert body, job
    (versions,) = re.findall(r"^ *python-version: \[(.*)\]$", body[1], re.MULTILINE)
    minors = []
    for item in versions.split(","):
        found = re.fullmatch(r'\s*"3\.(\d+)"\s*', item)
        assert found, (job, item)
        minors.append(int(found[1]))
    return minors


def test_ci_runs_the_pythons_that_requires_python_states():
    floor = _floor()
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    tests = _matrix_minors(workflow, "tests")
    newest = max(tests)
    assert tests == list(range(floor, newest + 1))
    assert _matrix_minors(workflow, "console-script") == [floor, newest]
