"""The supported Python versions are stated once, as ``requires-python`` in
``pyproject.toml``. The CI matrices in ``.github/workflows/tier1.yml``
follow it: the ``tests`` job runs every minor version from that floor to
its newest entry, and the ``console-script`` job runs the two ends. That
job runs the CLI contract cases of ``tests/cli_cases.py`` through the
installed ``vindex``, so they cannot drop out of CI unnoticed."""

from __future__ import annotations

import re
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def _floor() -> int:
    with open(ROOT / "pyproject.toml", "rb") as handle:
        spec = tomllib.load(handle)["project"]["requires-python"]
    found = re.fullmatch(r">=3\.(\d+)", spec)
    assert found, spec
    return int(found[1])


def _job(workflow: str, job: str) -> str:
    # A job is a key indented two spaces under `jobs:`; its body is the
    # blank lines and the lines indented further that follow it.
    body = re.search(rf"^  {re.escape(job)}:\n((?:(?:    .*)?\n)*)", workflow, re.MULTILINE)
    assert body, job
    return body[1]


def _matrix_minors(workflow: str, job: str) -> list[int]:
    (versions,) = re.findall(r"^ *python-version: \[(.*)\]$", _job(workflow, job), re.MULTILINE)
    minors = []
    for item in versions.split(","):
        found = re.fullmatch(r'\s*"3\.(\d+)"\s*', item)
        assert found, (job, item)
        minors.append(int(found[1]))
    return minors


def test_ci_runs_the_pythons_that_requires_python_states():
    floor = _floor()
    workflow = WORKFLOW.read_text(encoding="utf-8")
    tests = _matrix_minors(workflow, "tests")
    newest = max(tests)
    assert tests == list(range(floor, newest + 1))
    assert _matrix_minors(workflow, "console-script") == [floor, newest]


def test_ci_runs_the_cli_cases_through_the_installed_command():
    job = _job(WORKFLOW.read_text(encoding="utf-8"), "console-script")
    steps = re.findall(r"^ +run: (.*)$", job, re.MULTILINE)
    assert steps == ["python -m pip install -e .", "python tests/cli_cases.py"]
