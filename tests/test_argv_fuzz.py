"""Seeded fuzzing of the command line.

``fuzzing.argv_case`` draws argv lists from the four subcommands and their
options: usual values and near misses, ``--``, ``-``, the empty string,
``=`` forms, abbreviations, repeated and missing options, option-like
strings, and huge and negative numbers. Each case runs in a directory
holding a small corpus and an aggregate CSV, and these hold:

* ``cli.main`` never raises and returns 0, 1 or 2;
* ``--help`` returns 0 and writes nothing to stderr, and an argparse usage
  error returns 2, writes nothing to stdout and ends in its ``error:``
  line;
* any other run writes to stderr, besides ``warning:`` lines, no
  ``error:`` line when it succeeds and exactly one, its last line, when it
  fails. ``validate`` refusing an input it could read writes no ``error:``
  line to stderr: it lists the errors in its report on stdout.

Tier-1 runs a fixed range of seeds; ``VINDEX_FUZZ_SEEDS=START:STOP`` runs
another range.
"""

from __future__ import annotations

import os
import random
import re

import pytest

from fuzzing import argv_case, run, write_argv_inputs
from vindex.cli import EXIT_DATA, EXIT_OK, EXIT_READ

SEEDS = range(*map(int, os.environ.get("VINDEX_FUZZ_SEEDS", "0:300").split(":")))


def _check(argv: list[str]) -> None:
    code, out, err, _ = run(argv)
    assert code in (EXIT_OK, EXIT_READ, EXIT_DATA)
    if out.startswith("usage:"):
        assert (code, err) == (EXIT_OK, "")
        return
    if err.startswith("usage:"):
        assert (code, out) == (EXIT_DATA, "")
        assert re.fullmatch(r"vindex( \w+)?: error: .*\n", err.splitlines(True)[-1])
        return
    notes = [line for line in err.splitlines() if not line.startswith("warning: ")]
    if code == EXIT_OK:
        assert not any(line.startswith("error: ") for line in notes)
    elif notes:
        (line,) = notes
        assert line.startswith("error: ") and err.endswith(f"{line}\n")
    else:
        assert (argv[0], code) == ("validate", EXIT_DATA)
        assert re.search(r"^[1-9][0-9]* error\(s\), [0-9]+ warning\(s\)\n\Z", out, re.M)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("argv")
    write_argv_inputs(directory)
    return directory


@pytest.mark.parametrize("seed", SEEDS)
def test_argv_properties_hold(inputs, monkeypatch, seed):
    monkeypatch.chdir(inputs)
    _check(argv_case(random.Random(seed)))


def test_the_generator_reaches_every_outcome(inputs, monkeypatch):
    # The seeded argv lists succeed, fail to read or write, are refused by
    # the CLI and by argparse, and ask for help, each at least once.
    monkeypatch.chdir(inputs)
    outcomes = set()
    for seed in SEEDS:
        code, out, err, _ = run(argv_case(random.Random(seed)))
        outcomes.add((code, out.startswith("usage:") or err.startswith("usage:")))
    assert outcomes == {(EXIT_OK, False), (EXIT_READ, False), (EXIT_DATA, False),
                        (EXIT_OK, True), (EXIT_DATA, True)}
