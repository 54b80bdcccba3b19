"""Seeded fuzzing of the aggregate CSV boundary.

Valid files are written by ``csv.writer`` from adversarial entity ids, and
mutated copies of them insert, delete and flip bytes. Four properties hold
for every case:

* a valid file is read back exactly, unless an id holds NUL: then each
  line holding NUL is refused, and nothing else is;
* ``read_aggregate_csv`` raises if and only if ``audit_aggregate`` reports
  an error, and ``str()`` of the raised error is the file name and that
  first audit error;
* ``vindex validate --kind aggregate`` returns 0 or 2 and never raises;
* ``vindex metrics --kind aggregate`` returns what ``validate`` does, and on
  2 its stderr is one ``error:`` line, the file name and the first audit
  error.

The generators are in ``fuzzing.py``. Tier-1 runs a fixed range of
seeds; ``VINDEX_FUZZ_SEEDS=START:STOP`` runs another range.
"""

from __future__ import annotations

import contextlib
import io
import os
import random

import pytest

from fuzzing import ID_PIECES, aggregate_cases, aggregate_file
from vindex.cli import EXIT_DATA, EXIT_OK, main
from vindex.errors import VindexError
from vindex.graph import audit_aggregate, read_aggregate_csv

SEEDS = range(*map(int, os.environ.get("VINDEX_FUZZ_SEEDS", "0:40").split(":")))


@pytest.mark.parametrize("seed", SEEDS)
def test_written_rows_read_back_exactly(write_input, seed):
    rng = random.Random(seed)
    text, rows = aggregate_file(rng, tuple(piece for piece in ID_PIECES if piece != "\0"))
    path = write_input(text)
    assert read_aggregate_csv(path) == rows
    assert audit_aggregate(path).errors == []


@pytest.mark.parametrize("seed", SEEDS)
def test_written_lines_holding_nul_are_refused_and_nothing_else(write_input, seed):
    rng = random.Random(seed)
    text, rows = aggregate_file(rng)
    path = write_input(text)
    lines = enumerate(io.StringIO(text, newline=""), start=1)
    errors = [f"line {n}: line contains NUL" for n, line in lines if "\0" in line]
    assert audit_aggregate(path).errors == errors
    if errors:
        with pytest.raises(VindexError) as excinfo:
            read_aggregate_csv(path)
        assert str(excinfo.value) == f"{path.name}, {errors[0]}"
    else:
        assert read_aggregate_csv(path) == rows


@pytest.mark.parametrize("seed", SEEDS)
def test_strict_read_raises_the_first_audit_error(tmp_path, capsys, seed):
    path = tmp_path / "stats.csv"
    for case in aggregate_cases(seed):
        path.write_bytes(case)
        errors = audit_aggregate(path).errors
        try:
            read_aggregate_csv(path)
        except VindexError as exc:
            assert errors != [], case
            assert str(exc) == f"stats.csv, {errors[0]}", case
        else:
            assert errors == [], case
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["validate", "--kind", "aggregate", "--input", str(path)])
        assert code == (EXIT_DATA if errors else EXIT_OK), case
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            assert main(["metrics", "--kind", "aggregate", "--input", str(path)]) == code, case
        assert stderr.getvalue() == (f"error: stats.csv, {errors[0]}\n" if errors else ""), case
    assert capsys.readouterr().err == ""
