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

Tier-1 runs a fixed range of seeds; ``VINDEX_FUZZ_SEEDS=START:STOP`` runs
another range.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import random

import pytest

from vindex.cli import EXIT_DATA, EXIT_OK, main
from vindex.errors import VindexError
from vindex.graph import AGGREGATE_CSV_COLUMNS, audit_aggregate, read_aggregate_csv
from vindex.metrics import CitationCounts

SEEDS = range(*map(int, os.environ.get("VINDEX_FUZZ_SEEDS", "0:40").split(":")))

# Pieces of entity ids: what CSV must quote, line breaks of every kind,
# characters other layers treat as breaks or marks, and NUL, which the
# readers refuse.
ID_PIECES = (
    '"', ",", "\r", "\n", "\r\n", " ", "\u2028", "\u0085", "\ufeff", '""', "a", "\u03a9", "x1",
    "\0",
)
# csv.writer refuses NUL before Python 3.11, so it writes this stand-in,
# which no piece holds, and the text gets NUL back after.
NUL_STAND_IN = "\x01"

# Bytes a mutation inserts or writes over: the CSV syntax, digits, a minus,
# and the starts of a BOM, of U+2028 and of invalid UTF-8.
MUTATION_BYTES = b'",\r\n-0123456789ax\x00\xef\xbb\xbf\xe2\x80\xa8\xff\xc3'

MUTANTS_PER_FILE = 6

# Line terminators and quoting that write every field as RFC 4180 needs.
# Before Python 3.13, QUOTE_MINIMAL quotes a field holding a bare CR only
# when the line terminator holds one, so "\n" goes with QUOTE_ALL alone.
WRITER_STYLES = (("\r\n", csv.QUOTE_MINIMAL), ("\r\n", csv.QUOTE_ALL), ("\n", csv.QUOTE_ALL))


def _entity_id(rng: random.Random, pieces: tuple[str, ...]) -> str:
    return "".join(rng.choice(pieces) for _ in range(rng.randint(1, 6)))


def _counts(rng: random.Random) -> CitationCounts:
    top = rng.choice((5, 1000, 2**53))
    c = rng.randint(0, top)
    cd = rng.randint(1, top)
    return CitationCounts(c, rng.randint(0, c), cd, rng.randint(0, cd))


def _valid_file(
    rng: random.Random, pieces: tuple[str, ...] = ID_PIECES
) -> tuple[str, list[tuple[str, CitationCounts]]]:
    """CSV text written by ``csv.writer`` from ids made of ``pieces``, and
    the rows it holds."""
    rows: dict[str, CitationCounts] = {}
    for _ in range(rng.randint(0, 8)):
        rows.setdefault(_entity_id(rng, pieces), _counts(rng))
    out = io.StringIO()
    terminator, quoting = rng.choice(WRITER_STYLES)
    writer = csv.writer(out, lineterminator=terminator, quoting=quoting)
    writer.writerow(AGGREGATE_CSV_COLUMNS)
    writer.writerows(
        (
            name.replace("\0", NUL_STAND_IN),
            c.citable_documents,
            c.citations_total,
            c.self_citations,
            c.h_index,
        )
        for name, c in rows.items()
    )
    return out.getvalue().replace(NUL_STAND_IN, "\0"), list(rows.items())


def _mutant(rng: random.Random, data: bytes) -> bytes:
    buffer = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(buffer))
        action = rng.choice(("insert", "delete", "flip"))
        if action == "insert" or at == len(buffer):
            buffer.insert(at, rng.choice(MUTATION_BYTES))
        elif action == "delete":
            del buffer[at]
        else:
            buffer[at] ^= 1 << rng.randrange(8)
    return bytes(buffer)


@pytest.mark.parametrize("seed", SEEDS)
def test_written_rows_read_back_exactly(write_input, seed):
    rng = random.Random(seed)
    text, rows = _valid_file(rng, tuple(piece for piece in ID_PIECES if piece != "\0"))
    path = write_input(text)
    assert read_aggregate_csv(path) == rows
    assert audit_aggregate(path).errors == []


@pytest.mark.parametrize("seed", SEEDS)
def test_written_lines_holding_nul_are_refused_and_nothing_else(write_input, seed):
    rng = random.Random(seed)
    text, rows = _valid_file(rng)
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
    rng = random.Random(seed)
    data = _valid_file(rng)[0].encode("utf-8")
    path = tmp_path / "stats.csv"
    for _ in range(MUTANTS_PER_FILE):
        mutant = _mutant(rng, data)
        path.write_bytes(mutant)
        errors = audit_aggregate(path).errors
        try:
            read_aggregate_csv(path)
        except VindexError as exc:
            assert errors != [], mutant
            assert str(exc) == f"stats.csv, {errors[0]}", mutant
        else:
            assert errors == [], mutant
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["validate", "--kind", "aggregate", "--input", str(path)])
        assert code == (EXIT_DATA if errors else EXIT_OK), mutant
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            assert main(["metrics", "--kind", "aggregate", "--input", str(path)]) == code, mutant
        assert stderr.getvalue() == (f"error: stats.csv, {errors[0]}\n" if errors else ""), mutant
    assert capsys.readouterr().err == ""
