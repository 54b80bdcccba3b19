"""Seeded fuzzing of the JSONL corpus boundary.

Corpora are written by ``json.dumps`` from adversarial strings and values,
and mutated copies of them insert, delete and flip bytes. Four properties
hold for every case:

* when ``ingest_corpus`` reads a file, ``serialize_corpus`` of what it read
  is a fixed point: reading and serializing it again gives the same text
  and the same papers;
* ``ingest_corpus`` raises if and only if ``audit_corpus`` reports an
  error, and ``str()`` of the raised error is the file name and that first
  audit error;
* ``vindex metrics`` returns 0 or 2 and never raises; on 2 its stderr is
  one ``error:`` line, the file name and that first audit error, which
  names a line;
* ``vindex validate`` in the same mode returns what ``metrics`` does, and
  lists the audit's errors first.

Tier-1 runs a fixed range of seeds; ``VINDEX_FUZZ_SEEDS=START:STOP`` runs
another range.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re

import pytest

from vindex.cli import EXIT_DATA, EXIT_OK, main
from vindex.errors import VindexError
from vindex.graph import MODES, audit_corpus, ingest_corpus, serialize_corpus

SEEDS = range(*map(int, os.environ.get("VINDEX_FUZZ_SEEDS", "0:100").split(":")))

# Pieces of strings: Unicode line breaks and marks, the characters JSON
# escapes and a surrogate pair.
STRING_PIECES = (
    "a", "x1", " ", "\u03a9", "\u2028", "\u0085", "\ufeff", "\r", "\n", "\r\n", '"', "\\",
    "\U0001f600",
)
# Pieces the readers refuse: a lone surrogate of each half, and NUL.
REFUSED_PIECES = ("\ud800", "\udfff", "\0")

# In a hostile file, the chance that a string holds a refused piece and
# that a value is replaced by an odd or raw one: rare enough that a refused
# file often has one fault only.
FAULT_RATE = 0.04

# Values that stand in for a field's usual one: wrong types, nesting, and
# numbers at the limits of the JSON reader.
ODD_VALUES = (None, True, False, 0, -1, 1.5, "", [], {}, [[]], [{"a": 1}], 10**300)

# Written into the JSON text in place of a string marker: an integer over
# Python's 4300-digit limit and nesting deeper than the recursion limit.
RAW_VALUES = {"@huge@": "9" * 5000, "@deep@": "[" * 100_000 + "]" * 100_000}

# Bytes a mutation inserts or writes over: the JSON syntax, the start of an
# escape, digits, line ends, and the starts of a BOM, of U+2028, of an
# encoded surrogate and of invalid UTF-8.
MUTATION_BYTES = b'{}[]",:\\u0d8 \r\n\x00\xef\xbb\xbf\xe2\x80\xa8\xed\xa0\xff\xc3'

MUTANTS_PER_FILE = 6


def _string(rng: random.Random, hostile: bool) -> str:
    pieces = [rng.choice(STRING_PIECES) for _ in range(rng.randint(1, 4))]
    if hostile and rng.random() < FAULT_RATE:
        pieces.insert(rng.randint(0, len(pieces)), rng.choice(REFUSED_PIECES))
    return "".join(pieces)


def _value(rng: random.Random, hostile: bool, usual):
    """``usual()``, or in a hostile file now and then an odd or raw value."""
    if not hostile or rng.random() >= FAULT_RATE:
        return usual()
    return rng.choice(ODD_VALUES + tuple(RAW_VALUES))


def _record(rng: random.Random, ids: list[str], hostile: bool) -> dict:
    # A hostile file repeats an id now and then.
    if ids and hostile and rng.random() < FAULT_RATE:
        paper_id = rng.choice(ids)
    else:
        paper_id = _string(rng, hostile)
    record = {"id": _value(rng, hostile, lambda: paper_id)}
    if rng.random() < 0.97:
        record["authors"] = _value(
            rng, hostile, lambda: [_string(rng, hostile) for _ in range(rng.randint(1, 3))]
        )
    if rng.random() < 0.6:
        record["venue"] = _value(rng, hostile, lambda: _string(rng, hostile))
    if rng.random() < 0.5:
        record["year"] = _value(rng, hostile, lambda: rng.choice((2004, 10**30, -5)))
    if rng.random() < 0.8:
        # Earlier ids, itself, duplicates and unknown ids.
        targets = ids + [paper_id, _string(rng, hostile)]
        record["refs"] = _value(
            rng, hostile, lambda: [rng.choice(targets) for _ in range(rng.randint(0, 4))]
        )
    ids.append(paper_id)
    return record


def _line(rng: random.Random, ids: list[str], hostile: bool) -> str:
    roll = rng.random()
    if roll < 0.05:
        return rng.choice(("", " ", "\t", "\r"))
    if roll < 0.08:
        # A long line.
        return json.dumps({"id": f"long{len(ids)}" + "y" * 50_000, "authors": ["z" * 50_000]})
    text = json.dumps(_record(rng, ids, hostile), ensure_ascii=rng.random() < 0.5)
    for marker, raw in RAW_VALUES.items():
        text = text.replace(f'"{marker}"', raw)
    return text


def _file(rng: random.Random) -> bytes:
    """A corpus written by ``json.dumps``, as bytes: a lone surrogate
    written raw (without ``ensure_ascii``) is encoded as UTF-8 may not.
    Half the files are hostile: refused values and pieces can appear."""
    ids: list[str] = []
    hostile = rng.random() < 0.5
    lines = [_line(rng, ids, hostile) for _ in range(rng.randint(0, 8))]
    ending = rng.choice(("\n", "\r\n"))
    text = "".join(line + ending for line in lines)
    if lines and rng.random() < 0.2:
        text = text.removesuffix(ending)
    if rng.random() < 0.1:
        text = "\ufeff" + text
    return text.encode("utf-8", "surrogatepass")


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


def _cases(seed: int) -> list[bytes]:
    rng = random.Random(seed)
    data = _file(rng)
    return [data] + [_mutant(rng, data) for _ in range(MUTANTS_PER_FILE)]


def _check_round_trip(path) -> None:
    """Property (a), where ``ingest_corpus`` reads ``path``."""
    try:
        corpus = ingest_corpus(path)
    except VindexError:
        return
    text = serialize_corpus(corpus)
    path.write_text(text, encoding="utf-8")
    again = ingest_corpus(path)
    assert serialize_corpus(again) == text
    assert again.papers == corpus.papers


def _check_strict_read_and_cli(path, mode: str) -> None:
    """Properties (b), (c) and (d)."""
    errors = audit_corpus(path, mode).errors
    try:
        ingest_corpus(path)
    except VindexError as exc:
        assert errors != []
        assert str(exc) == f"{path.name}, {errors[0]}"
    else:
        assert errors == []
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(["metrics", "--input", str(path), "--mode", mode])
    assert code == (EXIT_DATA if errors else EXIT_OK)
    if errors:
        assert re.fullmatch(r"error: [^\n]*, line [0-9]+: [^\n]*\n", stderr.getvalue())
        assert stderr.getvalue() == f"error: {path.name}, {errors[0]}\n"
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        assert main(["validate", "--input", str(path), "--mode", mode]) == code
    lines = report.getvalue().split("\n")
    assert lines[: len(errors)] == [f"error: {error}" for error in errors]


@pytest.mark.parametrize("seed", SEEDS)
def test_corpus_properties_hold(tmp_path, seed):
    path = tmp_path / "corpus.jsonl"
    mode = MODES[seed % 2]
    for data in _cases(seed):
        path.write_bytes(data)
        _check_strict_read_and_cli(path, mode)
        _check_round_trip(path)


def test_the_generator_reaches_both_outcomes(tmp_path):
    # Enough of the seeded files are read, and enough refused, for each
    # property to be tested on both sides.
    path = tmp_path / "corpus.jsonl"
    read = 0
    for seed in SEEDS:
        path.write_bytes(_file(random.Random(seed)))
        read += audit_corpus(path).ok
    assert len(SEEDS) // 5 <= read <= len(SEEDS) - len(SEEDS) // 5


# Minimized from seeds 184 and 190, which hold an author or a venue with the
# escape \u0000. Python 3.10's csv cannot write NUL, so `vindex metrics`
# died with a traceback and exit 1 when it rendered that name.
@pytest.mark.parametrize(
    "record, mode, what",
    [
        ('{"id": "p", "authors": ["a \\u0000"]}', "author", "authors"),
        ('{"id": "p", "authors": ["a"], "venue": "\\u0000x1"}', "journal", "venue"),
    ],
)
def test_regression_a_rendered_name_holding_nul(tmp_path, record, mode, what):
    path = tmp_path / "corpus.jsonl"
    path.write_text(record + "\n", encoding="utf-8")
    assert audit_corpus(path, mode).errors == [f"line 1: '{what}' holds NUL"]
    _check_strict_read_and_cli(path, mode)
