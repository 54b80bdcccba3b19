"""Seeded fuzzing of the JSONL corpus boundary.

Corpora are written by ``json.dumps`` from adversarial strings and values,
and mutated copies of them insert, delete and flip bytes. Five properties
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
  lists the audit's errors first;
* when the audit reports no error, its warnings agree with the corpus that
  ``ingest_corpus`` returns: one stripped-self-reference warning for each
  of its ``self_loops``, then the dangling warning giving its
  ``dangling_refs``, and in journal mode the venue-less warning giving the
  number of its papers without a venue, each absent when its number is 0;
  when it reports one, every self-reference warning names a line that it
  accepts or refuses only as a duplicate paper id.

The generators are in ``fuzzing.py``. Tier-1 runs a fixed range of
seeds; ``VINDEX_FUZZ_SEEDS=START:STOP`` runs another range.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import re

import pytest

from fuzzing import corpus_cases, corpus_file
from vindex.cli import EXIT_DATA, EXIT_OK, main
from vindex.errors import VindexError
from vindex.graph import MODES, audit_corpus, ingest_corpus, serialize_corpus

SEEDS = range(*map(int, os.environ.get("VINDEX_FUZZ_SEEDS", "0:100").split(":")))


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
    """Properties (b) to (e)."""
    errors, warnings = audit_corpus(path, mode)
    try:
        corpus = ingest_corpus(path)
    except VindexError as exc:
        assert errors != []
        assert str(exc) == f"{path.name}, {errors[0]}"
        refused = dict(error.split(": ", 1) for error in errors)
        for warning in warnings:
            if "cites itself" in warning:
                line = warning.split(": ", 1)[0]
                assert refused.get(line, "duplicate paper id").startswith("duplicate paper id")
    else:
        assert errors == []
        totals = []
        if corpus.dangling_refs:
            totals.append(
                f"{corpus.dangling_refs} reference(s) point outside the corpus and will be ignored"
            )
        venueless = sum(paper.venue is None for paper in corpus.papers.values())
        if mode == "journal" and venueless:
            totals.append(
                f"{venueless} paper(s) have no venue: a citation such a paper makes counts as "
                "genuine, and one it receives counts for no journal"
            )
        stripped = warnings[: len(warnings) - len(totals)]
        assert warnings[len(stripped) :] == totals
        assert len(stripped) == corpus.self_loops
        one_stripped = r"line [0-9]+: paper .* cites itself; the reference is stripped"
        assert all(re.fullmatch(one_stripped, warning) for warning in stripped)
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
    for data in corpus_cases(seed):
        path.write_bytes(data)
        _check_strict_read_and_cli(path, mode)
        _check_round_trip(path)


def test_the_generator_reaches_both_outcomes(tmp_path):
    # Enough of the seeded files are read, and enough refused, for each
    # property to be tested on both sides.
    path = tmp_path / "corpus.jsonl"
    read = 0
    for seed in SEEDS:
        path.write_bytes(corpus_file(random.Random(seed)))
        read += audit_corpus(path).ok
    assert len(SEEDS) // 5 <= read <= len(SEEDS) - len(SEEDS) // 5


# Minimized from seeds 184 and 190, which hold an author or a venue with the
# escape \u0000. A CSV table cannot hold NUL, so the readers refuse such a
# name before `vindex metrics` renders it; rendering it once ended in a
# traceback and exit 1.
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


# Found by the cross-version digest in a mutant of seed 5: Python 3.13 words
# a trailing comma its own way, so ``validate`` printed another line there.
@pytest.mark.parametrize(
    "record, reason",
    [
        ('{"id": "p", "authors": ["a"],}', "Expecting property name enclosed in double quotes"),
        ('{"id": "p", "authors": ["a", ]}', "Expecting value"),
    ],
)
def test_regression_a_trailing_comma_reads_alike_on_every_version(tmp_path, record, reason):
    path = tmp_path / "corpus.jsonl"
    path.write_text(record + "\n", encoding="utf-8")
    assert audit_corpus(path).errors == [f"line 1: invalid JSON ({reason})"]
    _check_strict_read_and_cli(path, "author")
