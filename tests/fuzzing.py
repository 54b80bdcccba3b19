"""Seeded generators of hostile ``vindex`` inputs, and a digest of what the
CLI does with a fixed set of them.

* ``corpus_cases(seed)``: a JSONL corpus written by ``json.dumps`` from
  adversarial strings and values, and byte mutants of it;
* ``aggregate_cases(seed)``: an aggregate CSV written by ``csv.writer``
  from adversarial entity ids, and byte mutants of it;
* ``argv_case(rng)``: an argv list drawn from the four subcommands and
  their options, with hostile values and forms.

The fuzz tests check properties of each case. ``digest()`` runs a fixed
seed set of all three through ``vindex.cli.main`` and hashes what each run
gives; ``tests/test_output_pins.py`` pins it, so every Python version that
runs the suite must agree. The module needs nothing outside the standard
library, so on an interpreter without pytest

    PYTHONPATH=src python tests/fuzzing.py

prints the digest, to compare with the pin.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import random
import re
import tempfile
from pathlib import Path

from vindex.cli import main
from vindex.graph import AGGREGATE_CSV_COLUMNS, MODES
from vindex.metrics import CitationCounts

MUTANTS_PER_FILE = 6


def mutant(rng: random.Random, data: bytes, alphabet: bytes) -> bytes:
    """``data`` with one to three bytes inserted, deleted or bit-flipped;
    an inserted byte is drawn from ``alphabet``."""
    buffer = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(buffer))
        action = rng.choice(("insert", "delete", "flip"))
        if action == "insert" or at == len(buffer):
            buffer.insert(at, rng.choice(alphabet))
        elif action == "delete":
            del buffer[at]
        else:
            buffer[at] ^= 1 << rng.randrange(8)
    return bytes(buffer)


# ---------------------------------------------------------------------------
# JSONL corpora
# ---------------------------------------------------------------------------

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
JSONL_MUTATION_BYTES = b'{}[]",:\\u0d8 \r\n\x00\xef\xbb\xbf\xe2\x80\xa8\xed\xa0\xff\xc3'


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


def corpus_file(rng: random.Random) -> bytes:
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


def corpus_cases(seed: int) -> list[bytes]:
    """The corpus file of ``seed`` and its mutants."""
    rng = random.Random(seed)
    data = corpus_file(rng)
    return [data] + [mutant(rng, data, JSONL_MUTATION_BYTES) for _ in range(MUTANTS_PER_FILE)]


# ---------------------------------------------------------------------------
# aggregate CSV files
# ---------------------------------------------------------------------------

# Pieces of entity ids: what CSV must quote, line breaks of every kind,
# characters other layers treat as breaks or marks, and NUL, which the
# readers refuse.
ID_PIECES = (
    '"', ",", "\r", "\n", "\r\n", " ", "\u2028", "\u0085", "\ufeff", '""', "a", "\u03a9", "x1",
    "\0",
)

# Bytes a mutation inserts or writes over: the CSV syntax, digits, a minus,
# and the starts of a BOM, of U+2028 and of invalid UTF-8.
CSV_MUTATION_BYTES = b'",\r\n-0123456789ax\x00\xef\xbb\xbf\xe2\x80\xa8\xff\xc3'

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


def aggregate_file(
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
            name,
            c.citable_documents,
            c.citations_total,
            c.self_citations,
            c.h_index,
        )
        for name, c in rows.items()
    )
    return out.getvalue(), list(rows.items())


def aggregate_cases(seed: int) -> list[bytes]:
    """The aggregate file of ``seed`` and its mutants."""
    rng = random.Random(seed)
    data = aggregate_file(rng)[0].encode("utf-8")
    return [data] + [mutant(rng, data, CSV_MUTATION_BYTES) for _ in range(MUTANTS_PER_FILE)]


# ---------------------------------------------------------------------------
# argv lists
# ---------------------------------------------------------------------------

# The input files ``argv_case`` names; ``write_argv_inputs`` writes them.
CORPUS_INPUT = "corpus.jsonl"
AGGREGATE_INPUT = "stats.csv"

# Each subcommand's options, each with the name of the values it draws.
OPTIONS = {
    "metrics": {
        "--input": "input", "--kind": "kind", "--mode": "mode", "--weight": "weight",
        "--sort": "sort", "--format": "format", "--output": "output",
    },
    "validate": {"--input": "input", "--kind": "kind", "--mode": "mode"},
    "synth": {
        "--seed": "seed", "--papers": "papers", "--authors": "authors", "--bias": "bias",
        "--output": "output",
    },
    "compare": {
        "--input": "input", "--kind": "kind", "--mode": "mode", "--weight": "weight",
        "--format": "format", "--output": "output",
    },
}
REQUIRED = {
    "metrics": ("--input",),
    "validate": ("--input",),
    "synth": ("--seed", "--papers", "--authors"),
    "compare": ("--input",),
}

# Values of each kind: the usual ones, near misses, signs and numbers past
# the limits. ``--papers`` never draws a large count that parses, since
# that asks for a corpus of that many papers; past 4300 digits ``int``
# refuses it.
VALUES = {
    "input": (CORPUS_INPUT, AGGREGATE_INPUT, "missing.jsonl", ".", f"{CORPUS_INPUT}/"),
    "output": ("out.txt", "missing/out.txt", ".", "-"),
    "kind": ("corpus", "aggregate", "agg"),
    "mode": ("author", "journal", "authors"),
    "weight": (
        "sqrt", "unity", "linear", "x^2", "x^(1/3)", "x^1", "x^0", "x^-2", "x^(1/0)",
        "x^" + "9" * 400, "SQRT", " sqrt",
    ),
    "sort": ("v", "h", "cd", "V"),
    "format": ("csv", "md", "markdown"),
    "seed": ("0", "7", "-7", "9" * 40, "1_0", "\u0663", " 5 ", "1.5", "0x10", "9" * 5000),
    "papers": ("1", "2", "9", "0", "-3", "1e3", "9" * 5000),
    "authors": ("1", "3", "40", "0", "-3", "9223372036854775807", "9" * 19, "9" * 5000),
    "bias": ("0", "0.3", "1", "-0.5", "2", "nan", "inf", "-inf", "1e309", "1e-400", "-0"),
}
# Values any option may draw instead: the ones argparse reads in its own
# way, the empty string, option-like strings and a subcommand's name.
HOSTILE_VALUES = ("--", "-", "", "=", " ", "-x", "--bogus", "--input", "-h", "metrics", "\u00e9")
# Tokens that may turn up between options.
STRAY_TOKENS = ("--", "-", "", "-x", "--bogus", "--bogus=1", "extra", "-h", "--help")
COMMANDS = tuple(OPTIONS)


def write_argv_inputs(directory: Path) -> None:
    """Write the two input files ``argv_case`` names into ``directory``."""
    (directory / CORPUS_INPUT).write_text(
        '{"id": "p1", "authors": ["a", "b"], "venue": "J"}\n'
        '{"id": "p2", "authors": ["b"], "venue": "J", "refs": ["p1", "p2", "ghost"]}\n'
        '{"id": "p3", "authors": ["c"], "refs": ["p1", "p2"]}\n',
        encoding="utf-8",
    )
    (directory / AGGREGATE_INPUT).write_text(
        'entity_id,cd,c,sc,h\n"Lab, A",4,10,2,3\nB,2,5,0,2\n', encoding="utf-8"
    )


def _option_tokens(rng: random.Random, option: str, kind: str) -> list[str]:
    """One option with its value, in one of argparse's forms: two tokens,
    ``--opt=value``, an abbreviation, or no value at all."""
    if rng.random() < 0.15:
        option = option[: rng.randint(3, len(option))]
    pool = VALUES[kind] if rng.random() < 0.85 else HOSTILE_VALUES
    value = rng.choice(pool)
    form = rng.random()
    if form < 0.03:
        return [option]
    if form < 0.4:
        return [f"{option}={value}"]
    return [option, value]


def argv_case(rng: random.Random) -> list[str]:
    """An argv list for ``vindex.cli.main``: most name a subcommand and its
    required options, and add options of it drawn with repeats."""
    roll = rng.random()
    if roll < 0.03:
        return [rng.choice(STRAY_TOKENS + COMMANDS) for _ in range(rng.randint(0, 2))]
    command = rng.choice(COMMANDS)
    options = OPTIONS[command]
    chosen = [option for option in REQUIRED[command] if rng.random() < 0.95]
    chosen += rng.choices(list(options), k=rng.randint(0, 4))
    rng.shuffle(chosen)
    tokens = [token for option in chosen for token in _option_tokens(rng, option, options[option])]
    if rng.random() < 0.1:
        tokens.insert(rng.randint(0, len(tokens)), rng.choice(STRAY_TOKENS))
    return [command, *tokens]


# ---------------------------------------------------------------------------
# the cross-version digest
# ---------------------------------------------------------------------------

FILE_SEEDS = range(20)
ARGV_SEEDS = range(200)
JSONL_INPUT = "fuzz.jsonl"
CSV_INPUT = "fuzz.csv"


def run(argv: list[str]) -> tuple[int, str, str, list[tuple[str, bytes]]]:
    """``main(argv)``'s exit code, stdout and stderr, and the files it wrote
    in the working directory, which are then removed."""
    before = set(os.listdir())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    written = sorted(set(os.listdir()) - before)
    files = [(name, Path(name).read_bytes()) for name in written]
    for name in written:
        os.remove(name)
    return code, out.getvalue(), err.getvalue(), files


def _usage_option(stderr: str) -> str:
    """What an argparse usage error names: the argument of its ``error:``
    line, or else the text after the line's last colon, such as the
    arguments that are missing or not recognized."""
    message = stderr.splitlines()[-1].partition(": error: ")[2]
    named = re.match(r"argument (\S+?):", message)
    return named.group(1) if named else message.rpartition(": ")[2]


def _outcome(argv: list[str]) -> list[object]:
    """What one run in the working directory gives that the CLI owns: its
    exit code, stdout, stderr and the files it wrote. Argparse's help text
    and usage messages differ by Python version, so of those only the exit
    code and what the message names count."""
    code, out, err, files = run(argv)
    if out.startswith("usage:"):
        return [code, "help"]
    if err.startswith("usage:"):
        return [code, "usage", _usage_option(err)]
    return [code, out, err, [(name, data.hex()) for name, data in files]]


def digest() -> str:
    """The sha256 of the outcomes of the fixed cases: the corpus cases of
    ``FILE_SEEDS`` read by ``metrics`` and ``validate``, in author mode for
    an even seed and journal mode for an odd one, the aggregate cases of
    the same seeds read by both commands, and the argv cases of
    ``ARGV_SEEDS``."""
    outcomes = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as name:
        os.chdir(name)
        try:
            write_argv_inputs(Path(name))
            for seed in FILE_SEEDS:
                for data in corpus_cases(seed):
                    Path(JSONL_INPUT).write_bytes(data)
                    for command in ("metrics", "validate"):
                        argv = [command, "--input", JSONL_INPUT, "--mode", MODES[seed % 2]]
                        outcomes.append(_outcome(argv))
                for data in aggregate_cases(seed):
                    Path(CSV_INPUT).write_bytes(data)
                    for command in ("metrics", "validate"):
                        argv = [command, "--kind", "aggregate", "--input", CSV_INPUT]
                        outcomes.append(_outcome(argv))
            outcomes += [_outcome(argv_case(random.Random(seed))) for seed in ARGV_SEEDS]
        finally:
            os.chdir(cwd)
    return hashlib.sha256(json.dumps(outcomes).encode("ascii")).hexdigest()


if __name__ == "__main__":
    print(digest())
