"""The contract of the ``vindex`` command, written once, as a table of cases.

Each case gives its argv as shell words, the files its run starts with,
any environment variables and address-space limit, and what the run must
give: the exit code, stdout, stderr and the files it writes, with their
bytes. Any other file left in the case's directory fails it. A stream is
pinned exactly, as bytes, or by a tuple of lines that must appear: each
string must begin a line, and one that ends in a newline is the whole
line. Argparse's usage and help text differ by Python version, so they
are pinned only by such lines.

``test_cli_case`` in ``tests/test_cli.py`` runs each case in-process
through ``vindex.cli.main``, or in a ``python -m vindex`` child when it
sets an environment variable or a limit, which act on a whole process.
Run as a script, the module runs every case through the ``vindex`` command
on ``PATH`` and exits 1 if any fails:

    python tests/cli_cases.py

It imports only the standard library, so it checks an installed
``vindex`` with no extras.
"""

from __future__ import annotations

import os
import resource
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

# Every paper has a venue, and no reference is to itself or outside.
CORPUS = (
    b'{"id": "p1", "authors": ["a", "b"], "venue": "J1"}\n'
    b'{"id": "p2", "authors": ["b"], "venue": "J1", "refs": ["p1"]}\n'
    b'{"id": "p3", "authors": ["c"], "venue": "J2", "refs": ["p1", "p2"]}\n'
)
HEADER = "entity_id,CD,pos_cd,C,SC,C_P,h,pos_h,h_star,V_rate,V_P,V_index,pos_v,ratio\n"
TABLE = (
    f"{HEADER}b,2,1,3,1,1.500,1,1,1,0.667,1.000,0.816,1,0.816\n"
    "a,1,2,2,1,2.000,1,2,1,0.500,1.000,0.707,2,0.707\n"
    "c,1,3,0,0,0.000,0,3,0,1.000,0.000,0.000,3,1.000\n"
).encode()
COMPARE = b"entity_id,rank_a,rank_b,delta\na,2,2,0\nb,1,1,0\nc,3,3,0\n"
SYNTH_ARGV = "synth --seed 1 --papers 2 --authors 2 --bias 0.2"
SYNTH = (
    b'{"id": "p0001", "authors": ["a001"], "venue": "v01", "year": 2000, "refs": []}\n'
    b'{"id": "p0002", "authors": ["a002", "a001"], "venue": "v04", "year": 2001, '
    b'"refs": ["p0001"]}\n'
)
FRACTION = b"self-citation fraction (author mode): 1.000\n"

# Names outside ASCII: an ASCII stdout cannot take them, and Latin-1 bytes
# of them are not UTF-8.
NAMES = {
    "names.jsonl": '{"id": "p1", "authors": ["Müller"], "venue": "Zürich"}\n'
    '{"id": "p2", "authors": ["Ødegård", "Müller"], "refs": ["p1"]}\n'.encode(),
    "duplicate.jsonl": '{"id": "ü", "authors": ["a"]}\n'.encode() * 2,
}
NAMES_TABLE = (
    f"{HEADER}Müller,2,1,1,1,0.500,1,1,0,0.000,0.000,0.000,1,0.000\n"
    "Ødegård,1,2,0,0,0.000,0,2,0,1.000,0.000,0.000,2,1.000\n"
).encode()
NAMES_COMPARE = "entity_id,rank_a,rank_b,delta\nMüller,1,1,0\nØdegård,2,2,0\n".encode()
DUPLICATE_REPORT = "error: line 2: duplicate paper id 'ü'\n1 error(s), 0 warning(s)\n".encode()

VENUELESS = {
    "v.jsonl": b'{"id": "p1", "authors": ["a"], "venue": "J1"}\n'
    b'{"id": "p2", "authors": ["b"], "refs": ["p1"]}\n'
}
VENUELESS_LINE = (
    b"warning: 1 paper(s) have no venue: a citation such a paper makes counts as genuine, "
    b"and one it receives counts for no journal\n"
)
SELF_CITING = {"self.jsonl": b'{"id": "p1", "authors": ["a"], "refs": ["p1", "p1"]}\n'}


class Case(NamedTuple):
    command: str  # the argv after `vindex`, as shell words
    code: int
    stdout: bytes | tuple[str, ...] = b""
    stderr: bytes | tuple[str, ...] = b""
    inputs: dict[str, bytes] = {"corpus.jsonl": CORPUS}
    writes: dict[str, bytes] = {}
    env: dict[str, str] = {}
    limit: int | None = None  # RLIMIT_AS of the run's process, in bytes

    @property
    def argv(self) -> list[str]:
        return shlex.split(self.command)

    @property
    def name(self) -> str:
        return " ".join([*(f"{key}={value}" for key, value in self.env.items()), self.command])


# Each subcommand's options that take one value, and what argparse says of
# the value `--` for those it refuses that are not choices.
OPTIONS = {
    "metrics": ("--input", "--kind", "--mode", "--weight", "--sort", "--format", "--output"),
    "validate": ("--input", "--kind", "--mode"),
    "synth": ("--seed", "--papers", "--authors", "--bias", "--output"),
    "compare": ("--input", "--kind", "--mode", "--weight", "--format", "--output"),
}
REFUSED = {
    **dict.fromkeys(("--seed", "--papers", "--authors"), "invalid int value"),
    "--bias": "invalid float value",
}


def _required(command: str) -> str:
    return SYNTH_ARGV if command == "synth" else f"{command} --input corpus.jsonl"


def _double_dash(command: str, option: str) -> Case:
    """``--opt=--`` after the required options is the value ``--`` on every
    Python version: before 3.13, argparse read it as [] and skipped the
    option's type and choices."""
    words = f"{_required(command)} {option}=--"
    if option == "--input":
        return Case(words, 1, stderr=b"error: [Errno 2] No such file or directory: '--'\n")
    if option == "--weight":
        if command == "compare":
            words = f"{_required(command)} --weight sqrt {option}=--"
        spec = b"'sqrt', 'unity', 'linear', 'x^N' or 'x^(1/N)' with integer N >= 2"
        return Case(words, 2, stderr=b"error: unrecognized weight spec '--'; expected %s\n" % spec)
    if option == "--output":
        written = {"synth": SYNTH, "metrics": TABLE, "compare": COMPARE}[command]
        return Case(words, 0, stderr=FRACTION if command == "synth" else b"", writes={"--": written})
    refused = REFUSED.get(option, "invalid choice")
    return Case(words, 2, stderr=(f"vindex {command}: error: argument {option}: {refused}: '--'",))


CASES = [
    Case("--help", 0, stdout=("usage: vindex [-h]", "  {metrics,validate,synth,compare}\n")),
    # Usage errors exit 2.
    Case("", 2, stderr=("vindex: error: the following arguments are required: command\n",)),
    Case("frobnicate", 2,
         stderr=("vindex: error: argument command: invalid choice: 'frobnicate'",)),
    Case("metrics", 2,
         stderr=("vindex metrics: error: the following arguments are required: --input\n",)),
    Case("metrics --input corpus.jsonl --sort sideways", 2,
         stderr=("vindex metrics: error: argument --sort: invalid choice: 'sideways'",)),
    Case(SYNTH_ARGV, 0, stdout=SYNTH, stderr=FRACTION),
    Case(f"{SYNTH_ARGV} --output synth.jsonl", 0, stderr=FRACTION, writes={"synth.jsonl": SYNTH}),
    Case("synth --seed 1 --papers 0 --authors 3", 2,
         stderr=b"error: n_papers must be >= 1, got 0\n"),
    Case("synth --seed 1 --papers 5 --authors 3 --bias 1.5", 2,
         stderr=b"error: self_cite_bias must lie in [0, 1], got 1.5\n"),
    # Stdout and --output get the same bytes.
    Case("metrics --input corpus.jsonl", 0, stdout=TABLE),
    Case("metrics --input corpus.jsonl --output out.csv", 0, writes={"out.csv": TABLE}),
    Case("metrics --input corpus.jsonl --weight linear", 0,
         stdout=("b,2,1,3,1,1.500,1,1,1,0.667,1.000,0.667,1,0.667\n",)),
    Case("metrics --input corpus.jsonl --weight 'x^(1/3)'", 0,
         stdout=("b,2,1,3,1,1.500,1,1,1,0.667,1.000,0.874,1,0.874\n",)),
    Case("metrics --input corpus.jsonl --weight 'x^1'", 2,
         stderr=b"error: weight spec 'x^1': exponent must be >= 2 (use 'linear' for 1)\n"),
    Case("metrics --input corpus.jsonl --format md", 0,
         stdout=("| entity_id | CD | pos_cd |", "| --- | --- | --- |")),
    # Aggregate input has no h*, and no mode.
    Case("metrics --input stats.csv --kind aggregate --mode journal", 0,
         stdout=f"{HEADER}a,3,1,10,2,3.333,2,1,,0.800,2.667,1.789,1,0.894\n".encode(),
         stderr=b"warning: --mode has no effect on aggregate input\n",
         inputs={"stats.csv": b"entity_id,cd,c,sc,h\na,3,10,2,2\n"}),
    Case("metrics --input bad.csv --kind aggregate", 2,
         stderr=b"error: bad.csv, line 2: entity 'offender': self_citations (20) exceed "
         b"citations_total (10)\n",
         inputs={"bad.csv": b"entity_id,cd,c,sc,h\noffender,5,10,20,3\n"}),
    Case("compare --input corpus.jsonl --weight unity --weight 'x^2'", 0, stdout=COMPARE),
    Case("compare --input corpus.jsonl --format md", 0,
         stdout=("| entity_id | rank_a | rank_b | delta |\n", "| --- | --- | --- | --- |\n")),
    Case("compare --input corpus.jsonl --weight sqrt", 2,
         stderr=b"error: compare needs exactly two --weight flags, got 1\n"),
    Case("validate --input corpus.jsonl", 0, stdout=b"0 error(s), 0 warning(s)\n"),
    # A warning keeps exit 0.
    Case("validate --input ghost.jsonl", 0,
         stdout=b"warning: 1 reference(s) point outside the corpus and will be ignored\n"
         b"0 error(s), 1 warning(s)\n",
         inputs={"ghost.jsonl": b'{"id": "p1", "authors": ["a"], "refs": ["ghost"]}\n'}),
    # Stdout is UTF-8, whatever the encoding Python would give it.
    *[
        case._replace(inputs=NAMES, env={"PYTHONIOENCODING": encoding})
        for encoding in ("ascii", "latin-1")
        for case in (
            Case("metrics --input names.jsonl", 0, stdout=NAMES_TABLE),
            Case("metrics --input names.jsonl --output out.csv", 0,
                 writes={"out.csv": NAMES_TABLE}),
            Case("compare --input names.jsonl", 0, stdout=NAMES_COMPARE),
            Case("compare --input names.jsonl --output out.csv", 0,
                 writes={"out.csv": NAMES_COMPARE}),
            Case("validate --input duplicate.jsonl", 2, stdout=DUPLICATE_REPORT),
        )
    ],
    # NUL is refused in both inputs, on every Python version.
    Case("validate --input nul.csv --kind aggregate", 2,
         stdout=b"error: line 2: line contains NUL\n1 error(s), 0 warning(s)\n",
         inputs={"nul.csv": b"entity_id,cd,c,sc,h\r\nC\0D,3,10,2,2\r\n"}),
    Case("validate --input nul.jsonl", 2,
         stdout=b"error: line 1: 'authors' holds NUL\n1 error(s), 0 warning(s)\n",
         inputs={"nul.jsonl": b'{"id": "p1", "authors": ["a\\u0000b"]}\n'}),
    # A line holding only U+00A0 is invalid JSON, not a blank line.
    Case("validate --input nbsp.jsonl", 2,
         stdout=b"error: line 2: invalid JSON (Expecting value)\n1 error(s), 0 warning(s)\n",
         inputs={"nbsp.jsonl": b'{"id": "p1", "authors": ["a"]}\n\xc2\xa0\n'}),
    *[_double_dash(command, option) for command, options in OPTIONS.items() for option in options],
    # An empty path is a usage error: `Path("")` would be the directory `.`.
    *[
        Case(f"{_required(command)} {value}", 2, stderr=(
            f"vindex {command}: error: argument {option}: expected a path, got an empty value\n",
        ))
        for command, options in OPTIONS.items()
        for option in ("--input", "--output")
        if option in options
        for value in (f"{option}=", f"{option} ''")
    ],
    # Running out of memory is one error line, not a traceback.
    Case("synth --seed 1 --papers 1000000000000 --authors 2", 1,
         stderr=b"error: out of memory\n", limit=256 * 2**20),
    # One venue-less paper: `metrics` and `compare` warn on stderr and
    # `validate` reports on stdout, in the same line.
    Case("metrics --input v.jsonl --mode journal", 0, stderr=VENUELESS_LINE, inputs=VENUELESS,
         stdout=f"{HEADER}J1,1,1,1,0,1.000,1,1,1,1.000,1.000,1.000,1,1.000\n".encode()),
    Case("compare --input v.jsonl --mode journal", 0, stderr=VENUELESS_LINE, inputs=VENUELESS,
         stdout=b"entity_id,rank_a,rank_b,delta\nJ1,1,1,0\n"),
    Case("validate --input v.jsonl --mode journal", 0, inputs=VENUELESS,
         stdout=VENUELESS_LINE + b"0 error(s), 1 warning(s)\n"),
    # A paper that lists itself twice: `validate` reports it once, with no
    # count, and `metrics` warns of one stripped self-reference.
    Case("validate --input self.jsonl", 0, inputs=SELF_CITING,
         stdout=b"warning: line 1: paper 'p1' cites itself; the reference is stripped\n"
         b"0 error(s), 1 warning(s)\n"),
    Case("metrics --input self.jsonl", 0, inputs=SELF_CITING,
         stdout=f"{HEADER}a,1,1,0,0,0.000,0,1,0,1.000,0.000,0.000,1,1.000\n".encode(),
         stderr=b"warning: stripped 1 self-referencing citation(s)\n"),
]


def write_inputs(case: Case, directory: Path) -> None:
    for name, data in case.inputs.items():
        (directory / name).write_bytes(data)


def failures(
    case: Case, code: int, stdout: bytes, stderr: bytes, written: dict[str, bytes]
) -> list[str]:
    """How a run of ``case`` breaks its contract, if it does. ``written``
    holds each file the run left, other than the inputs, with its bytes."""
    found = [] if code == case.code else [f"exit {code}, expected {case.code}"]
    for stream, expected, got in (("stdout", case.stdout, stdout), ("stderr", case.stderr, stderr)):
        if isinstance(expected, bytes):
            found += [] if got == expected else [f"{stream} {got!r}, expected {expected!r}"]
        else:
            lines = got.decode("utf-8", "replace").splitlines(keepends=True)
            found += [
                f"no line of {stream} {got!r} begins {start!r}"
                for start in expected
                if not any(line.startswith(start) for line in lines)
            ]
    if written != case.writes:
        found.append(f"wrote {written!r}, expected {case.writes!r}")
    return found


def run(case: Case, command: list[str]) -> list[str]:
    """Run ``case`` as ``command`` and its argv in a child, in a new
    directory, and return its failures."""

    def set_limit() -> None:
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (case.limit, hard))

    with tempfile.TemporaryDirectory() as name:
        write_inputs(case, Path(name))
        done = subprocess.run(
            [*command, *case.argv],
            cwd=name,
            env={**os.environ, **case.env},
            capture_output=True,
            preexec_fn=set_limit if case.limit else None,
            timeout=120,
            check=False,
        )
        written = {
            path.name: path.read_bytes()
            for path in Path(name).iterdir()
            if path.name not in case.inputs
        }
    return failures(case, done.returncode, done.stdout, done.stderr, written)


def main() -> int:
    failed = 0
    for case in CASES:
        found = run(case, ["vindex"])
        failed += bool(found)
        print("\n  ".join([f"{'FAIL' if found else 'ok'}: {case.name}", *found]))
    print(f"{failed} of {len(CASES)} case(s) failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
