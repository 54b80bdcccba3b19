"""Tests for the command-line interface.

Everything runs in-process through ``main(argv)`` so we can assert on exit
codes and captured streams without paying interpreter startup per case.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import vindex

from vindex import cli
from vindex.analytics import TABLE_COLUMNS
from vindex.cli import EXIT_DATA, EXIT_OK, EXIT_READ, main
from vindex.errors import DomainError
from vindex.graph import (
    aggregate_all,
    generate_synthetic_corpus,
    ingest_corpus,
    serialize_corpus,
    write_aggregate_csv,
)
from vindex.metrics import WeightFunction

HEADER = ",".join(TABLE_COLUMNS)


@pytest.fixture()
def corpus_path(tmp_path):
    corpus = generate_synthetic_corpus(21, 40, 8, 0.5)
    path = tmp_path / "corpus.jsonl"
    path.write_text(serialize_corpus(corpus), encoding="utf-8")
    return path


@pytest.fixture()
def aggregate_path(tmp_path):
    corpus = generate_synthetic_corpus(21, 40, 8, 0.5)
    path = tmp_path / "aggregate.csv"
    path.write_text(write_aggregate_csv(aggregate_all(corpus, "author")), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_metrics_corpus_default(corpus_path, capsys):
    code = main(["metrics", "--input", str(corpus_path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 9  # 8 authors in the pool
    # h_star is populated for corpus input
    assert lines[1].split(",")[8] != ""


def test_metrics_aggregate_kind(aggregate_path, capsys):
    code = main(["metrics", "--input", str(aggregate_path), "--kind", "aggregate"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == HEADER
    # aggregate input cannot reconstruct h_star, so the cell stays empty
    assert lines[1].split(",")[8] == ""


def test_metrics_corpus_and_aggregate_agree(corpus_path, aggregate_path, capsys):
    main(["metrics", "--input", str(corpus_path)])
    from_corpus = capsys.readouterr().out
    main(["metrics", "--input", str(aggregate_path), "--kind", "aggregate"])
    from_aggregate = capsys.readouterr().out

    def drop_h_star(text):
        rows = []
        for line in text.splitlines():
            fields = line.split(",")
            rows.append(",".join(fields[:8] + fields[9:]))
        return rows

    assert drop_h_star(from_corpus) == drop_h_star(from_aggregate)


def test_metrics_markdown_format(corpus_path, capsys):
    code = main(["metrics", "--input", str(corpus_path), "--format", "md"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.startswith("| entity_id |")
    assert "| --- |" in out.splitlines()[1]


def test_metrics_markdown_keeps_a_multi_line_entity_on_one_row(tmp_path, capsys):
    path = tmp_path / "agg.csv"
    path.write_text('entity_id,cd,c,sc,h\n"Multi\nLine",3,10,2,2\n', encoding="utf-8")
    code = main(["metrics", "--input", str(path), "--kind", "aggregate", "--format", "md"])
    lines = capsys.readouterr().out.splitlines()
    assert code == EXIT_OK
    assert len(lines) == 3
    assert lines[2].startswith("| Multi<br>Line | 3 | 1 | 10 | 2 |")


def test_metrics_sort_flag(corpus_path, capsys):
    main(["metrics", "--input", str(corpus_path), "--sort", "cd"])
    out = capsys.readouterr().out
    cds = [int(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert cds == sorted(cds, reverse=True)
    pos_cd = [int(line.split(",")[2]) for line in out.splitlines()[1:]]
    assert pos_cd == list(range(1, len(cds) + 1))


def test_metrics_weight_flag(corpus_path, capsys):
    main(["metrics", "--input", str(corpus_path), "--weight", "unity"])
    out = capsys.readouterr().out
    for line in out.splitlines()[1:]:
        fields = line.split(",")
        h, v_index = fields[6], fields[11]
        assert v_index == f"{int(h)}.000"


def test_metrics_output_file(corpus_path, tmp_path, capsys):
    target = tmp_path / "table.csv"
    code = main(["metrics", "--input", str(corpus_path), "--output", str(target)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert captured.out == ""
    assert target.read_text(encoding="utf-8").splitlines()[0] == HEADER


def test_metrics_journal_mode(corpus_path, capsys):
    code = main(["metrics", "--input", str(corpus_path), "--mode", "journal"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    entities = {line.split(",")[0] for line in out.splitlines()[1:]}
    assert entities <= {f"v{i:02d}" for i in range(1, 7)}


def test_metrics_mode_ignored_for_aggregate(aggregate_path, capsys):
    code = main(
        ["metrics", "--input", str(aggregate_path), "--kind", "aggregate", "--mode", "journal"]
    )
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "--mode has no effect" in captured.err


def test_metrics_missing_file(tmp_path, capsys):
    code = main(["metrics", "--input", str(tmp_path / "absent.jsonl")])
    captured = capsys.readouterr()
    assert code == EXIT_READ
    assert captured.err.startswith("error:")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["metrics", "compare", "synth"])
def test_output_that_cannot_be_written_exits_1(command, corpus_path, tmp_path, capsys):
    target = tmp_path / "missing" / "out.csv"
    if command == "synth":
        source = ["--seed", "1", "--papers", "5", "--authors", "3"]
    else:
        source = ["--input", str(corpus_path)]
    code = main([command, *source, "--output", str(target)])
    captured = capsys.readouterr()
    assert code == EXIT_READ
    assert captured.out == ""
    assert re.fullmatch(r"error: \[Errno 2\] [^\n]*\n", captured.err), captured.err
    assert not target.parent.exists()


def test_metrics_invalid_aggregate_row(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("entity_id,cd,c,sc,h\noffender,5,10,20,3\n", encoding="utf-8")
    code = main(["metrics", "--input", str(path), "--kind", "aggregate"])
    captured = capsys.readouterr()
    assert code == EXIT_DATA
    assert "offender" in captured.err


def test_metrics_bad_weight_spec(corpus_path, capsys):
    code = main(["metrics", "--input", str(corpus_path), "--weight", "x^1"])
    captured = capsys.readouterr()
    assert code == EXIT_DATA
    assert "error:" in captured.err


@pytest.mark.parametrize("command", ["metrics", "compare"])
@pytest.mark.parametrize(
    "spec",
    [
        pytest.param("x^\u0663", id="arabic-indic-digit"),
        pytest.param("x^\uff13", id="fullwidth-digit"),
        pytest.param("x^" + "9" * 5000, id="5000-digits"),
        pytest.param("x^1" + "0" * 400, id="1e400"),
        pytest.param("x^(1/1" + "0" * 400 + ")", id="1/1e400"),
        pytest.param("x^1" + "0" * 308, id="309-digits"),
        # Before Python 3.13, argparse reads the value of --weight=-- as [].
        pytest.param("--", id="two-dashes"),
    ],
)
def test_refused_weight_spec_is_one_data_error(command, spec, corpus_path, capsys):
    baseline = ["--weight", "sqrt"] if command == "compare" else []
    code = main([command, "--input", str(corpus_path), *baseline, f"--weight={spec}"])
    captured = capsys.readouterr()
    assert code == EXIT_DATA
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# Pieces of random weight specs: every accepted form's parts, case, blanks,
# signs, other scripts' digits, a lone surrogate and long runs of digits.
SPEC_PIECES = (
    "x", "X", "^", "(", ")", "1/", "/", "0", "1", "2", "3", "9", "sqrt", "unity", "linear",
    "SQRT", " ", "\t", "\n", "-", "+", ".", "e", "\u0663", "\uff13", "\u00b2", "\udcff",
    "9" * 308, "1" + "0" * 308,
)


def _weight_spec(rng) -> str:
    if rng.random() < 0.3:
        digits = rng.choice(("2", "3", "17", "0", "1", "9" * rng.randint(1, 310)))
        return rng.choice((f"x^{digits}", f"x^(1/{digits})", f" X^{digits} "))
    return "".join(rng.choice(SPEC_PIECES) for _ in range(rng.randint(0, 5)))


def _parses(specs: list[str]) -> bool:
    try:
        for spec in specs:
            WeightFunction.parse(spec)
    except DomainError:
        return False
    return True


def test_any_weight_spec_gives_a_table_or_one_data_error(tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        '{"id": "p1", "authors": ["a"]}\n{"id": "p2", "authors": ["a", "b"], "refs": ["p1"]}\n'
        '{"id": "p3", "authors": ["c"], "refs": ["p1", "p2"]}\n',
        encoding="utf-8",
    )
    rng = random.Random(2023)
    codes = set()
    for _ in range(250):
        specs = [_weight_spec(rng) for _ in range(2)]
        # The form with "=" keeps a spec that starts with "-" a value.
        for command, given in (("metrics", specs[1:]), ("compare", specs)):
            weights = [f"--weight={spec}" for spec in given]
            code = main([command, *weights, "--input", str(path)])
            captured = capsys.readouterr()
            assert code == (EXIT_OK if _parses(given) else EXIT_DATA), (weights, captured.err)
            if code == EXIT_DATA:
                assert captured.out == ""
                assert re.fullmatch(r"error: [^\n]*\n", captured.err), captured.err
            else:
                assert captured.err == "" and captured.out.startswith("entity_id,")
            codes.add(code)
    assert codes == {EXIT_OK, EXIT_DATA}


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main(["metrics"]) == 2  # --input is required
    capsys.readouterr()
    assert main(["metrics", "--input", "x", "--sort", "sideways"]) == 2


# Every single-value option of every subcommand given as ``--opt=--``, with
# the exit code and what the error line must hold (None: no error). Before
# Python 3.13, argparse read such a value as [] and skipped the option's
# type and choices. Only what the CLI owns is pinned: argparse's usage text
# differs by version.
DOUBLE_DASH_CASES = [
    *[
        (command, option, EXIT_DATA, option)
        for command in ("metrics", "validate", "compare")
        for option in ("--kind", "--mode")
    ],
    *[(command, "--input", EXIT_READ, "'--'") for command in ("metrics", "validate", "compare")],
    *[(command, "--format", EXIT_DATA, "--format") for command in ("metrics", "compare")],
    *[(command, "--output", EXIT_OK, None) for command in ("metrics", "compare", "synth")],
    ("metrics", "--sort", EXIT_DATA, "--sort"),
    ("metrics", "--weight", EXIT_DATA, "'--'"),
    ("compare", "--weight", EXIT_DATA, "'--'"),
    *[
        ("synth", option, EXIT_DATA, option)
        for option in ("--seed", "--papers", "--authors", "--bias")
    ],
]


def _required_argv(command, corpus_path):
    if command == "synth":
        return ["synth", "--seed", "1", "--papers", "5", "--authors", "3"]
    return [command, "--input", str(corpus_path)]


@pytest.mark.parametrize(
    "command, option, expected, fragment",
    DOUBLE_DASH_CASES,
    ids=[f"{command} {option}=--" for command, option, *_ in DOUBLE_DASH_CASES],
)
def test_double_dash_value_is_read_as_itself(
    command, option, expected, fragment, corpus_path, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)  # ``--output=--`` writes a file named ``--``
    argv = _required_argv(command, corpus_path)
    if (command, option) == ("compare", "--weight"):
        argv += ["--weight", "sqrt"]
    # An option given again, as ``--opt=--``, overrides its value before.
    code = main([*argv, f"{option}=--"])
    captured = capsys.readouterr()
    assert code == expected, captured.err
    if fragment is None:
        assert (tmp_path / "--").read_text(encoding="utf-8") and captured.out == ""
    else:
        (line,) = [line for line in captured.err.splitlines() if "error: " in line]
        assert fragment in line.partition("error: ")[2], line


# Every path option of every subcommand. ``Path("")`` is the directory ``.``,
# so an empty value was read as ``.`` and failed with ``[Errno 21] Is a
# directory: '.'`` (exit 1), naming a path that was never given.
EMPTY_PATH_CASES = [
    *[(command, "--input") for command in ("metrics", "validate", "compare")],
    *[(command, "--output") for command in ("metrics", "compare", "synth")],
]


@pytest.mark.parametrize("form", ["=", " "], ids=["equals", "separate"])
@pytest.mark.parametrize(
    "command, option",
    EMPTY_PATH_CASES,
    ids=[f"{command} {option}" for command, option in EMPTY_PATH_CASES],
)
def test_empty_path_value_is_a_usage_error(
    command, option, form, corpus_path, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    value = [f"{option}="] if form == "=" else [option, ""]
    code = main([*_required_argv(command, corpus_path), *value])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_DATA, "")
    assert captured.err.splitlines()[-1] == (
        f"vindex {command}: error: argument {option}: expected a path, got an empty value"
    )
    assert os.listdir(tmp_path) == [corpus_path.name]  # nothing written


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "metrics" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_clean_corpus(corpus_path, capsys):
    code = main(["validate", "--input", str(corpus_path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "0 error(s), 0 warning(s)" in out


def test_validate_duplicate_ids(tmp_path, capsys):
    path = tmp_path / "dup.jsonl"
    path.write_text(
        '{"id": "d1", "authors": ["a"]}\n{"id": "d1", "authors": ["b"]}\n', encoding="utf-8"
    )
    code = main(["validate", "--input", str(path)])
    out = capsys.readouterr().out
    assert code == EXIT_DATA
    assert "d1" in out
    assert "1 error(s)" in out


def test_validate_warnings_keep_exit_zero(tmp_path, capsys):
    path = tmp_path / "warn.jsonl"
    path.write_text('{"id": "p1", "authors": ["a"], "refs": ["ghost"]}\n', encoding="utf-8")
    code = main(["validate", "--input", str(path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "warning:" in out
    assert "1 warning(s)" in out


def test_validate_aggregate(aggregate_path, tmp_path, capsys):
    assert main(["validate", "--input", str(aggregate_path), "--kind", "aggregate"]) == EXIT_OK
    capsys.readouterr()
    bad = tmp_path / "bad.csv"
    bad.write_text("entity_id,cd,c,sc,h\nworst,1,5,9,1\n", encoding="utf-8")
    code = main(["validate", "--input", str(bad), "--kind", "aggregate"])
    out = capsys.readouterr().out
    assert code == EXIT_DATA
    assert "worst" in out


def test_validate_aggregate_rejects_non_ascii_count_syntax(tmp_path, capsys):
    path = tmp_path / "counts.csv"
    path.write_text(
        "entity_id,cd,c,sc,h\nUnderscore,1_0,20,5,3\nArabicDigit,\u0665,20,5,3\n",
        encoding="utf-8",
    )
    code = main(["validate", "--input", str(path), "--kind", "aggregate"])
    out = capsys.readouterr().out
    assert code == EXIT_DATA
    assert out.splitlines() == [
        "error: line 2: entity 'Underscore': counts must be integers",
        "error: line 3: entity 'ArabicDigit': counts must be integers",
        "2 error(s), 0 warning(s)",
    ]


@pytest.mark.parametrize(
    "name, kind, data, message",
    [
        (
            "bad.jsonl",
            "corpus",
            b'{"id": "p1", "authors": ["a"]}\n{"id": "p2", "authors": ["\xff"]}\n',
            "line 2: invalid UTF-8 at byte 27 (invalid start byte)",
        ),
        (
            "bad.csv",
            "aggregate",
            b"entity_id,cd,c,sc,h\nx,1,1,0,1\ny\xff,1,1,0,1\n",
            "line 3: invalid UTF-8 at byte 2 (invalid start byte)",
        ),
    ],
)
def test_invalid_utf8_is_a_data_error_naming_the_line(name, kind, data, message, tmp_path, capsys):
    path = tmp_path / name
    path.write_bytes(data)
    code = main(["metrics", "--input", str(path), "--kind", kind])
    captured = capsys.readouterr()
    assert code == EXIT_DATA
    assert captured.out == ""
    assert captured.err == f"error: {name}, {message}\n"
    code = main(["validate", "--input", str(path), "--kind", kind])
    assert code == EXIT_DATA
    assert capsys.readouterr().out == f"error: {message}\n1 error(s), 0 warning(s)\n"


@pytest.mark.parametrize("command", ["metrics", "validate"])
def test_leading_byte_order_mark_is_read_like_its_absence(
    command, corpus_path, aggregate_path, tmp_path, capsys
):
    for path, kind in ((corpus_path, "corpus"), (aggregate_path, "aggregate")):
        bom_path = tmp_path / f"bom-{path.name}"
        bom_path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert main([command, "--input", str(path), "--kind", kind]) == EXIT_OK
        plain = capsys.readouterr()
        assert main([command, "--input", str(bom_path), "--kind", kind]) == EXIT_OK
        assert capsys.readouterr() == plain


GOOD_LINE = b'{"id": "p1", "authors": ["a"]}\n'
TWO_MARKS = b"\xef\xbb\xbf" * 2


@pytest.mark.parametrize(
    "name, kind, data, message",
    [
        pytest.param(
            "bom.jsonl",
            "corpus",
            TWO_MARKS + GOOD_LINE,
            "line 1: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))",
            id="jsonl-two-marks",
        ),
        pytest.param(
            "bom.csv",
            "aggregate",
            TWO_MARKS + b"entity_id,cd,c,sc,h\nx,1,1,0,1\n",
            "line 1: header must be exactly 'entity_id,cd,c,sc,h', "
            "got '\\ufeffentity_id,cd,c,sc,h'",
            id="csv-two-marks",
        ),
        pytest.param(
            "int.jsonl",
            "corpus",
            GOOD_LINE + b'{"id": "p2", "authors": ["b"], "year": ' + b"9" * 5000 + b"}\n",
            "line 2: invalid JSON (integer too long)",
            id="huge-int",
        ),
        pytest.param(
            "deep.jsonl",
            "corpus",
            GOOD_LINE + b"[" * 100_000 + b"]" * 100_000 + b"\n",
            "line 2: invalid JSON (nested too deeply)",
            id="deep-nesting",
        ),
        pytest.param(
            "deep.jsonl",
            "corpus",
            GOOD_LINE
            + b'{"id": "p2", "authors": ["b"], "x": %s%s}\n' % (b"[" * 1200, b"]" * 1200),
            "line 2: invalid JSON (nested too deeply)",
            id="nesting-1200",
        ),
        pytest.param(
            "digits.csv",
            "aggregate",
            b"entity_id,cd,c,sc,h\nx,1," + b"9" * 5000 + b",0,1\n",
            "line 2: entity 'x': count too large",
            id="digits-5000",
        ),
        pytest.param(
            "h-cd.csv",
            "aggregate",
            b"entity_id,cd,c,sc,h\nok,1,1,0,1\nx,%d,5,1,%d\n" % (10**26, 10**26),
            "line 3: entity 'x': count too large",
            id="h-cd-1e26",
        ),
        pytest.param(
            "c.csv",
            "aggregate",
            b"entity_id,cd,c,sc,h\nx,1,%d,0,1\n" % 10**400,
            "line 2: entity 'x': count too large",
            id="c-1e400",
        ),
        *(
            pytest.param(
                "surrogate.jsonl",
                "corpus",
                GOOD_LINE + record + b"\n",
                f"line 2: '{what}' holds a lone surrogate",
                id=f"surrogate-{what}",
            )
            for what, record in [
                ("id", b'{"id": "p\\udfff", "authors": ["a"]}'),
                ("authors", b'{"id": "p2", "authors": ["b", "a\\ud800"]}'),
                ("venue", b'{"id": "p2", "authors": ["b"], "venue": "J\\uDBFF"}'),
                ("refs", b'{"id": "p2", "authors": ["b"], "refs": ["p1", "\\ud800x"]}'),
            ]
        ),
        pytest.param(
            "field.csv",
            "aggregate",
            b"entity_id,cd,c,sc,h\nok,1,1,0,1\n" + b"x" * 131073 + b",1,1,0,1\nz,1,1,0,1\n",
            "line 3: field larger than field limit (131072)",
            id="csv-field-limit",
        ),
    ],
)
def test_refused_input_is_one_data_error_naming_its_line(
    name, kind, data, message, tmp_path, capsys
):
    path = tmp_path / name
    path.write_bytes(data)
    assert main(["metrics", "--input", str(path), "--kind", kind]) == EXIT_DATA
    assert capsys.readouterr() == ("", f"error: {name}, {message}\n")
    assert main(["validate", "--input", str(path), "--kind", kind]) == EXIT_DATA
    assert capsys.readouterr().out == f"error: {message}\n1 error(s), 0 warning(s)\n"


def test_counts_of_exactly_2_to_the_53_are_accepted(tmp_path, capsys):
    top = 2**53
    path = tmp_path / "top.csv"
    path.write_text(f"entity_id,cd,c,sc,h\ntop,{top},{top},0,{top}\nx,1,{top},{top},1\n")
    assert main(["validate", "--input", str(path), "--kind", "aggregate"]) == EXIT_OK
    assert capsys.readouterr().out == "0 error(s), 0 warning(s)\n"
    assert main(["metrics", "--input", str(path), "--kind", "aggregate"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith(f"top,{top},1,{top},0,1.000,{top},1,,1.000,1.000,{top}.000,1,")
    assert lines[2].startswith(f"x,1,2,{top},{top},{top}.000,1,2,,0.000,0.000,0.000,2,")


MESSY_CORPUS = (
    b'{"id": "p1", "authors": ["ann"], "venue": "J1", "refs": ["p1"]}\n'
    b'{"id": "p2", "authors": ["bob"], "venue": "J1", "refs": ["p1", "ghost"]}\n'
    b"{broken\n"
    b'{"id": "p1", "authors": ["cara"], "venue": "J2", "refs": ["p1", "p2"]}\n'
    b'{"id": "p5", "venue": "J2"}\n'
    b'{"id": "p6", "authors": ["ann", "cara"], "refs": ["p2"]}\n'
    b'{"id": "p7", "authors": ["d\xffn"], "venue": "J1"}\n'
)

MESSY_REPORT = [
    "error: line 3: invalid JSON (Expecting property name enclosed in double quotes)",
    "error: line 4: duplicate paper id 'p1'",
    "error: line 5: paper 'p5' has no 'authors'",
    "error: line 7: invalid UTF-8 at byte 28 (invalid start byte)",
    "warning: line 1: paper 'p1' cites itself (1 entry(ies) stripped)",
    # the duplicate line is rejected, but its self-reference is still reported
    "warning: line 4: paper 'p1' cites itself (1 entry(ies) stripped)",
    "warning: 1 reference(s) point outside the corpus and will be ignored",
]


@pytest.mark.parametrize(
    "mode, tail",
    [
        ("author", ["4 error(s), 3 warning(s)"]),
        (
            "journal",
            [
                "warning: 1 paper(s) have no venue; their citations count as genuine",
                "4 error(s), 4 warning(s)",
            ],
        ),
    ],
)
def test_validate_reports_every_problem_of_a_messy_corpus(mode, tail, tmp_path, capsys):
    path = tmp_path / "messy.jsonl"
    path.write_bytes(MESSY_CORPUS)
    code = main(["validate", "--input", str(path), "--mode", mode])
    assert code == EXIT_DATA
    assert capsys.readouterr().out.splitlines() == MESSY_REPORT + tail


def test_validate_reports_every_problem_of_a_messy_aggregate(tmp_path, capsys):
    path = tmp_path / "messy.csv"
    path.write_bytes(
        b"entity_id,cd,c,sc,h\nok,1,1,0,1\nshort,1\n,1,1,0,1\ncount,1_0,2,0,1\n"
        b"sc,5,10,20,3\nhcd,3,100,0,4\nneg,-1,2,0,1\nok,1,1,0,1\nsc,1,1,5,1\n"
        b'by\xfete,1,1,0,1\n"Multi\nLine",3,10,2,2\n'
    )
    code = main(["validate", "--input", str(path), "--kind", "aggregate"])
    assert code == EXIT_DATA
    assert capsys.readouterr().out.splitlines() == [
        "error: line 3: expected 5 fields, got 2",
        "error: line 4: entity_id must be non-empty",
        "error: line 5: entity 'count': counts must be integers",
        "error: line 6: entity 'sc': self_citations (20) exceed citations_total (10)",
        "error: line 7: entity 'hcd': h_index (4) exceeds citable_documents (3)",
        "error: line 8: entity 'neg': citable_documents must be >= 0, got -1",
        "error: line 9: duplicate entity 'ok'",
        # a repeated entity is reported as such before its counts are checked
        "error: line 10: duplicate entity 'sc'",
        "error: line 11: invalid UTF-8 at byte 3 (invalid start byte)",
        "9 error(s), 0 warning(s)",
    ]


def test_validate_missing_file(tmp_path, capsys):
    code = main(["validate", "--input", str(tmp_path / "absent.csv")])
    assert code == EXIT_READ


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def test_synth_writes_corpus_to_stdout(capsys):
    code = main(["synth", "--seed", "4", "--papers", "12", "--authors", "5"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    lines = captured.out.splitlines()
    assert len(lines) == 12
    for line in lines:
        record = json.loads(line)
        assert record["id"].startswith("p")
    assert "self-citation fraction" in captured.err


def test_synth_output_file(tmp_path, capsys):
    target = tmp_path / "synth.jsonl"
    code = main(
        ["synth", "--seed", "4", "--papers", "12", "--authors", "5", "--output", str(target)]
    )
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert captured.out == ""
    assert len(target.read_text(encoding="utf-8").splitlines()) == 12


def test_synth_matches_library(capsys):
    main(["synth", "--seed", "31", "--papers", "20", "--authors", "6", "--bias", "0.8"])
    out = capsys.readouterr().out
    assert out == serialize_corpus(generate_synthetic_corpus(31, 20, 6, 0.8))


def test_synth_rejects_bad_parameters(capsys):
    assert main(["synth", "--seed", "1", "--papers", "0", "--authors", "3"]) == EXIT_DATA
    capsys.readouterr()
    assert (
        main(["synth", "--seed", "1", "--papers", "5", "--authors", "3", "--bias", "1.5"])
        == EXIT_DATA
    )


def test_synth_out_of_memory_is_one_error_line():
    # A --papers count that parses but cannot fit: the list of paper ids
    # outgrows an address-space limit set in the child only.
    resource = pytest.importorskip("resource")

    def cap_memory():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (256 * 2**20, hard))

    src = str(Path(vindex.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "vindex", "synth", "--seed", "1", "--papers", str(10**12),
         "--authors", "2"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        preexec_fn=cap_memory,
        timeout=120,
        check=False,
    )
    assert (done.returncode, done.stdout, done.stderr) == (
        EXIT_READ, b"", b"error: out of memory\n"
    )


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_default_weights(corpus_path, capsys):
    code = main(["compare", "--input", str(corpus_path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "entity_id,rank_a,rank_b,delta"
    deltas = []
    for line in lines[1:]:
        entity_id, rank_a, rank_b, delta = line.split(",")
        assert int(delta) == int(rank_a) - int(rank_b)
        deltas.append(abs(int(delta)))
    assert deltas == sorted(deltas, reverse=True)


def test_compare_identical_weights_yield_zero_deltas(corpus_path, capsys):
    code = main(
        ["compare", "--input", str(corpus_path), "--weight", "sqrt", "--weight", "sqrt"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    for line in out.splitlines()[1:]:
        assert line.endswith(",0")


def test_compare_needs_exactly_two_weights(corpus_path, capsys):
    code = main(["compare", "--input", str(corpus_path), "--weight", "sqrt"])
    captured = capsys.readouterr()
    assert code == EXIT_DATA
    assert "exactly two" in captured.err


def test_compare_markdown(corpus_path, capsys):
    code = main(["compare", "--input", str(corpus_path), "--format", "md"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.startswith("| entity_id | rank_a | rank_b | delta |")


def write_aggregate_from_golden(golden_rows, path):
    import csv as csv_module

    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv_module.writer(handle, lineterminator="\n")
        writer.writerow(["entity_id", "cd", "c", "sc", "h"])
        for record in golden_rows:
            writer.writerow(
                [record["entity_id"], record["cd"], record["c"], record["sc"], record["h"]]
            )


def parse_compare_output(text):
    import csv as csv_module
    import io as io_module

    reader = csv_module.reader(io_module.StringIO(text))
    next(reader)
    return {row[0]: (int(row[1]), int(row[2]), int(row[3])) for row in reader}


def test_compare_reproduces_known_author_swap(author_table, tmp_path, capsys):
    # moving from the plain h ranking to the discounted one swaps the top two
    path = tmp_path / "authors.csv"
    write_aggregate_from_golden(author_table, path)
    code = main(["compare", "--input", str(path), "--kind", "aggregate"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    shifts = parse_compare_output(out)
    assert shifts["Wang, Wei"] == (1, 2, -1)
    assert shifts["Huang, Thomas"] == (2, 1, 1)


def test_compare_reproduces_known_journal_drop(journal_table, tmp_path, capsys):
    # a journal with a heavy self-citation share falls five places under the
    # discounted ranking
    path = tmp_path / "journals.csv"
    write_aggregate_from_golden(journal_table, path)
    code = main(["compare", "--input", str(path), "--kind", "aggregate"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    shifts = parse_compare_output(out)
    assert shifts["Inform Sciences"] == (10, 15, -5)


WARNED_CORPUS = (
    '{"id": "p1", "authors": ["ann"], "venue": "J1", "refs": []}\n'
    '{"id": "p2", "authors": ["bob"], "refs": ["p1", "ghost"]}\n'
    '{"id": "p3", "authors": ["ann", "cara"], "venue": "J1", "refs": ["p1", "p3"]}\n'
    '{"id": "p4", "authors": ["bob"], "venue": "", "refs": ["p2", "p3", "p4"]}\n'
)


@pytest.mark.parametrize("command", ["metrics", "compare"])
@pytest.mark.parametrize(
    "mode, warnings",
    [
        ("author", ["warning: stripped 2 self-referencing citation(s)"]),
        (
            "journal",
            [
                "warning: stripped 2 self-referencing citation(s)",
                "warning: 3 citation edge(s) lack venue metadata and were classified genuine",
            ],
        ),
    ],
)
def test_corpus_warnings_go_to_the_stderr_of_each_call(command, mode, warnings, tmp_path):
    path = tmp_path / "warned.jsonl"
    path.write_text(WARNED_CORPUS, encoding="utf-8")
    outputs = []
    for _ in range(2):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main([command, "--input", str(path), "--mode", mode]) == EXIT_OK
        assert err.getvalue().splitlines() == warnings
        outputs.append(out.getvalue())
    assert outputs[0] == outputs[1] != ""


def test_compare_aggregate_input(aggregate_path, capsys):
    code = main(
        [
            "compare",
            "--input",
            str(aggregate_path),
            "--kind",
            "aggregate",
            "--weight",
            "unity",
            "--weight",
            "x^3",
        ]
    )
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "entity_id,rank_a,rank_b,delta"
    assert len(lines) == 9


# ---------------------------------------------------------------------------
# repeated calls
# ---------------------------------------------------------------------------

def test_repeated_calls_in_one_process_are_independent(corpus_path, capsys):
    # The argparse tree is built once per process, so no call may leave
    # state in it that a later call reads: an appended --weight list, or
    # what a usage error or --help parsed.
    assert cli._build_parser() is cli._build_parser()
    compare = ["compare", "--input", str(corpus_path), "--weight", "unity", "--weight", "x^2"]
    assert main(compare) == EXIT_OK
    first = capsys.readouterr()
    assert main(compare) == EXIT_OK
    assert capsys.readouterr() == first
    metrics = ["metrics", "--input", str(corpus_path)]
    assert main(metrics) == EXIT_OK
    table = capsys.readouterr().out
    assert main([*metrics, "--sort", "nope"]) == EXIT_DATA
    assert "invalid choice: 'nope'" in capsys.readouterr().err
    assert main(["metrics", "--help"]) == EXIT_OK
    capsys.readouterr()
    assert main(metrics) == EXIT_OK
    assert capsys.readouterr().out == table
    assert main(compare[:-2]) == EXIT_DATA
    assert capsys.readouterr().err == "error: compare needs exactly two --weight flags, got 1\n"


# ---------------------------------------------------------------------------
# stdout encoding
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_stdout_is_utf8_whatever_its_encoding(encoding, tmp_path):
    corpus = tmp_path / "names.jsonl"
    corpus.write_text(
        '{"id": "p1", "authors": ["Müller"], "venue": "Zürich"}\n'
        '{"id": "p2", "authors": ["Ødegård", "Müller"], "refs": ["p1"]}\n',
        encoding="utf-8",
    )
    duplicate = tmp_path / "duplicate.jsonl"
    duplicate.write_text('{"id": "ü", "authors": ["a"]}\n' * 2, encoding="utf-8")
    src = str(Path(vindex.__file__).resolve().parent.parent)

    def run(argv, io_encoding):
        env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING=io_encoding)
        command = [sys.executable, "-m", "vindex", *argv]
        return subprocess.run(command, env=env, capture_output=True, check=False)

    for argv, code, text in [
        (["metrics", "--input", str(corpus)], EXIT_OK, "Ødegård"),
        (["compare", "--input", str(corpus)], EXIT_OK, "Müller"),
        (["validate", "--input", str(duplicate)], EXIT_DATA, "duplicate paper id 'ü'"),
    ]:
        utf8 = run(argv, "utf-8")
        assert utf8.returncode == code and text in utf8.stdout.decode("utf-8")
        other = run(argv, encoding)
        assert (other.returncode, other.stdout) == (code, utf8.stdout), other.stderr
        if argv[0] != "validate":
            output = tmp_path / "output.csv"
            assert run([*argv, "--output", str(output)], encoding).returncode == code
            assert output.read_bytes() == utf8.stdout


def _stdout_env(unbuffered: bool) -> dict[str, str]:
    """The environment of a ``python -m vindex`` child: buffered stdout is
    the default, and ``PYTHONUNBUFFERED=1`` writes to the pipe at once."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(vindex.__file__).resolve().parent.parent)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("command", ["metrics", "validate", "synth", "compare"])
def test_a_closed_stdout_pipe_is_one_error_line_and_exit_1(command, unbuffered, corpus_path):
    argv = [command, "--input", str(corpus_path)]
    if command == "synth":
        argv = [command, "--seed", "1", "--papers", "5", "--authors", "3"]
    # The read end is closed before the child starts, so its first write fails.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "vindex", *argv],
            env=_stdout_env(unbuffered),
            stdout=write_end,
            stderr=subprocess.PIPE,
            check=False,
        )
    finally:
        os.close(write_end)
    assert done.returncode == EXIT_READ
    # One line, with no "Exception ignored" report from the final flush.
    assert done.stderr == b"error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_stdout_pipe_closed_mid_write_is_one_error_line_and_exit_1(unbuffered):
    # About 210 kB of output, more than a pipe holds: the reader takes a few
    # bytes and leaves while the child is still writing.
    argv = ["synth", "--seed", "1", "--papers", "2000", "--authors", "300"]
    read_end, write_end = os.pipe()
    try:
        child = subprocess.Popen(
            [sys.executable, "-m", "vindex", *argv],
            env=_stdout_env(unbuffered),
            stdout=write_end,
            stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    try:
        assert os.read(read_end, 16)
    finally:
        os.close(read_end)
    _, stderr = child.communicate()
    assert child.returncode == EXIT_READ
    assert stderr == b"error: [Errno 32] Broken pipe\n"


# ---------------------------------------------------------------------------
# hash seeds
# ---------------------------------------------------------------------------

# Runs each argv of the JSON list in its first argument, in one process, and
# writes each exit code after its output.
RUN_EACH = (
    "import json, sys\n"
    "from vindex.cli import main\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    code = main(argv)\n"
    "    sys.stdout.flush()\n"
    "    sys.stdout.buffer.write(f'exit {code}\\n'.encode())\n"
)


def _messy_corpus(rng: random.Random) -> str:
    """A valid corpus with tied entities, shared and repeated names, refs
    to itself, to unknown ids and repeated, and papers without a venue."""
    names = ("Zoë", "ann", "bob", "Ødegård, K.", "b\u2028c", "d\"e", "x1", "x2")
    lines = []
    for index in range(24):
        record: dict[str, object] = {
            "id": f"p{index}",
            "authors": [rng.choice(names) for _ in range(rng.randint(1, 3))],
        }
        venue = rng.choice(("J1", "J2", "Ünï", None))
        if venue is not None:
            record["venue"] = venue
        pool = [f"p{j}" for j in range(24)] + ["ghost"]
        record["refs"] = [rng.choice(pool) for _ in range(rng.randint(0, 6))]
        lines.append(json.dumps(record, ensure_ascii=rng.random() < 0.5))
    return "".join(line + "\n" for line in lines)


def test_output_is_the_same_under_every_hash_seed(tmp_path):
    corpus = tmp_path / "messy.jsonl"
    corpus.write_text(_messy_corpus(random.Random(61)), encoding="utf-8")
    aggregate = tmp_path / "messy.csv"
    aggregate.write_text(
        write_aggregate_csv(aggregate_all(ingest_corpus(corpus), "journal")), encoding="utf-8"
    )
    corpus_argvs = [
        ["metrics"],
        ["metrics", "--mode", "journal", "--format", "md"],
        ["compare", "--weight", "unity", "--weight", "x^2"],
        ["validate", "--mode", "journal"],
    ]
    argvs = [[*argv, "--input", str(corpus)] for argv in corpus_argvs] + [
        [command, "--input", str(aggregate), "--kind", "aggregate"]
        for command in ("metrics", "compare", "validate")
    ]
    src = str(Path(vindex.__file__).resolve().parent.parent)
    outputs = set()
    for seed in range(4):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))
        command = [sys.executable, "-c", RUN_EACH, json.dumps(argvs)]
        done = subprocess.run(command, env=env, capture_output=True, check=False)
        assert done.returncode == 0, done.stderr
        outputs.add((done.stdout, done.stderr))
    assert len(outputs) == 1
    stdout, stderr = outputs.pop()
    assert stdout.count(b"exit 0\n") == len(argvs)
    # The corpus is messy enough to warn.
    assert b"warning: stripped" in stderr and b"lack venue metadata" in stderr


# ---------------------------------------------------------------------------
# runtime dependencies
# ---------------------------------------------------------------------------

def test_import_loads_no_numpy_or_scipy():
    # nor logging: warnings are the CLI's to print, so the library keeps none;
    # nor statistics and the fractions it pulls in, which batch_stats imports
    # when called; nor decimal and its numbers, which only fmt3's near-ties need;
    # nor dataclasses and the inspect it pulls in: the records are named tuples
    src = str(Path(vindex.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    absent = (
        "numpy", "scipy", "logging", "statistics", "fractions", "decimal", "numbers",
        "dataclasses", "inspect",
    )
    probe = (
        "import sys, vindex, vindex.cli\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {absent!r}))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# benchmark hooks
# ---------------------------------------------------------------------------

def test_bench_tracer_names_resolve():
    # The benchmark tracer wraps these functions by module attribute; a
    # rename here must fail the suite, not only a traced benchmark run.
    spans_path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", spans_path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for module_name, name in spans.TRACED:
        module = importlib.import_module(f"vindex.{module_name}")
        assert callable(getattr(module, name, None)), f"vindex.{module_name}.{name}"


def test_aggregate_metrics_calls_each_traced_layer_by_name(tmp_path, monkeypatch, capsys):
    # The tracer times a layer only when the CLI looks its function up on
    # the module at call time; a direct reference would hide it from spans.
    calls = dict.fromkeys(
        [("graph", "read_aggregate_csv"), ("metrics", "metrics_row"),
         ("analytics", "rank"), ("analytics", "render_table")],
        0,
    )
    for key in calls:
        module = importlib.import_module(f"vindex.{key[0]}")

        def counting(*args, _key=key, _function=getattr(module, key[1]), **kwargs):
            calls[_key] += 1
            return _function(*args, **kwargs)

        monkeypatch.setattr(module, key[1], counting)
    path = tmp_path / "entities.csv"
    path.write_text("entity_id,cd,c,sc,h\na,3,10,2,2\nb,2,4,0,1\nc,1,0,0,0\n", encoding="utf-8")
    assert main(["metrics", "--kind", "aggregate", "--input", str(path)]) == EXIT_OK
    assert capsys.readouterr().out.startswith(HEADER)
    assert calls == {
        ("graph", "read_aggregate_csv"): 1,
        ("metrics", "metrics_row"): 3,
        ("analytics", "rank"): 1,
        ("analytics", "render_table"): 1,
    }


def test_bench_tracer_settles_its_work_counts(tmp_path, monkeypatch, capsys):
    # The traced benchmark counts work from what the layers return
    # (``Corpus.dangling_refs``, ``per_paper[].paper_id``,
    # ``RankedTable.rows``) and runs its library session, ``run.analysis``,
    # through names of all three layers. A rename must fail the suite, not
    # only a ``--trace 1`` run.
    bench = Path(__file__).resolve().parent.parent / "bench"
    monkeypatch.syspath_prepend(str(bench))  # run.py imports its siblings
    spec = importlib.util.spec_from_file_location("bench_run", bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_run", run)  # for its dataclasses
    spec.loader.exec_module(run)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        '{"id": "p1", "authors": ["a"], "venue": "v1"}\n'
        '{"id": "p2", "authors": ["a", "b"], "venue": "v1", "refs": ["p1", "gone"]}\n'
        '{"id": "p3", "authors": ["c"], "venue": "v2", "refs": ["p1", "p2"]}\n',
        encoding="utf-8",
    )
    aggregate = tmp_path / "entities.csv"
    aggregate.write_text(
        "entity_id,cd,c,sc,h\na,3,10,2,2\nb,2,4,0,1\nc,1,0,0,0\n", encoding="utf-8"
    )
    untraced = run.analysis(vindex, corpus, aggregate)
    modules = {"graph": vindex.graph, "metrics": vindex.metrics, "analytics": vindex.analytics}
    tracer = run.Tracer(modules)

    def settled(name, function, *args):
        tracer.counts.clear()
        tracer.call(name, function, *args)
        return dict(tracer.counts)

    def cli_counts(*argv):
        counts = settled("cli.main", main, list(argv))
        return counts, len(capsys.readouterr().out.encode("utf-8"))

    graph_counts = {"graph.papers": 3, "graph.edges": 3, "graph.dangling_refs": 1}
    tracer.install()
    try:
        counts, rendered = cli_counts("metrics", "--input", str(corpus))
        assert counts == {
            **graph_counts, "graph.self_edges.author": 1, "graph.entities.author": 3,
            "analytics.rows_ranked": 3, "analytics.bytes_rendered": rendered,
        }
        counts, rendered = cli_counts("metrics", "--input", str(corpus), "--mode", "journal")
        assert counts == {
            **graph_counts, "graph.self_edges.journal": 1, "graph.entities.journal": 2,
            "analytics.rows_ranked": 2, "analytics.bytes_rendered": rendered,
        }
        counts, rendered = cli_counts("metrics", "--input", str(aggregate), "--kind", "aggregate")
        assert counts == {"analytics.rows_ranked": 3, "analytics.bytes_rendered": rendered}
        for argv in (
            ["validate", "--input", str(corpus)],
            ["validate", "--input", str(aggregate), "--kind", "aggregate"],
            ["synth", "--seed", "1", "--papers", "5", "--authors", "3"],
        ):
            assert settled("cli.main", main, argv) == {}
        capsys.readouterr()
        tracer.counts.clear()
        traced = tracer.call("analysis", run.analysis, vindex, corpus, aggregate)
        assert dict(tracer.counts) == {
            **graph_counts, "graph.self_edges.author": 1, "graph.entities.author": 3,
            "analytics.rows_ranked": 6,
            "analytics.bytes_rendered": len(f"{traced.markdown}{traced.table_csv}".encode()),
        }
    finally:
        tracer.uninstall()
    assert traced.digest() == untraced.digest()
    # Every span the benchmark reports was entered.
    assert {tracer.names[index] for index in tracer.name} == set(run.SPAN_NAMES)
