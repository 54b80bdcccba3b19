"""Byte pins on the rendered tables.

Each case runs ``cli.main`` in-process and compares the sha256 of its
stdout with a digest recorded before the ranking and rendering fast paths
went in, so any change to a cell, a position or a tie-break shows here.
The corpus pins were recorded before author and journal mode came to share
one owner rule, so they hold the classification and grouping of both modes
as they were.

The cross-version pin is ``fuzzing.digest()``: the exit code, stdout,
stderr and written files of a fixed seed set of the JSONL, aggregate CSV
and argv fuzz cases. Argparse's help and usage text differ by Python
version, so for those runs it holds only the exit code and what the usage
error names. The pin is the same on Python 3.11 to 3.13; without pytest,
``PYTHONPATH=src python tests/fuzzing.py`` prints the digest to compare.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random

import pytest

import fuzzing
from conftest import DATA_DIR
from vindex.cli import EXIT_OK, main

WIDE_ROWS = 5000
CORPUS_PAPERS = 300


def _wide_csv(seed: int, n_rows: int) -> str:
    """An aggregate CSV whose h and CD orderings tie often, with a tenth of
    the entities free of self-citations and some ids that need quoting."""
    rng = random.Random(seed)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["entity_id", "cd", "c", "sc", "h"])
    rows = []
    for index in range(n_rows):
        if index % 11 == 0:
            entity = f'Lab "{index}", Dept {index % 97}'
        elif index % 13 == 0:
            entity = f"Équipe {index:05d}"
        else:
            entity = f"Entity {index:05d}"
        cd = rng.randint(1, 400)
        h = rng.randint(0, min(cd, 60))
        c = h * h + rng.randint(0, 5000)
        sc = 0 if rng.random() < 0.1 else int(c * rng.random() ** 3)
        rows.append((entity, cd, c, sc, h))
    rng.shuffle(rows)
    writer.writerows(rows)
    return out.getvalue()


def _reduced(name: str) -> str:
    with open(DATA_DIR / name, newline="", encoding="utf-8") as handle:
        records = list(csv.DictReader(handle))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["entity_id", "cd", "c", "sc", "h"])
    writer.writerows([r["entity_id"], r["cd"], r["c"], r["sc"], r["h"]] for r in records)
    return out.getvalue()


def _messy_corpus(seed: int, n_papers: int) -> str:
    """A JSONL corpus with dense refs, refs to later lines, dangling and
    duplicate refs, self-references, papers without a venue and teams that
    name one author twice."""
    rng = random.Random(seed)
    authors = [f"author {i:02d}" for i in range(60)]
    ids = [f"p{i:03d}" for i in range(n_papers)]
    lines = []
    for index, paper_id in enumerate(ids):
        team = rng.sample(authors, rng.randint(1, 4))
        if index % 17 == 0:
            team.append(team[0])
        record: dict[str, object] = {"id": paper_id, "authors": team}
        if index % 9:
            record["venue"] = rng.choice(("J1", "J2", "J3", "Conf A", "Conf B"))
        if index % 4:
            record["year"] = 1990 + index % 20
        refs = rng.sample(ids, rng.randint(0, 30))
        if index % 7 == 0:
            refs.append(f"x{index:03d}")
        if refs and index % 5 == 0:
            refs.append(refs[0])
        record["refs"] = refs
        lines.append(json.dumps(record))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("pins")
    paths = {"wide": work / "wide.csv", "corpus": work / "corpus.jsonl"}
    paths["wide"].write_text(_wide_csv(9, WIDE_ROWS), encoding="utf-8")
    paths["corpus"].write_text(_messy_corpus(5, CORPUS_PAPERS), encoding="utf-8")
    for table in ("authors", "journals", "countries"):
        paths[table] = work / f"{table}.csv"
        paths[table].write_text(_reduced(f"{table}_top25.csv"), encoding="utf-8")
    return paths


WIDE_PINS = {
    ("metrics", "csv", "v"):
        "216a2c0e10340bdaaa9f5caeb3499aee0adb466c01db712ebaed9ce773e1069f",
    ("metrics", "csv", "h"):
        "b19c1679f905bcac0e47654afa393aa741136177f6f05425fa66a55fb94762c1",
    ("metrics", "csv", "cd"):
        "a2de016cb73bbea96c8141ea0e803dcfef7f387c163be5d90be681dd0466918d",
    ("metrics", "md", "v"):
        "dd8cbfc057e0882711b4468d0471dd187648ea45938634e691c34c63da09e8e8",
    ("metrics", "md", "h"):
        "0b97c59ff86e7714e77775746fc7fe8cb88fb007bcc027ab45db222c4e500888",
    ("metrics", "md", "cd"):
        "2177241ddae7759a6792c06cba34f6c6482869838cd908649f901ca8ba18f6a9",
    ("compare", "csv", None):
        "51a61f0ae83183a8dd868805bd2c3a6af72edbaf7116c8e27d2cc8784f51d880",
}

# ``metrics --kind aggregate`` on the wide CSV under each other weight kind.
WEIGHT_PINS = {
    "x^(1/3)": "f7fe84e01b62d78204c1dade015f19263f3a1c168b228ade755d6be99e896bb6",
    "x^3": "50e6a82a8da4248d0db856b0a601a9b8ec455f6a09e9ef0cdd927203f8a392fa",
    "linear": "56a57ec1e5cc17808279603ea8b85ec16b5fa51a5313a6113eed0ebd71b9afca",
    "unity": "710ababf5bb18a2d0b37fa49d71581498ec3607d8b5b5f4e42b53fd9d887be1e",
}

TABLE_PINS = {
    ("authors", "metrics"):
        "b6b1ad8069826ad7390aeda0311e526551cdc8ddddc57a5c280353bb2dac53d3",
    ("journals", "metrics"):
        "5c46a5c25a524b7482f0bc8cd689b53779b052a22fd6d215564671a7efd32d91",
    ("countries", "metrics"):
        "1cc29d5befc4395258954ade22d29c0de15c05a544f5442f0340ef82f7447863",
    ("authors", "compare"):
        "d9c4a0a53ab9c4f793305f1953c147a1f1bf2749965264ffe508cc8781cdefa7",
    ("journals", "compare"):
        "feea603a5c4b6f3a0f59204eb50e074113cd894f41ca2c95ea13e86e797e7237",
    ("countries", "compare"):
        "3967fefc625ff44167687c8eb8b86992f7da57af9d7538bfa5e5a4cedbdc7ea7",
}


# ``metrics`` and ``compare`` on the messy corpus in each entity mode.
CORPUS_PINS = {
    ("metrics", "author"):
        "67b9391147ebc39f8776520ddca58dbf4834f279a3b5fcf4c4319747a85550f8",
    ("metrics", "journal"):
        "a75a733568208c07256bf3b39189d02aece906ff801556c08608b56a30c29c80",
    ("compare", "author"):
        "a3d0c9d3575593f219fb2507a812d399ab8092004bb606acb31b5d0753088ca0",
    ("compare", "journal"):
        "66196d83feb2f1c28df62ceb67357a1b089e2e15ec5972867bb1c29bb6d64d69",
}


def _digest(argv, capsys) -> str:
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_OK, captured.err
    return hashlib.sha256(captured.out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", list(WIDE_PINS), ids=lambda case: "-".join(filter(None, case)))
def test_wide_aggregate_output_is_pinned(case, inputs, capsys):
    command, fmt, sort = case
    argv = [command, "--kind", "aggregate", "--input", str(inputs["wide"]), "--format", fmt]
    if sort is not None:
        argv += ["--sort", sort]
    assert _digest(argv, capsys) == WIDE_PINS[case]


@pytest.mark.parametrize("weight", list(WEIGHT_PINS))
def test_wide_aggregate_weights_are_pinned(weight, inputs, capsys):
    argv = ["metrics", "--kind", "aggregate", "--input", str(inputs["wide"]), "--weight", weight]
    assert _digest(argv, capsys) == WEIGHT_PINS[weight]


@pytest.mark.parametrize("case", list(TABLE_PINS), ids="-".join)
def test_reference_table_output_is_pinned(case, inputs, capsys):
    table, command = case
    argv = [command, "--kind", "aggregate", "--input", str(inputs[table])]
    assert _digest(argv, capsys) == TABLE_PINS[case]


@pytest.mark.parametrize("case", list(CORPUS_PINS), ids="-".join)
def test_corpus_output_is_pinned(case, inputs, capsys):
    command, mode = case
    argv = [command, "--input", str(inputs["corpus"]), "--mode", mode]
    assert _digest(argv, capsys) == CORPUS_PINS[case]


CROSS_VERSION_DIGEST = "8d6b1fa15ca1a4c61a70f5a865be6e3e94c0886565e6b1b58186f1d577e86102"


def test_fuzz_outcomes_are_pinned_across_versions():
    assert fuzzing.digest() == CROSS_VERSION_DIGEST
