"""Golden reference tables shared across the test suite."""

from __future__ import annotations

import csv
import itertools
from pathlib import Path

import pytest

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

INT_FIELDS = {"cd", "pos_cd", "c", "sc", "h", "pos_h", "h_star", "pos_v"}
REAL_FIELDS = {"c_p", "v_rate", "v_p", "v_index", "ratio"}


def load_golden(name: str) -> list[dict]:
    rows = []
    with open(DATA_DIR / name, newline="", encoding="utf-8") as handle:
        for record in csv.DictReader(handle):
            row: dict[str, object] = {}
            for key, value in record.items():
                if key in INT_FIELDS:
                    row[key] = int(value)
                elif key in REAL_FIELDS:
                    row[key] = float(value)
                else:
                    row[key] = value
            rows.append(row)
    return rows


@pytest.fixture(scope="session")
def author_table() -> list[dict]:
    """Top-25 authors by v-index, 2011 DBLP snapshot; includes h_star."""
    return load_golden("authors_top25.csv")


@pytest.fixture(scope="session")
def journal_table() -> list[dict]:
    """Top-25 journals by v-index, 2011 Scopus/SCImago snapshot."""
    return load_golden("journals_top25.csv")


@pytest.fixture(scope="session")
def country_table() -> list[dict]:
    """Top-25 countries by v-index, 2011 SCImago snapshot."""
    return load_golden("countries_top25.csv")


@pytest.fixture()
def write_input(tmp_path):
    """A function that writes one input file and returns its path. It takes
    bytes, text, written as UTF-8, or a list of lines, each given a line
    feed at its end if it has none. Each call writes a new file: ``input1``,
    ``input2`` and so on."""
    numbers = itertools.count(1)

    def write(data: bytes | str | list[str]) -> Path:
        if isinstance(data, list):
            data = "".join(line if line.endswith("\n") else line + "\n" for line in data)
        if isinstance(data, str):
            data = data.encode("utf-8")
        path = tmp_path / f"input{next(numbers)}"
        path.write_bytes(data)
        return path

    return write
