"""Tests of the benchmark's checker itself.

Run from the repository root with either of

    python3 bench/test_checker.py
    python3 -m pytest -q bench/test_checker.py

A checker that accepts wrong tables would make every benchmark run read
"correct", so it must reject a perturbed table, and its reference
aggregates must equal the test suite's brute-force oracle.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import checker  # noqa: E402
import inputs  # noqa: E402


def _small_corpus() -> str:
    text, _ = inputs.dense_corpus(7, n_papers=300, n_authors=60, n_venues=8, refs_low=2, refs_high=9)
    return text


def _author_table(corpus_path: Path) -> str:
    from vindex import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["metrics", "--input", str(corpus_path), "--mode", "author"]) == 0
    return out.getvalue()


def _rewrite(table: str, edit) -> str:
    rows = list(csv.reader(io.StringIO(table, newline="")))
    edit(rows)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def test_perturbed_table_fails(tmp_path: Path) -> None:
    text = _small_corpus()
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text(text, encoding="utf-8")
    entities = checker.corpus_entities(checker.received(checker.parse_corpus(text), "author"))
    table = _author_table(corpus_path)
    assert checker.check_table(table, "csv", entities, with_h_star=True) == []

    h, pos_v = checker.TABLE_COLUMNS.index("h"), checker.TABLE_COLUMNS.index("pos_v")

    def bump_h(rows):
        rows[5][h] = str(int(rows[5][h]) + 1)

    def swap_pos_v(rows):
        rows[3][pos_v], rows[9][pos_v] = rows[9][pos_v], rows[3][pos_v]

    def both(rows):
        bump_h(rows)
        swap_pos_v(rows)

    for edit, columns in ((bump_h, {"h"}), (swap_pos_v, {"pos_v"}), (both, {"h", "pos_v"})):
        problems = checker.check_table(_rewrite(table, edit), "csv", entities, with_h_star=True)
        named = {column for column in ("h", "pos_v") if any(f": {column} = " in p for p in problems)}
        assert named == columns, problems


def test_reference_aggregates_match_oracle() -> None:
    import oracles

    # The oracle counts a repeated ref twice, where the package collapses
    # it; feed both the corpus with repeats removed. Dangling refs and refs
    # to the paper itself stay in.
    records = [json.loads(line) for line in _small_corpus().splitlines()]
    for record in records:
        record["refs"] = list(dict.fromkeys(record["refs"]))
    text = "".join(json.dumps(record) + "\n" for record in records)
    assert any(record["id"] in record["refs"] for record in records)
    assert any(ref.startswith("EXT") for record in records for ref in record["refs"])

    mine = checker.corpus_entities(checker.received(checker.parse_corpus(text), "author"))
    expected = oracles.author_aggregates_from_jsonl(text)
    assert {
        name: {"cd": e.cd, "c": e.c, "sc": e.sc, "h": e.h, "h_star": e.h_star}
        for name, e in mine.items()
    } == expected


def test_betainc_matches_scipy() -> None:
    from scipy.special import betainc

    for a, b, x in ((1.5, 0.5, 0.3), (11.5, 0.5, 0.97), (0.5, 0.5, 0.01), (4000.0, 0.5, 0.999)):
        assert abs(checker._betainc(a, b, x) - betainc(a, b, x)) <= 1e-10 * betainc(a, b, x)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        test_perturbed_table_fails(Path(scratch))
    test_reference_aggregates_match_oracle()
    test_betainc_matches_scipy()
    print("checker self-test: 3 passed")
