"""``metrics`` and ``compare`` succeed exactly when ``validate`` does.

Small inputs are drawn from a seeded generator, valid and broken, for both
input kinds, and each runs through the three commands, a corpus in both
entity modes. A file that ``validate`` passes must give a table; one it
refuses must be refused by the commands that compute.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random

from vindex.cli import EXIT_DATA, EXIT_OK, main

# Inputs that once passed ``validate`` but failed ``metrics``: no entities
# at all, and an aggregate row with no citable document.
FIXED_CASES = [
    ("corpus", ""),
    ("corpus", '{"id": "p1", "authors": ["a"]}\n{"id": "p2", "authors": ["b"], "refs": ["p1"]}\n'),
    ("aggregate", "entity_id,cd,c,sc,h\n"),
    ("aggregate", "entity_id,cd,c,sc,h\nx,0,0,0,0\ny,3,5,1,2\n"),
]

BROKEN_LINES = (
    "{",
    "[]",
    '{"id": ""}',
    '{"id": "q", "authors": []}',
    '{"id": "q", "authors": ["a"], "year": "1"}',
    '{"id": "q", "authors": ["a"], "refs": "p1"}',
    "   ",
)


def _corpus(rng: random.Random) -> str:
    lines = []
    for _ in range(rng.randint(0, 6)):
        if rng.random() < 0.1:
            lines.append(rng.choice(BROKEN_LINES))
            continue
        paper_id = rng.choice(("p1", "p2", "p3", "p4", "p5", "p6"))
        record: dict[str, object] = {
            "id": paper_id,
            "authors": rng.sample(("a", "b", "c", "d"), rng.randint(1, 2)),
        }
        venue = rng.choice(("J", "K", "", None, "absent"))
        if venue != "absent":
            record["venue"] = venue
        pool = ("p1", "p2", "p3", "p4", "p5", "p6", "ghost", paper_id)
        record["refs"] = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
        lines.append(json.dumps(record))
    return "".join(line + "\n" for line in lines)


def _aggregate(rng: random.Random) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("entity_id", "cd", "c", "sc", "h") if rng.random() < 0.95 else ("id",))
    for _ in range(rng.randint(0, 5)):
        cd = rng.randint(0, 3)
        c = rng.randint(0, 6)
        sc, h = rng.randint(0, c + 1), rng.randint(0, cd + 1)
        row = [rng.choice(("x", "y", "z", "w", "")), cd, c, sc, h]
        if rng.random() < 0.1:
            row[rng.randint(1, 4)] = rng.choice(("-1", "1.0", "two"))
        if rng.random() < 0.05:
            row.pop()
        writer.writerow(row)
    return out.getvalue()


def _exit(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def test_metrics_and_compare_succeed_exactly_when_validate_does(tmp_path):
    rng = random.Random(1319)
    cases = FIXED_CASES + [
        (kind, _corpus(rng) if kind == "corpus" else _aggregate(rng))
        for _ in range(80)
        for kind in ("corpus", "aggregate")
    ]
    outcomes = set()
    for number, (kind, text) in enumerate(cases):
        path = tmp_path / f"input{number}"
        path.write_text(text, encoding="utf-8")
        # --mode has no effect on aggregate input
        for mode in (["--mode", "author"], ["--mode", "journal"]) if kind == "corpus" else ([],):
            common = ["--input", str(path), "--kind", kind, *mode]
            valid = _exit(["validate", *common])
            assert valid in (EXIT_OK, EXIT_DATA)
            for command in ("metrics", "compare"):
                assert _exit([command, *common]) == valid, (command, mode, text)
            outcomes.add((kind, valid))
    assert outcomes == {(kind, code) for kind in ("corpus", "aggregate") for code in (0, 2)}
