"""Seeded input generators for the benchmark, stdlib only.

Nothing here imports ``vindex``: the inputs must stay the same when the
program's own synthesizer changes. Every generator is a pure function of
its seed, so the same seed always writes the same bytes.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

AGGREGATE_HEADER = ("entity_id", "cd", "c", "sc", "h")


@dataclass(frozen=True)
class Injected:
    """Anomalies planted in a generated corpus, in exact numbers."""

    dangling_refs: int
    duplicate_refs: int
    self_ref_papers: int
    venueless_papers: int


def _author_name(index: int) -> str:
    # A comma forces CSV quoting on output; some names are non-ASCII.
    if index % 7 == 0:
        return f"Müller-{index:04d}, Ł."
    return f"Author{index:04d}, {chr(65 + index % 26)}."


def dense_corpus(
    seed: int,
    n_papers: int,
    n_authors: int,
    n_venues: int,
    refs_low: int,
    refs_high: int,
    own_share: float = 0.2,
) -> tuple[str, Injected]:
    """An edge-heavy JSONL corpus plus the anomalies planted in it.

    Each paper gets a team of 1 to 6 authors, a venue, and between
    ``refs_low`` and ``refs_high`` distinct references to earlier papers; a
    reference goes to an earlier paper of one of its own authors with
    probability ``own_share``, so self-citations are common but not the
    rule. On top of that, exact numbers of papers get one dangling
    reference, one duplicated reference, one reference to themselves, or no
    venue (half omit the key, half carry an empty string).
    """
    rng = random.Random(f"corpus-dense:{seed}")
    authors = [_author_name(i) for i in range(n_authors)]
    venues = [f"Venue {i:03d}" for i in range(n_venues)]
    by_author: dict[str, list[int]] = {}
    records: list[dict] = []
    for index in range(n_papers):
        team = rng.sample(authors, rng.randint(1, 6))
        wanted = min(index, rng.randint(refs_low, refs_high))
        own = [j for name in team for j in by_author.get(name, ())]
        refs: dict[int, None] = {}
        while len(refs) < wanted:
            if own and rng.random() < own_share:
                refs[rng.choice(own)] = None
            else:
                refs[rng.randrange(index)] = None
        records.append(
            {
                "id": f"P{index:06d}",
                "authors": team,
                "venue": rng.choice(venues),
                "year": 1990 + index * 30 // n_papers,
                "refs": [f"P{j:06d}" for j in refs],
            }
        )
        for name in team:
            by_author.setdefault(name, []).append(index)

    share = max(1, n_papers // 100)
    for number, index in enumerate(sorted(rng.sample(range(n_papers), share))):
        records[index]["refs"].append(f"EXT{number:05d}")
    with_refs = [i for i, record in enumerate(records) if record["refs"]]
    for index in rng.sample(with_refs, share):
        refs = records[index]["refs"]
        refs.append(rng.choice(refs))
    self_citing = rng.sample(range(n_papers), max(1, n_papers // 200))
    for index in self_citing:
        records[index]["refs"].append(records[index]["id"])
    venueless = rng.sample(range(n_papers), max(2, n_papers // 50))
    for number, index in enumerate(venueless):
        if number % 2:
            records[index]["venue"] = ""
        else:
            del records[index]["venue"]
    for record in records:
        rng.shuffle(record["refs"])

    text = "".join(json.dumps(record, ensure_ascii=False) + "\n" for record in records)
    injected = Injected(
        dangling_refs=share,
        duplicate_refs=share,
        self_ref_papers=len(self_citing),
        venueless_papers=len(venueless),
    )
    return text, injected


def aggregate_csv(rows) -> str:
    """Write ``(entity_id, cd, c, sc, h)`` rows in the aggregate CSV format."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(AGGREGATE_HEADER)
    writer.writerows(rows)
    return out.getvalue()


def wide_aggregate(seed: int, n_rows: int) -> str:
    """A wide aggregate CSV: ``n_rows`` entities in random order.

    Counts are spread so that the h and CD orderings tie often and a tenth
    of the entities have no self-citations, which exercises every
    tie-break of the ranking. Some entity ids need CSV quoting.
    """
    rng = random.Random(f"aggregate-wide:{seed}")
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
    return aggregate_csv(rows)


def reduced_table(path: Path) -> str:
    """One of the bundled ``data/`` tables cut down to ``entity_id,cd,c,sc,h``."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = [
            (row["entity_id"], row["cd"], row["c"], row["sc"], row["h"])
            for row in csv.DictReader(handle)
        ]
    return aggregate_csv(rows)


# Exact-input cases: fixed bytes, independent of the seed. Each holds a
# value that valid UTF-8 JSONL or RFC 4180 CSV carries and that must come
# out unchanged (or, for malformed counts, be rejected).
U2028_AUTHOR = "Line\u2028Separator"
QUOTED_NEWLINE_ENTITY = "Multi\nLine"


def u2028_corpus() -> str:
    records = [
        {"id": "q1", "authors": [U2028_AUTHOR], "venue": "J", "refs": []},
        {"id": "q2", "authors": ["Plain"], "venue": "J", "refs": ["q1"]},
        {"id": "q3", "authors": [U2028_AUTHOR, "Plain"], "venue": "K", "refs": ["q1", "q2"]},
    ]
    return "".join(json.dumps(record, ensure_ascii=False) + "\n" for record in records)


def quoted_newline_csv() -> str:
    return aggregate_csv([(QUOTED_NEWLINE_ENTITY, 3, 10, 2, 2), ("Single", 4, 20, 5, 3)])


def count_syntax_csv() -> str:
    return "entity_id,cd,c,sc,h\nUnderscore,1_0,20,5,3\nArabicDigit,\u0665,20,5,3\n"
