"""Screening journals for self-citation inflation.

Journal self-citations are not automatically sinister, but a venue whose
citation count leans heavily on itself earns its impact numbers the easy
way, and editors have been known to ask for exactly that. This script
takes the 2011 journal snapshot in ``data/journals_top25.csv``, rebuilds
the discounted ranking, and flags the venues whose genuine-citation rate
falls below a screening threshold. It closes with the rank shifts between
the plain h ranking and the discounted one, which is where the inflation
becomes visible.

Run from the repository root:

    python3 demos/journal_screening.py
"""

from __future__ import annotations

import csv
from pathlib import Path

from vindex.analytics import fmt3, rank
from vindex.metrics import CitationCounts, WeightFunction, metrics_row

DATA = Path(__file__).resolve().parent.parent / "data" / "journals_top25.csv"
SCREENING_THRESHOLD = 0.85


def load_journal_rows():
    rows = []
    with open(DATA, newline="", encoding="utf-8") as handle:
        for record in csv.DictReader(handle):
            counts = CitationCounts(
                citations_total=int(record["c"]),
                self_citations=int(record["sc"]),
                citable_documents=int(record["cd"]),
                h_index=int(record["h"]),
            )
            rows.append((record["entity_id"], counts))
    return rows


def main() -> None:
    pairs = load_journal_rows()
    discounted = rank([metrics_row(name, counts) for name, counts in pairs], "v_index")

    print(f"Journals below a {SCREENING_THRESHOLD:.0%} genuine-citation rate")
    print("-" * 58)
    flagged = 0
    for item in discounted.rows:
        row = item.row
        if row.v_rate < SCREENING_THRESHOLD:
            flagged += 1
            share = 1.0 - row.v_rate
            print(
                f"  {row.entity_id:<22} v_rate {fmt3(row.v_rate)}  "
                f"({share:.1%} of its citations are its own; "
                f"h {row.counts.h_index} -> v-index {fmt3(row.v_index)})"
            )
    print(f"  {flagged} of {len(pairs)} flagged for review")
    print()

    unity = WeightFunction.parse("unity")
    plain = rank([metrics_row(name, counts, unity) for name, counts in pairs], "v_index")
    position_plain = {item.row.entity_id: item.rank_by_v for item in plain.rows}
    position_discounted = {item.row.entity_id: item.rank_by_v for item in discounted.rows}
    movers = sorted(
        position_plain,
        key=lambda name: (-(abs(position_plain[name] - position_discounted[name])), name),
    )

    print("Largest rank shifts, plain h ranking vs discounted ranking")
    print("-" * 58)
    for name in movers[:6]:
        before = position_plain[name]
        after = position_discounted[name]
        arrow = "falls" if after > before else "rises"
        if before == after:
            continue
        print(f"  {name:<22} {before:>2} -> {after:>2}  ({arrow} {abs(after - before)})")
    print()
    print("A venue that cites itself generously can hold a top-10 h position")
    print("yet drop several places the moment only outside citations count.")


if __name__ == "__main__":
    main()
