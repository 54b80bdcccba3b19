"""Reproduce the reference author ranking and its headline statistics.

``data/authors_top25.csv`` snapshots the 25 most prolific computer-science
authors of a 2011 DBLP-derived dataset, with their citation counts, the
self-citation share, and the exact filtered index h*. Starting from only
the raw inputs (CD, C, SC, h) this script rebuilds every derived column,
ranks the authors, and then checks the story the numbers tell: how much of
an h-index survives once self-citations stop counting, and how closely the
square-root discount tracks the exact filtered h*.

Run from the repository root:

    python3 demos/author_rankings.py
"""

from __future__ import annotations

import csv
from pathlib import Path

from vindex.analytics import batch_stats, pearson, rank, render_table
from vindex.metrics import CitationCounts, metrics_row

DATA = Path(__file__).resolve().parent.parent / "data" / "authors_top25.csv"


def load_author_rows():
    rows = []
    h_star_by_author = {}
    with open(DATA, newline="", encoding="utf-8") as handle:
        for record in csv.DictReader(handle):
            counts = CitationCounts(
                citations_total=int(record["c"]),
                self_citations=int(record["sc"]),
                citable_documents=int(record["cd"]),
                h_index=int(record["h"]),
            )
            h_star = int(record["h_star"])
            row = metrics_row(record["entity_id"], counts, h_star=h_star)
            rows.append(row)
            h_star_by_author[record["entity_id"]] = h_star
    return rows, h_star_by_author


def main() -> None:
    rows, h_star_by_author = load_author_rows()
    table = rank(rows, "v_index")

    print("Top-25 authors, ranked by v-index (recomputed from raw counts)")
    print("=" * 62)
    print(render_table(table, "markdown"))

    drops = []
    for row in rows:
        h = row.counts.h_index
        drops.append((h - h_star_by_author[row.entity_id]) / h)
    drop_stats = batch_stats(drops)
    print(f"Removing self-citations costs these authors {drop_stats.mean:.1%} of their")
    print(f"h-index on average (median {drop_stats.median:.1%}, at most {drop_stats.max:.1%}).")
    print()

    rate_stats = batch_stats([row.v_rate for row in rows])
    print(f"Genuine-citation rates span {rate_stats.min:.1%} to {rate_stats.max:.1%}.")
    print()

    correlation = pearson(
        [row.v_index for row in rows],
        [float(h_star_by_author[row.entity_id]) for row in rows],
    )
    print("The v-index is a closed-form estimate, yet it tracks the exact")
    print(f"filtered index h* with rho = {correlation.rho:.4f} (p = {correlation.p_value:.2e}).")
    print("Ranking by it and ranking by a full recount are near-identical,")
    print("but the v-index needs only four aggregate numbers per author.")


if __name__ == "__main__":
    main()
