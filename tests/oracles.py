"""Reference implementations used to cross-check the library.

Everything here is deliberately naive: quadratic scans, try-every-value
h-index, plain JSON records. Slow and obviously correct beats fast and
shared with the code under test.
"""

from __future__ import annotations

import json
import random
from decimal import ROUND_HALF_UP, Context, Decimal, InvalidOperation

from vindex.errors import DomainError
from vindex.metrics import MetricsRow


def brute_h(counts) -> int:
    """Try every candidate h from 0 upward; keep the largest that qualifies."""
    values = list(counts)
    best = 0
    for h in range(len(values) + 1):
        if sum(1 for value in values if value >= h) >= h:
            best = h
    return best


def _read(text: str) -> tuple[list[dict], dict[str, dict], dict[str, list[str]]]:
    """Records, records by id, and the ids citing each paper.

    A repeated ref is one citation, a paper never cites itself, and refs
    to ids outside the text are ignored.
    """
    papers = [json.loads(line) for line in text.split("\n") if line.strip()]
    by_id = {paper["id"]: paper for paper in papers}
    incoming: dict[str, list[str]] = {pid: [] for pid in by_id}
    for paper in papers:
        for ref in dict.fromkeys(paper.get("refs", [])):
            if ref in by_id and ref != paper["id"]:
                incoming[ref].append(paper["id"])
    return papers, by_id, incoming


def _tally(owners, by_id, incoming, is_self) -> dict[str, dict[str, int]]:
    """Each owner's (cd, c, sc, h, h_star); ``is_self(citing, cited)``
    labels one edge."""
    result: dict[str, dict[str, int]] = {}
    for entity, owned in owners.items():
        gross: list[int] = []
        net: list[int] = []
        for target in owned:
            citers = incoming[target["id"]]
            self_edges = sum(1 for citing_id in citers if is_self(by_id[citing_id], target))
            gross.append(len(citers))
            net.append(len(citers) - self_edges)
        result[entity] = {
            "cd": len(owned),
            "c": sum(gross),
            "sc": sum(gross) - sum(net),
            "h": brute_h(gross),
            "h_star": brute_h(net),
        }
    return result


def _author_self(citing: dict, cited: dict) -> bool:
    """Author mode: the edge is self when the author sets meet."""
    return bool(set(citing["authors"]) & set(cited["authors"]))


def _journal_self(citing: dict, cited: dict) -> bool:
    """Journal mode: the edge is self when both papers name the same venue."""
    return bool(citing.get("venue")) and citing.get("venue") == cited.get("venue")


def author_aggregates_from_jsonl(text: str) -> dict[str, dict[str, int]]:
    """Recompute every author's (cd, c, sc, h, h_star) from serialized JSONL.

    Self-citations follow the author-set intersection rule. The filtered h
    (h_star) is the brute h over per-paper counts with self-citations
    removed, which is the h-index of the graph with self-citation edges
    deleted. A name given twice in one team owns the paper once.
    """
    papers, by_id, incoming = _read(text)
    owners: dict[str, list[dict]] = {}
    for paper in papers:
        for author in dict.fromkeys(paper["authors"]):
            owners.setdefault(author, []).append(paper)
    return _tally(owners, by_id, incoming, _author_self)


def journal_aggregates_from_jsonl(text: str) -> dict[str, dict[str, int]]:
    """Recompute every venue's (cd, c, sc, h, h_star) from serialized JSONL.

    A paper whose venue is absent or empty belongs to no venue, and an edge
    is a self-citation only when both papers name the same venue.
    """
    papers, by_id, incoming = _read(text)
    owners: dict[str, list[dict]] = {}
    for paper in papers:
        if paper.get("venue"):
            owners.setdefault(paper["venue"], []).append(paper)
    return _tally(owners, by_id, incoming, _journal_self)


def self_citation_fraction_from_jsonl(text: str) -> float:
    """Share of in-corpus citation edges that are self-citations under the
    author rule, labelling one edge at a time; 0.0 for no edges."""
    _, by_id, incoming = _read(text)
    labels = [
        _author_self(by_id[citing_id], by_id[cited_id])
        for cited_id, citers in incoming.items()
        for citing_id in citers
    ]
    return sum(labels) / len(labels) if labels else 0.0


def venueless_papers_from_jsonl(text: str) -> int:
    """Papers whose venue is absent or empty, looking at one record at a
    time: an empty venue is none, as ingest reads it."""
    papers, _, _ = _read(text)
    return sum(1 for paper in papers if not paper.get("venue"))


_VENUES = tuple(f"v{i:02d}" for i in range(1, 7))


def synthetic_corpus_jsonl(seed: int, n_papers: int, n_authors: int, self_cite_bias: float) -> str:
    """The synthetic corpus generator as first written, serialized as JSONL
    with the keys in ``serialize_corpus`` order.

    For every paper it lists every earlier paper sharing no author and
    draws from that list, so it costs O(n) per paper. It makes the same
    random calls, with the same arguments, as ``generate_synthetic_corpus``
    must.
    """
    rng = random.Random(seed)
    author_pool = [f"a{i:03d}" for i in range(1, n_authors + 1)]
    by_author: dict[str, list[int]] = {name: [] for name in author_pool}
    lines: list[str] = []
    for index in range(n_papers):
        team_size = rng.randint(1, min(4, n_authors))
        authors = tuple(rng.sample(author_pool, team_size))
        shared = sorted({j for name in authors for j in by_author[name]})
        shared_set = set(shared)
        disjoint = [j for j in range(index) if j not in shared_set]
        n_refs = rng.randint(0, min(4, index))
        chosen: list[int] = []
        for _ in range(n_refs):
            prefer_shared = rng.random() < self_cite_bias
            pool = shared if prefer_shared else disjoint
            if not pool:
                pool = disjoint if prefer_shared else shared
            if not pool:
                break
            chosen.append(pool.pop(rng.randrange(len(pool))))
        record = {
            "id": f"p{index + 1:04d}",
            "authors": list(authors),
            "venue": rng.choice(_VENUES),
            "year": 2000 + index % 12,
            "refs": [f"p{j + 1:04d}" for j in sorted(chosen)],
        }
        lines.append(json.dumps(record) + "\n")
        for name in authors:
            by_author[name].append(index)
    return "".join(lines)


def csv_reference(rows) -> str:
    """RFC 4180 CSV written one cell at a time: a cell holding a comma, a
    quote, a CR or an LF is quoted with its quotes doubled, a row of one
    empty cell is written as ``""``, and every line ends with a line feed."""
    lines = []
    for row in rows:
        cells = []
        for cell in row:
            text = str(cell)
            if any(char in text for char in ',"\r\n'):
                text = '"' + text.replace('"', '""') + '"'
            cells.append(text)
        if cells == [""]:
            cells = ['""']
        lines.append(",".join(cells) + "\n")
    return "".join(lines)


def fmt3_reference(value) -> str:
    """Three decimals, ties away from zero, by rounding the value's shortest
    repr as a ``Decimal`` with 400 digits of precision, more than any float
    needs. nan and infinities raise DomainError, and so does a value that
    ``Decimal`` cannot read or round within those digits and its default
    exponent range, such as True or ``Decimal("1e1000000")``."""
    try:
        exact = Decimal(str(value))
        if exact.is_finite():
            context = Context(prec=400)
            return str(exact.quantize(Decimal("0.001"), rounding=ROUND_HALF_UP, context=context))
    except InvalidOperation:
        pass
    raise DomainError(f"cannot round {value!r} to three decimals")


def rank_reference(rows, key: str) -> list[tuple]:
    """``(row, position by CD, by h, by v)`` for each row, in table order.

    Each criterion gets its own full sort: descending by its value, then
    by h, then by CD, then ascending entity id, with equal rows in input
    order. Positions are 1-based and keyed by index, so a repeated row
    object gets one per occurrence.
    """
    values = {
        "v_index": lambda row: row.v_index,
        "h_index": lambda row: row.counts.h_index,
        "cd": lambda row: row.counts.citable_documents,
    }

    def order(criterion):
        value = values[criterion]
        return sorted(
            range(len(rows)),
            key=lambda i: (
                -value(rows[i]),
                -rows[i].counts.h_index,
                -rows[i].counts.citable_documents,
                rows[i].entity_id,
            ),
        )

    positions = {}
    for criterion in values:
        slots = [0] * len(rows)
        for position, index in enumerate(order(criterion), start=1):
            slots[index] = position
        positions[criterion] = slots
    return [
        (rows[i], positions["cd"][i], positions["h_index"][i], positions["v_index"][i])
        for i in order(key)
    ]


def count_reference(text: str) -> int | None:
    """One aggregate CSV count as the reader first parsed it, every field
    by the same steps: ASCII digits with an optional leading minus, leading
    zeros dropped, and a magnitude of more than 16 digits read as
    2**53 + 1; anything else is None."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        return None
    digits = digits.lstrip("0") or "0"
    value = int(digits) if len(digits) <= 16 else 2**53 + 1
    return -value if text.startswith("-") else value


_COUNT_NAMES = ("citations_total", "self_citations", "citable_documents", "h_index")


def counts_error_reference(c, sc, cd, h) -> str | None:
    """The message ``CitationCounts(c, sc, cd, h)`` must raise, or None if
    it must accept them: every field is checked in order for its type (an
    int, a subclass too, but not a bool) and then its sign, and after that
    SC <= C, h <= CD and CD >= 1."""
    for name, value in zip(_COUNT_NAMES, (c, sc, cd, h)):
        if isinstance(value, bool) or not isinstance(value, int):
            return f"{name} must be an integer, got {value!r}"
        if value < 0:
            return f"{name} must be >= 0, got {value}"
    if sc > c:
        return f"self_citations ({sc}) exceed citations_total ({c})"
    if h > cd:
        return f"h_index ({h}) exceeds citable_documents ({cd})"
    if cd < 1:
        return f"citable_documents must be >= 1, got {cd}"
    return None


def metrics_row_reference(entity_id, counts, weight, h_star=None) -> MetricsRow:
    """The metric row with each column written out by keyword: V_rate =
    (C - SC) / C, or 1 when C = 0, V_index = f(V_rate) * h, C/P = C / CD
    and V/P = (C - SC) / CD."""
    c, sc, cd = counts.citations_total, counts.self_citations, counts.citable_documents
    rate = 1.0 if c == 0 else (c - sc) / c
    index = weight(rate) * counts.h_index
    ratio = index / counts.h_index if counts.h_index > 0 else 1.0
    return MetricsRow(
        entity_id=entity_id,
        counts=counts,
        v_rate=rate,
        c_p=c / cd,
        v_p=(c - sc) / cd,
        v_index=index,
        ratio=ratio,
        h_star=h_star,
    )
