"""Citation corpora: ingestion, edge classification, and per-entity aggregation.

A corpus is a closed world. Only citations between papers present in the
file are counted; references to unknown ids are tallied as dangling and
otherwise ignored, so a corpus survives a round trip through its own
serialization unchanged.

Both entity modes follow one owner rule: a paper credits every one of its
owners, and an edge is a self-citation when its two papers share an owner.
A paper's owners are its authors in author mode, where a name listed twice
owns the paper once, and its venue in journal mode, where a paper without a
venue has none.

Each input format is read from a file, given by its path, in one pass:
``_corpus_records`` for JSONL and ``_aggregate_rows`` for the aggregate CSV.
A pass fills the result it is handed with every record it accepts, and
yields each error with its line. Two policies read each pass: the strict
readers (``ingest_corpus``, ``read_aggregate_csv``) raise the first error,
else return what the pass built, and the audits (``audit_corpus``,
``audit_aggregate``) collect every one. A check and its message are
therefore written once for both, and its place once, by ``_at`` in the
policy.
"""

from __future__ import annotations

import csv
import json
import random
import re
import sys
from bisect import insort
from collections import defaultdict, deque
from pathlib import Path
from typing import Iterable, Iterator, Literal, MutableSequence, NamedTuple

from .analytics import format_table
from .errors import (
    CorpusIntegrityError,
    CorpusParseError,
    DomainError,
    VindexError,
)
from .metrics import CitationCounts, h_index

Mode = Literal["author", "journal"]

MODES = ("author", "journal")

AGGREGATE_CSV_COLUMNS = ("entity_id", "cd", "c", "sc", "h")

__all__ = [
    "Mode",
    "MODES",
    "AGGREGATE_CSV_COLUMNS",
    "Paper",
    "Corpus",
    "PaperCitations",
    "EntityAggregate",
    "AuditReport",
    "ingest_corpus",
    "serialize_corpus",
    "aggregate_all",
    "self_citation_fraction",
    "generate_synthetic_corpus",
    "read_aggregate_csv",
    "write_aggregate_csv",
    "audit_corpus",
    "audit_aggregate",
]


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------

class Paper(NamedTuple):
    """One publication node: identity, ownership, venue, and outgoing references."""

    id: str
    authors: tuple[str, ...]
    venue: str | None = None
    year: int | None = None
    refs: tuple[str, ...] = ()


class Corpus:
    """A set of papers keyed by id.

    ``self_loops`` counts the self-references stripped from the refs of its
    papers when the corpus was read.
    """

    __slots__ = ("papers", "self_loops")

    def __init__(self, papers: dict[str, Paper], self_loops: int = 0) -> None:
        self.papers = papers
        self.self_loops = self_loops

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.papers, self.self_loops) == (other.papers, other.self_loops)

    @property
    def dangling_refs(self) -> int:
        """References whose target is absent from the corpus. They stay on
        their papers, so serialization preserves them, but never enter any
        citation tally."""
        papers = self.papers
        return sum(1 for paper in papers.values() for ref in paper.refs if ref not in papers)

    @property
    def missing_venue_edges(self) -> int:
        """In-corpus citation edges with no venue on one side or both. Journal
        mode counts one from a venue-less paper as genuine, and one into a
        venue-less paper for no journal."""
        papers = self.papers
        venueless = {pid for pid, paper in papers.items() if paper.venue is None}
        count = 0
        for paper in papers.values():
            targets = papers if paper.venue is None else venueless
            count += sum(map(targets.__contains__, paper.refs))
        return count


class PaperCitations(NamedTuple):
    """Citations one paper received from inside the corpus."""

    paper_id: str
    citations_received: int
    self_citations_received: int


class EntityAggregate(NamedTuple):
    """Citation statistics for one author or venue over a full corpus.

    ``h`` is the h-index over raw received counts and ``h_star`` the h-index
    after subtracting each paper's self-received citations; h_star <= h
    always, because the filtered counts are dominated elementwise.
    """

    entity_id: str
    cd: int
    c: int
    sc: int
    h: int
    h_star: int
    per_paper: tuple[PaperCitations, ...]

    def counts(self) -> CitationCounts:
        """View as plain aggregate counts, dropping the per-paper detail."""
        return CitationCounts(self.c, self.sc, self.cd, self.h)


# ---------------------------------------------------------------------------
# parsing and serialization
# ---------------------------------------------------------------------------

def _at(error: VindexError, line: int, source: str | None = None) -> VindexError:
    """``error``, which holds a bare message, placed at ``line`` of the file
    named ``source``: the one place an input error gets its location,
    written before the message as ``[source, ]line N: ``."""
    where = f"{source}, line {line}" if source else f"line {line}"
    return type(error)(f"{where}: {error}")


def _decode(raw: bytes) -> str:
    """One input line as text; it must be valid UTF-8."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusParseError(f"invalid UTF-8 at byte {exc.start + 1} ({exc.reason})") from None


def _csv_lines(
    lines: Iterable[str], bad: list[tuple[int, CorpusParseError]], record: list[str]
) -> Iterator[str]:
    """The lines of a file read as UTF-8 with ``surrogateescape``, for
    ``csv.reader``. A line with an undecodable byte or a NUL, which no CSV
    table the library writes can hold, goes into ``bad`` with its number
    and on to the reader, undecodable bytes as replacement characters, so
    the reader keeps its place and the caller can reject the row it lands
    in. Each line is also appended to ``record``, emptied at every row."""
    for line_no, text in enumerate(lines, start=1):
        if not text.isascii():
            raw = text.encode("utf-8", "surrogateescape")
            try:
                _decode(raw)
            except CorpusParseError as exc:
                bad.append((line_no, exc))
                text = raw.decode("utf-8", "replace")
        if "\0" in text:
            bad.append((line_no, CorpusParseError("line contains NUL")))
        record.append(text)
        yield text


def _string_list(value: object, what: str) -> list[str]:
    # ``json.loads`` makes exact lists and strs, never subclasses, so
    # comparing exact types checks every item in C.
    if type(value) is not list or "" in value or not {str}.issuperset(map(type, value)):
        raise CorpusParseError(f"{what} must be a list of non-empty strings")
    return value


# Decoded UTF-8 holds no surrogate and JSON no raw NUL, so only a line with
# a JSON escape of one can give a string a lone surrogate, which no UTF-8
# output can write, or a NUL, which no CSV table the library writes holds.
_UNWRITABLE_ESCAPE = re.compile(r"\\u(?:[dD][89a-fA-F]|0000)")
_UNWRITABLE = re.compile("[\0\ud800-\udfff]")


def _refuse_unwritable(paper: Paper) -> None:
    # An escaped pair decodes to one character and passes.
    fields = (paper.id,), paper.authors, (paper.venue or "",), paper.refs
    for what, values in zip(("id", "authors", "venue", "refs"), fields):
        if found := _UNWRITABLE.search("".join(values)):
            held = "NUL" if found[0] == "\0" else "a lone surrogate"
            raise CorpusParseError(f"'{what}' holds {held}")


def _paper_from_record(record: object, names: dict[str, str]) -> tuple[Paper, int]:
    """Validate one decoded JSONL record; returns the paper and the number of
    self-referencing entries stripped from its refs.

    Each string is replaced by the first equal one in ``names``, once its
    type is checked, so a pass holds one object per distinct id, author,
    venue or ref, and a ref is the very object that is its paper's id."""
    # ``json.loads`` makes exact types, so an exact int check refuses a bool.
    share = names.setdefault
    if type(record) is not dict:
        raise CorpusParseError("record must be a JSON object")
    paper_id = record.get("id")
    if type(paper_id) is not str or not paper_id:
        raise CorpusParseError("'id' must be a non-empty string")
    paper_id = share(paper_id, paper_id)
    if "authors" not in record:
        raise CorpusParseError(f"paper {paper_id!r} has no 'authors'")
    authors = _string_list(record["authors"], "'authors'")
    if not authors:
        raise CorpusParseError(f"paper {paper_id!r} needs at least one author")
    authors = tuple(map(share, authors, authors))
    venue = record.get("venue")
    if venue is not None and type(venue) is not str:
        raise CorpusParseError("'venue' must be a string")
    venue = share(venue, venue) if venue else None
    year = record.get("year")
    if year is not None and type(year) is not int:
        raise CorpusParseError("'year' must be an integer")
    refs = _string_list(record.get("refs", []), "'refs'")
    refs = dict.fromkeys(map(share, refs, refs))
    # Collapsing duplicates leaves at most one self-reference.
    self_loops = 0
    if paper_id in refs:
        del refs[paper_id]
        self_loops = 1
    return Paper(paper_id, authors, venue, year, tuple(refs)), self_loops


# How deep ``json.loads`` nests depends on the Python version (about 1000
# levels up to 3.11, 1500 on 3.12, 10000 on 3.13) and on the caller's stack,
# so a line nesting deeper than this is refused before it is parsed.
_MAX_DEPTH = 500
# A JSON string, or the rest of a line after an unclosed quote, or a bracket.
_STRING_OR_BRACKET = re.compile(r'"(?:[^"\\]|\\.)*"?|[\[\]{}]', re.DOTALL)
_DEPTH_STEP = {"[": 1, "{": 1, "]": -1, "}": -1}


def _refuse_deep_nesting(text: str) -> None:
    # Each level takes a character: only a long line with many brackets is scanned.
    if len(text) <= _MAX_DEPTH or text.count("[") + text.count("{") <= _MAX_DEPTH:
        return
    depth = 0
    for token in _STRING_OR_BRACKET.findall(text):
        depth += _DEPTH_STEP.get(token, 0)
        if depth > _MAX_DEPTH:
            raise CorpusParseError("invalid JSON (nested too deeply)")


# Python 3.13 words a trailing comma in an object or an array its own way;
# the words of the earlier versions keep the messages alike on every one.
_JSON_REASONS = {
    "Illegal trailing comma before end of object": (
        "Expecting property name enclosed in double quotes"
    ),
    "Illegal trailing comma before end of array": "Expecting value",
}


def _corpus_records(
    lines: Iterable[bytes], corpus: Corpus
) -> Iterator[tuple[int, Paper | None, int, VindexError | None]]:
    """The one pass over JSONL lines, shared by ``ingest_corpus`` and
    ``audit_corpus``. It adds each accepted paper to ``corpus``, and the
    self-references stripped from it to ``corpus.self_loops``. For each line
    refused or stripped of a self-reference, it yields the line's number,
    its paper (None if the line does not parse), the number stripped, and
    the bare error for the policy to place, or None. A duplicate id is one
    already in ``corpus``; its paper is yielded with the error, so its
    stripped self-references are still reported. A byte-order mark opening
    line 1 is dropped, as the CSV pass drops it from its header. Equal
    strings of the whole pass share one object."""
    papers = corpus.papers
    names: dict[str, str] = {}
    for line_no, raw in enumerate(lines, start=1):
        try:
            text = _decode(raw)
            if line_no == 1:
                text = text.removeprefix("\ufeff")
            if not text.strip(" \t\r\n"):
                continue
            _refuse_deep_nesting(text)
            paper, loops = _paper_from_record(json.loads(text), names)
            if _UNWRITABLE_ESCAPE.search(text):
                _refuse_unwritable(paper)
        except CorpusParseError as exc:
            yield line_no, None, 0, exc
        except (ValueError, RecursionError) as exc:
            # Besides JSONDecodeError: a plain ValueError for an integer over
            # Python's digit limit, RecursionError for deep nesting.
            reason = getattr(exc, "msg", None) or (
                "nested too deeply" if isinstance(exc, RecursionError) else "integer too long"
            )
            reason = _JSON_REASONS.get(reason, reason)
            yield line_no, None, 0, CorpusParseError(f"invalid JSON ({reason})")
        else:
            # ``setdefault`` adds a new id's paper and keeps a duplicate's first one.
            if papers.setdefault(paper.id, paper) is not paper:
                error = CorpusIntegrityError(f"duplicate paper id {paper.id!r}")
                yield line_no, paper, loops, error
            elif loops:
                corpus.self_loops += loops
                yield line_no, paper, loops, None


def ingest_corpus(source: str | Path) -> Corpus:
    """Load a JSONL corpus from the file at ``source``, one paper object per
    line: the strict policy over the JSONL pass, raising its first error.

    The file is read as UTF-8, and lines end only at a line feed. A line of
    JSON whitespace alone is skipped. A malformed line, invalid UTF-8 or an
    escaped lone surrogate or NUL aborts with CorpusParseError, a duplicate
    id with CorpusIntegrityError, each placed at its file name and line.
    Self-references in ``refs`` are stripped and counted as ``self_loops``,
    duplicate refs are collapsed, and refs pointing outside the corpus are
    counted as dangling.

    Equal strings are shared: the corpus holds one object per distinct id,
    author, venue or ref, and a ref to a paper is that paper's id, which is
    also its key in ``papers``.
    """
    path = Path(source)
    corpus = Corpus({})
    with open(path, "rb") as lines:
        for line, _, _, error in _corpus_records(lines, corpus):
            if error is not None:
                raise _at(error, line, path.name)
    return corpus


def serialize_corpus(corpus: Corpus) -> str:
    """Render a corpus back to JSONL, one line per paper, in corpus order.

    Optional fields are emitted only when present, so ingest and serialize
    compose to the identity on anything ingest accepts.
    """
    lines = []
    for paper in corpus.papers.values():
        record: dict[str, object] = {"id": paper.id, "authors": list(paper.authors)}
        if paper.venue is not None:
            record["venue"] = paper.venue
        if paper.year is not None:
            record["year"] = paper.year
        record["refs"] = list(paper.refs)
        lines.append(json.dumps(record))
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# edge classification and aggregation
# ---------------------------------------------------------------------------

def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise DomainError(f"unknown entity mode {mode!r}; expected 'author' or 'journal'")


def _received_counts(
    corpus: Corpus, mode: Mode
) -> Iterator[tuple[tuple[str, ...], PaperCitations]]:
    """Per paper, in corpus order, its owners (``paper.authors``, or in journal
    mode one tuple per venue, empty without one) and the record they share:
    the citations it received over in-corpus edges, each ref resolved once to
    a position and a dangling one skipped, and those from papers sharing one."""
    papers = corpus.papers
    if mode == "author":
        owners = [paper.authors for paper in papers.values()]
    else:
        venues: dict[str | None, tuple[str, ...]] = {None: ()}
        owners = [venues.setdefault(paper.venue, (paper.venue,)) for paper in papers.values()]
    index = {pid: i for i, pid in enumerate(papers)}
    gross, own = [0] * len(index), [0] * len(index)
    for mine, citing in zip(map(frozenset, owners), papers.values()):
        for j in map(index.get, citing.refs):
            if j is not None:
                gross[j] += 1
                if not mine.isdisjoint(owners[j]):
                    own[j] += 1
    return zip(owners, map(PaperCitations, papers, gross, own))


def aggregate_all(corpus: Corpus, mode: Mode) -> list[EntityAggregate]:
    """One aggregate per distinct entity, in lexicographic entity order.
    An entity's papers keep corpus order in ``per_paper``."""
    _check_mode(mode)
    owned: dict[str, list[PaperCitations]] = {}
    for keys, record in _received_counts(corpus, mode):
        for key in frozenset(keys):
            owned.setdefault(key, []).append(record)
    aggregates = []
    for entity_id in sorted(owned):
        per_paper = tuple(owned[entity_id])
        gross = [record.citations_received for record in per_paper]
        net = [record.citations_received - record.self_citations_received for record in per_paper]
        c = sum(gross)
        row = entity_id, len(per_paper), c, c - sum(net), h_index(gross), h_index(net), per_paper
        aggregates.append(EntityAggregate(*row))
    return aggregates


def self_citation_fraction(corpus: Corpus) -> float:
    """Share of in-corpus citation edges classified self in author mode;
    0.0 for no edges."""
    records = [record for _, record in _received_counts(corpus, "author")]
    total = sum(record.citations_received for record in records)
    return sum(record.self_citations_received for record in records) / total if total else 0.0


# ---------------------------------------------------------------------------
# synthetic corpora
# ---------------------------------------------------------------------------

_VENUE_POOL = tuple(f"v{i:02d}" for i in range(1, 7))


def generate_synthetic_corpus(
    seed: int,
    n_papers: int,
    n_authors: int,
    self_cite_bias: float = 0.0,
) -> Corpus:
    """Deterministic random corpus for exercising the full pipeline.

    Papers are created in order; each gets 1 to 4 authors drawn from a pool
    of ``n_authors`` names, a venue, and up to 4 references to strictly
    earlier papers, so the graph is acyclic by construction. Each reference
    slot prefers a target sharing at least one author with probability
    ``self_cite_bias`` and a disjoint-author target otherwise, falling back
    to whatever pool is non-empty. The same seed always reproduces the same
    corpus, byte for byte. Equal strings are shared, as ``ingest_corpus``
    shares them: each ref is the id of the paper it names.

    Each paper costs O(H log H) for a team history of H earlier papers,
    whatever its index: a disjoint target is drawn by its rank among the
    earlier papers that are neither shared nor already drawn, found by
    walking the sorted list of the excluded ones. The cost does not depend
    on ``n_authors``: a team is drawn as numbers from the pool's range, and
    only the authors drawn get a name, one object each, and a history.
    """
    if n_papers < 1:
        raise DomainError(f"n_papers must be >= 1, got {n_papers}")
    if n_authors < 1:
        raise DomainError(f"n_authors must be >= 1, got {n_authors}")
    if n_authors > sys.maxsize:  # ``sample`` takes the pool's length
        raise DomainError(f"n_authors must be <= {sys.maxsize}, got {n_authors}")
    if not 0.0 <= self_cite_bias <= 1.0:
        raise DomainError(f"self_cite_bias must lie in [0, 1], got {self_cite_bias!r}")
    rng = random.Random(seed)
    # ``sample`` picks by index alone, as from a list of the pool's names.
    pool = range(1, n_authors + 1)
    ids = [f"p{i:04d}" for i in range(1, n_papers + 1)]
    names: dict[int, str] = {}
    by_author: defaultdict[str, list[int]] = defaultdict(list)
    papers: dict[str, Paper] = {}
    for index in range(n_papers):
        team_size = rng.randint(1, min(4, n_authors))
        drawn = rng.sample(pool, team_size)
        # A name is written on its author's first draw only.
        authors = tuple([names.get(i) or names.setdefault(i, f"a{i:03d}") for i in drawn])
        shared = sorted({j for name in authors for j in by_author[name]})
        # The disjoint pool is range(index) minus ``taken``: the papers
        # shared at the start of this paper, plus disjoint targets drawn.
        taken = shared.copy()
        n_refs = rng.randint(0, min(4, index))
        chosen: list[int] = []
        for _ in range(n_refs):
            prefer_shared = rng.random() < self_cite_bias
            n_disjoint = index - len(taken)
            from_shared = bool(shared) if prefer_shared else not n_disjoint
            rank = rng.randrange(len(shared) if from_shared else n_disjoint)
            if from_shared:
                chosen.append(shared.pop(rank))
                continue
            target = rank
            for excluded in taken:
                if excluded > target:
                    break
                target += 1
            insort(taken, target)
            chosen.append(target)
        paper_id = ids[index]
        papers[paper_id] = Paper(
            id=paper_id,
            authors=authors,
            venue=rng.choice(_VENUE_POOL),
            year=2000 + index % 12,
            refs=tuple(ids[j] for j in sorted(chosen)),
        )
        for name in authors:
            by_author[name].append(index)
    return Corpus(papers=papers)


# ---------------------------------------------------------------------------
# aggregate CSV interchange
# ---------------------------------------------------------------------------

# Above this a count no longer converts to float exactly.
_MAX_COUNT = 2**53


def _count(text: str) -> int | None:
    """The integer in ``text`` if it is ASCII digits with an optional leading
    minus, else None. ``int`` alone would also take ``1_0``, other scripts'
    digits and surrounding spaces. A magnitude of more than 16 digits reads
    as ``_MAX_COUNT + 1``: ``int`` refuses strings over 4300 digits. At most
    16 ASCII digits, the common case, go straight to ``int``."""
    if len(text) <= 16 and text.isdigit() and text.isascii():
        return int(text)
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        return None
    digits = digits.lstrip("0") or "0"
    value = int(digits) if len(digits) <= 16 else _MAX_COUNT + 1
    return -value if text.startswith("-") else value


def _row_from_fields(fields: list[str], seen: set[str]) -> tuple[str, CitationCounts]:
    """Validate one aggregate CSV row; ``seen`` holds the entities of the
    rows before it and gains this row's entity once its counts parse."""
    if len(fields) != len(AGGREGATE_CSV_COLUMNS):
        raise CorpusParseError(f"expected {len(AGGREGATE_CSV_COLUMNS)} fields, got {len(fields)}")
    entity_id, cd, c, sc, h = fields
    if not entity_id:
        raise CorpusParseError("entity_id must be non-empty")
    counts = [_count(cd), _count(c), _count(sc), _count(h)]
    if None in counts:
        raise CorpusParseError(f"entity {entity_id!r}: counts must be integers")
    if max(map(abs, counts)) > _MAX_COUNT:
        raise CorpusParseError(f"entity {entity_id!r}: count too large")
    if entity_id in seen:
        raise CorpusIntegrityError(f"duplicate entity {entity_id!r}")
    seen.add(entity_id)
    cd_count, c_count, sc_count, h_count = counts
    try:
        row = entity_id, CitationCounts(c_count, sc_count, cd_count, h_count)
    except DomainError as exc:
        raise DomainError(f"entity {entity_id!r}: {exc}") from None
    return row


# One field of the csv module's default dialect: a quote opens a quoted
# field only as its first character, ``""`` inside one is a quote, and any
# text after the closing quote (an error when strict) cannot reopen it.
# Group 1 is empty when the quoted field is still open at the end of the text.
_CSV_FIELD = re.compile(r'"[^"]*(?:""[^"]*)*("?)[^,\r\n]*|[^,\r\n]*')


def _quote_left_open(text: str) -> bool:
    """Whether ``text``, read as CSV records, ends inside a quoted field."""
    start = 0
    while True:
        match = _CSV_FIELD.match(text, start)
        if match.group(1) == "":
            return True
        start = match.end() + 1
        if start > len(text):
            return False


def _aggregate_rows(
    lines: Iterable[str], rows: MutableSequence[tuple[str, CitationCounts]]
) -> Iterator[tuple[int, VindexError]]:
    """The one pass over aggregate CSV lines, shared by
    ``read_aggregate_csv`` and ``audit_aggregate``: it appends each data
    row's entity and counts to ``rows`` and yields each refused row's line
    and the bare error that rejects it, for the policy to place. The first
    row is the header. A row is refused for its undecodable or NUL lines,
    or else for its csv error. A refused row ends the pass when it is the
    header, or when its lines end inside a quoted field: the reader starts
    afresh on the next line, so the rest of that field would be read as rows."""
    bad: list[tuple[int, CorpusParseError]] = []
    record: list[str] = []
    reader = csv.reader(_csv_lines(lines, bad, record), strict=True)
    seen: set[str] | None = None  # None until the header is read
    while True:
        record.clear()
        error = None
        try:
            fields = next(reader)
        except StopIteration:
            break
        except csv.Error as exc:
            error = CorpusParseError(str(exc))
        if bad or error:
            yield from bad or [(reader.line_num, error)]
            bad.clear()
            if seen is None or _quote_left_open("".join(record)):
                return
        elif seen is None:
            if fields:
                fields[0] = fields[0].removeprefix("\ufeff")
            if tuple(fields) != AGGREGATE_CSV_COLUMNS:
                yield 1, CorpusParseError(
                    f"header must be exactly {','.join(AGGREGATE_CSV_COLUMNS)!r}, "
                    f"got {','.join(fields)!r}"
                )
                return
            seen = set()
        elif fields:
            try:
                rows.append(_row_from_fields(fields, seen))
            except VindexError as exc:
                yield reader.line_num, exc
    if seen is None:
        yield 1, CorpusParseError("empty file, expected a header row")


def read_aggregate_csv(source: str | Path) -> list[tuple[str, CitationCounts]]:
    """Read pre-aggregated entity rows from the CSV file at ``source``: the
    strict policy over the CSV pass, raising its first error.

    The header must be exactly ``entity_id,cd,c,sc,h`` and quoting follows
    RFC 4180: a closing quote is followed by a comma or a line end, and the
    file ends outside quotes. A field over ``csv.field_size_limit()``, or a
    count that is not ASCII digits (with an optional leading minus) or whose
    magnitude exceeds 2**53, raises CorpusParseError. Rows violating the count
    invariants (negative values, sc > c, h > cd) or with cd = 0 raise
    DomainError naming the offending entity; duplicate entities raise
    CorpusIntegrityError, each placed at its file name and the line on
    which its row ends.
    """
    path = Path(source)
    rows: list[tuple[str, CitationCounts]] = []
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as lines:
        for line, error in _aggregate_rows(lines, rows):
            raise _at(error, line, path.name)
    return rows


def write_aggregate_csv(aggregates: Iterable[EntityAggregate]) -> str:
    """Serialize aggregates to the ``entity_id,cd,c,sc,h`` CSV format."""
    rows = ((agg.entity_id, agg.cd, agg.c, agg.sc, agg.h) for agg in aggregates)
    return format_table(AGGREGATE_CSV_COLUMNS, rows)


# ---------------------------------------------------------------------------
# validation without aborting
# ---------------------------------------------------------------------------

class AuditReport(NamedTuple):
    """Outcome of a validation pass: hard errors plus advisory warnings."""

    errors: list[str]
    warnings: list[str]

    @property
    def ok(self) -> bool:
        return not self.errors


def audit_corpus(source: str | Path, mode: Mode = "author") -> AuditReport:
    """Check the JSONL corpus at ``source``, collecting every problem
    instead of stopping: the audit policy over the JSONL pass that
    ``ingest_corpus`` reads.

    Hard errors: unparseable lines and duplicate ids. Warnings: stripped
    self-references, dangling references, and, in journal mode, papers
    without a venue.
    """
    _check_mode(mode)
    report = AuditReport([], [])
    corpus = Corpus({})
    with open(Path(source), "rb") as lines:
        for line, paper, loops, error in _corpus_records(lines, corpus):
            if loops:
                stripped = f"paper {paper.id!r} cites itself ({loops} entry(ies) stripped)"
                report.warnings.append(f"line {line}: {stripped}")
            if error is not None:
                report.errors.append(str(_at(error, line)))
    dangling = corpus.dangling_refs
    if dangling:
        report.warnings.append(
            f"{dangling} reference(s) point outside the corpus and will be ignored"
        )
    missing_venue = sum(paper.venue is None for paper in corpus.papers.values())
    if mode == "journal" and missing_venue:
        report.warnings.append(
            f"{missing_venue} paper(s) have no venue; their citations count as genuine"
        )
    return report


def audit_aggregate(source: str | Path) -> AuditReport:
    """Check the aggregate CSV at ``source``: header, field types, and count
    invariants. The audit policy over the CSV pass that
    ``read_aggregate_csv`` reads: it collects every error instead of
    raising the first, and its rows go to a sink that keeps none."""
    with open(Path(source), encoding="utf-8", errors="surrogateescape", newline="") as lines:
        errors = _aggregate_rows(lines, deque(maxlen=0))
        return AuditReport([str(_at(error, line)) for line, error in errors], [])
