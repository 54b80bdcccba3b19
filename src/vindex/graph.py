"""Citation corpora: ingestion, edge classification, and per-entity aggregation.

A corpus is a closed world. Only citations between papers present in the
stream are counted; references to unknown ids are tallied as dangling and
otherwise ignored, so a corpus survives a round trip through its own
serialization unchanged.

Two entity modes share all the machinery here. In author mode an edge is a
self-citation when the citing and cited author sets intersect, and a paper
contributes its counts to every one of its authors. In journal mode the
entity is the venue string and an edge is a self-citation when both papers
appeared in the same venue.

Each input format is read by one pass: ``_corpus_records`` for JSONL and
``_aggregate_rows`` for the aggregate CSV. A pass yields every record, or
the error that rejects it, with its line. Two policies read each pass: the
strict readers (``ingest_corpus``, ``read_aggregate_csv``) raise the first
error, and the audits (``audit_corpus``, ``audit_aggregate``) collect every
one. A check and its message are therefore written once for both.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import random
import re
from bisect import insort
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator, Literal, NamedTuple

from .errors import (
    CorpusIntegrityError,
    CorpusParseError,
    DomainError,
    UnknownEntityError,
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

@dataclass(frozen=True)
class Paper:
    """One publication node: identity, ownership, venue, and outgoing references."""

    id: str
    authors: tuple[str, ...]
    venue: str | None = None
    year: int | None = None
    refs: tuple[str, ...] = ()


@dataclass(frozen=True)
class Corpus:
    """An immutable set of papers keyed by id.

    ``dangling_refs`` counts references whose target is absent from the
    corpus. They stay recorded on their papers (serialization preserves
    them) but never enter any citation tally. ``self_loops`` counts the
    self-references ``ingest_corpus`` stripped from refs.
    """

    papers: dict[str, Paper]
    dangling_refs: int = 0
    self_loops: int = 0

    def __len__(self) -> int:
        return len(self.papers)

    def __iter__(self) -> Iterator[Paper]:
        return iter(self.papers.values())

    def __contains__(self, paper_id: str) -> bool:
        return paper_id in self.papers

    def paper(self, paper_id: str) -> Paper:
        try:
            return self.papers[paper_id]
        except KeyError:
            raise UnknownEntityError(f"unknown paper id {paper_id!r}") from None

    @property
    def missing_venue_edges(self) -> int:
        """In-corpus citation edges with no venue on one side or both;
        journal mode classifies them genuine."""
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


@dataclass(frozen=True)
class EntityAggregate:
    """Citation statistics for one author or venue over a full corpus.

    ``h`` is the h-index over raw received counts and ``h_star`` the h-index
    after subtracting each paper's self-received citations; h_star <= h
    always, because the filtered counts are dominated elementwise.
    """

    entity_id: str
    mode: Mode
    cd: int
    c: int
    sc: int
    h: int
    h_star: int
    per_paper: tuple[PaperCitations, ...]

    def counts(self) -> CitationCounts:
        """View as plain aggregate counts, dropping the per-paper detail."""
        return CitationCounts(
            citations_total=self.c,
            self_citations=self.sc,
            citable_documents=self.cd,
            h_index=self.h,
        )


# ---------------------------------------------------------------------------
# parsing and serialization
# ---------------------------------------------------------------------------

@contextmanager
def _open_lines(
    source: str | Path | IO | bytes | Iterable[str],
) -> Iterator[tuple[Iterable[bytes], str | None]]:
    """Open any reasonable source as UTF-8 byte lines, plus a name for
    messages.

    Paths are streamed. Paths, bytes, binary files and UTF-8 text files
    (read through their binary buffer) give their bytes split only at line
    feeds. Other text, such as an ``io.StringIO``, is encoded to UTF-8 and
    split the same way, and an iterable of strings is taken as lines already
    split, each encoded. Text is encoded with ``surrogatepass``, so a raw
    lone surrogate becomes a byte sequence that ``_decode`` refuses with its
    line. Unicode line breaks such as U+2028 never split a line.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        with open(path, "rb") as handle:
            yield handle, path.name
        return
    if isinstance(source, bytes):
        yield io.BytesIO(source), None
        return
    if hasattr(source, "read"):
        utf8_text = isinstance(source, io.TextIOWrapper) and (
            codecs.lookup(source.encoding).name == "utf-8"
        )
        data = source.buffer.read() if utf8_text else source.read()
        name = getattr(source, "name", None)
        if isinstance(name, str) and not name.startswith("<"):
            name = Path(name).name
        else:
            name = None
        yield io.BytesIO(_utf8(data)), name
        return
    yield map(_utf8, source), None


def _utf8(data: str | bytes) -> bytes:
    return data.encode("utf-8", "surrogatepass") if isinstance(data, str) else data


def _decode(raw: bytes, line: int, source: str | None) -> str:
    """One input line as text; it must be valid UTF-8."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusParseError(
            f"invalid UTF-8 at byte {exc.start + 1} ({exc.reason})", line=line, source=source
        ) from None


def _csv_lines(
    lines: Iterable[bytes], source: str | None, bad: list[CorpusParseError]
) -> Iterator[str]:
    """Text lines for ``csv.reader``, split where text mode with
    ``newline=""`` splits them: each byte line is split again at bare
    carriage returns and decoded. An undecodable line goes into ``bad`` and
    on to the reader with replacement characters, so the reader keeps its
    place and the caller can reject the row it lands in."""
    line_no = 0
    for chunk in lines:
        try:
            text = chunk.decode("utf-8")
        except UnicodeDecodeError:
            pass
        else:
            if "\r" not in text:
                line_no += 1
                yield text
                continue
        for piece in chunk.splitlines(keepends=True):
            line_no += 1
            try:
                text = _decode(piece, line_no, source)
            except CorpusParseError as exc:
                bad.append(exc)
                text = piece.decode("utf-8", "replace")
            yield text


def _string_list(value: object, what: str, line: int, source: str | None) -> list[str]:
    # ``json.loads`` makes exact lists and strs, never subclasses, so
    # comparing exact types checks every item in C.
    if type(value) is not list or "" in value or not {str}.issuperset(map(type, value)):
        raise CorpusParseError(
            f"{what} must be a list of non-empty strings", line=line, source=source
        )
    return value


# Decoded UTF-8 holds no surrogate, so only a line with a JSON escape of one
# can give a string the lone surrogate that no UTF-8 output can write.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_SURROGATE = re.compile("[\ud800-\udfff]")


def _refuse_lone_surrogates(paper: Paper, line: int, source: str | None) -> None:
    # An escaped pair decodes to one character and passes.
    fields = (paper.id,), paper.authors, (paper.venue or "",), paper.refs
    for what, values in zip(("id", "authors", "venue", "refs"), fields):
        if _SURROGATE.search("".join(values)):
            raise CorpusParseError(f"'{what}' holds a lone surrogate", line=line, source=source)


def _paper_from_record(record: object, line: int, source: str | None) -> tuple[Paper, int]:
    """Validate one decoded JSONL record; returns the paper and the number of
    self-referencing entries stripped from its refs."""
    if not isinstance(record, dict):
        raise CorpusParseError("record must be a JSON object", line=line, source=source)
    paper_id = record.get("id")
    if not isinstance(paper_id, str) or not paper_id:
        raise CorpusParseError("'id' must be a non-empty string", line=line, source=source)
    if "authors" not in record:
        raise CorpusParseError(f"paper {paper_id!r} has no 'authors'", line=line, source=source)
    authors = tuple(_string_list(record["authors"], "'authors'", line, source))
    if not authors:
        raise CorpusParseError(
            f"paper {paper_id!r} needs at least one author", line=line, source=source
        )
    venue = record.get("venue")
    if venue is not None and not isinstance(venue, str):
        raise CorpusParseError("'venue' must be a string", line=line, source=source)
    if venue == "":
        venue = None
    year = record.get("year")
    if year is not None and (isinstance(year, bool) or not isinstance(year, int)):
        raise CorpusParseError("'year' must be an integer", line=line, source=source)
    refs = dict.fromkeys(_string_list(record.get("refs", []), "'refs'", line, source))
    # Collapsing duplicates leaves at most one self-reference.
    self_loops = 0
    if paper_id in refs:
        del refs[paper_id]
        self_loops = 1
    paper = Paper(id=paper_id, authors=authors, venue=venue, year=year, refs=tuple(refs))
    return paper, self_loops


def _corpus_records(
    lines: Iterable[bytes], source: str | None
) -> Iterator[tuple[int, Paper | None, int, VindexError | None]]:
    """The one pass over JSONL lines, shared by ``ingest_corpus`` and
    ``audit_corpus``. For each non-blank line: its number, its paper, the
    number of self-references stripped from that paper, and the error that
    rejects the line, or None. A line that does not parse has no paper; a
    duplicate id keeps its paper, so its stripped self-references are still
    reported. A byte-order mark opening line 1 is dropped, as the CSV pass
    drops it from its header."""
    seen: set[str] = set()
    for line_no, raw in enumerate(lines, start=1):
        try:
            text = _decode(raw, line_no, source)
            if line_no == 1:
                text = text.removeprefix("\ufeff")
            if not text.strip():
                continue
            paper, loops = _paper_from_record(json.loads(text), line_no, source)
            if _SURROGATE_ESCAPE.search(text):
                _refuse_lone_surrogates(paper, line_no, source)
        except CorpusParseError as exc:
            yield line_no, None, 0, exc
        except (ValueError, RecursionError) as exc:
            # Besides JSONDecodeError: a plain ValueError for an integer over
            # Python's digit limit, RecursionError for deep nesting.
            reason = getattr(exc, "msg", None) or (
                "nested too deeply" if isinstance(exc, RecursionError) else "integer too long"
            )
            error = CorpusParseError(f"invalid JSON ({reason})", line=line_no, source=source)
            yield line_no, None, 0, error
        else:
            error = None
            if paper.id in seen:
                error = CorpusIntegrityError(
                    f"duplicate paper id {paper.id!r}", line=line_no, source=source
                )
            seen.add(paper.id)
            yield line_no, paper, loops, error


def _dangling_refs(papers: dict[str, Paper]) -> int:
    return sum(1 for p in papers.values() for ref in p.refs if ref not in papers)


def ingest_corpus(source: str | Path | IO | bytes | Iterable[str]) -> Corpus:
    """Load a JSONL corpus, one paper object per line: the strict policy
    over the JSONL pass, raising its first error.

    Accepts a path, an open text or binary file, raw bytes, or an iterable
    of lines; text is encoded to UTF-8 first. Lines end only at a line feed.
    Blank lines are skipped. A malformed line, invalid UTF-8 (a raw lone
    surrogate in a ``str`` included) or an escaped lone surrogate aborts
    with CorpusParseError carrying its line number; a duplicate id aborts
    with CorpusIntegrityError. Self-references in ``refs`` are stripped and
    counted as ``self_loops``, duplicate refs are collapsed, and refs
    pointing outside the corpus are counted as dangling.
    """
    papers: dict[str, Paper] = {}
    self_loops = 0
    with _open_lines(source) as (lines, name):
        for _, paper, loops, error in _corpus_records(lines, name):
            if error is not None:
                raise error
            papers[paper.id] = paper
            self_loops += loops
    return Corpus(papers=papers, dangling_refs=_dangling_refs(papers), self_loops=self_loops)


def serialize_corpus(corpus: Corpus) -> str:
    """Render a corpus back to JSONL, one line per paper, in corpus order.

    Optional fields are emitted only when present, so ingest and serialize
    compose to the identity on anything ingest accepts.
    """
    lines = []
    for paper in corpus:
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


def _received_counts(corpus: Corpus, mode: Mode) -> dict[str, PaperCitations]:
    """Per paper id: the citations it received, and the subset classified
    self, as the one record every owner of the paper shares.

    One pass over every in-corpus edge; dangling refs are skipped here.
    The citing paper's author set and venue are read once for all its refs.
    An edge is self when the author sets meet, or in journal mode when both
    venues are equal; a missing venue on either side makes it genuine.
    """
    papers = corpus.papers
    received: dict[str, list[int]] = {pid: [0, 0] for pid in papers}
    journal = mode == "journal"
    for citing in papers.values():
        mine = None if journal else frozenset(citing.authors)
        venue = citing.venue
        for ref in citing.refs:
            cited = papers.get(ref)
            if cited is None:
                continue
            entry = received[ref]
            entry[0] += 1
            if journal:
                if venue is not None and venue == cited.venue:
                    entry[1] += 1
            elif not mine.isdisjoint(cited.authors):
                entry[1] += 1
    return {pid: PaperCitations(pid, gross, own) for pid, (gross, own) in received.items()}


def aggregate_all(corpus: Corpus, mode: Mode) -> list[EntityAggregate]:
    """One aggregate per distinct entity, in lexicographic entity order.
    An entity's papers keep corpus order in ``per_paper``."""
    _check_mode(mode)
    received = _received_counts(corpus, mode)
    owned: dict[str, list[PaperCitations]] = {}
    for paper in corpus:
        if mode == "author":
            keys: Iterable[str] = dict.fromkeys(paper.authors)
        else:
            keys = (paper.venue,) if paper.venue is not None else ()
        record = received[paper.id]
        for key in keys:
            owned.setdefault(key, []).append(record)
    aggregates = []
    for entity_id in sorted(owned):
        per_paper = tuple(owned[entity_id])
        gross = [record.citations_received for record in per_paper]
        net = [record.citations_received - record.self_citations_received for record in per_paper]
        c = sum(gross)
        aggregates.append(
            EntityAggregate(
                entity_id=entity_id,
                mode=mode,
                cd=len(per_paper),
                c=c,
                sc=c - sum(net),
                h=h_index(gross),
                h_star=h_index(net),
                per_paper=per_paper,
            )
        )
    return aggregates


def self_citation_fraction(corpus: Corpus, mode: Mode = "author") -> float:
    """Share of in-corpus citation edges classified self; 0.0 for no edges."""
    _check_mode(mode)
    records = _received_counts(corpus, mode).values()
    total = sum(record.citations_received for record in records)
    if total == 0:
        return 0.0
    return sum(record.self_citations_received for record in records) / total


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
    corpus, byte for byte.

    Each paper costs O(H log H) for a team history of H earlier papers,
    whatever its index: a disjoint target is drawn by its rank among the
    earlier papers that are neither shared nor already drawn, found by
    walking the sorted list of the excluded ones.
    """
    if n_papers < 1:
        raise DomainError(f"n_papers must be >= 1, got {n_papers}")
    if n_authors < 1:
        raise DomainError(f"n_authors must be >= 1, got {n_authors}")
    if not 0.0 <= self_cite_bias <= 1.0:
        raise DomainError(f"self_cite_bias must lie in [0, 1], got {self_cite_bias!r}")
    rng = random.Random(seed)
    author_pool = [f"a{i:03d}" for i in range(1, n_authors + 1)]
    by_author: dict[str, list[int]] = {name: [] for name in author_pool}
    papers: dict[str, Paper] = {}
    for index in range(n_papers):
        team_size = rng.randint(1, min(4, n_authors))
        authors = tuple(rng.sample(author_pool, team_size))
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
            size = len(shared) if from_shared else n_disjoint
            if not size:
                break
            rank = rng.randrange(size)
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
        paper_id = f"p{index + 1:04d}"
        paper = Paper(
            id=paper_id,
            authors=authors,
            venue=rng.choice(_VENUE_POOL),
            year=2000 + index % 12,
            refs=tuple(f"p{j + 1:04d}" for j in sorted(chosen)),
        )
        papers[paper_id] = paper
        for name in authors:
            by_author[name].append(index)
    return Corpus(papers=papers, dangling_refs=0)


# ---------------------------------------------------------------------------
# aggregate CSV interchange
# ---------------------------------------------------------------------------

# Above this a count no longer converts to float exactly.
_MAX_COUNT = 2**53


def _count(text: str) -> int | None:
    """The integer in ``text`` if it is ASCII digits with an optional leading
    minus, else None. ``int`` alone would also take ``1_0``, other scripts'
    digits and surrounding spaces. A magnitude of more than 16 digits reads
    as ``_MAX_COUNT + 1``: ``int`` refuses strings over 4300 digits."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        return None
    digits = digits.lstrip("0") or "0"
    value = int(digits) if len(digits) <= 16 else _MAX_COUNT + 1
    return -value if text.startswith("-") else value


def _row_from_fields(
    fields: list[str], seen: set[str], line: int, source: str | None
) -> tuple[str, CitationCounts]:
    """Validate one aggregate CSV row; ``seen`` holds the entities of the
    rows before it and gains this row's entity once its counts parse."""
    if len(fields) != len(AGGREGATE_CSV_COLUMNS):
        raise CorpusParseError(
            f"expected {len(AGGREGATE_CSV_COLUMNS)} fields, got {len(fields)}",
            line=line,
            source=source,
        )
    entity_id, cd, c, sc, h = fields
    if not entity_id:
        raise CorpusParseError("entity_id must be non-empty", line=line, source=source)
    counts = [_count(text) for text in (cd, c, sc, h)]
    if None in counts:
        raise CorpusParseError(
            f"entity {entity_id!r}: counts must be integers", line=line, source=source
        )
    if max(map(abs, counts)) > _MAX_COUNT:
        raise CorpusParseError(f"entity {entity_id!r}: count too large", line=line, source=source)
    if entity_id in seen:
        raise CorpusIntegrityError(f"duplicate entity {entity_id!r}", line=line, source=source)
    seen.add(entity_id)
    cd_count, c_count, sc_count, h_count = counts
    try:
        return entity_id, CitationCounts(
            citations_total=c_count,
            self_citations=sc_count,
            citable_documents=cd_count,
            h_index=h_count,
        )
    except DomainError as exc:
        raise DomainError(f"entity {entity_id!r}: {exc}", line=line, source=source) from None


def _csv_rows(reader, source: str | None) -> Iterator[list[str] | CorpusParseError]:
    """The rows of ``reader``, and the error in place of a row it refuses."""
    while True:
        try:
            yield next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            yield CorpusParseError(str(exc), line=reader.line_num, source=source)


def _aggregate_rows(
    lines: Iterable[bytes], source: str | None
) -> Iterator[tuple[tuple[str, CitationCounts] | None, VindexError | None]]:
    """The one pass over aggregate CSV lines, shared by
    ``read_aggregate_csv`` and ``audit_aggregate``: each data row as its
    entity and counts, or None and the error that rejects it. A header
    that is missing, undecodable or wrong ends the pass."""
    bad: list[CorpusParseError] = []
    reader = csv.reader(_csv_lines(lines, source, bad))
    rows = _csv_rows(reader, source)
    header = next(rows, None)
    if header is None:
        yield None, CorpusParseError("empty file, expected a header row", line=1, source=source)
        return
    if bad or isinstance(header, CorpusParseError):
        yield from ((None, error) for error in bad or [header])
        return
    if header:
        header[0] = header[0].removeprefix("\ufeff")
    if tuple(header) != AGGREGATE_CSV_COLUMNS:
        yield None, CorpusParseError(
            f"header must be exactly {','.join(AGGREGATE_CSV_COLUMNS)!r}, "
            f"got {','.join(header)!r}",
            line=1,
            source=source,
        )
        return
    seen: set[str] = set()
    for fields in rows:
        if bad:
            yield from ((None, error) for error in bad)
            bad.clear()
        elif isinstance(fields, CorpusParseError):
            yield None, fields
        elif fields:
            try:
                row = _row_from_fields(fields, seen, reader.line_num, source)
            except VindexError as exc:
                yield None, exc
            else:
                yield row, None


def read_aggregate_csv(
    source: str | Path | IO | bytes | Iterable[str],
) -> list[tuple[str, CitationCounts]]:
    """Read pre-aggregated entity rows from CSV: the strict policy over the
    CSV pass, raising its first error.

    The header must be exactly ``entity_id,cd,c,sc,h`` and quoting follows
    RFC 4180. A field over ``csv.field_size_limit()``, or a count that is
    not ASCII digits (with an optional leading minus) or whose magnitude
    exceeds 2**53, raises CorpusParseError. Rows violating the count
    invariants (negative values, sc > c, h > cd) raise DomainError naming
    the offending entity; duplicate entities raise CorpusIntegrityError.
    Line numbers name the line on which a row ends.
    """
    rows: list[tuple[str, CitationCounts]] = []
    with _open_lines(source) as (lines, name):
        for row, error in _aggregate_rows(lines, name):
            if error is not None:
                raise error
            rows.append(row)
    return rows


def write_aggregate_csv(aggregates: Iterable[EntityAggregate]) -> str:
    """Serialize aggregates to the ``entity_id,cd,c,sc,h`` CSV format."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(AGGREGATE_CSV_COLUMNS)
    for agg in aggregates:
        writer.writerow([agg.entity_id, agg.cd, agg.c, agg.sc, agg.h])
    return out.getvalue()


# ---------------------------------------------------------------------------
# validation without aborting
# ---------------------------------------------------------------------------

@dataclass
class AuditReport:
    """Outcome of a validation pass: hard errors plus advisory warnings."""

    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def audit_corpus(
    source: str | Path | IO | bytes | Iterable[str], mode: Mode = "author"
) -> AuditReport:
    """Check a JSONL corpus, collecting every problem instead of stopping:
    the audit policy over the JSONL pass that ``ingest_corpus`` reads.

    Hard errors: unparseable lines and duplicate ids. Warnings: stripped
    self-references, dangling references, and, in journal mode, papers
    without a venue.
    """
    _check_mode(mode)
    report = AuditReport()
    papers: dict[str, Paper] = {}
    with _open_lines(source) as (lines, _):
        for line_no, paper, loops, error in _corpus_records(lines, None):
            if loops:
                stripped = f"paper {paper.id!r} cites itself ({loops} entry(ies) stripped)"
                report.warnings.append(f"line {line_no}: {stripped}")
            if error is not None:
                report.errors.append(str(error))
            else:
                papers[paper.id] = paper
    dangling = _dangling_refs(papers)
    if dangling:
        report.warnings.append(
            f"{dangling} reference(s) point outside the corpus and will be ignored"
        )
    missing_venue = sum(paper.venue is None for paper in papers.values())
    if mode == "journal" and missing_venue:
        report.warnings.append(
            f"{missing_venue} paper(s) have no venue; their citations count as genuine"
        )
    return report


def audit_aggregate(source: str | Path | IO | bytes | Iterable[str]) -> AuditReport:
    """Check an aggregate CSV: header, field types, and count invariants.
    The audit policy over the CSV pass that ``read_aggregate_csv`` reads:
    it collects every error instead of raising the first."""
    with _open_lines(source) as (lines, _):
        return AuditReport(
            errors=[str(error) for _, error in _aggregate_rows(lines, None) if error is not None]
        )
