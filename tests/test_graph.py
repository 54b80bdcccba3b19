"""Unit tests for corpus ingestion, classification, and aggregation."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import shutil
import sys
import tracemalloc

import pytest

from vindex.analytics import TABLE_COLUMNS
from vindex.cli import main
from vindex.errors import (
    CorpusIntegrityError,
    CorpusParseError,
    DomainError,
)
from vindex.graph import (
    AGGREGATE_CSV_COLUMNS,
    MODES,
    AuditReport,
    Corpus,
    Paper,
    _quote_left_open,
    aggregate_all,
    audit_aggregate,
    audit_corpus,
    generate_synthetic_corpus,
    ingest_corpus,
    read_aggregate_csv,
    self_citation_fraction,
    serialize_corpus,
    write_aggregate_csv,
)
from vindex.metrics import CitationCounts

from oracles import (
    author_aggregates_from_jsonl,
    journal_aggregates_from_jsonl,
    missing_venue_edges_from_jsonl,
    self_citation_fraction_from_jsonl,
    synthetic_corpus_jsonl,
)


def jsonl(*records) -> str:
    return "\n".join(json.dumps(record) for record in records) + "\n"


# A small world computed by hand. Authors: ann and bob write together,
# cara works alone.
#   p1 (ann, bob) <- cited by p2, p3, p4
#   p2 (ann)      <- cited by p3
#   p3 (cara)     <- cited by p4
#   p4 (bob, cara) <- uncited
# Edges: p2->p1 self for ann (shared ann), p3->p1 genuine, p3->p2 genuine,
#        p4->p1 self (shared bob), p4->p3 self (shared cara).
HANDMADE = jsonl(
    {"id": "p1", "authors": ["ann", "bob"], "venue": "J1", "year": 2001, "refs": []},
    {"id": "p2", "authors": ["ann"], "venue": "J2", "year": 2003, "refs": ["p1"]},
    {"id": "p3", "authors": ["cara"], "venue": "J1", "year": 2005, "refs": ["p1", "p2"]},
    {"id": "p4", "authors": ["bob", "cara"], "venue": "J2", "year": 2007, "refs": ["p1", "p3"]},
)


@pytest.fixture()
def handmade(write_input) -> Corpus:
    return ingest_corpus(write_input(HANDMADE))


def entities(corpus: Corpus, mode: str) -> dict:
    """Every aggregate of ``corpus`` in ``mode``, keyed by entity id."""
    return {agg.entity_id: agg for agg in aggregate_all(corpus, mode)}


# ---------------------------------------------------------------------------
# ingestion and serialization
# ---------------------------------------------------------------------------

def test_ingest_two_line_stream(write_input):
    corpus = ingest_corpus(
        write_input(
            ['{"id": "p1", "authors": ["a"], "refs": []}', '{"id": "p2", "authors": ["b"], "refs": ["p1"]}']
        )
    )
    assert len(corpus.papers) == 2
    assert corpus.dangling_refs == 0
    assert "p1" in corpus.papers and "p2" in corpus.papers
    assert corpus.papers["p2"].refs == ("p1",)


def test_ingest_accepts_path(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(HANDMADE, encoding="utf-8")
    assert len(ingest_corpus(path).papers) == 4
    assert ingest_corpus(str(path)) == ingest_corpus(path)


@pytest.mark.parametrize("kind", ["bytes", "stringio", "list"])
@pytest.mark.parametrize(
    "read",
    [ingest_corpus, audit_corpus, read_aggregate_csv, audit_aggregate],
    ids=lambda read: read.__name__,
)
def test_readers_take_only_a_path(write_input, read, kind):
    # The input is valid, and the bytes name a file that holds it, so the
    # type of the source is the only thing to refuse.
    text = HANDMADE if read in (ingest_corpus, audit_corpus) else f"{CSV_HEADER}\nx,1,1,0,1\n"
    path = write_input(text)
    source = {"bytes": bytes(path), "stringio": io.StringIO(text), "list": text.splitlines()}
    with pytest.raises(TypeError):
        read(source[kind])
    read(path)


def test_ingest_keeps_a_raw_u2028_inside_a_string(tmp_path):
    records = [
        {"id": "q1", "authors": ["Line\u2028Separator"], "refs": []},
        {"id": "q2", "authors": ["Next\u0085Line"], "refs": ["q1"]},
    ]
    text = "".join(json.dumps(record, ensure_ascii=False) + "\n" for record in records)
    path = tmp_path / "corpus.jsonl"
    path.write_text(text, encoding="utf-8")
    corpus = ingest_corpus(path)
    assert corpus.papers["q1"].authors == ("Line\u2028Separator",)
    assert corpus.papers["q2"].authors == ("Next\u0085Line",)
    assert audit_corpus(path) == AuditReport([], [])


def test_ingest_accepts_crlf_line_endings(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(HANDMADE.replace("\n", "\r\n").encode("utf-8"))
    assert serialize_corpus(ingest_corpus(path)) == HANDMADE


def test_ingest_skips_blank_lines(write_input):
    text = '{"id": "p1", "authors": ["a"]}\n\n   \n{"id": "p2", "authors": ["b"]}\n'
    assert len(ingest_corpus(write_input(text)).papers) == 2


@pytest.mark.parametrize(
    "space", ["\u00a0", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\u2028", "\u2029", "\u3000 \t"]
)
def test_a_line_of_non_json_whitespace_is_invalid_json_not_blank(write_input, space):
    # str.strip() strips each of these, and json.loads rejects each: a line
    # is blank only when it holds nothing but spaces, tabs and CRs.
    blank = " \t \r"
    path = write_input(['{"id": "p1", "authors": ["a"]}', blank, space, '{"id": "p2", "authors": ["b"]}'])
    with pytest.raises(CorpusParseError, match=r", line 3: invalid JSON \(Expecting value\)$"):
        ingest_corpus(path)
    assert audit_corpus(path) == AuditReport(["line 3: invalid JSON (Expecting value)"], [])
    assert len(ingest_corpus(write_input(['{"id": "p1", "authors": ["a"]}', blank])).papers) == 1


def test_ingest_counts_dangling_refs(write_input):
    corpus = ingest_corpus(
        write_input(
            ['{"id": "p1", "authors": ["a"], "refs": ["ghost", "p2"]}', '{"id": "p2", "authors": ["b"]}']
        )
    )
    assert corpus.dangling_refs == 1
    # the dangling ref stays on the paper for round-tripping
    assert corpus.papers["p1"].refs == ("ghost", "p2")


def test_ingest_strips_self_loops_and_warns(write_input):
    # the CLI warns with the count the corpus carries
    corpus = ingest_corpus(
        write_input(
            [
                '{"id": "p1", "authors": ["a"], "refs": ["p1"]}',
                '{"id": "p2", "authors": ["b"], "refs": ["p1", "p2", "p2"]}',
                '{"id": "p3", "authors": ["c"], "refs": ["p1"]}',
            ]
        )
    )
    assert corpus.papers["p1"].refs == ()
    assert corpus.papers["p2"].refs == ("p1",)
    assert corpus.self_loops == 2
    assert ingest_corpus(write_input(['{"id": "p1", "authors": ["a"]}'])).self_loops == 0


def test_ingest_strips_one_self_reference_among_duplicates(write_input):
    report = audit_corpus(write_input(['{"id": "p1", "authors": ["a"], "refs": ["p1", "p1"]}']))
    assert report.warnings == ["line 1: paper 'p1' cites itself (1 entry(ies) stripped)"]
    corpus = ingest_corpus(
        write_input(['{"id": "p1", "authors": ["a"], "refs": ["p1", "p1", "x", "p1"]}'])
    )
    assert corpus.papers["p1"].refs == ("x",)


def test_ingest_collapses_duplicate_refs(write_input):
    corpus = ingest_corpus(
        write_input(
            ['{"id": "p1", "authors": ["a"]}', '{"id": "p2", "authors": ["b"], "refs": ["p1", "p1"]}']
        )
    )
    assert corpus.papers["p2"].refs == ("p1",)


def test_ingest_normalizes_empty_venue(write_input):
    corpus = ingest_corpus(write_input(['{"id": "p1", "authors": ["a"], "venue": ""}']))
    assert corpus.papers["p1"].venue is None


@pytest.mark.parametrize(
    "line",
    [
        "not json at all",
        '{"authors": ["a"]}',
        '{"id": "", "authors": ["a"]}',
        '{"id": "p1"}',
        '{"id": "p1", "authors": []}',
        '{"id": "p1", "authors": "a"}',
        '{"id": "p1", "authors": ["a", 3]}',
        '{"id": "p1", "authors": [""]}',
        '{"id": "p1", "authors": ["a"], "refs": "p2"}',
        '{"id": "p1", "authors": ["a"], "refs": [2]}',
        '{"id": "p1", "authors": ["a"], "venue": 9}',
        '{"id": "p1", "authors": ["a"], "year": "2001"}',
        '{"id": "p1", "authors": ["a"], "year": true}',
        '[1, 2, 3]',
        '{"id": "p1", "authors": null}',
        '{"id": "p1", "authors": [["a"]]}',
        '{"id": "p1", "authors": ["a", null]}',
        '{"id": "p1", "authors": ["a"], "refs": [""]}',
        '{"id": "p1", "authors": ["a"], "refs": ["p2", false]}',
        # unhashable items: equal strings are shared through a dict, which
        # only sees an item once it is known to be a string
        '{"id": "p1", "authors": [[]]}',
        '{"id": "p1", "authors": [{}]}',
        '{"id": "p1", "authors": ["a"], "refs": [[]]}',
        '{"id": "p1", "authors": ["a"], "refs": [{}]}',
        # json.loads raises ValueError for the first; the second is refused
        # before it is parsed
        pytest.param('{"id": "p1", "authors": ["a"], "year": ' + "9" * 5000 + "}", id="huge-int"),
        pytest.param("[" * 100_000 + "]" * 100_000, id="deep-nesting"),
    ],
)
def test_ingest_rejects_malformed_line(write_input, line):
    path = write_input(['{"id": "p0", "authors": ["z"]}', line])
    with pytest.raises(CorpusParseError) as excinfo:
        ingest_corpus(path)
    (error,) = audit_corpus(path).errors
    assert error.startswith("line 2: ")
    assert str(excinfo.value) == f"{path.name}, {error}"


# Found by comparing the fuzz cases across Python versions: a line nesting
# 1000 to 10000 levels deep was refused up to 3.11 and read from 3.12 on,
# so ``metrics`` on one file exited 2 or 0 by version. The record is the
# first level; brackets inside strings do not count.
@pytest.mark.parametrize("depth", [500, 501])
@pytest.mark.parametrize("inside", ["[", "{\"k\": "], ids=["arrays", "objects"])
def test_nesting_past_500_levels_is_refused_on_every_version(write_input, depth, inside):
    closing = "]" if inside == "[" else "}"
    levels = depth - 1
    name = "[{" * 600
    line = json.dumps({"id": "p1", "authors": [name], "x": "@"}).replace(
        '"@"', inside * levels + "0" + closing * levels
    )
    path = write_input([line])
    errors = audit_corpus(path).errors
    if depth == 500:
        assert errors == []
        assert ingest_corpus(path).papers["p1"].authors == (name,)
    else:
        assert errors == ["line 1: invalid JSON (nested too deeply)"]


# ---------------------------------------------------------------------------
# shared strings
# ---------------------------------------------------------------------------

def test_ingest_shares_each_ref_with_the_id_it_names(write_input, handmade):
    # json.loads builds every string afresh; only the pass shares them. p2
    # cites p1 before p1's own line, and both cite the same dangling id.
    forward = ingest_corpus(
        write_input(
            jsonl(
                {"id": "p2", "authors": ["ann"], "refs": ["p1", "ghost"]},
                {"id": "p1", "authors": ["bob"]},
                {"id": "p3", "authors": ["bob"], "refs": ["p1", "p2", "ghost"]},
            )
        )
    )
    assert forward.papers["p2"].refs[1] is forward.papers["p3"].refs[2]
    synthetic = ingest_corpus(write_input(synthetic_corpus_jsonl(5, 60, 9, 0.3)))
    for corpus in (forward, handmade, synthetic):
        for paper_id, paper in corpus.papers.items():
            assert paper_id is paper.id
            for ref in paper.refs:
                if ref in corpus.papers:
                    assert ref is corpus.papers[ref].id


def test_ingest_shares_an_author_and_a_venue_across_papers(handmade):
    authors = {}
    venues = {}
    for paper in handmade.papers.values():
        for name in paper.authors:
            assert authors.setdefault(name, name) is name
        assert venues.setdefault(paper.venue, paper.venue) is paper.venue
    assert handmade.papers["p1"].authors[0] is handmade.papers["p2"].authors[0]
    assert handmade.papers["p1"].venue is handmade.papers["p3"].venue


def test_synthetic_refs_are_the_ids_of_their_papers():
    corpus = generate_synthetic_corpus(9, 300, 20, 0.4)
    assert sum(len(paper.refs) for paper in corpus.papers.values()) > 300
    for paper in corpus.papers.values():
        for ref in paper.refs:
            assert ref is corpus.papers[ref].id


def test_a_shared_ref_costs_a_pointer_not_a_string(write_input):
    def lines(n_refs):
        return [
            json.dumps(
                {
                    "id": f"paper-{i:05d}",
                    "authors": [f"author-{i % 50:03d}"],
                    "refs": [f"paper-{j:05d}" for j in range(max(0, i - n_refs), i)],
                }
            )
            for i in range(1000)
        ]

    def held(path):
        tracemalloc.start()
        try:
            corpus = ingest_corpus(path)
            return tracemalloc.get_traced_memory()[0], corpus
        finally:
            tracemalloc.stop()

    bare, _ = held(write_input(lines(0)))
    full, corpus = held(write_input(lines(20)))
    n_refs = sum(len(paper.refs) for paper in corpus.papers.values())
    assert n_refs == 19_790
    # Measured at 9.7 bytes per ref: the tuple slot plus a share of the
    # tuple. A string of its own per ref costs about 60 more.
    assert (full - bare) / n_refs < 2 * 9.7


def test_paper_keeps_its_value_semantics_with_slots():
    paper = Paper("p1", ("a", "b"), venue="J", year=2001, refs=("p0",))
    twin = Paper("p1", ("a", "b"), venue="J", year=2001, refs=("p0",))
    assert paper == twin and hash(paper) == hash(twin)
    assert repr(paper) == (
        "Paper(id='p1', authors=('a', 'b'), venue='J', year=2001, refs=('p0',))"
    )
    assert paper._replace(year=2002) == Paper("p1", ("a", "b"), "J", 2002, ("p0",))
    with pytest.raises(AttributeError):
        paper.year = 2002
    assert not hasattr(paper, "__dict__")


def test_ingest_rejects_invalid_utf8_with_its_line(tmp_path):
    data = (
        b'{"id": "p1", "authors": ["a"]}\n'
        b'{"id": "p2", "authors": ["b\xff"]}\n'
        b'{"id": "p3", "authors": ["c"], "refs": ["p1"]}\n'
        b'{"id": "p4", "authors": ["\xc3"]}\n'
    )
    path = tmp_path / "bad.jsonl"
    path.write_bytes(data)
    with pytest.raises(CorpusParseError) as excinfo:
        ingest_corpus(path)
    assert str(excinfo.value) == "bad.jsonl, line 2: invalid UTF-8 at byte 28 (invalid start byte)"
    # the audit reports every undecodable line and reads on
    assert audit_corpus(path).errors == [
        "line 2: invalid UTF-8 at byte 28 (invalid start byte)",
        "line 4: invalid UTF-8 at byte 27 (invalid continuation byte)",
    ]


BOM_CORPUS = (
    b'{"id": "p1", "authors": ["a"], "refs": ["p1"]}\n'
    b'{"id": "p2", "authors": ["b"], "refs": ["p1"]}\n'
)


BOM_TABLE = b"entity_id,cd,c,sc,h\nx,1,1,0,1\n"


def test_ingest_and_audit_drop_a_leading_byte_order_mark(write_input):
    path = write_input(b"\xef\xbb\xbf" + BOM_CORPUS)
    plain = write_input(BOM_CORPUS)
    assert ingest_corpus(path) == ingest_corpus(plain)
    report = audit_corpus(path)
    assert report.errors == []
    assert report.warnings == audit_corpus(plain).warnings
    table = write_input(b"\xef\xbb\xbf" + BOM_TABLE)
    assert read_aggregate_csv(table) == read_aggregate_csv(write_input(BOM_TABLE))
    assert audit_aggregate(table).errors == []


def test_only_one_leading_byte_order_mark_is_dropped(write_input):
    twice = b"\xef\xbb\xbf" * 2
    path = write_input(twice + BOM_CORPUS)
    with pytest.raises(CorpusParseError, match=f"^{path.name}, line 1: invalid JSON"):
        ingest_corpus(path)
    header_error = (
        "line 1: header must be exactly 'entity_id,cd,c,sc,h', "
        "got '\\ufeffentity_id,cd,c,sc,h'"
    )
    table = write_input(twice + BOM_TABLE)
    with pytest.raises(CorpusParseError) as excinfo:
        read_aggregate_csv(table)
    assert str(excinfo.value) == f"{table.name}, {header_error}"
    assert audit_aggregate(table).errors == [header_error]


def test_byte_order_mark_after_line_1_is_still_rejected(write_input):
    path = write_input(
        b"\xef\xbb\xbf" + BOM_CORPUS + b'\xef\xbb\xbf{"id": "p3", "authors": ["c"]}\n'
    )
    with pytest.raises(CorpusParseError, match=f"^{path.name}, line 3: invalid JSON"):
        ingest_corpus(path)
    line_2 = write_input(BOM_CORPUS.replace(b"\n{", b"\n\xef\xbb\xbf{"))
    with pytest.raises(CorpusParseError, match=f"^{line_2.name}, line 2: invalid JSON"):
        ingest_corpus(line_2)
    assert [e.split(" (")[0] for e in audit_corpus(line_2).errors] == ["line 2: invalid JSON"]


@pytest.mark.parametrize(
    "record, what",
    [
        ('{"id": "p\\udfff", "authors": ["a"]}', "id"),
        ('{"id": "p2", "authors": ["a", "b\\uD800"]}', "authors"),
        ('{"id": "p2", "authors": ["a"], "venue": "\\udbffJ"}', "venue"),
        ('{"id": "p2", "authors": ["a"], "refs": ["p1", "\\ude00"]}', "refs"),
        # a pair in the wrong order is two lone surrogates
        ('{"id": "p2", "authors": ["\\ude00\\ud83d"]}', "authors"),
    ],
)
def test_ingest_and_audit_reject_a_lone_surrogate(write_input, record, what):
    path = write_input(['{"id": "p1", "authors": ["a"]}', record])
    error = f"line 2: '{what}' holds a lone surrogate"
    with pytest.raises(CorpusParseError) as excinfo:
        ingest_corpus(path)
    assert str(excinfo.value) == f"{path.name}, {error}"
    assert audit_corpus(path).errors == [error]


@pytest.mark.parametrize(
    "record, what",
    [
        ('{"id": "p\\u0000", "authors": ["a"]}', "id"),
        ('{"id": "p2", "authors": ["a", "a\\u0000b"]}', "authors"),
        ('{"id": "p2", "authors": ["a"], "venue": "\\u0000"}', "venue"),
        ('{"id": "p2", "authors": ["a"], "refs": ["p1", "p\\u0000"]}', "refs"),
    ],
)
def test_readers_and_cli_reject_an_escaped_nul(tmp_path, capsys, record, what):
    # csv cannot write NUL before Python 3.11, so no version reads it.
    path = tmp_path / "nul.jsonl"
    path.write_text('{"id": "p1", "authors": ["a"]}\n' + record + "\n", encoding="utf-8")
    error = f"line 2: '{what}' holds NUL"
    with pytest.raises(CorpusParseError) as excinfo:
        ingest_corpus(path)
    assert str(excinfo.value) == f"nul.jsonl, {error}"
    assert audit_corpus(path).errors == [error]
    assert main(["validate", "--input", str(path)]) == 2
    assert capsys.readouterr().out.startswith(f"error: {error}\n")
    assert main(["metrics", "--input", str(path)]) == 2
    assert capsys.readouterr().err == f"error: nul.jsonl, {error}\n"


def test_ingest_keeps_escaped_pairs_and_other_escapes(write_input):
    # an escaped pair, a non-surrogate escape and an escaped backslash
    path = write_input(
        '{"id": "p\\ud83d\\ude00", "authors": ["M\\u00fcller", "\\\\ud800"], '
        '"venue": "J\\uD83D\\uDE00"}'
    )
    corpus = ingest_corpus(path)
    paper = corpus.papers["p\U0001f600"]
    assert paper.authors == ("M\u00fcller", "\\ud800")
    assert paper.venue == "J\U0001f600"
    assert audit_corpus(path).ok


def _write_lines(path, lines):
    path.write_bytes("".join(lines).encode("utf-8", "surrogatepass"))


def _write_stringio(path, lines):
    with path.open("w", encoding="utf-8", errors="surrogatepass", newline="") as file:
        shutil.copyfileobj(io.StringIO("".join(lines)), file)


@pytest.mark.parametrize(
    "write",
    [pytest.param(_write_lines, id="lines"), pytest.param(_write_stringio, id="stringio")],
)
def test_readers_refuse_a_raw_lone_surrogate_in_text(tmp_path, write):
    # A real U+D800 in the string, not a JSON escape of one: a str can hold
    # it, and a program that writes that text with "surrogatepass", as lines
    # or from a text stream, leaves bytes that UTF-8 may not hold.
    def write_input(name, lines):
        path = tmp_path / name
        write(path, lines)
        return path

    corpus = write_input(
        "corpus.jsonl",
        [
            '{"id": "p1", "authors": ["a"]}\n',
            '{"id": "p2", "authors": ["b\ud800"]}\n',
            '{"id": "p3", "authors": ["c"], "refs": ["p3", "p1"]}\n',
        ],
    )
    assert b"\xed\xa0\x80" in corpus.read_bytes()
    error = "line 2: invalid UTF-8 at byte 28 (invalid continuation byte)"
    with pytest.raises(CorpusParseError) as excinfo:
        ingest_corpus(corpus)
    assert str(excinfo.value) == f"{corpus.name}, {error}"
    # the audit reports the same error and still reads line 3
    assert audit_corpus(corpus) == AuditReport(
        errors=[error],
        warnings=["line 3: paper 'p3' cites itself (1 entry(ies) stripped)"],
    )
    lines = [f"{CSV_HEADER}\n", "x\udc80,1,1,0,1\n", "ok,1,1,0,1\n", "sc,5,10,20,3\n"]
    table = write_input("table.csv", lines)
    assert b"x\xed\xb2\x80," in table.read_bytes()
    error = "line 2: invalid UTF-8 at byte 2 (invalid continuation byte)"
    with pytest.raises(CorpusParseError) as excinfo:
        read_aggregate_csv(table)
    assert str(excinfo.value) == f"{table.name}, {error}"
    assert audit_aggregate(table).errors == [
        error,
        "line 4: entity 'sc': self_citations (20) exceed citations_total (10)",
    ]
    assert read_aggregate_csv(write_input("ok.csv", [lines[0], lines[2]])) == [
        ("ok", CitationCounts(1, 0, 1, 1))
    ]


def test_a_str_item_is_split_at_its_inner_line_feeds_as_a_file_is(write_input):
    path = write_input('{"id": "p1",\n "authors": ["a"]}')
    first = "line 1: invalid JSON (Expecting property name enclosed in double quotes)"
    with pytest.raises(CorpusParseError) as excinfo:
        ingest_corpus(path)
    assert str(excinfo.value) == f"{path.name}, {first}"
    assert audit_corpus(path).errors == [first, "line 2: invalid JSON (Extra data)"]
    # an item holding two records reads as two lines
    both = '{"id": "p1", "authors": ["a"]}\n{"id": "p2", "authors": ["b"], "refs": ["p1"]}\n'
    path = write_input(['{"id": "p0", "authors": ["z"]}', both + both])
    with pytest.raises(CorpusIntegrityError) as excinfo:
        ingest_corpus(path)
    assert str(excinfo.value).startswith(f"{path.name}, line 4: ")


@pytest.mark.parametrize("ending", ["\n", "\r\n"])
def test_a_csv_str_item_is_split_at_its_inner_line_feeds_as_a_file_is(write_input, ending):
    path = write_input(f"{CSV_HEADER}\nx,1\n,1,0,1{ending}")
    expected = ["line 2: expected 5 fields, got 2", "line 3: expected 5 fields, got 4"]
    with pytest.raises(CorpusParseError) as excinfo:
        read_aggregate_csv(path)
    assert str(excinfo.value) == f"{path.name}, {expected[0]}"
    assert audit_aggregate(path).errors == expected
    # a quoted field still spans a line feed, and the line after it counts on
    lines = [f'{CSV_HEADER}\n"Multi\nLine",3,10,2,2\nx,1,1,0,1\n', "x,2,2,0,1\n"]
    path = write_input(lines)
    with pytest.raises(CorpusIntegrityError) as excinfo:
        read_aggregate_csv(path)
    assert str(excinfo.value).startswith(f"{path.name}, line 5: ")
    assert read_aggregate_csv(write_input(lines[:1])) == [
        ("Multi\nLine", CitationCounts(10, 2, 3, 2)),
        ("x", CitationCounts(1, 0, 1, 1)),
    ]


def test_ingest_rejects_duplicate_ids(write_input):
    path = write_input(['{"id": "p1", "authors": ["a"]}', '{"id": "p1", "authors": ["b"]}'])
    with pytest.raises(CorpusIntegrityError) as excinfo:
        ingest_corpus(path)
    assert str(excinfo.value) == f"{path.name}, line 2: duplicate paper id 'p1'"


def test_a_line_refused_for_another_reason_does_not_claim_its_id(write_input):
    # Only an accepted paper enters the id index, so line 2 is no duplicate,
    # and its dangling ref is counted from the corpus it entered.
    path = write_input(
        ['{"id": "p1", "authors": ["a\\u0000"]}', '{"id": "p1", "authors": ["b"], "refs": ["ghost"]}']
    )
    assert audit_corpus(path) == AuditReport(
        errors=["line 1: 'authors' holds NUL"],
        warnings=["1 reference(s) point outside the corpus and will be ignored"],
    )
    with pytest.raises(CorpusParseError) as excinfo:
        ingest_corpus(path)
    assert str(excinfo.value) == f"{path.name}, line 1: 'authors' holds NUL"


def test_parse_error_names_the_file(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text("{oops\n", encoding="utf-8")
    with pytest.raises(CorpusParseError) as excinfo:
        ingest_corpus(path)
    assert "broken.jsonl" in str(excinfo.value)


def test_serialize_ingest_round_trip(write_input, handmade):
    text = serialize_corpus(handmade)
    again = ingest_corpus(write_input(text))
    assert again == handmade
    assert serialize_corpus(again) == text


def test_hand_built_corpus_counts_its_dangling_refs():
    corpus = Corpus({"p1": Paper("p1", ("a",), refs=("ghost", "p2")), "p2": Paper("p2", ("b",))})
    assert corpus.dangling_refs == 1
    assert (corpus == object()) is False


def test_round_trip_preserves_dangling_refs(write_input):
    corpus = ingest_corpus(write_input(['{"id": "p1", "authors": ["a"], "refs": ["ghost"]}']))
    again = ingest_corpus(write_input(serialize_corpus(corpus)))
    assert again.dangling_refs == 1
    assert again == corpus


def test_serialize_empty_corpus():
    assert serialize_corpus(Corpus(papers={})) == ""


def test_serialize_omits_missing_optional_fields(write_input):
    corpus = ingest_corpus(write_input(['{"id": "p1", "authors": ["a"]}']))
    record = json.loads(serialize_corpus(corpus))
    assert "venue" not in record and "year" not in record
    assert record["refs"] == []


# ---------------------------------------------------------------------------
# edge classification
# ---------------------------------------------------------------------------

def received(corpus: Corpus, paper_id: str, mode: str) -> set[tuple[int, int]]:
    """(citations, self-citations) that ``paper_id`` received, as seen by
    every entity owning it in ``mode``."""
    return {
        (item.citations_received, item.self_citations_received)
        for agg in aggregate_all(corpus, mode)
        for item in agg.per_paper
        if item.paper_id == paper_id
    }


def edge_label(write_input, citing: str, cited: str, mode: str) -> str:
    """Label the HANDMADE edge citing -> cited through the aggregation of a
    corpus holding only those two papers and that one edge."""
    records = {record["id"]: record for record in map(json.loads, HANDMADE.splitlines())}
    pair = jsonl(records[cited] | {"refs": []}, records[citing] | {"refs": [cited]})
    labels = {(1, 0): "genuine", (1, 1): "self"}
    (tally,) = received(ingest_corpus(write_input(pair)), cited, mode)
    return labels[tally]


@pytest.mark.parametrize(
    "citing, cited, label",
    [
        ("p2", "p1", "self"),      # shared author ann
        ("p3", "p1", "genuine"),
        ("p3", "p2", "genuine"),
        ("p4", "p1", "self"),      # shared author bob
        ("p4", "p3", "self"),      # shared author cara
    ],
)
def test_classify_author_mode(write_input, citing, cited, label):
    assert edge_label(write_input, citing, cited, "author") == label


@pytest.mark.parametrize(
    "citing, cited, label",
    [
        ("p3", "p1", "self"),      # both in J1
        ("p2", "p1", "genuine"),   # J2 cites J1
        ("p4", "p3", "genuine"),   # J2 cites J1
    ],
)
def test_classify_journal_mode(write_input, citing, cited, label):
    assert edge_label(write_input, citing, cited, "journal") == label


def test_classify_missing_venue_is_genuine(write_input):
    corpus = ingest_corpus(
        write_input(
            ['{"id": "p1", "authors": ["a"], "venue": "J1"}', '{"id": "p2", "authors": ["b"], "refs": ["p1"]}']
        )
    )
    assert received(corpus, "p1", "journal") == {(1, 0)}


def test_classify_unknown_mode(handmade):
    with pytest.raises(DomainError):
        aggregate_all(handmade, "institution")


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def test_aggregate_author_hand_counts(handmade):
    # ann owns p1 (3 received, 2 self: p2 shares ann, p4 shares bob) and
    # p2 (1 received, 0 self)
    authors = entities(handmade, "author")
    ann = authors["ann"]
    assert (ann.cd, ann.c, ann.sc, ann.h, ann.h_star) == (2, 4, 2, 1, 1)
    assert [item.paper_id for item in ann.per_paper] == ["p1", "p2"]
    assert [item.citations_received for item in ann.per_paper] == [3, 1]
    assert [item.self_citations_received for item in ann.per_paper] == [2, 0]

    bob = authors["bob"]
    assert (bob.cd, bob.c, bob.sc, bob.h, bob.h_star) == (2, 3, 2, 1, 1)

    cara = authors["cara"]
    assert (cara.cd, cara.c, cara.sc, cara.h, cara.h_star) == (2, 1, 1, 1, 0)


def test_aggregate_journal_hand_counts(handmade):
    # J1 owns p1 and p3; edges into J1: p2->p1 (J2, genuine),
    # p3->p1 (J1, self), p4->p1 (J2, genuine), p4->p3 (J2, genuine)
    journals = entities(handmade, "journal")
    j1 = journals["J1"]
    assert (j1.cd, j1.c, j1.sc, j1.h, j1.h_star) == (2, 4, 1, 1, 1)
    j2 = journals["J2"]
    assert (j2.cd, j2.c, j2.sc, j2.h, j2.h_star) == (2, 1, 0, 1, 1)


def test_aggregate_counts_view(handmade):
    ann = entities(handmade, "author")["ann"]
    counts = ann.counts()
    assert counts.citations_total == ann.c
    assert counts.self_citations == ann.sc
    assert counts.citable_documents == ann.cd
    assert counts.h_index == ann.h


def test_aggregate_all_is_lexicographic(handmade):
    names = [agg.entity_id for agg in aggregate_all(handmade, "author")]
    assert names == sorted(names) == ["ann", "bob", "cara"]


def test_papers_without_venue_are_not_journal_entities(write_input):
    corpus = ingest_corpus(
        write_input(['{"id": "p1", "authors": ["a"]}', '{"id": "p2", "authors": ["b"], "venue": "J1"}'])
    )
    names = [agg.entity_id for agg in aggregate_all(corpus, "journal")]
    assert names == ["J1"]


def test_journal_mode_warns_about_missing_venues(write_input, handmade):
    # the CLI warns with this count in journal mode; each edge counts genuine
    corpus = ingest_corpus(
        write_input(
            [
                '{"id": "p1", "authors": ["a"], "venue": "J1"}',
                '{"id": "p2", "authors": ["b"], "refs": ["p1", "ghost"]}',
                '{"id": "p3", "authors": ["c"], "venue": "J1", "refs": ["p1", "p2"]}',
                '{"id": "p4", "authors": ["d"], "venue": "", "refs": ["p2", "p3"]}',
            ]
        )
    )
    # p2->p1, p3->p2, p4->p2 and p4->p3 lack a venue; p3->p1 and the
    # dangling ref do not count
    assert corpus.missing_venue_edges == 4
    assert {agg.entity_id: agg.sc for agg in aggregate_all(corpus, "journal")} == {"J1": 1}
    assert handmade.missing_venue_edges == 0


def test_author_credit_is_not_double_counted(write_input):
    # one author listed once per paper even if the paper repeats the name
    corpus = ingest_corpus(write_input(['{"id": "p1", "authors": ["a", "a"]}']))
    agg = entities(corpus, "author")["a"]
    assert agg.cd == 1


def test_dangling_refs_do_not_enter_tallies(write_input):
    corpus = ingest_corpus(
        write_input(
            ['{"id": "p1", "authors": ["a"]}', '{"id": "p2", "authors": ["a"], "refs": ["p1", "ghost"]}']
        )
    )
    agg = entities(corpus, "author")["a"]
    assert (agg.c, agg.sc) == (1, 1)


def test_self_citation_fraction(handmade):
    # 5 edges, 3 self in author mode
    assert self_citation_fraction(handmade) == pytest.approx(3 / 5)


def test_self_citation_fraction_no_edges(write_input):
    corpus = ingest_corpus(write_input(['{"id": "p1", "authors": ["a"]}']))
    assert self_citation_fraction(corpus) == 0.0


@pytest.mark.parametrize("mode", MODES)
def test_aggregation_peak_stays_near_what_it_keeps(mode):
    # The bound sits between the two designs: an owner set held per paper
    # for the whole pass peaks at 3.0 (author) and 4.6 (journal) times what
    # the call keeps, and classifying over the owners papers hold at 1.4
    # and 1.5.
    corpus = generate_synthetic_corpus(1, 5000, 1500, 0.3)
    tracemalloc.start()
    try:
        aggregates = aggregate_all(corpus, mode)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert aggregates
    assert peak <= 2.5 * kept, (peak, kept)


# ---------------------------------------------------------------------------
# synthetic corpora
# ---------------------------------------------------------------------------

def test_synthetic_is_deterministic():
    a = generate_synthetic_corpus(42, 60, 10, 0.5)
    b = generate_synthetic_corpus(42, 60, 10, 0.5)
    assert a == b
    assert serialize_corpus(a) == serialize_corpus(b)


def test_synthetic_seeds_differ():
    a = serialize_corpus(generate_synthetic_corpus(1, 40, 8, 0.5))
    b = serialize_corpus(generate_synthetic_corpus(2, 40, 8, 0.5))
    assert a != b


def test_synthetic_single_paper():
    corpus = generate_synthetic_corpus(1, 1, 1, 0.0)
    assert len(corpus.papers) == 1
    (paper,) = corpus.papers.values()
    assert paper.refs == ()
    assert paper.authors == ("a001",)


def test_synthetic_structure():
    corpus = generate_synthetic_corpus(9, 80, 12, 0.4)
    assert len(corpus.papers) == 80
    assert corpus.dangling_refs == 0
    pool = {f"a{i:03d}" for i in range(1, 13)}
    for paper in corpus.papers.values():
        assert 1 <= len(paper.authors) <= 4
        assert set(paper.authors) <= pool
        assert len(set(paper.authors)) == len(paper.authors)
        # references only reach strictly earlier papers
        for ref in paper.refs:
            assert ref < paper.id
        assert len(set(paper.refs)) == len(paper.refs)


def test_synthetic_bias_raises_self_citation_share():
    low = high = 0.0
    for seed in range(10):
        low += self_citation_fraction(generate_synthetic_corpus(seed, 100, 10, 0.0))
        high += self_citation_fraction(generate_synthetic_corpus(seed, 100, 10, 1.0))
    assert high > low


def test_synthetic_matches_the_reference_generator_byte_for_byte():
    # Pools of 1 to 3 authors empty the disjoint pool, so the fallback to
    # shared targets and the early stop are both exercised.
    for seed in range(12):
        for n_papers in (1, 2, 5, 37, 300):
            for n_authors in (1, 2, 3, 7, 50):
                for bias in (0.0, 0.3, 0.7, 1.0):
                    case = (seed, n_papers, n_authors, bias)
                    got = serialize_corpus(generate_synthetic_corpus(*case))
                    assert got == synthetic_corpus_jsonl(*case), case


def test_synthetic_matches_the_reference_generator_for_large_pools():
    # ``sample`` picks by index and switches method above 21 names, so the
    # pool sizes straddle that and reach far past the papers drawn.
    for seed in range(4):
        for n_authors in (20, 21, 22, 23, 100, 1000, 5000):
            case = (seed, 60, n_authors, 0.4)
            got = serialize_corpus(generate_synthetic_corpus(*case))
            assert got == synthetic_corpus_jsonl(*case), case


def test_synthetic_cost_does_not_follow_the_author_pool():
    corpus = generate_synthetic_corpus(1, 50, 10**12, 0.3)
    names = {}
    for paper in corpus.papers.values():
        for name in paper.authors:
            assert names.setdefault(name, name) is name
    assert len(corpus.papers) == 50
    assert len(names) > 1


@pytest.mark.parametrize("case", [(3, 2500, 400, 0.3), (1, 200, 40, 0.2)])
def test_synthetic_matches_the_reference_generator_at_bench_shapes(case):
    assert serialize_corpus(generate_synthetic_corpus(*case)) == synthetic_corpus_jsonl(*case)


# sha256 of serialize_corpus output, recorded from the O(n)-per-paper
# generator; they hold even if generator and reference change together.
SYNTHETIC_DIGESTS = {
    (3, 2500, 400, 0.3): "3c52a5959b9f3dad8d98b0fdada3c2a1c0db2c4cde4ec912bafbf837c16ded82",
    (1, 200, 40, 0.2): "ae0809a43dfedfe0975d5c3aa15ccc3c88fe2ca45d9355eb77113fd59672447f",
    (20110915, 150, 12, 0.1): "9035db9eb65c89d975bd976ca387cf4f67c35efed14109db17492a4516dc799e",
    (20110915, 150, 12, 0.9): "34866085c90b102573d811217475df8f47d60196ab28b32dbadbea5d83d6f79d",
}


@pytest.mark.parametrize("case", sorted(SYNTHETIC_DIGESTS))
def test_synthetic_bytes_are_pinned(case):
    text = serialize_corpus(generate_synthetic_corpus(*case))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SYNTHETIC_DIGESTS[case]


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(seed=1, n_papers=0, n_authors=5, self_cite_bias=0.0),
        dict(seed=1, n_papers=5, n_authors=0, self_cite_bias=0.0),
        dict(seed=1, n_papers=5, n_authors=sys.maxsize + 1, self_cite_bias=0.0),
        dict(seed=1, n_papers=5, n_authors=5, self_cite_bias=-0.1),
        dict(seed=1, n_papers=5, n_authors=5, self_cite_bias=1.5),
    ],
)
def test_synthetic_rejects_bad_parameters(kwargs):
    with pytest.raises(DomainError):
        generate_synthetic_corpus(**kwargs)


def test_synthetic_pipeline_against_reference_recount():
    for seed in (3, 14, 159):
        corpus = generate_synthetic_corpus(seed, 70, 9, 0.6)
        expected = author_aggregates_from_jsonl(serialize_corpus(corpus))
        actual = {agg.entity_id: agg for agg in aggregate_all(corpus, "author")}
        assert set(actual) == set(expected)
        for author, want in expected.items():
            agg = actual[author]
            got = {"cd": agg.cd, "c": agg.c, "sc": agg.sc, "h": agg.h, "h_star": agg.h_star}
            assert got == want, author


def messy_corpus(seed: int) -> str:
    """JSONL with what a generated corpus never holds: refs to later papers,
    to the paper itself, to absent ids and to one id twice, venues absent or
    empty, and a name given twice in one team."""
    rng = random.Random(seed)
    n_papers = rng.randint(1, 30)
    names = [f"a{i}" for i in range(rng.randint(1, 8))]
    lines = []
    for index in range(n_papers):
        record: dict[str, object] = {
            "id": f"p{index}",
            "authors": [rng.choice(names) for _ in range(rng.randint(1, 3))],
        }
        roll = rng.random()
        if roll < 0.7:
            record["venue"] = rng.choice(("J1", "J2", "J3"))
        elif roll < 0.85:
            record["venue"] = ""
        refs = [f"p{rng.randrange(n_papers)}" for _ in range(rng.randint(0, 6))]
        if rng.random() < 0.2:
            refs.append(f"ghost{index}")
        if refs and rng.random() < 0.2:
            refs.append(rng.choice(refs))
        record["refs"] = refs
        lines.append(json.dumps(record))
    return "\n".join(lines) + "\n"


def unshared(corpus: Corpus) -> Corpus:
    """``corpus`` with every id, key, author, venue and ref a string of its
    own, as a hand-built corpus may hold them: ingest shares equal strings."""

    def own(text: str) -> str:
        fresh = text.encode().decode()
        assert fresh == text and (fresh is not text or len(text) < 2)
        return fresh

    papers = {}
    for paper in corpus.papers.values():
        papers[own(paper.id)] = paper._replace(
            id=own(paper.id),
            authors=tuple(map(own, paper.authors)),
            venue=None if paper.venue is None else own(paper.venue),
            refs=tuple(map(own, paper.refs)),
        )
    return Corpus(papers, corpus.self_loops)


def test_messy_corpora_hold_every_anomaly():
    records = [json.loads(line) for seed in range(60) for line in messy_corpus(seed).splitlines()]
    assert any(len(set(r["refs"])) < len(r["refs"]) for r in records)
    assert any(r["id"] in r["refs"] for r in records)
    assert any(ref.startswith("ghost") for r in records for ref in r["refs"])
    assert any("venue" not in r for r in records)
    assert any(r.get("venue") == "" for r in records)
    assert any(len(set(r["authors"])) < len(r["authors"]) for r in records)


@pytest.mark.parametrize("mode", MODES)
def test_aggregation_matches_the_oracles_on_messy_corpora(write_input, mode):
    oracle = {"author": author_aggregates_from_jsonl, "journal": journal_aggregates_from_jsonl}
    for seed in range(60):
        text = messy_corpus(seed)
        corpus = ingest_corpus(write_input(text))
        actual = {
            agg.entity_id: dict(cd=agg.cd, c=agg.c, sc=agg.sc, h=agg.h, h_star=agg.h_star)
            for agg in aggregate_all(corpus, mode)
        }
        assert actual == oracle[mode](text), seed
        if mode == "author":
            assert self_citation_fraction(corpus) == self_citation_fraction_from_jsonl(text), seed
        assert corpus.missing_venue_edges == missing_venue_edges_from_jsonl(text), seed
        rebuilt = unshared(corpus)
        assert rebuilt == corpus, seed
        assert entities(rebuilt, mode) == entities(corpus, mode), seed
        if mode == "author":
            assert self_citation_fraction(rebuilt) == self_citation_fraction(corpus), seed
        assert rebuilt.missing_venue_edges == corpus.missing_venue_edges, seed


def test_h_star_never_exceeds_h():
    rng = random.Random(8)
    for _ in range(20):
        corpus = generate_synthetic_corpus(rng.randint(0, 10**6), 50, 8, rng.random())
        for mode in ("author", "journal"):
            for agg in aggregate_all(corpus, mode):
                assert 0 <= agg.h_star <= agg.h
                assert 0 <= agg.sc <= agg.c


# ---------------------------------------------------------------------------
# aggregate CSV interchange
# ---------------------------------------------------------------------------

def test_write_aggregate_csv_refuses_nul_on_every_version():
    # Both readers refuse NUL, so only a hand-built corpus can hold one; the
    # csv writer of 3.10 raises its own error for it, and later ones write it.
    corpus = Corpus({"p1": Paper("p1", ("a\0b",))})
    with pytest.raises(DomainError, match="^a CSV table cannot hold NUL$"):
        write_aggregate_csv(aggregate_all(corpus, "author"))


def test_aggregate_csv_round_trip(write_input, handmade):
    text = write_aggregate_csv(aggregate_all(handmade, "author"))
    assert text.splitlines()[0] == ",".join(AGGREGATE_CSV_COLUMNS)
    rows = read_aggregate_csv(write_input(text))
    assert [entity for entity, _ in rows] == ["ann", "bob", "cara"]
    ann = dict(rows)["ann"]
    assert (ann.citable_documents, ann.citations_total, ann.self_citations, ann.h_index) == (
        2,
        4,
        2,
        1,
    )


# Ids the aggregate CSV must quote: a bare CR, a CRLF, a CR at the end, a
# comma, a quote and quotes around a CRLF; U+2028, which it need not
# quote, splits no line.
AWKWARD_IDS = (
    "a\rb", "c\r\nd", "e\rf\r", "Huang, Thomas", 'say "hi"', 'x"\r\n"y', "line\u2028sep"
)


def awkward_corpus() -> str:
    """JSONL whose authors and venues all have ids from ``AWKWARD_IDS``,
    with self and genuine citations in both modes."""
    records = []
    for index, name in enumerate(AWKWARD_IDS):
        partner = AWKWARD_IDS[(index + 1) % len(AWKWARD_IDS)]
        refs = [f"p{j}" for j in range(index)]
        records.append(
            {"id": f"p{index}", "authors": [name], "venue": name, "refs": refs}
        )
        records.append(
            {"id": f"q{index}", "authors": [name, partner], "venue": partner, "refs": refs[-2:]}
        )
    return jsonl(*records)


@pytest.mark.parametrize("mode", MODES)
def test_written_aggregates_read_back_with_every_id_unchanged(write_input, mode):
    aggregates = aggregate_all(ingest_corpus(write_input(awkward_corpus())), mode)
    rows = read_aggregate_csv(write_input(write_aggregate_csv(aggregates)))
    assert rows == [(agg.entity_id, agg.counts()) for agg in aggregates]
    assert sorted(entity for entity, _ in rows) == sorted(AWKWARD_IDS)


def _table_without_h_star(text: str, format: str) -> list[list[str]]:
    if format == "csv":
        rows = list(csv.reader(io.StringIO(text, newline=""), strict=True))
    else:
        # No awkward id holds a pipe, and U+2028 ends no Markdown row.
        rows = [line.split(" | ") for line in text.removesuffix("\n").split("\n")]
    assert {len(row) for row in rows} == {len(TABLE_COLUMNS)}
    column = TABLE_COLUMNS.index("h_star")
    return [row[:column] + row[column + 1:] for row in rows]


@pytest.mark.parametrize("mode", MODES)
def test_metrics_on_a_corpus_equals_metrics_on_its_written_aggregates(tmp_path, capsys, mode):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(awkward_corpus(), encoding="utf-8")
    table = tmp_path / "aggregate.csv"
    table.write_bytes(write_aggregate_csv(aggregate_all(ingest_corpus(corpus), mode)).encode())
    for format in ("csv", "md"):
        for sort in ("v", "h", "cd"):
            options = ["--format", format, "--sort", sort]
            assert main(["metrics", "--input", str(corpus), "--mode", mode, *options]) == 0
            from_corpus = capsys.readouterr().out
            assert main(["metrics", "--input", str(table), "--kind", "aggregate", *options]) == 0
            from_table = capsys.readouterr().out
            rows = _table_without_h_star(from_corpus, format)
            assert rows == _table_without_h_star(from_table, format), (format, sort)
            assert len(rows) == len(AWKWARD_IDS) + (1 if format == "csv" else 2)


def test_aggregate_csv_reads_quoted_names(tmp_path):
    path = tmp_path / "agg.csv"
    path.write_text('entity_id,cd,c,sc,h\n"Huang, Thomas",784,8956,650,44\n', encoding="utf-8")
    rows = read_aggregate_csv(path)
    assert rows[0][0] == "Huang, Thomas"
    assert rows[0][1].h_index == 44


@pytest.mark.parametrize(
    "header",
    ["entity,cd,c,sc,h", "entity_id,cd,c,sc", "entity_id,c,cd,sc,h", "", "cd,c,sc,h,entity_id"],
)
def test_aggregate_csv_rejects_wrong_header(write_input, header):
    with pytest.raises(CorpusParseError) as excinfo:
        read_aggregate_csv(write_input([header, "x,1,1,0,1"]))
    assert "line 1" in str(excinfo.value) or "empty" in str(excinfo.value)


def test_aggregate_csv_rejects_non_integer_counts(write_input):
    with pytest.raises(CorpusParseError) as excinfo:
        read_aggregate_csv(write_input(["entity_id,cd,c,sc,h", "x,1,lots,0,1"]))
    assert "x" in str(excinfo.value)
    assert "line 2" in str(excinfo.value)


def test_aggregate_csv_rejects_invariant_violations(write_input):
    path = write_input(["entity_id,cd,c,sc,h", "offender,5,10,20,3"])
    with pytest.raises(DomainError) as excinfo:
        read_aggregate_csv(path)
    message = str(excinfo.value)
    assert "offender" in message
    assert message.startswith(f"{path.name}, line 2: ")


def test_aggregate_csv_rejects_h_above_cd(write_input):
    with pytest.raises(DomainError) as excinfo:
        read_aggregate_csv(write_input(["entity_id,cd,c,sc,h", "offender,3,100,0,4"]))
    assert "offender" in str(excinfo.value)


def test_aggregate_csv_rejects_duplicates(write_input):
    path = write_input(["entity_id,cd,c,sc,h", "x,1,1,0,1", "x,2,2,0,1"])
    with pytest.raises(CorpusIntegrityError) as excinfo:
        read_aggregate_csv(path)
    assert str(excinfo.value) == f"{path.name}, line 3: duplicate entity 'x'"


def test_aggregate_csv_rejects_short_rows(write_input):
    with pytest.raises(CorpusParseError):
        read_aggregate_csv(write_input(["entity_id,cd,c,sc,h", "x,1,1"]))


@pytest.mark.parametrize("count", ["1_0", "\u0665", " 5", "+5", "5.0"])
def test_aggregate_csv_counts_are_ascii_digits_only(write_input, count):
    path = write_input(["entity_id,cd,c,sc,h", f"x,{count},20,5,3"])
    error = "line 2: entity 'x': counts must be integers"
    with pytest.raises(CorpusParseError) as excinfo:
        read_aggregate_csv(path)
    assert str(excinfo.value) == f"{path.name}, {error}"
    assert audit_aggregate(path).errors == [error]


def test_aggregate_csv_negative_count_is_a_domain_error(write_input):
    with pytest.raises(DomainError) as excinfo:
        read_aggregate_csv(write_input(["entity_id,cd,c,sc,h", "x,-1,20,5,3"]))
    assert "line 2" in str(excinfo.value)


def test_aggregate_csv_keeps_a_quoted_newline(tmp_path):
    text = 'entity_id,cd,c,sc,h\n"Multi\nLine",3,10,2,2\nSingle,4,20,5,3\n'
    path = tmp_path / "agg.csv"
    path.write_text(text, encoding="utf-8")
    rows = read_aggregate_csv(path)
    assert [entity for entity, _ in rows] == ["Multi\nLine", "Single"]
    assert audit_aggregate(path) == AuditReport([], [])


def test_aggregate_csv_reads_bare_carriage_returns(tmp_path):
    path = tmp_path / "agg.csv"
    path.write_bytes(b'entity_id,cd,c,sc,h\r"Multi\rLine",3,10,2,2\rSingle,4,20,5,3\r')
    rows = read_aggregate_csv(path)
    assert [entity for entity, _ in rows] == ["Multi\rLine", "Single"]
    assert audit_aggregate(path).ok
    path.write_bytes(b"entity_id,cd,c,sc,h\rx,1,1,0,1\r\ny,1,1,0,1\nbad,1,x,0,1\r")
    error = "line 4: entity 'bad': counts must be integers"
    with pytest.raises(CorpusParseError) as excinfo:
        read_aggregate_csv(path)
    assert str(excinfo.value) == f"agg.csv, {error}"
    assert audit_aggregate(path).errors == [error]


def test_aggregate_csv_rejects_invalid_utf8_with_its_line(tmp_path):
    data = (
        b'entity_id,cd,c,sc,h\nx,1,1,0,1\n"Multi\r\xffLine",2,2,0,1\n'
        b"bad\xfe,1,1,0,1\nok,1,1,0,1\n"
    )
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    with pytest.raises(CorpusParseError) as excinfo:
        read_aggregate_csv(path)
    assert str(excinfo.value) == "bad.csv, line 4: invalid UTF-8 at byte 1 (invalid start byte)"
    # the audit rejects each row holding an undecodable line and reads on
    assert audit_aggregate(path).errors == [
        "line 4: invalid UTF-8 at byte 1 (invalid start byte)",
        "line 5: invalid UTF-8 at byte 4 (invalid start byte)",
    ]
    header = tmp_path / "header.csv"
    header.write_bytes(b"entity_id,cd,c,sc,h\xff\nx,1,1,0,1\n")
    with pytest.raises(CorpusParseError, match="^header.csv, line 1: invalid UTF-8"):
        read_aggregate_csv(header)
    assert audit_aggregate(header).errors == [
        "line 1: invalid UTF-8 at byte 20 (invalid start byte)"
    ]


def test_readers_and_cli_reject_a_csv_line_holding_nul(tmp_path, capsys):
    # Each line holding NUL is refused, inside a quoted field or not, and
    # the audit reads on: the same on every Python version, though csv
    # reads NUL only from 3.11 on.
    path = tmp_path / "stats.csv"
    path.write_bytes(
        b'entity_id,cd,c,sc,h\r\n"\0\r\n\r\ra",5,2,1,4\r\nC\0D,3,10,2,2\r\nok,3,10,2,2\r\n'
    )
    errors = ["line 2: line contains NUL", "line 6: line contains NUL"]
    assert audit_aggregate(path).errors == errors
    with pytest.raises(CorpusParseError) as excinfo:
        read_aggregate_csv(path)
    assert str(excinfo.value) == f"stats.csv, {errors[0]}"
    assert main(["validate", "--input", str(path), "--kind", "aggregate"]) == 2
    assert capsys.readouterr().out == "".join(f"error: {e}\n" for e in errors) + (
        "2 error(s), 0 warning(s)\n"
    )
    assert main(["metrics", "--input", str(path), "--kind", "aggregate"]) == 2
    assert capsys.readouterr().err == f"error: stats.csv, {errors[0]}\n"
    path.write_bytes(b"entity_id,cd,c,sc,h\0\nx,1,1,0,1\n")
    assert audit_aggregate(path).errors == ["line 1: line contains NUL"]


CSV_HEADER = "entity_id,cd,c,sc,h"


@pytest.mark.parametrize(
    "lines, error",
    [
        pytest.param([], CorpusParseError, id="empty"),
        pytest.param(["entity,cd,c,sc,h", "x,1,1,0,1"], CorpusParseError, id="header"),
        pytest.param([CSV_HEADER, "x,1,1"], CorpusParseError, id="short-row"),
        pytest.param([CSV_HEADER, ",1,1,0,1"], CorpusParseError, id="empty-entity"),
        *(
            pytest.param([CSV_HEADER, f"x,{count},20,5,3"], CorpusParseError, id=f"count-{i}")
            for i, count in enumerate(["1_0", "\u0665", " 5", "+5", "5.0"])
        ),
        pytest.param([CSV_HEADER, "x,5,10,20,3"], DomainError, id="sc-above-c"),
        pytest.param([CSV_HEADER, "x,3,100,0,4"], DomainError, id="h-above-cd"),
        pytest.param([CSV_HEADER, "x,-1,20,5,3"], DomainError, id="negative"),
        pytest.param([CSV_HEADER, f"x,1,{'9' * 5000},0,1"], CorpusParseError, id="digits-5000"),
        pytest.param([CSV_HEADER, f"x,{10**26},5,1,{10**26}"], CorpusParseError, id="h-cd-1e26"),
        pytest.param([CSV_HEADER, f"x,1,{10**400},0,1"], CorpusParseError, id="c-1e400"),
        pytest.param([CSV_HEADER, f"x,1,{2**53 + 1},0,1"], CorpusParseError, id="c-2**53+1"),
        pytest.param([CSV_HEADER, f"x,1,-{'9' * 5000},0,1"], CorpusParseError, id="negative-5000"),
        pytest.param(
            [CSV_HEADER, "x,1,1,0,1", "x,2,2,0,1"], CorpusIntegrityError, id="duplicate"
        ),
        pytest.param(b"entity_id,cd,c,sc,h\nx\xfe,1,1,0,1\n", CorpusParseError, id="bad-byte"),
        pytest.param([CSV_HEADER, f"{'x' * 131073},1,1,0,1"], CorpusParseError, id="field-limit"),
        pytest.param([f"{'x' * 131073},cd,c,sc,h"], CorpusParseError, id="header-field-limit"),
    ],
)
def test_aggregate_csv_strict_and_audit_agree(write_input, lines, error):
    path = write_input(lines)
    with pytest.raises(error) as excinfo:
        read_aggregate_csv(path)
    assert type(excinfo.value) is error
    (first,) = audit_aggregate(path).errors
    assert str(excinfo.value) == f"{path.name}, {first}"


def test_aggregate_csv_audit_reads_on_after_an_oversized_field(write_input):
    path = write_input([CSV_HEADER, f"{'x' * 131073},1,1,0,1", "ok,1,1,0,1", "sc,5,10,20,3"])
    assert audit_aggregate(path).errors == [
        "line 2: field larger than field limit (131072)",
        "line 4: entity 'sc': self_citations (20) exceed citations_total (10)",
    ]
    # the limit is process-wide state, left as it was
    assert csv.field_size_limit() == 131072


@pytest.mark.parametrize(
    "lines, errors",
    [
        pytest.param(
            [CSV_HEADER, '"' + "q" * 131073, 'z",x,1,0,1', "ok,1,1,0,1"],
            ["line 2: field larger than field limit (131072)"],
            id="open-quote",
        ),
        pytest.param(
            [CSV_HEADER, '"' + "q" * 131073, 'z",1,1,0,1'],
            ["line 2: field larger than field limit (131072)"],
            id="open-quote-valid-tail",
        ),
        pytest.param(
            [CSV_HEADER, '"aaa', "b" * 131073, 'ccc",1,1,0'],
            ["line 3: field larger than field limit (131072)"],
            id="quote-opened-a-line-earlier",
        ),
        pytest.param(
            [CSV_HEADER, '"' + "q" * 131073 + '",1,1,0,1', "ok,1,1,0,1", "sc,5,10,20,3"],
            [
                "line 2: field larger than field limit (131072)",
                "line 4: entity 'sc': self_citations (20) exceed citations_total (10)",
            ],
            id="quote-closed-on-its-line",
        ),
        pytest.param(
            [CSV_HEADER, 'x"' + "q" * 131073 + ",1,1,0,1", "bad,1"],
            [
                "line 2: field larger than field limit (131072)",
                "line 3: expected 5 fields, got 2",
            ],
            id="literal-quote-in-unquoted-field",
        ),
        pytest.param(
            [CSV_HEADER, '"a"' + "q" * 131073 + '",1,1,0,1', "bad,1"],
            [
                "line 2: ',' expected after '\"'",
                "line 3: expected 5 fields, got 2",
            ],
            id="literal-quote-after-a-closed-one",
        ),
    ],
)
def test_aggregate_csv_audit_stops_after_an_oversized_field_only_inside_open_quotes(
    write_input, lines, errors
):
    # Past an open quote the rest of the field would be read as rows.
    path = write_input(lines)
    assert audit_aggregate(path).errors == errors
    with pytest.raises(CorpusParseError) as excinfo:
        read_aggregate_csv(path)
    assert str(excinfo.value) == f"{path.name}, {errors[0]}"


def test_aggregate_csv_reports_the_bad_line_of_a_row_left_open_by_a_csv_error(tmp_path):
    # Line 2 holds an undecodable byte and opens a quoted field, and line 3
    # overflows the field limit inside it. The row is refused for its bad
    # line, not for the csv error, and as its lines end inside the open
    # quote the pass ends: ``z",x,1,0,1`` and ``bad,1`` are not read as rows.
    path = tmp_path / "open.csv"
    path.write_bytes(
        f"{CSV_HEADER}\n".encode() + b'"\xff\n' + b"q" * 131073 + b'\nz",x,1,0,1\nbad,1\n'
    )
    error = "line 2: invalid UTF-8 at byte 2 (invalid start byte)"
    assert audit_aggregate(path).errors == [error]
    with pytest.raises(CorpusParseError) as excinfo:
        read_aggregate_csv(path)
    assert str(excinfo.value) == f"open.csv, {error}"


@pytest.mark.parametrize(
    "text, error",
    [
        pytest.param(
            f'{CSV_HEADER}\n"B"x,3,10,2,2\nok,1,1,0,1\n',
            "line 2: ',' expected after '\"'",
            id="text-after-closing-quote",
        ),
        pytest.param(
            '"entity_id"x,cd,c,sc,h\nok,1,1,0,1\n',
            "line 1: ',' expected after '\"'",
            id="header-text-after-closing-quote",
        ),
        pytest.param(
            f'{CSV_HEADER}\nok,1,1,0,1\n"B,3,10,2,2\n',
            "line 3: unexpected end of data",
            id="quote-open-at-end-of-file",
        ),
    ],
)
def test_aggregate_csv_follows_rfc_4180_after_a_quote(tmp_path, capsys, text, error):
    # Nothing may follow a closing quote but a comma or a line end, and a
    # quoted field must close before the file ends.
    path = tmp_path / "stats.csv"
    path.write_text(text, encoding="utf-8")
    assert audit_aggregate(path).errors == [error]
    with pytest.raises(CorpusParseError) as excinfo:
        read_aggregate_csv(path)
    assert str(excinfo.value) == f"stats.csv, {error}"
    assert main(["validate", "--input", str(path), "--kind", "aggregate"]) == 2
    assert capsys.readouterr().out.startswith(f"error: {error}\n")
    assert main(["metrics", "--input", str(path), "--kind", "aggregate"]) == 2
    assert capsys.readouterr().err == f"error: stats.csv, {error}\n"


_PAPER = '{"id": "a", "authors": ["x"]}\n'


@pytest.mark.parametrize(
    "name, data, kind, line",
    [
        ("bad.jsonl", _PAPER.encode() + b'{"id": "\xff"}\n', CorpusParseError, 2),
        ("dup.jsonl", (_PAPER * 2).encode(), CorpusIntegrityError, 2),
        ("lone.jsonl", (_PAPER + '{"id": "\\udc00", "authors": ["y"]}\n').encode(),
         CorpusParseError, 2),
        ("json.jsonl", (_PAPER + "\n{oops\n").encode(), CorpusParseError, 3),
        ("empty.csv", b"", CorpusParseError, 1),
        ("head.csv", "\ufeffentity,cd,c,sc,h\n".encode(), CorpusParseError, 1),
        ("wide.csv", b"e" * 131073 + b",cd\n", CorpusParseError, 1),
        ("utf8.csv", f"{CSV_HEADER}\na,1,1,0,1\n".encode() + b"b\xff,1,1,0,1\n",
         CorpusParseError, 3),
        ("cd0.csv", f"{CSV_HEADER}\na,0,1,0,0\n".encode(), DomainError, 2),
        ("dup.csv", f"{CSV_HEADER}\na,1,1,0,1\n\na,1,1,0,1\n".encode(), CorpusIntegrityError, 4),
    ],
)
def test_strict_error_is_the_first_audit_error_placed_in_its_file(tmp_path, name, data, kind, line):
    path = tmp_path / name
    path.write_bytes(data)
    jsonl = name.endswith(".jsonl")
    read = ingest_corpus if jsonl else read_aggregate_csv
    audit = audit_corpus if jsonl else audit_aggregate
    first = audit(path).errors[0]
    assert first.startswith(f"line {line}: ")
    with pytest.raises(kind) as excinfo:
        read(path)
    assert str(excinfo.value) == f"{name}, {first}"


def test_open_quote_scan_agrees_with_the_csv_module():
    rng = random.Random(2029)
    pieces = ['"', '"', '""', ",", "a", "\n", "\r\n"]
    for _ in range(20_000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 12)))
        # A sentinel row survives as its own row unless a quoted field is
        # still open at the end of ``text`` and swallows it.
        rows = list(csv.reader(io.StringIO(text + "\nZ,Z\n", newline="")))
        assert _quote_left_open(text) == (rows[-1] != ["Z", "Z"]), repr(text)


def test_aggregate_csv_reads_counts_up_to_2_to_the_53(write_input):
    top = 2**53
    rows = read_aggregate_csv(
        write_input(
            [CSV_HEADER, f"top,{top},{top},{top},{top}", f"zeros,{'0' * 5000}1,{top:020d},0,1"]
        )
    )
    assert rows == [
        ("top", CitationCounts(top, top, top, top)),
        ("zeros", CitationCounts(top, 0, 1, 1)),
    ]


def test_every_source_kind_reads_and_audits_alike(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        jsonl(
            {"id": "p1", "authors": ["a"], "refs": ["p1", "ghost"]},
            {"id": "p2", "authors": ["b"], "venue": "J", "refs": ["p1"]},
            {"id": "p2", "authors": ["c"]},
        )
        + "{oops\n",
        encoding="utf-8",
    )
    duplicate = "line 3: duplicate paper id 'p2'"
    with pytest.raises(CorpusIntegrityError) as excinfo:
        ingest_corpus(corpus)
    assert str(excinfo.value) == f"corpus.jsonl, {duplicate}"
    audit = AuditReport(
        errors=[duplicate, "line 4: invalid JSON (Expecting property name enclosed in double quotes)"],
        warnings=[
            "line 1: paper 'p1' cites itself (1 entry(ies) stripped)",
            "1 reference(s) point outside the corpus and will be ignored",
            "1 paper(s) have no venue; their citations count as genuine",
        ],
    )
    assert audit_corpus(corpus, "journal") == audit

    table = tmp_path / "agg.csv"
    table.write_bytes(
        b'entity_id,cd,c,sc,h\r\n"Multi\r\nLine",3,10,2,2\r\nx,1,1,0,1\r\n'
        b"x,2,2,0,1\ry,1,2,3,1\r\n"
    )
    duplicate = "line 5: duplicate entity 'x'"
    with pytest.raises(CorpusIntegrityError) as excinfo:
        read_aggregate_csv(table)
    assert str(excinfo.value) == f"agg.csv, {duplicate}"
    assert audit_aggregate(table) == AuditReport(
        errors=[duplicate, "line 6: entity 'y': self_citations (3) exceed citations_total (2)"],
        warnings=[],
    )


def test_aggregate_csv_reports_physical_line_numbers(tmp_path):
    path = tmp_path / "agg.csv"
    path.write_text(
        'entity_id,cd,c,sc,h\n"Multi\nLine",3,10,2,2\nbad,1,x,0,1\n', encoding="utf-8"
    )
    with pytest.raises(CorpusParseError) as excinfo:
        read_aggregate_csv(path)
    assert "line 4" in str(excinfo.value)
    assert audit_aggregate(path).errors[0].startswith("line 4:")


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------

def test_audit_clean_corpus(write_input):
    report = audit_corpus(write_input(HANDMADE))
    assert report.ok
    assert report.errors == []
    assert report.warnings == []


def test_audit_collects_multiple_errors(write_input):
    path = write_input(
        [
            '{"id": "p1", "authors": ["a"]}',
            "{broken",
            '{"id": "p1", "authors": ["b"]}',
            '{"id": "p3"}',
        ]
    )
    report = audit_corpus(path)
    assert not report.ok
    assert len(report.errors) == 3
    assert any("line 2" in message for message in report.errors)
    assert any("duplicate" in message and "p1" in message for message in report.errors)


def test_audit_warns_without_failing(write_input):
    report = audit_corpus(write_input(['{"id": "p1", "authors": ["a"], "refs": ["p1", "ghost"]}']))
    assert report.ok
    assert any("cites itself" in message for message in report.warnings)
    assert any("outside the corpus" in message for message in report.warnings)


def test_audit_journal_mode_flags_missing_venue(write_input):
    path = write_input(['{"id": "p1", "authors": ["a"]}'])
    report = audit_corpus(path, mode="journal")
    assert report.ok
    assert any("venue" in message for message in report.warnings)
    # author mode does not care
    assert audit_corpus(path, mode="author").warnings == []


def test_audit_aggregate_clean(write_input):
    report = audit_aggregate(write_input(["entity_id,cd,c,sc,h", "x,5,10,2,3"]))
    assert report.ok and report.warnings == []


def test_audit_aggregate_collects_problems(write_input):
    report = audit_aggregate(
        write_input(
            [
                "entity_id,cd,c,sc,h",
                "x,5,10,20,3",
                "y,1,1,0,1",
                "y,2,1,0,1",
                "z,1,one,0,1",
            ]
        )
    )
    assert not report.ok
    assert len(report.errors) == 3
    assert any("x" in message for message in report.errors)
    assert any("duplicate" in message for message in report.errors)


def test_audit_aggregate_bad_header(write_input):
    report = audit_aggregate(write_input(["wrong,header", "x,1,1,0,1"]))
    assert not report.ok
    assert "header" in report.errors[0]
