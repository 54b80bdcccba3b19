"""Unit tests for corpus ingestion, classification, and aggregation."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random

import pytest

from vindex.errors import (
    CorpusIntegrityError,
    CorpusParseError,
    DomainError,
    UnknownEntityError,
    VindexError,
)
from vindex.graph import (
    AGGREGATE_CSV_COLUMNS,
    MODES,
    AuditReport,
    Corpus,
    Paper,
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
def handmade() -> Corpus:
    return ingest_corpus(HANDMADE.splitlines())


def entities(corpus: Corpus, mode: str) -> dict:
    """Every aggregate of ``corpus`` in ``mode``, keyed by entity id."""
    return {agg.entity_id: agg for agg in aggregate_all(corpus, mode)}


def read_every_source_kind(read, path, lines) -> list:
    """``read`` applied to the input in ``path`` given as each kind of source
    the readers take: a path, bytes, a binary handle, a UTF-8 text handle,
    an ``io.StringIO``, and ``lines``, the same text as a list of strings.
    A refused input gives its error's type, line and message in place of a
    result, with the name that only paths and handles put before the
    message dropped."""
    text = path.read_bytes().decode("utf-8")
    results = []
    with open(path, "rb") as binary, open(path, encoding="utf-8") as utf8:
        for source in (path, text.encode("utf-8"), binary, utf8, io.StringIO(text), lines):
            try:
                results.append(read(source))
            except VindexError as exc:
                results.append((type(exc), exc.line, str(exc).removeprefix(f"{path.name}, ")))
    return results


# ---------------------------------------------------------------------------
# ingestion and serialization
# ---------------------------------------------------------------------------

def test_ingest_two_line_stream():
    corpus = ingest_corpus(
        ['{"id": "p1", "authors": ["a"], "refs": []}', '{"id": "p2", "authors": ["b"], "refs": ["p1"]}']
    )
    assert len(corpus) == 2
    assert corpus.dangling_refs == 0
    assert "p1" in corpus and "p2" in corpus
    assert corpus.paper("p2").refs == ("p1",)


def test_ingest_accepts_path(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(HANDMADE, encoding="utf-8")
    assert len(ingest_corpus(path)) == 4


def test_ingest_accepts_bytes_and_file_objects():
    assert len(ingest_corpus(HANDMADE.encode("utf-8"))) == 4
    assert len(ingest_corpus(io.StringIO(HANDMADE))) == 4


def test_ingest_keeps_a_raw_u2028_inside_a_string(tmp_path):
    records = [
        {"id": "q1", "authors": ["Line\u2028Separator"], "refs": []},
        {"id": "q2", "authors": ["Next\u0085Line"], "refs": ["q1"]},
    ]
    text = "".join(json.dumps(record, ensure_ascii=False) + "\n" for record in records)
    path = tmp_path / "corpus.jsonl"
    path.write_text(text, encoding="utf-8")
    corpora = read_every_source_kind(ingest_corpus, path, text.split("\n"))
    assert corpora == [corpora[0]] * 6
    assert corpora[0].paper("q1").authors == ("Line\u2028Separator",)
    assert corpora[0].paper("q2").authors == ("Next\u0085Line",)
    assert audit_corpus(path).errors == []
    assert read_every_source_kind(audit_corpus, path, text.split("\n")) == [AuditReport()] * 6


def test_ingest_accepts_crlf_line_endings(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(HANDMADE.replace("\n", "\r\n").encode("utf-8"))
    assert serialize_corpus(ingest_corpus(path)) == HANDMADE


def test_ingest_skips_blank_lines():
    text = '{"id": "p1", "authors": ["a"]}\n\n   \n{"id": "p2", "authors": ["b"]}\n'
    assert len(ingest_corpus(text.splitlines())) == 2


def test_ingest_counts_dangling_refs():
    corpus = ingest_corpus(
        ['{"id": "p1", "authors": ["a"], "refs": ["ghost", "p2"]}', '{"id": "p2", "authors": ["b"]}']
    )
    assert corpus.dangling_refs == 1
    # the dangling ref stays on the paper for round-tripping
    assert corpus.paper("p1").refs == ("ghost", "p2")


def test_ingest_strips_self_loops_and_warns():
    # the CLI warns with the count the corpus carries
    corpus = ingest_corpus(
        [
            '{"id": "p1", "authors": ["a"], "refs": ["p1"]}',
            '{"id": "p2", "authors": ["b"], "refs": ["p1", "p2", "p2"]}',
            '{"id": "p3", "authors": ["c"], "refs": ["p1"]}',
        ]
    )
    assert corpus.paper("p1").refs == ()
    assert corpus.paper("p2").refs == ("p1",)
    assert corpus.self_loops == 2
    assert ingest_corpus(['{"id": "p1", "authors": ["a"]}']).self_loops == 0


def test_ingest_strips_one_self_reference_among_duplicates():
    report = audit_corpus(['{"id": "p1", "authors": ["a"], "refs": ["p1", "p1"]}'])
    assert report.warnings == ["line 1: paper 'p1' cites itself (1 entry(ies) stripped)"]
    corpus = ingest_corpus(['{"id": "p1", "authors": ["a"], "refs": ["p1", "p1", "x", "p1"]}'])
    assert corpus.paper("p1").refs == ("x",)


def test_ingest_collapses_duplicate_refs():
    corpus = ingest_corpus(
        ['{"id": "p1", "authors": ["a"]}', '{"id": "p2", "authors": ["b"], "refs": ["p1", "p1"]}']
    )
    assert corpus.paper("p2").refs == ("p1",)


def test_ingest_normalizes_empty_venue():
    corpus = ingest_corpus(['{"id": "p1", "authors": ["a"], "venue": ""}'])
    assert corpus.paper("p1").venue is None


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
        # json.loads raises ValueError and RecursionError for these two
        pytest.param('{"id": "p1", "authors": ["a"], "year": ' + "9" * 5000 + "}", id="huge-int"),
        pytest.param("[" * 100_000 + "]" * 100_000, id="deep-nesting"),
    ],
)
def test_ingest_rejects_malformed_line(line):
    good = '{"id": "p0", "authors": ["z"]}'
    with pytest.raises(CorpusParseError) as excinfo:
        ingest_corpus([good, line])
    assert "line 2" in str(excinfo.value)
    assert audit_corpus([good, line]).errors == [str(excinfo.value)]


def test_ingest_rejects_invalid_utf8_with_its_line(tmp_path):
    data = (
        b'{"id": "p1", "authors": ["a"]}\n'
        b'{"id": "p2", "authors": ["b\xff"]}\n'
        b'{"id": "p3", "authors": ["c"], "refs": ["p1"]}\n'
        b'{"id": "p4", "authors": ["\xc3"]}\n'
    )
    path = tmp_path / "bad.jsonl"
    path.write_bytes(data)
    for source in (path, data, io.BytesIO(data)):
        with pytest.raises(CorpusParseError) as excinfo:
            ingest_corpus(source)
        assert excinfo.value.line == 2
        assert "invalid UTF-8 at byte 28 (invalid start byte)" in str(excinfo.value)
    assert str(excinfo.value).startswith("line 2: ")
    with pytest.raises(CorpusParseError, match="^bad.jsonl, line 2: invalid UTF-8"):
        ingest_corpus(path)
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


def test_ingest_and_audit_drop_a_leading_byte_order_mark(tmp_path):
    path = tmp_path / "bom.jsonl"
    path.write_bytes(b"\xef\xbb\xbf" + BOM_CORPUS)
    plain = ingest_corpus(BOM_CORPUS)
    for source in (path, path.read_bytes()):
        assert ingest_corpus(source) == plain
        report = audit_corpus(source)
        assert report.errors == []
        assert report.warnings == audit_corpus(BOM_CORPUS).warnings
    table = tmp_path / "bom.csv"
    table.write_bytes(b"\xef\xbb\xbf" + BOM_TABLE)
    for source in (table, table.read_bytes()):
        assert read_aggregate_csv(source) == read_aggregate_csv(BOM_TABLE)
        assert audit_aggregate(source).errors == []


def test_only_one_leading_byte_order_mark_is_dropped():
    twice = b"\xef\xbb\xbf" * 2
    with pytest.raises(CorpusParseError, match="^line 1: invalid JSON"):
        ingest_corpus(twice + BOM_CORPUS)
    header_error = (
        "line 1: header must be exactly 'entity_id,cd,c,sc,h', "
        "got '\\ufeffentity_id,cd,c,sc,h'"
    )
    with pytest.raises(CorpusParseError) as excinfo:
        read_aggregate_csv(twice + BOM_TABLE)
    assert str(excinfo.value) == header_error
    assert audit_aggregate(twice + BOM_TABLE).errors == [header_error]


def test_byte_order_mark_after_line_1_is_still_rejected():
    data = b"\xef\xbb\xbf" + BOM_CORPUS + b'\xef\xbb\xbf{"id": "p3", "authors": ["c"]}\n'
    with pytest.raises(CorpusParseError, match="^line 3: invalid JSON"):
        ingest_corpus(data)
    line_2 = BOM_CORPUS.replace(b"\n{", b"\n\xef\xbb\xbf{")
    with pytest.raises(CorpusParseError, match="^line 2: invalid JSON"):
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
def test_ingest_and_audit_reject_a_lone_surrogate(record, what):
    lines = ['{"id": "p1", "authors": ["a"]}', record]
    with pytest.raises(CorpusParseError) as excinfo:
        ingest_corpus(lines)
    assert str(excinfo.value) == f"line 2: '{what}' holds a lone surrogate"
    assert audit_corpus(lines).errors == [str(excinfo.value)]


def test_ingest_keeps_escaped_pairs_and_other_escapes():
    # an escaped pair, a non-surrogate escape and an escaped backslash
    line = (
        '{"id": "p\\ud83d\\ude00", "authors": ["M\\u00fcller", "\\\\ud800"], '
        '"venue": "J\\uD83D\\uDE00"}'
    )
    corpus = ingest_corpus([line])
    paper = corpus.paper("p\U0001f600")
    assert paper.authors == ("M\u00fcller", "\\ud800")
    assert paper.venue == "J\U0001f600"
    assert audit_corpus([line]).ok


@pytest.mark.parametrize(
    "as_source",
    [
        pytest.param(list, id="lines"),
        pytest.param(lambda lines: io.StringIO("".join(lines)), id="stringio"),
    ],
)
def test_readers_refuse_a_raw_lone_surrogate_in_text(as_source):
    # a real U+D800 in the string, not a JSON escape of one
    corpus = [
        '{"id": "p1", "authors": ["a"]}\n',
        '{"id": "p2", "authors": ["b\ud800"]}\n',
        '{"id": "p3", "authors": ["c"], "refs": ["p3", "p1"]}\n',
    ]
    with pytest.raises(CorpusParseError) as excinfo:
        ingest_corpus(as_source(corpus))
    assert excinfo.value.line == 2
    assert str(excinfo.value) == "line 2: invalid UTF-8 at byte 28 (invalid continuation byte)"
    # the audit reports the same string and still reads line 3
    assert audit_corpus(as_source(corpus)) == AuditReport(
        errors=[str(excinfo.value)],
        warnings=["line 3: paper 'p3' cites itself (1 entry(ies) stripped)"],
    )
    table = [f"{CSV_HEADER}\n", "x\udc80,1,1,0,1\n", "ok,1,1,0,1\n", "sc,5,10,20,3\n"]
    with pytest.raises(CorpusParseError) as excinfo:
        read_aggregate_csv(as_source(table))
    assert excinfo.value.line == 2
    assert str(excinfo.value) == "line 2: invalid UTF-8 at byte 2 (invalid continuation byte)"
    assert audit_aggregate(as_source(table)).errors == [
        str(excinfo.value),
        "line 4: entity 'sc': self_citations (20) exceed citations_total (10)",
    ]
    assert read_aggregate_csv(as_source([table[0], table[2]])) == [
        ("ok", CitationCounts(1, 0, 1, 1))
    ]


def test_ingest_rejects_duplicate_ids():
    with pytest.raises(CorpusIntegrityError) as excinfo:
        ingest_corpus(['{"id": "p1", "authors": ["a"]}', '{"id": "p1", "authors": ["b"]}'])
    assert "p1" in str(excinfo.value)
    assert "line 2" in str(excinfo.value)
    assert excinfo.value.line == 2


def test_parse_error_names_the_file(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text("{oops\n", encoding="utf-8")
    with pytest.raises(CorpusParseError) as excinfo:
        ingest_corpus(path)
    assert "broken.jsonl" in str(excinfo.value)


def test_serialize_ingest_round_trip(handmade):
    text = serialize_corpus(handmade)
    again = ingest_corpus(io.StringIO(text))
    assert again == handmade
    assert serialize_corpus(again) == text


def test_round_trip_preserves_dangling_refs():
    corpus = ingest_corpus(['{"id": "p1", "authors": ["a"], "refs": ["ghost"]}'])
    again = ingest_corpus(serialize_corpus(corpus).splitlines())
    assert again.dangling_refs == 1
    assert again == corpus


def test_serialize_empty_corpus():
    assert serialize_corpus(Corpus(papers={})) == ""


def test_serialize_omits_missing_optional_fields():
    corpus = ingest_corpus(['{"id": "p1", "authors": ["a"]}'])
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


def edge_label(citing: str, cited: str, mode: str) -> str:
    """Label the HANDMADE edge citing -> cited through the aggregation of a
    corpus holding only those two papers and that one edge."""
    records = {record["id"]: record for record in map(json.loads, HANDMADE.splitlines())}
    pair = jsonl(records[cited] | {"refs": []}, records[citing] | {"refs": [cited]})
    labels = {(1, 0): "genuine", (1, 1): "self"}
    (tally,) = received(ingest_corpus(pair.splitlines()), cited, mode)
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
def test_classify_author_mode(citing, cited, label):
    assert edge_label(citing, cited, "author") == label


@pytest.mark.parametrize(
    "citing, cited, label",
    [
        ("p3", "p1", "self"),      # both in J1
        ("p2", "p1", "genuine"),   # J2 cites J1
        ("p4", "p3", "genuine"),   # J2 cites J1
    ],
)
def test_classify_journal_mode(citing, cited, label):
    assert edge_label(citing, cited, "journal") == label


def test_classify_missing_venue_is_genuine():
    corpus = ingest_corpus(
        ['{"id": "p1", "authors": ["a"], "venue": "J1"}', '{"id": "p2", "authors": ["b"], "refs": ["p1"]}']
    )
    assert received(corpus, "p1", "journal") == {(1, 0)}


def test_classify_unknown_paper(handmade):
    with pytest.raises(UnknownEntityError):
        handmade.paper("p9")


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


def test_papers_without_venue_are_not_journal_entities():
    corpus = ingest_corpus(
        ['{"id": "p1", "authors": ["a"]}', '{"id": "p2", "authors": ["b"], "venue": "J1"}']
    )
    names = [agg.entity_id for agg in aggregate_all(corpus, "journal")]
    assert names == ["J1"]


def test_journal_mode_warns_about_missing_venues():
    # the CLI warns with this count in journal mode; each edge counts genuine
    corpus = ingest_corpus(
        [
            '{"id": "p1", "authors": ["a"], "venue": "J1"}',
            '{"id": "p2", "authors": ["b"], "refs": ["p1", "ghost"]}',
            '{"id": "p3", "authors": ["c"], "venue": "J1", "refs": ["p1", "p2"]}',
            '{"id": "p4", "authors": ["d"], "venue": "", "refs": ["p2", "p3"]}',
        ]
    )
    # p2->p1, p3->p2, p4->p2 and p4->p3 lack a venue; p3->p1 and the
    # dangling ref do not count
    assert corpus.missing_venue_edges == 4
    assert {agg.entity_id: agg.sc for agg in aggregate_all(corpus, "journal")} == {"J1": 1}
    assert ingest_corpus(HANDMADE.splitlines()).missing_venue_edges == 0


def test_author_credit_is_not_double_counted():
    # one author listed once per paper even if the paper repeats the name
    corpus = ingest_corpus(['{"id": "p1", "authors": ["a", "a"]}'])
    agg = entities(corpus, "author")["a"]
    assert agg.cd == 1


def test_dangling_refs_do_not_enter_tallies():
    corpus = ingest_corpus(
        ['{"id": "p1", "authors": ["a"]}', '{"id": "p2", "authors": ["a"], "refs": ["p1", "ghost"]}']
    )
    agg = entities(corpus, "author")["a"]
    assert (agg.c, agg.sc) == (1, 1)


def test_self_citation_fraction(handmade):
    # 5 edges, 3 self in author mode; 4 received by J1+J2 with 1 self
    assert self_citation_fraction(handmade, "author") == pytest.approx(3 / 5)
    assert self_citation_fraction(handmade, "journal") == pytest.approx(1 / 5)


def test_self_citation_fraction_no_edges():
    corpus = ingest_corpus(['{"id": "p1", "authors": ["a"]}'])
    assert self_citation_fraction(corpus, "author") == 0.0


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
    assert len(corpus) == 1
    (paper,) = list(corpus)
    assert paper.refs == ()
    assert paper.authors == ("a001",)


def test_synthetic_structure():
    corpus = generate_synthetic_corpus(9, 80, 12, 0.4)
    assert len(corpus) == 80
    assert corpus.dangling_refs == 0
    pool = {f"a{i:03d}" for i in range(1, 13)}
    for paper in corpus:
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


def test_messy_corpora_hold_every_anomaly():
    records = [json.loads(line) for seed in range(60) for line in messy_corpus(seed).splitlines()]
    assert any(len(set(r["refs"])) < len(r["refs"]) for r in records)
    assert any(r["id"] in r["refs"] for r in records)
    assert any(ref.startswith("ghost") for r in records for ref in r["refs"])
    assert any("venue" not in r for r in records)
    assert any(r.get("venue") == "" for r in records)
    assert any(len(set(r["authors"])) < len(r["authors"]) for r in records)


@pytest.mark.parametrize("mode", MODES)
def test_aggregation_matches_the_oracles_on_messy_corpora(mode):
    oracle = {"author": author_aggregates_from_jsonl, "journal": journal_aggregates_from_jsonl}
    for seed in range(60):
        text = messy_corpus(seed)
        corpus = ingest_corpus(text.encode("utf-8"))
        actual = {
            agg.entity_id: dict(cd=agg.cd, c=agg.c, sc=agg.sc, h=agg.h, h_star=agg.h_star)
            for agg in aggregate_all(corpus, mode)
        }
        assert actual == oracle[mode](text), seed
        assert self_citation_fraction(corpus, mode) == self_citation_fraction_from_jsonl(
            text, mode
        ), seed
        assert corpus.missing_venue_edges == missing_venue_edges_from_jsonl(text), seed


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

def test_aggregate_csv_round_trip(handmade):
    text = write_aggregate_csv(aggregate_all(handmade, "author"))
    assert text.splitlines()[0] == ",".join(AGGREGATE_CSV_COLUMNS)
    rows = read_aggregate_csv(text.splitlines())
    assert [entity for entity, _ in rows] == ["ann", "bob", "cara"]
    ann = dict(rows)["ann"]
    assert (ann.citable_documents, ann.citations_total, ann.self_citations, ann.h_index) == (
        2,
        4,
        2,
        1,
    )


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
def test_aggregate_csv_rejects_wrong_header(header):
    with pytest.raises(CorpusParseError) as excinfo:
        read_aggregate_csv([header, "x,1,1,0,1"])
    assert "line 1" in str(excinfo.value) or "empty" in str(excinfo.value)


def test_aggregate_csv_rejects_non_integer_counts():
    with pytest.raises(CorpusParseError) as excinfo:
        read_aggregate_csv(["entity_id,cd,c,sc,h", "x,1,lots,0,1"])
    assert "x" in str(excinfo.value)
    assert "line 2" in str(excinfo.value)


def test_aggregate_csv_rejects_invariant_violations():
    with pytest.raises(DomainError) as excinfo:
        read_aggregate_csv(["entity_id,cd,c,sc,h", "offender,5,10,20,3"])
    message = str(excinfo.value)
    assert "offender" in message and "line 2" in message
    assert excinfo.value.line == 2


def test_aggregate_csv_rejects_h_above_cd():
    with pytest.raises(DomainError) as excinfo:
        read_aggregate_csv(["entity_id,cd,c,sc,h", "offender,3,100,0,4"])
    assert "offender" in str(excinfo.value)


def test_aggregate_csv_rejects_duplicates():
    with pytest.raises(CorpusIntegrityError) as excinfo:
        read_aggregate_csv(["entity_id,cd,c,sc,h", "x,1,1,0,1", "x,2,2,0,1"])
    assert "x" in str(excinfo.value)
    assert str(excinfo.value) == "line 3: duplicate entity 'x'"
    assert excinfo.value.line == 3


def test_aggregate_csv_rejects_short_rows():
    with pytest.raises(CorpusParseError):
        read_aggregate_csv(["entity_id,cd,c,sc,h", "x,1,1"])


@pytest.mark.parametrize("count", ["1_0", "\u0665", " 5", "+5", "5.0"])
def test_aggregate_csv_counts_are_ascii_digits_only(count):
    lines = ["entity_id,cd,c,sc,h", f"x,{count},20,5,3"]
    with pytest.raises(CorpusParseError) as excinfo:
        read_aggregate_csv(lines)
    assert "line 2" in str(excinfo.value)
    assert audit_aggregate(lines).errors == [
        "line 2: entity 'x': counts must be integers"
    ]


def test_aggregate_csv_negative_count_is_a_domain_error():
    with pytest.raises(DomainError) as excinfo:
        read_aggregate_csv(["entity_id,cd,c,sc,h", "x,-1,20,5,3"])
    assert "line 2" in str(excinfo.value)


def test_aggregate_csv_keeps_a_quoted_newline(tmp_path):
    text = 'entity_id,cd,c,sc,h\n"Multi\nLine",3,10,2,2\nSingle,4,20,5,3\n'
    path = tmp_path / "agg.csv"
    path.write_text(text, encoding="utf-8")
    for source in (path, text.encode("utf-8"), io.StringIO(text, newline="")):
        rows = read_aggregate_csv(source)
        assert [entity for entity, _ in rows] == ["Multi\nLine", "Single"]
    assert audit_aggregate(path).ok
    lines = text.splitlines(keepends=True)
    every = read_every_source_kind(read_aggregate_csv, path, lines)
    assert every == [every[0]] * 6
    assert [entity for entity, _ in every[0]] == ["Multi\nLine", "Single"]
    assert read_every_source_kind(audit_aggregate, path, lines) == [AuditReport()] * 6


def test_aggregate_csv_reads_bare_carriage_returns(tmp_path):
    path = tmp_path / "agg.csv"
    path.write_bytes(b'entity_id,cd,c,sc,h\r"Multi\rLine",3,10,2,2\rSingle,4,20,5,3\r')
    rows = read_aggregate_csv(path)
    assert [entity for entity, _ in rows] == ["Multi\rLine", "Single"]
    assert audit_aggregate(path).ok
    path.write_bytes(b"entity_id,cd,c,sc,h\rx,1,1,0,1\r\ny,1,1,0,1\nbad,1,x,0,1\r")
    with pytest.raises(CorpusParseError) as excinfo:
        read_aggregate_csv(path)
    assert excinfo.value.line == 4
    assert audit_aggregate(path).errors == ["line 4: entity 'bad': counts must be integers"]
    # a str line is split at a bare carriage return as the same bytes are
    line = "entity_id,cd,c,sc,h\rx,1,1,0,1\r\ny,1,1,0,1\nbad,1,x,0,1\r"
    with pytest.raises(CorpusParseError) as excinfo:
        read_aggregate_csv([line])
    assert excinfo.value.line == 4
    assert audit_aggregate([line]).errors == audit_aggregate(path).errors
    text = 'entity_id,cd,c,sc,h\r"Multi\rLine",3,10,2,2\rSingle,4,20,5,3\r'
    assert read_aggregate_csv([text]) == read_aggregate_csv(text.encode("utf-8"))


def test_aggregate_csv_rejects_invalid_utf8_with_its_line(tmp_path):
    data = (
        b'entity_id,cd,c,sc,h\nx,1,1,0,1\n"Multi\r\xffLine",2,2,0,1\n'
        b"bad\xfe,1,1,0,1\nok,1,1,0,1\n"
    )
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    for source in (path, data, io.BytesIO(data)):
        with pytest.raises(CorpusParseError) as excinfo:
            read_aggregate_csv(source)
        assert excinfo.value.line == 4
        assert "invalid UTF-8 at byte 1 (invalid start byte)" in str(excinfo.value)
    # the audit rejects each row holding an undecodable line and reads on
    assert audit_aggregate(path).errors == [
        "line 4: invalid UTF-8 at byte 1 (invalid start byte)",
        "line 5: invalid UTF-8 at byte 4 (invalid start byte)",
    ]
    header = b"entity_id,cd,c,sc,h\xff\nx,1,1,0,1\n"
    with pytest.raises(CorpusParseError, match="^line 1: invalid UTF-8"):
        read_aggregate_csv(header)
    assert audit_aggregate(header).errors == [
        "line 1: invalid UTF-8 at byte 20 (invalid start byte)"
    ]


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
def test_aggregate_csv_strict_and_audit_agree(lines, error):
    with pytest.raises(error) as excinfo:
        read_aggregate_csv(lines)
    assert type(excinfo.value) is error
    assert audit_aggregate(lines).errors == [str(excinfo.value)]


def test_aggregate_csv_audit_reads_on_after_an_oversized_field():
    lines = [CSV_HEADER, f"{'x' * 131073},1,1,0,1", "ok,1,1,0,1", "sc,5,10,20,3"]
    assert audit_aggregate(lines).errors == [
        "line 2: field larger than field limit (131072)",
        "line 4: entity 'sc': self_citations (20) exceed citations_total (10)",
    ]
    # the limit is process-wide state, left as it was
    assert csv.field_size_limit() == 131072


def test_aggregate_csv_reads_counts_up_to_2_to_the_53():
    top = 2**53
    rows = read_aggregate_csv(
        [CSV_HEADER, f"top,{top},{top},{top},{top}", f"zeros,{'0' * 5000}1,{top:020d},0,1"]
    )
    assert rows == [
        ("top", CitationCounts(top, top, top, top)),
        ("zeros", CitationCounts(top, 0, 1, 1)),
    ]


def test_readers_locate_a_bad_byte_in_a_text_stream(tmp_path):
    corpus = tmp_path / "bad.jsonl"
    corpus.write_bytes(b'{"id": "p1", "authors": ["a"]}\n{"id": "p2", "authors": ["\xff"]}\n')
    table = tmp_path / "bad.csv"
    table.write_bytes(b"entity_id,cd,c,sc,h\nx,1,1,0,1\ny\xff,1,1,0,1\n")
    for path, read, audit, message in (
        (corpus, ingest_corpus, audit_corpus, "line 2: invalid UTF-8 at byte 27"),
        (table, read_aggregate_csv, audit_aggregate, "line 3: invalid UTF-8 at byte 2"),
    ):
        with open(path, encoding="utf-8") as handle:
            with pytest.raises(CorpusParseError) as excinfo:
                read(handle)
        assert str(excinfo.value).startswith(f"{path.name}, {message} ")
        with open(path, encoding="utf-8") as handle:
            assert audit(handle).errors == [f"{message} (invalid start byte)"]


def test_readers_keep_the_encoding_of_a_text_stream(tmp_path):
    path = tmp_path / "latin.jsonl"
    path.write_bytes(b'{"id": "p1", "authors": ["Jos\xe9"]}\n')
    with open(path, encoding="latin-1") as handle:
        assert ingest_corpus(handle).paper("p1").authors == ("José",)


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
    lines = corpus.read_text(encoding="utf-8").split("\n")
    duplicate = "line 3: duplicate paper id 'p2'"
    assert read_every_source_kind(ingest_corpus, corpus, lines) == [
        (CorpusIntegrityError, 3, duplicate)
    ] * 6
    audit = AuditReport(
        errors=[duplicate, "line 4: invalid JSON (Expecting property name enclosed in double quotes)"],
        warnings=[
            "line 1: paper 'p1' cites itself (1 entry(ies) stripped)",
            "1 reference(s) point outside the corpus and will be ignored",
            "1 paper(s) have no venue; their citations count as genuine",
        ],
    )
    journal_audit = lambda source: audit_corpus(source, "journal")  # noqa: E731
    assert read_every_source_kind(journal_audit, corpus, lines) == [audit] * 6

    table = tmp_path / "agg.csv"
    table.write_bytes(
        b'entity_id,cd,c,sc,h\r\n"Multi\r\nLine",3,10,2,2\r\nx,1,1,0,1\r\n'
        b"x,2,2,0,1\ry,1,2,3,1\r\n"
    )
    lines = table.read_bytes().decode("utf-8").splitlines(keepends=True)
    duplicate = "line 5: duplicate entity 'x'"
    assert read_every_source_kind(read_aggregate_csv, table, lines) == [
        (CorpusIntegrityError, 5, duplicate)
    ] * 6
    audit = AuditReport(
        errors=[duplicate, "line 6: entity 'y': self_citations (3) exceed citations_total (2)"]
    )
    assert read_every_source_kind(audit_aggregate, table, lines) == [audit] * 6


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

def test_audit_clean_corpus(handmade):
    report = audit_corpus(HANDMADE.splitlines())
    assert report.ok
    assert report.errors == []
    assert report.warnings == []


def test_audit_collects_multiple_errors():
    text = "\n".join(
        [
            '{"id": "p1", "authors": ["a"]}',
            "{broken",
            '{"id": "p1", "authors": ["b"]}',
            '{"id": "p3"}',
        ]
    )
    report = audit_corpus(text.splitlines())
    assert not report.ok
    assert len(report.errors) == 3
    assert any("line 2" in message for message in report.errors)
    assert any("duplicate" in message and "p1" in message for message in report.errors)


def test_audit_warns_without_failing():
    text = "\n".join(
        [
            '{"id": "p1", "authors": ["a"], "refs": ["p1", "ghost"]}',
        ]
    )
    report = audit_corpus(text.splitlines())
    assert report.ok
    assert any("cites itself" in message for message in report.warnings)
    assert any("outside the corpus" in message for message in report.warnings)


def test_audit_journal_mode_flags_missing_venue():
    text = '{"id": "p1", "authors": ["a"]}'
    report = audit_corpus([text], mode="journal")
    assert report.ok
    assert any("venue" in message for message in report.warnings)
    # author mode does not care
    assert audit_corpus([text], mode="author").warnings == []


def test_audit_aggregate_clean():
    report = audit_aggregate(["entity_id,cd,c,sc,h", "x,5,10,2,3"])
    assert report.ok and report.warnings == []


def test_audit_aggregate_collects_problems():
    report = audit_aggregate(
        [
            "entity_id,cd,c,sc,h",
            "x,5,10,20,3",
            "y,1,1,0,1",
            "y,2,1,0,1",
            "z,1,one,0,1",
        ]
    )
    assert not report.ok
    assert len(report.errors) == 3
    assert any("x" in message for message in report.errors)
    assert any("duplicate" in message for message in report.errors)


def test_audit_aggregate_bad_header():
    report = audit_aggregate(["wrong,header", "x,1,1,0,1"])
    assert not report.ok
    assert "header" in report.errors[0]
