"""The aggregate path against its slow references, on seeded random inputs.

``read_aggregate_csv`` and ``audit_aggregate`` parse each count with one
test for plain digits, ``CitationCounts`` accepts valid counts in one
expression, and ``metrics_row`` computes its columns without the public
helpers' checks. Each is checked here against the rule it replaced, kept in
``tests/oracles.py``: the same rows or the same errors, bit-identical
floats, the same messages.
"""

from __future__ import annotations

import csv
import io
import random
from pathlib import Path

import pytest

from vindex import graph
from vindex.errors import DomainError, VindexError
from vindex.graph import audit_aggregate, read_aggregate_csv
from vindex.metrics import CitationCounts, WeightFunction, metrics_row

from oracles import count_reference, counts_error_reference, metrics_row_reference

# Count fields around every edge of the digit rule: leading zeros (also
# past 16 characters), 16 and 17 digits, 2**53 and one above, signs,
# padding, underscores, other scripts' digits and the empty field.
COUNT_TOKENS = (
    "0", "1", "7", "42", "007", "0" * 20 + "42", "-0", "-3", "-00", "+1", " 1", "1 ", "1_0",
    "١", "²", "１", "", "-", "1.0", "9" * 16, "1" + "0" * 15, "9" * 17, "1" + "0" * 16,
    "9007199254740992", "9007199254740993", "09007199254740993", "-9007199254740992",
    "-9007199254740993", "-" + "9" * 17, "0" * 17, "1" * 400,
)


def _random_csv(rng: random.Random) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(graph.AGGREGATE_CSV_COLUMNS)
    for _ in range(rng.randint(0, 12)):
        entity = rng.choice(("", "x,y", "Équipe") + tuple("abcdefghijklmnop"))
        if rng.random() < 0.8:
            cd = rng.randint(0, 6)
            h = rng.randint(0, cd + 1)
            c = rng.randint(0, 9)
            sc = rng.randint(0, c + 1)
            counts = [str(value) for value in (cd, c, sc, h)]
            if rng.random() < 0.2:
                counts[rng.randrange(4)] = rng.choice(COUNT_TOKENS)
        else:
            counts = [rng.choice(COUNT_TOKENS) for _ in range(4)]
        fields = [entity, *counts]
        if rng.random() < 0.05:
            fields = fields[: rng.randint(1, 4)]
        writer.writerow(fields)
    return out.getvalue()


def _read_outcome(path: Path):
    try:
        return read_aggregate_csv(path)
    except VindexError as exc:
        return type(exc), str(exc)


def test_count_matches_the_reference_on_every_token():
    for token in COUNT_TOKENS:
        for text in (token, "-" + token, "0" + token):
            assert graph._count(text) == count_reference(text), text


def test_csv_readers_match_a_reader_on_the_reference_count(write_input, monkeypatch):
    rng = random.Random(1207)
    paths = [write_input(_random_csv(rng)) for _ in range(1500)]
    fast = [(_read_outcome(path), audit_aggregate(path).errors) for path in paths]
    monkeypatch.setattr(graph, "_count", count_reference)
    slow = [(_read_outcome(path), audit_aggregate(path).errors) for path in paths]
    assert fast == slow
    # the inputs reach rows, every kind of error, and lines past the first
    outcomes = [read for read, _ in fast]
    assert any(isinstance(read, list) and len(read) > 3 for read in outcomes)
    messages = " ".join(str(read) for read in outcomes)
    for fragment in ("must be integers", "count too large", "duplicate", "must be >= 0",
                     "exceed", "exceeds", "non-empty", "expected 5 fields", "line 5"):
        assert fragment in messages, fragment


def _weights(rng: random.Random) -> list[WeightFunction]:
    return [
        WeightFunction.sqrt(),
        WeightFunction.unity(),
        WeightFunction.linear(),
        WeightFunction.concave(rng.randint(2, 12)),
        WeightFunction.convex(rng.randint(2, 12)),
    ]


def _row_outcome(build, *args):
    """A row with each float as its bits, or the error it raises."""
    try:
        row = build(*args)
    except (ArithmeticError, DomainError) as exc:
        return type(exc), str(exc)
    floats = (row.v_rate, row.c_p, row.v_p, row.v_index, row.ratio)
    assert all(type(value) is float for value in floats)
    return row.entity_id, row.counts, row.h_star, [value.hex() for value in floats]


def _random_counts(rng: random.Random) -> CitationCounts:
    shape = rng.randrange(8)
    if shape == 0:  # no citable documents, so no h either
        cd, h = 0, 0
    elif shape == 1:  # far past 2**53, as a library caller may pass
        cd = rng.randint(1, 10**30)
        h = rng.randint(0, cd)
    else:
        cd = rng.randint(1, 400)
        h = rng.choice((0, cd, rng.randint(0, cd)))
    c = rng.choice((0, h * h + rng.randint(0, 5000), rng.randint(0, 10**rng.randint(1, 400))))
    sc = rng.choice((0, c, rng.randint(0, c)))
    return CitationCounts(c, sc, cd, h)


def test_metrics_row_matches_the_checked_helpers():
    rng = random.Random(1208)
    kinds = set()
    checked = 0
    for _ in range(600):
        counts = _random_counts(rng)
        h_star = rng.choice((None, 0, counts.h_index))
        for weight in _weights(rng):
            got = _row_outcome(metrics_row, "e", counts, weight, h_star)
            want = _row_outcome(metrics_row_reference, "e", counts, weight, h_star)
            assert got == want, (counts, weight)
            kinds.add(got[0] if isinstance(got[0], type) else "row")
            checked += 1
    assert kinds == {"row", DomainError, OverflowError}
    assert checked == 3000


class _Count(int):
    """An int subclass, which CitationCounts accepts as an int."""


def _random_value(rng: random.Random):
    return rng.choice(
        (
            rng.randint(0, 9),
            rng.randint(0, 9),
            -rng.randint(1, 9),
            _Count(rng.randint(0, 9)),
            _Count(-1),
            True,
            False,
            float(rng.randint(0, 9)),
            rng.randint(0, 9) * 0.5,
        )
    )


_REFUSALS = (
    "must be an integer", "must be >= 0", "exceed citations_total", "exceeds citable_documents"
)


def test_citation_counts_check_matches_the_field_walk():
    rng = random.Random(1209)
    seen = set()
    for _ in range(8_000):
        values = [_random_value(rng) for _ in range(4)]
        want = counts_error_reference(*values)
        if want is None:
            seen.add("a subclass accepted" if _Count in map(type, values) else "accepted")
        else:
            seen.update(kind for kind in _REFUSALS if kind in want)
        if want is None:
            counts = CitationCounts(*values)
            fields = (
                counts.citations_total,
                counts.self_citations,
                counts.citable_documents,
                counts.h_index,
            )
            assert all(got is value for got, value in zip(fields, values))
        else:
            with pytest.raises(DomainError) as caught:
                CitationCounts(*values)
            assert str(caught.value) == want
    # accepted subclasses, and refused types, signs and both relations
    assert seen == {"accepted", "a subclass accepted", *_REFUSALS}
