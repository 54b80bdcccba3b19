"""Unit tests for ranking, correlation, statistics, and rendering."""

from __future__ import annotations

import csv
import math
import random
import statistics
import struct
from decimal import Decimal

import pytest

from vindex.analytics import (
    TABLE_COLUMNS,
    _betainc,
    batch_stats,
    export_citation_curves,
    fmt3,
    format_table,
    pearson,
    rank,
    render_table,
)
from vindex.errors import DomainError
from vindex.graph import aggregate_all, generate_synthetic_corpus, ingest_corpus
from vindex.metrics import CitationCounts, WeightFunction, metrics_row
from oracles import csv_reference, fmt3_reference, rank_reference


def make_row(entity_id, cd, c, sc, h, h_star=None):
    counts = CitationCounts(
        citations_total=c, self_citations=sc, citable_documents=cd, h_index=h
    )
    return metrics_row(entity_id, counts, h_star=h_star)


def author_aggregate(corpus, author):
    (agg,) = [agg for agg in aggregate_all(corpus, "author") if agg.entity_id == author]
    return agg


# ---------------------------------------------------------------------------
# display rounding
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "value, expected",
    [
        (2.6745, "2.675"),
        (-2.6745, "-2.675"),
        (0.0005, "0.001"),
        (-0.0005, "-0.001"),
        (1 / 3, "0.333"),
        (2 / 3, "0.667"),
        (16, "16.000"),
        (0.0, "0.000"),
        (42.3726, "42.373"),
        (899.5494, "899.549"),
    ],
)
def test_fmt3(value, expected):
    assert fmt3(value) == expected


@pytest.mark.parametrize(
    "value, expected",
    [
        (1e25, "10000000000000000000000000.000"),
        (-1e25, "-10000000000000000000000000.000"),
        (1.7976931348623157e308, "17976931348623157" + "0" * 292 + ".000"),  # the repr's digits
        (Decimal("12345678901234567890123456789.0005"), "12345678901234567890123456789.001"),
        (Decimal("-99999999999999999999999999999.9995"), "-100000000000000000000000000000.000"),
    ],
)
def test_fmt3_rounds_exactly_past_28_digits(value, expected):
    assert fmt3(value) == expected


@pytest.mark.parametrize(
    "value", [math.nan, -math.nan, math.inf, -math.inf, Decimal("NaN"), Decimal("-Infinity")]
)
def test_fmt3_and_round3_refuse_nan_and_infinities(value):
    with pytest.raises(DomainError, match="cannot round"):
        fmt3(value)


@pytest.mark.parametrize(
    "value", [True, False, Decimal("1e1000000"), Decimal("-1e1000000")], ids=repr
)
def test_fmt3_and_round3_refuse_what_decimal_cannot_round(value):
    # a bool's str is no number; 1e1000000 rounded to 0.001 passes the
    # default context's largest exponent
    with pytest.raises(DomainError, match="cannot round"):
        fmt3(value)


def _outcome(function, value):
    try:
        return function(value)
    except Exception as exc:  # the reference's own error is part of its answer
        return type(exc)


def _fmt3_probes() -> list:
    rng = random.Random(4151)
    values: list = []
    for k in range(-30_000, 30_001):
        values.append(k / 1000 + 0.0005)  # ties in the repr, off by an ulp in binary
        values.append(k / 2000)  # odd k: repr ties; odd multiples of 125: exact binary ties
    for _ in range(20_000):
        values.append(rng.uniform(-1000.0, 1000.0))
        values.append(rng.choice((-1, 1)) * 10 ** rng.uniform(-12, 12))
        # repr ties a few ulps off, at every magnitude up to 1e14: above
        # about 1e10, printf and the repr round some of these apart
        tie = rng.choice((-1, 1)) * (rng.randrange(10 ** rng.randint(3, 17)) / 1000 + 0.0005)
        for _ in range(rng.randint(0, 8)):
            tie = math.nextafter(tie, rng.choice((math.inf, -math.inf)))
        values.append(tie)
        h = rng.randint(0, 200)
        c = rng.randint(1, 10_000)
        values.append(h * math.sqrt(rng.randint(0, c) / c))
    for _ in range(5_000):
        values.append(struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0])
    for edge in (1e9, -1e9, 1e9 - 0.0005, -(1e9 - 0.0005), 999_999_999.9995, 1e8 + 0.0005):
        value = edge
        for _ in range(300):
            value = math.nextafter(value, math.inf)
            values.append(value)
        value = edge
        for _ in range(300):
            value = math.nextafter(value, -math.inf)
            values.append(value)
        values.append(edge)
    values += [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, -1e-310]
    values += [math.nan, -math.nan, math.inf, -math.inf, 1e30, -1e30, 1.7976931348623157e308]
    values += [0, 1, -7, 16, 10**12, 2**53, True, False]
    values += [Decimal("2.6745"), Decimal("-0.0005"), Decimal("1e-7"), Decimal("NaN")]
    values += [Decimal("1e1000000"), Decimal("-1e1000000")]
    return values


def test_fmt3_matches_the_decimal_reference():
    values = _fmt3_probes()
    assert len(values) > 200_000
    mismatches = [
        value for value in values if _outcome(fmt3, value) != _outcome(fmt3_reference, value)
    ]
    assert mismatches == []


def test_fmt3_gives_a_string_for_every_finite_double_and_refuses_the_rest():
    # Random 64-bit patterns, with the exponent bits also drawn as all ones
    # (infinities and NaNs with any payload), all zeros (subnormals) and
    # near the exponent of 1.
    rng = random.Random(4152)
    outcomes = set()
    for _ in range(40_000):
        bits = rng.getrandbits(64)
        exponent = rng.choice((None, 0x7FF, 0, rng.randint(0x3F0, 0x41F)))
        if exponent is not None:
            bits = bits & ~(0x7FF << 52) | exponent << 52
        value = struct.unpack("<d", bits.to_bytes(8, "little"))[0]
        try:
            text = fmt3(value)
        except DomainError:
            assert not math.isfinite(value), value
            outcomes.add("refused")
        else:
            assert type(text) is str and math.isfinite(value), value
            outcomes.add("str")
    assert outcomes == {"str", "refused"}


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------

def test_rank_matches_the_reference_on_heavy_ties():
    rng = random.Random(5309)
    weights = (WeightFunction("sqrt"), WeightFunction("unity"), WeightFunction("linear"))
    for _ in range(300):
        weight = rng.choice(weights)
        rows = []
        for _ in range(rng.randint(1, 40)):
            if rows and rng.random() < 0.15:
                rows.append(rng.choice(rows))  # the same row object again
                continue
            cd = rng.randint(1, 4)
            h = rng.randint(0, min(cd, 3))
            c = rng.randint(h * h, h * h + 3)
            sc = rng.choice((0, 0, c, rng.randint(0, c)))
            counts = CitationCounts(
                citations_total=c, self_citations=sc, citable_documents=cd, h_index=h
            )
            rows.append(metrics_row(rng.choice("abcde"), counts, weight))
        for key in ("v_index", "h_index", "cd"):
            table = rank(rows, key)
            got = [
                (id(item.row), item.rank_by_cd, item.rank_by_h, item.rank_by_v)
                for item in table.rows
            ]
            want = [(id(row), *positions) for row, *positions in rank_reference(rows, key)]
            assert got == want


def test_rank_orders_by_v_index():
    rows = [
        make_row("low", 10, 100, 90, 5),
        make_row("high", 10, 100, 0, 5),
        make_row("mid", 10, 100, 50, 5),
    ]
    table = rank(rows, "v_index")
    assert [item.row.entity_id for item in table.rows] == ["high", "mid", "low"]
    assert [item.rank_by_v for item in table.rows] == [1, 2, 3]


def test_rank_carries_all_three_positions():
    rows = [
        make_row("a", 30, 50, 0, 4),
        make_row("b", 20, 400, 200, 10),
        make_row("c", 10, 900, 0, 9),
    ]
    table = rank(rows, "v_index")
    by_id = {item.row.entity_id: item for item in table.rows}
    assert by_id["a"].rank_by_cd == 1
    assert by_id["b"].rank_by_cd == 2
    assert by_id["c"].rank_by_cd == 3
    assert by_id["b"].rank_by_h == 1
    assert by_id["c"].rank_by_h == 2
    assert by_id["a"].rank_by_h == 3
    # c: 9 * 1.0 = 9.0 beats b: 10 * sqrt(0.5) = 7.07
    assert by_id["c"].rank_by_v == 1
    assert by_id["b"].rank_by_v == 2
    assert by_id["a"].rank_by_v == 3


def test_rank_positions_are_a_permutation():
    rng = random.Random(99)
    rows = []
    for i in range(40):
        c = rng.randint(0, 5000)
        sc = rng.randint(0, c) if c else 0
        h = rng.randint(1, max(1, math.isqrt(c))) if c else 0
        cd = max(1, h) + rng.randint(0, 100)
        rows.append(make_row(f"e{i:02d}", cd, c, sc, h))
    table = rank(rows, "cd")
    n = len(rows)
    for attribute in ("rank_by_cd", "rank_by_h", "rank_by_v"):
        assert sorted(getattr(item, attribute) for item in table.rows) == list(range(1, n + 1))


def test_rank_tie_breaks_on_h_then_cd_then_id():
    # all four have v_index 0.0 (all citations are self-citations)
    rows = [
        make_row("delta", 9, 50, 50, 3),
        make_row("alpha", 9, 50, 50, 3),
        make_row("bravo", 12, 50, 50, 3),
        make_row("candy", 9, 60, 60, 5),
    ]
    table = rank(rows, "v_index")
    assert [item.row.entity_id for item in table.rows] == ["candy", "bravo", "alpha", "delta"]


def test_rank_sort_key_changes_row_order_only():
    rows = [
        make_row("a", 30, 50, 0, 4),
        make_row("b", 20, 400, 200, 10),
    ]
    by_v = rank(rows, "v_index")
    by_cd = rank(rows, "cd")
    positions_v = {(item.row.entity_id, item.rank_by_cd, item.rank_by_h, item.rank_by_v) for item in by_v.rows}
    positions_cd = {(item.row.entity_id, item.rank_by_cd, item.rank_by_h, item.rank_by_v) for item in by_cd.rows}
    assert positions_v == positions_cd
    assert [item.row.entity_id for item in by_cd.rows] == ["a", "b"]


def test_rank_gives_a_repeated_row_object_distinct_positions():
    row = make_row("twice", 10, 100, 20, 5)
    other = make_row("once", 3, 9, 0, 2)
    table = rank([row, other, row], "v_index")
    assert [item.row.entity_id for item in table.rows] == ["twice", "twice", "once"]
    for attribute in ("rank_by_cd", "rank_by_h", "rank_by_v"):
        assert sorted(getattr(item, attribute) for item in table.rows) == [1, 2, 3]
    assert [item.rank_by_v for item in table.rows] == [1, 2, 3]


def test_rank_rejects_unknown_key():
    with pytest.raises(DomainError):
        rank([make_row("a", 1, 0, 0, 0)], "alphabetical")


@pytest.mark.parametrize("key", ["v_index", "h_index", "cd"])
def test_rank_of_no_rows_renders_the_header_only(key):
    table = rank([], key)
    assert table.rows == ()
    assert render_table(table, "csv") == ",".join(TABLE_COLUMNS) + "\n"
    assert render_table(table, "markdown").count("\n") == 2


def golden_positions(golden_rows):
    rows = []
    for record in golden_rows:
        counts = CitationCounts(
            citations_total=record["c"],
            self_citations=record["sc"],
            citable_documents=record["cd"],
            h_index=record["h"],
        )
        rows.append(metrics_row(record["entity_id"], counts))
    return rank(rows, "v_index")


def test_author_table_positions_reproduce(author_table):
    table = golden_positions(author_table)
    printed = {row["entity_id"]: row for row in author_table}
    for item in table.rows:
        expected = printed[item.row.entity_id]
        assert item.rank_by_v == expected["pos_v"], item.row.entity_id
        assert item.rank_by_h == expected["pos_h"], item.row.entity_id
        assert item.rank_by_cd == expected["pos_cd"], item.row.entity_id


@pytest.mark.parametrize("table_fixture", ["journal_table", "country_table"])
def test_v_index_positions_reproduce(table_fixture, request):
    # pos_cd and pos_h in these snapshots refer to the full source ranking,
    # which the 25 retained rows cannot reconstruct; pos_v is closed here.
    golden = request.getfixturevalue(table_fixture)
    table = golden_positions(golden)
    printed = {row["entity_id"]: row for row in golden}
    for item in table.rows:
        assert item.rank_by_v == printed[item.row.entity_id]["pos_v"], item.row.entity_id


# ---------------------------------------------------------------------------
# correlation
# ---------------------------------------------------------------------------

def test_pearson_perfect_line():
    result = pearson([1, 2, 3, 4], [10, 20, 30, 40])
    assert result.rho == 1.0
    assert 0.0 < result.p_value <= 1e-300


def test_pearson_perfect_anticorrelation():
    result = pearson([1, 2, 3], [5, 4, 3])
    assert result.rho == -1.0
    assert result.p_value > 0.0


def test_pearson_sign_and_symmetry():
    x = [1.0, 2.0, 4.0, 8.0, 9.0]
    y = [2.1, 2.9, 5.2, 7.8, 9.4]
    forward = pearson(x, y)
    backward = pearson(y, x)
    assert forward.rho == pytest.approx(backward.rho, rel=1e-14)
    assert forward.p_value == pytest.approx(backward.p_value, rel=1e-12)
    flipped = pearson(x, [-value for value in y])
    assert flipped.rho == pytest.approx(-forward.rho, rel=1e-14)
    assert flipped.p_value == pytest.approx(forward.p_value, rel=1e-12)


BETAINC_ARGUMENTS = [(2.0, 3.0, 0.3), (0.5, 40.0, 0.01), (7.5, 0.5, 0.97)]


def test_betainc_edges_and_symmetry():
    assert _betainc(3.0, 0.5, 0.0) == 0.0
    assert _betainc(3.0, 0.5, 1.0) == 1.0
    for a, b, x in BETAINC_ARGUMENTS:
        assert _betainc(a, b, x) + _betainc(b, a, 1.0 - x) == pytest.approx(1.0, rel=1e-14)


def test_pearson_p_decreases_with_correlation_strength():
    # same n, tighter correlation, smaller p
    x = list(range(10))
    loose = pearson(x, [value + ((-1) ** value) * 3.0 for value in x])
    tight = pearson(x, [value + ((-1) ** value) * 0.05 for value in x])
    assert abs(tight.rho) > abs(loose.rho)
    assert tight.p_value < loose.p_value


@pytest.mark.parametrize(
    "x, y",
    [
        ([1, 2], [3, 4]),
        ([], []),
        ([1, 2, 3], [1, 2]),
        ([5, 5, 5], [1, 2, 3]),
        ([1, 2, 3], [7, 7, 7]),
    ],
)
def test_pearson_rejects_degenerate_input(x, y):
    with pytest.raises(DomainError):
        pearson(x, y)


def test_pearson_p_value_stays_positive():
    # 25 nearly collinear points drive t very high; p must not underflow to 0
    x = [float(i) for i in range(25)]
    y = [value * 2.0 + 1e-9 * ((-1) ** int(value)) for value in x]
    result = pearson(x, y)
    assert result.p_value > 0.0


def test_pearson_floors_an_underflowed_p_value():
    # rho falls short of 1, so t is finite, but the tail probability
    # underflows to 0 and is raised to the smallest positive double.
    rng = random.Random(14)
    x = [float(i) for i in range(3000)]
    y = [value + rng.uniform(-1e-3, 1e-3) for value in x]
    result = pearson(x, y)
    assert result.rho < 1.0
    dof = len(x) - 2
    t_squared = result.rho**2 * dof / (1.0 - result.rho**2)
    assert _betainc(dof / 2.0, 0.5, dof / (dof + t_squared)) == 0.0
    assert result.p_value == math.nextafter(0.0, 1.0)


# ---------------------------------------------------------------------------
# batch statistics
# ---------------------------------------------------------------------------

def test_batch_stats_known_values():
    stats = batch_stats([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
    assert stats.mean == pytest.approx(5.0)
    assert stats.median == pytest.approx(4.5)
    assert stats.std_dev == pytest.approx(math.sqrt(32 / 7), rel=1e-12)
    assert stats.min == 2.0
    assert stats.max == 9.0


def test_batch_stats_single_value():
    stats = batch_stats([3.25])
    assert stats.mean == stats.median == stats.min == stats.max == 3.25
    assert stats.std_dev == 0.0


def test_batch_stats_odd_median():
    assert batch_stats([9.0, 1.0, 5.0]).median == 5.0


@pytest.mark.parametrize("n", [2, 3, 10, 101, 5000])
def test_batch_stats_matches_statistics(n):
    rng = random.Random(n)
    values = [rng.lognormvariate(0, 2) for _ in range(n)]
    stats = batch_stats(values)
    assert stats.mean == statistics.fmean(values)
    assert stats.median == statistics.median(values)
    assert stats.std_dev == pytest.approx(statistics.stdev(values), rel=1e-12)
    assert (stats.min, stats.max) == (min(values), max(values))


def test_batch_stats_returns_floats_for_integers():
    stats = batch_stats([3, 1, 2])
    assert all(
        type(value) is float
        for value in (stats.mean, stats.median, stats.std_dev, stats.min, stats.max)
    )


def test_batch_stats_empty():
    with pytest.raises(DomainError):
        batch_stats([])


# ---------------------------------------------------------------------------
# citation curves
# ---------------------------------------------------------------------------

def test_citation_curves_sorted_independently(write_input):
    corpus = ingest_corpus(
        write_input(
            [
                '{"id": "p1", "authors": ["a"]}',
                '{"id": "p2", "authors": ["a"]}',
                '{"id": "p3", "authors": ["a", "b"], "refs": ["p1"]}',
                '{"id": "p4", "authors": ["b"], "refs": ["p1", "p2"]}',
                '{"id": "p5", "authors": ["a"], "refs": ["p1", "p2"]}',
            ]
        )
    )
    agg = author_aggregate(corpus, "a")
    curves = export_citation_curves(agg)
    assert curves.g == tuple(sorted(curves.g, reverse=True))
    assert curves.f == tuple(sorted(curves.f, reverse=True))
    assert sum(curves.g) == agg.c
    assert sum(curves.f) == agg.c - agg.sc


def test_citation_curves_csv_layout():
    # The curve CSV as demos/synthetic_pipeline.py writes it.
    corpus = generate_synthetic_corpus(5, 25, 6, 0.5)
    agg = author_aggregate(corpus, "a001")
    curves = export_citation_curves(agg)
    text = format_table(("rank", "g", "f"), zip(range(1, len(curves.g) + 1), curves.g, curves.f))
    lines = text.splitlines()
    assert lines[0] == "rank,g,f"
    assert len(lines) == agg.cd + 1
    first_rank, g_value, f_value = lines[1].split(",")
    assert first_rank == "1"
    assert int(g_value) == max(item.citations_received for item in agg.per_paper)
    assert int(g_value) >= int(f_value)


def test_citation_curves_area_identity():
    corpus = generate_synthetic_corpus(11, 90, 10, 0.7)
    agg = author_aggregate(corpus, "a003")
    curves = export_citation_curves(agg)
    assert sum(curves.g) == agg.c
    assert sum(curves.f) == agg.c - agg.sc


def test_citation_curves_need_papers():
    corpus = generate_synthetic_corpus(3, 10, 4, 0.0)
    agg = author_aggregate(corpus, "a001")
    empty = type(agg)(
        entity_id="hollow",
        cd=0,
        c=0,
        sc=0,
        h=0,
        h_star=0,
        per_paper=(),
    )
    with pytest.raises(DomainError):
        export_citation_curves(empty)


# ---------------------------------------------------------------------------
# table rendering
# ---------------------------------------------------------------------------

def test_render_table_csv_exact_bytes():
    rows = [
        make_row("Huang, Thomas", 784, 8956, 650, 44, h_star=43),
        make_row("plain", 10, 100, 20, 5),
    ]
    text = render_table(rank(rows, "v_index"), "csv")
    lines = text.splitlines()
    assert lines[0] == ",".join(TABLE_COLUMNS)
    assert lines[1] == '"Huang, Thomas",784,1,8956,650,11.423,44,1,43,0.927,10.594,42.373,1,0.963'
    assert lines[2] == "plain,10,2,100,20,10.000,5,2,,0.800,8.000,4.472,2,0.894"
    assert text.endswith("\n")


def test_render_table_markdown():
    rows = [make_row("solo", 4, 9, 3, 2, h_star=1)]
    text = render_table(rank(rows, "v_index"), "markdown")
    lines = text.splitlines()
    assert lines[0] == "| " + " | ".join(TABLE_COLUMNS) + " |"
    assert set(lines[1].replace("|", "").split()) == {"---"}
    assert lines[2].startswith("| solo | 4 | 1 | 9 | 3 |")
    assert " 1 " in lines[2]


def test_render_table_escapes_pipes_in_markdown():
    rows = [make_row("weird|name", 2, 4, 0, 1)]
    text = render_table(rank(rows, "v_index"), "markdown")
    assert "weird\\|name" in text


def test_render_table_unknown_format():
    rows = [make_row("a", 1, 1, 0, 1)]
    with pytest.raises(DomainError):
        render_table(rank(rows, "v_index"), "html")


def test_format_table_csv_and_markdown():
    header = ("name", "n")
    rows = [("a|b", "1"), ("x, y", "2")]
    assert format_table(header, rows, "csv") == 'name,n\na|b,1\n"x, y",2\n'
    assert format_table(header, rows, "markdown") == (
        "| name | n |\n| --- | --- |\n| a\\|b | 1 |\n| x, y | 2 |\n"
    )
    with pytest.raises(DomainError):
        format_table(header, rows, "html")


def test_format_table_csv_matches_a_per_cell_rfc_4180_writer():
    rng = random.Random(4180)
    alphabet = ["a", ",", '"', "\r", "\n", " "]

    def text() -> str:
        return "".join(rng.choice(alphabet) for _ in range(rng.choice((0, 0, 1, 2, 3, 5))))

    for _ in range(3000):
        width = rng.randint(0, 3)
        header = [text() for _ in range(width)]
        rows = [
            [rng.randint(-10, 10**6) if rng.random() < 0.2 else text() for _ in range(width)]
            for _ in range(rng.randint(0, 4))
        ]
        assert format_table(header, rows) == csv_reference([header, *rows]), (header, rows)


@pytest.mark.parametrize(
    "header, rows",
    [(("a\0", "b"), [("x", 1)]), (("a", "b"), [("x", 1), ("y", "\0")]), (("a",), [(",\0\n",)])],
    ids=["header", "row", "quoted"],
)
def test_format_table_csv_refuses_nul_on_every_version(header, rows):
    with pytest.raises(DomainError, match="^a CSV table cannot hold NUL$"):
        format_table(header, rows)


def test_format_table_csv_does_not_call_a_bad_row_nul():
    # Only a cell holding NUL is refused as NUL; csv.writer's own error for
    # a row that is not a sequence reaches the caller as it is.
    with pytest.raises(csv.Error, match="^iterable expected, not int$"):
        format_table(("h",), [5])


def test_format_table_markdown_writes_line_breaks_as_br():
    header = ("name", "n")
    rows = [("crlf\r\nin", "1"), ("cr\rlf\n|", "2\n"), ("plain", "3")]
    assert format_table(header, rows, "markdown") == (
        "| name | n |\n| --- | --- |\n| crlf<br>in | 1 |\n"
        "| cr<br>lf<br>\\| | 2<br> |\n| plain | 3 |\n"
    )


def test_render_table_is_deterministic():
    rows = [make_row(f"e{i}", 5 + i, 50 + i, i, 3) for i in range(8)]
    first = render_table(rank(rows, "v_index"), "csv")
    second = render_table(rank(list(reversed(rows)), "v_index"), "csv")
    assert first == second
