"""Unit tests for the closed-form metric layer."""

from __future__ import annotations

import copy
import math
import pickle
import random

import pytest

from vindex.errors import DomainError
from vindex.metrics import (
    CitationCounts,
    WeightFunction,
    h_index,
    metrics_row,
)

from oracles import brute_h


# ---------------------------------------------------------------------------
# h-index
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "counts, expected",
    [
        ([], 0),
        ([0], 0),
        ([1], 1),
        ([2], 1),
        ([0, 0, 0], 0),
        ([10, 8, 5, 4, 3], 4),
        ([5, 5, 5, 5, 5], 5),
        ([5, 5, 5, 5, 5, 5], 5),
        ([100], 1),
        ([3, 3, 3], 3),
        ([25, 8, 5, 3, 3, 3, 2, 1, 1, 0], 3),
        ([1] * 50, 1),
        ([9, 7, 6, 2, 1], 3),
    ],
)
def test_h_index_known_values(counts, expected):
    assert h_index(counts) == expected


def test_h_index_order_independent():
    counts = [4, 0, 9, 2, 7, 1, 1, 5]
    shuffled = counts[:]
    random.Random(5).shuffle(shuffled)
    assert h_index(counts) == h_index(shuffled)


def test_h_index_agrees_with_brute_force():
    rng = random.Random(1234)
    for _ in range(300):
        n = rng.randint(0, 40)
        counts = [rng.randint(0, 30) for _ in range(n)]
        assert h_index(counts) == brute_h(counts)


def test_h_index_accepts_any_iterable():
    assert h_index(c for c in (3, 1, 4, 1, 5)) == 3


# ---------------------------------------------------------------------------
# virtuosity rate and the v-index
# ---------------------------------------------------------------------------

def _row(c, sc, cd, h=0):
    counts = CitationCounts(citations_total=c, self_citations=sc, citable_documents=cd, h_index=h)
    return metrics_row("e", counts)


@pytest.mark.parametrize(
    "c, sc, expected",
    [
        (100, 20, 0.8),
        (100, 0, 1.0),
        (100, 100, 0.0),
        (0, 0, 1.0),
        (3, 1, 2 / 3),
        (8956, 650, (8956 - 650) / 8956),
    ],
)
def test_v_rate_values(c, sc, expected):
    assert _row(c, sc, 1).v_rate == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize(
    "c, sc, message",
    [
        (-1, 0, "citations_total must be >= 0, got -1"),
        (5, -1, "self_citations must be >= 0, got -1"),
        (5, 6, r"self_citations \(6\) exceed citations_total \(5\)"),
        (0, 1, r"self_citations \(1\) exceed citations_total \(0\)"),
    ],
    ids=["-1-0", "5--1", "5-6", "0-1"],
)
def test_v_rate_rejects_bad_counts(c, sc, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        _row(c, sc, 1)


def test_v_index_worked_example():
    # 20% self-citations discount h = 10 by sqrt(0.8) to about 8.944
    assert _row(100, 20, 10, 10).v_index == pytest.approx(10 * math.sqrt(0.8), rel=1e-15)


def test_v_index_no_self_citations_keeps_h():
    for h in (0, 1, 7, 44):
        assert _row(500, 0, max(h, 1), h).v_index == float(h)


def test_v_index_zero_citations_keeps_h():
    assert _row(0, 0, 12, 12).v_index == 12.0


def test_v_index_rejects_negative_h():
    with pytest.raises(DomainError, match=r"^h_index must be >= 0, got -1$"):
        _row(10, 0, 1, -1)


def test_ratio_square_recovers_rate():
    rng = random.Random(77)
    for _ in range(500):
        c = rng.randint(1, 100000)
        sc = rng.randint(0, c)
        h = rng.randint(1, max(1, math.isqrt(c)))
        row = _row(c, sc, h, h)
        assert (row.v_index / h) ** 2 == pytest.approx(row.v_rate, rel=1e-12)


# ---------------------------------------------------------------------------
# weight family
# ---------------------------------------------------------------------------

def test_sqrt_weight_matches_canonical_value():
    assert WeightFunction("sqrt")(0.8) == pytest.approx(0.894427, abs=5e-7)


def test_concave_cube_root_example():
    # the cube root of 0.512 is exactly 0.8
    assert WeightFunction("power_concave", 3)(0.512) == pytest.approx(0.8, rel=1e-15)


def test_convex_cube_example():
    assert WeightFunction("power_convex", 3)(0.8) == pytest.approx(0.512, rel=1e-15)


def test_unity_weight_recovers_h():
    unity = WeightFunction("unity")
    for rate in (0.0, 0.25, 1.0):
        assert unity(rate) * 17 == 17.0


def test_linear_weight_is_identity():
    linear = WeightFunction("linear")
    for rate in (0.0, 0.3, 0.999, 1.0):
        assert linear(rate) == rate


@pytest.mark.parametrize(
    "spec, expected",
    [
        ("sqrt", WeightFunction("sqrt")),
        ("unity", WeightFunction("unity")),
        ("linear", WeightFunction("linear")),
        ("x^2", WeightFunction("power_convex", 2)),
        ("x^17", WeightFunction("power_convex", 17)),
        ("x^(1/2)", WeightFunction("power_concave", 2)),
        ("x^(1/5)", WeightFunction("power_concave", 5)),
        ("  SQRT  ", WeightFunction("sqrt")),
        ("X^3", WeightFunction("power_convex", 3)),
    ],
)
def test_weight_parse(spec, expected):
    assert WeightFunction.parse(spec) == expected


@pytest.mark.parametrize(
    "spec",
    [
        "", "cube", "x^", "x^0", "x^1", "x^(1/1)", "x^(1/0)", "x^-2", "x^2.5", "x^(2/3)", "sqrt(x)",
        # digits of other scripts: Arabic-Indic three, fullwidth three
        "x^\u0663", "x^\uff13", "x^(1/\u0663)",
        # 309 digits and more
        "x^1" + "0" * 308, "x^(1/1" + "0" * 308 + ")", "x^" + "9" * 5000,
    ],
)
def test_weight_parse_rejects(spec):
    with pytest.raises(DomainError):
        WeightFunction.parse(spec)


def test_weight_parse_refuses_a_long_exponent_before_reading_it():
    spec = "x^1" + "0" * 400
    with pytest.raises(DomainError, match=r"^weight spec 'x\^10+': exponent too large$"):
        WeightFunction.parse(spec)


def test_weight_parse_takes_an_exponent_of_308_digits():
    n = 10**308 - 1
    assert WeightFunction.parse(f"x^{n}") == WeightFunction("power_convex", n)
    assert WeightFunction.parse(f"x^(1/{n})") == WeightFunction("power_concave", n)
    assert WeightFunction("power_convex", n)(0.5) == 0.0
    assert WeightFunction("power_concave", n)(0.5) == 1.0


@pytest.mark.parametrize("exponent", [1, 0, -3, 2.0, True, 10**308])
def test_power_weights_need_integer_exponent_at_least_two(exponent):
    with pytest.raises(DomainError):
        WeightFunction("power_concave", exponent)
    with pytest.raises(DomainError):
        WeightFunction("power_convex", exponent)


@pytest.mark.parametrize(
    "args, message",
    [(("cube",), "unknown weight kind 'cube'"), (("sqrt", 2), "'sqrt' takes no exponent")],
)
def test_weight_rejects_unknown_kind_and_stray_exponent(args, message):
    with pytest.raises(DomainError, match=message):
        WeightFunction(*args)


@pytest.mark.parametrize("x", [-0.1, 1.1, float("nan"), float("inf")])
def test_weight_rejects_out_of_range_argument(x):
    with pytest.raises(DomainError):
        WeightFunction("sqrt")(x)


def test_all_weights_fix_one():
    weights = [
        WeightFunction("sqrt"),
        WeightFunction("unity"),
        WeightFunction("linear"),
        WeightFunction("power_concave", 2),
        WeightFunction("power_concave", 9),
        WeightFunction("power_convex", 2),
        WeightFunction("power_convex", 9),
    ]
    for weight in weights:
        assert weight(1.0) == 1.0


def test_sqrt_weight_between_linear_and_concave():
    # on (0, 1) the discount ordering is x < sqrt(x) < x^(1/3) < 1
    linear = WeightFunction("linear")
    root = WeightFunction("sqrt")
    cube_root = WeightFunction("power_concave", 3)
    for i in range(1, 100):
        x = i / 100
        assert linear(x) < root(x) < cube_root(x) < 1.0


# ---------------------------------------------------------------------------
# per-publication averages and row assembly
# ---------------------------------------------------------------------------

def test_citations_per_publication():
    assert _row(8956, 650, 784).c_p == 8956 / 784
    assert _row(0, 0, 5).c_p == 0.0


def test_adjusted_citations_per_publication():
    assert _row(8956, 650, 784).v_p == 8306 / 784
    assert _row(10, 10, 5).v_p == 0.0


def test_per_publication_requires_documents():
    with pytest.raises(DomainError, match=r"^citable_documents must be >= 1, got 0$"):
        _row(10, 2, 0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(citations_total=-1, self_citations=0, citable_documents=1, h_index=0),
        dict(citations_total=5, self_citations=-1, citable_documents=1, h_index=1),
        dict(citations_total=5, self_citations=6, citable_documents=1, h_index=1),
        dict(citations_total=5, self_citations=0, citable_documents=-1, h_index=0),
        dict(citations_total=5, self_citations=0, citable_documents=2, h_index=3),
        dict(citations_total=5.0, self_citations=0, citable_documents=2, h_index=1),
        dict(citations_total=5, self_citations=True, citable_documents=2, h_index=1),
        dict(citations_total=5, self_citations=0, citable_documents=2, h_index=-1),
    ],
)
def test_citation_counts_validation(kwargs):
    with pytest.raises(DomainError):
        CitationCounts(**kwargs)


@pytest.mark.parametrize(
    "valid, change",
    [
        (CitationCounts(5, 0, 2, 1), dict(citations_total=-1)),
        (CitationCounts(5, 0, 2, 1), dict(self_citations=6)),
        (CitationCounts(5, 0, 2, 1), dict(h_index=3)),
        (CitationCounts(5, 0, 2, 1), dict(citations_total=5.0)),
        (WeightFunction("sqrt"), dict(kind="cube")),
        (WeightFunction("sqrt"), dict(exponent=2)),
        (WeightFunction("power_convex", 2), dict(exponent=1)),
    ],
)
def test_replace_and_make_check_as_the_constructor_does(valid, change):
    values = {**valid._asdict(), **change}
    with pytest.raises(DomainError) as built:
        type(valid)(**values)
    with pytest.raises(DomainError) as replaced:
        valid._replace(**change)
    with pytest.raises(DomainError) as made:
        type(valid)._make(values.values())
    assert str(replaced.value) == str(made.value) == str(built.value)


@pytest.mark.parametrize(
    "value",
    [CitationCounts(5, 1, 3, 2), WeightFunction("sqrt"), WeightFunction("power_concave", 3)],
)
def test_checked_records_round_trip_through_pickle_and_copy(value):
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value
    with pytest.raises(AttributeError):
        value.kind = "unity"
    assert not hasattr(value, "__dict__")


def test_metrics_row_assembles_everything():
    counts = CitationCounts(
        citations_total=100, self_citations=20, citable_documents=25, h_index=5
    )
    row = metrics_row("someone", counts)
    assert row.entity_id == "someone"
    assert row.v_rate == pytest.approx(0.8)
    assert row.c_p == pytest.approx(4.0)
    assert row.v_p == pytest.approx(3.2)
    assert row.v_index == pytest.approx(5 * math.sqrt(0.8), rel=1e-15)
    assert row.ratio == pytest.approx(math.sqrt(0.8), rel=1e-15)
    assert row.h_star is None
    # the two per-publication averages always satisfy v_p = c_p * v_rate
    assert row.v_p == pytest.approx(row.c_p * row.v_rate, rel=1e-12)


def test_metrics_row_with_zero_h_has_unit_ratio():
    counts = CitationCounts(
        citations_total=0, self_citations=0, citable_documents=3, h_index=0
    )
    row = metrics_row("quiet", counts)
    assert row.v_index == 0.0
    assert row.ratio == 1.0
    assert row.v_rate == 1.0


def test_metrics_row_honors_weight_choice():
    counts = CitationCounts(
        citations_total=100, self_citations=50, citable_documents=30, h_index=8
    )
    plain = metrics_row("e", counts, WeightFunction("unity"))
    harsh = metrics_row("e", counts, WeightFunction("power_convex", 3))
    assert plain.v_index == 8.0
    assert harsh.v_index == pytest.approx(8 * 0.5**3, rel=1e-12)
    assert harsh.ratio == pytest.approx(0.125, rel=1e-12)


def test_metrics_row_carries_h_star():
    counts = CitationCounts(
        citations_total=100, self_citations=20, citable_documents=25, h_index=5
    )
    row = metrics_row("someone", counts, h_star=4)
    assert row.h_star == 4
    assert row == metrics_row("someone", counts)._replace(h_star=4)


def test_metrics_row_requires_documents():
    with pytest.raises(DomainError, match=r"^citable_documents must be >= 1, got 0$"):
        CitationCounts(citations_total=0, self_citations=0, citable_documents=0, h_index=0)
