"""Rankings, correlation, descriptive statistics, and table rendering.

This layer never touches raw counts; it consumes finished metric rows and
entity aggregates. Numerics run at full double precision throughout, with
rounding applied only at the rendering boundary: three decimals, ties away
from zero.

Off the CLI path, ``pearson``, ``batch_stats`` and ``export_citation_curves``
are read by ``demos/author_rankings.py``, ``demos/synthetic_pipeline.py`` and
the ``bench/run.py`` library session (``analysis_s``); a test pins its names.
"""

from __future__ import annotations

import csv
import io
import math
from typing import TYPE_CHECKING, Iterable, Literal, NamedTuple, Sequence

from .errors import DomainError
from .metrics import MetricsRow

if TYPE_CHECKING:
    from .graph import EntityAggregate

SortKey = Literal["v_index", "h_index", "cd"]
TableFormat = Literal["csv", "markdown"]

TABLE_COLUMNS = (
    "entity_id",
    "CD",
    "pos_cd",
    "C",
    "SC",
    "C_P",
    "h",
    "pos_h",
    "h_star",
    "V_rate",
    "V_P",
    "V_index",
    "pos_v",
    "ratio",
)

__all__ = [
    "SortKey",
    "TableFormat",
    "TABLE_COLUMNS",
    "RankedRow",
    "RankedTable",
    "CorrelationResult",
    "BatchStats",
    "CitationCurves",
    "rank",
    "pearson",
    "batch_stats",
    "export_citation_curves",
    "format_table",
    "render_table",
    "fmt3",
]


# ---------------------------------------------------------------------------
# display rounding
# ---------------------------------------------------------------------------

def fmt3(value: float) -> str:
    """Format a real with exactly three decimals, ties away from zero.

    The decimals are those of the value's shortest repr, rounded half up.
    A float strictly between -1e9 and 1e9 that is not near a tie takes
    printf instead, which rounds the binary value itself, and gets the same
    string. Below 1e9, half an ulp is under 6e-8, so in units of 0.001 the
    binary value and its repr differ by at most 6e-5, and the rounded
    product ``value * 1000.0`` is within 6.1e-5 of the exact one. So when
    that product's fractional part is more than 1e-3 from one half, no
    rounding boundary lies between the binary value and its repr, and both
    round to the same three decimals. Everything else (near-ties, larger
    magnitudes, ints, Decimals) is rounded through ``Decimal``, in a context
    with room for every digit of the result, so exact at every magnitude.
    nan and infinities have no such rounding, and a value that ``Decimal``
    cannot read (a bool) or hold once rounded (a magnitude past the default
    exponent range) has none either: all raise DomainError.
    """
    if type(value) is float and -1e9 < value < 1e9 and abs((value * 1000.0) % 1.0 - 0.5) > 1e-3:
        return f"{value:.3f}"
    from decimal import ROUND_HALF_UP, Context, Decimal, InvalidOperation
    try:
        exact = Decimal(str(value))
        if exact.is_finite():
            digits = Context(prec=max(exact.adjusted(), 0) + 5)
            return str(exact.quantize(Decimal("0.001"), rounding=ROUND_HALF_UP, context=digits))
    except InvalidOperation:
        pass
    raise DomainError(f"cannot round {value!r} to three decimals")


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------

class RankedRow(NamedTuple):
    """A metrics row with its 1-based position under each ranking criterion."""

    row: MetricsRow
    rank_by_cd: int
    rank_by_h: int
    rank_by_v: int


class RankedTable(NamedTuple):
    """Rows ordered by one criterion, carrying positions under all three."""

    rows: tuple[RankedRow, ...]


_SORT_KEYS = ("v_index", "h_index", "cd")


def _positions(order: list[int]) -> list[int]:
    """The 1-based position of each index in ``order``."""
    slots = [0] * len(order)
    for pos, index in enumerate(order, start=1):
        slots[index] = pos
    return slots


def rank(rows: Sequence[MetricsRow], key: SortKey = "v_index") -> RankedTable:
    """Rank rows under all three criteria and order the table by ``key``.

    Positions are 1-based and unique. Ties resolve deterministically in
    favor of the higher h-index, then more citable documents, then the
    lexicographically smaller entity id, so equal inputs always produce
    identical tables. An empty batch gives an empty table.
    """
    if key not in _SORT_KEYS:
        raise DomainError(f"unknown sort key {key!r}")
    # Positions are keyed by index in ``rows``, so a row object passed twice
    # still gets two distinct positions. The tie-break order is itself the h
    # order; a stable sort of it on CD alone or on v alone gives the others,
    # with equal rows keeping their input order throughout.
    neg_cd = [-row.counts.citable_documents for row in rows]
    tie_break = [(-row.counts.h_index, cd, row.entity_id) for row, cd in zip(rows, neg_cd)]
    by_h = sorted(range(len(rows)), key=tie_break.__getitem__)
    by_cd = sorted(by_h, key=neg_cd.__getitem__)
    by_v = sorted(by_h, key=[-row.v_index for row in rows].__getitem__)
    pos_cd, pos_h, pos_v = _positions(by_cd), _positions(by_h), _positions(by_v)
    order = dict(zip(_SORT_KEYS, (by_v, by_h, by_cd)))[key]
    ranked = tuple(
        [RankedRow(rows[index], pos_cd[index], pos_h[index], pos_v[index]) for index in order]
    )
    return RankedTable(ranked)


# ---------------------------------------------------------------------------
# correlation and batch statistics
# ---------------------------------------------------------------------------

class CorrelationResult(NamedTuple):
    rho: float
    p_value: float


def pearson(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Pearson correlation with a two-sided significance level.

    rho is the sample covariance normalized by both standard deviations.
    The p-value is exact under the usual normality assumption: with
    t = rho * sqrt((n - 2) / (1 - rho^2)) and nu = n - 2 degrees of
    freedom, the two-sided tail of Student's t is the regularized
    incomplete beta I(nu/2, 1/2) evaluated at nu / (nu + t^2).
    """
    if len(x) != len(y):
        raise DomainError(f"series length mismatch: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 3:
        raise DomainError(f"need at least 3 paired observations, got {n}")
    x_mean = math.fsum(x) / n
    y_mean = math.fsum(y) / n
    xd = [value - x_mean for value in x]
    yd = [value - y_mean for value in y]
    sxx = math.fsum(value * value for value in xd)
    syy = math.fsum(value * value for value in yd)
    if sxx == 0.0 or syy == 0.0:
        raise DomainError("correlation is undefined when a series is constant")
    rho = math.fsum(a * b for a, b in zip(xd, yd)) / math.sqrt(sxx * syy)
    rho = max(-1.0, min(1.0, rho))
    dof = n - 2
    if abs(rho) == 1.0:
        # The t statistic diverges; the smallest positive double keeps the
        # p-value inside (0, 1].
        p_value = math.nextafter(0.0, 1.0)
    else:
        t_squared = rho * rho * dof / (1.0 - rho * rho)
        p_value = _betainc(dof / 2.0, 0.5, dof / (dof + t_squared))
        if p_value <= 0.0:
            p_value = math.nextafter(0.0, 1.0)
        p_value = min(p_value, 1.0)
    return CorrelationResult(rho, p_value)


_TINY = 1e-300


def _log_gamma_ratio(small: float, large: float) -> float:
    """log(Gamma(large) / Gamma(large + small)).

    For large arguments two ``lgamma`` values of ~1e5 would cancel and
    lose about 1e-10 of relative accuracy, so the difference is taken
    term by term from Stirling's series instead.
    """
    total = large + small
    if large < 100.0:
        return math.lgamma(large) - math.lgamma(total)

    def correction(z: float) -> float:
        # lgamma(z) - [(z - 1/2) log z - z + log(2 pi) / 2]; the next term
        # is below 1e-20 for z >= 100.
        w = 1.0 / (z * z)
        return (1.0 / 12.0 - w * (1.0 / 360.0 - w * (1.0 / 1260.0 - w / 1680.0))) / z

    return (
        -(total - 0.5) * math.log1p(small / large)
        - small * math.log(large)
        + small
        + correction(large)
        - correction(total)
    )


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b), for a, b > 0 and 0 <= x <= 1.

    Evaluates the continued fraction for I_x(a, b) (Abramowitz & Stegun
    26.5.8) by the modified Lentz method (Numerical Recipes, section 6.4).
    The fraction converges fast for x < (a + 1) / (a + b + 2); above that
    I_x(a, b) = 1 - I_{1-x}(b, a) is used instead. Accurate to about 1e-12
    relative when one of a, b is at most ~1, which covers the p-values of
    ``pearson`` (b = 1/2); the tests check n = 3 to 100000 against scipy.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    small, large = min(a, b), max(a, b)
    log_front = (
        a * math.log(x)
        + b * math.log1p(-x)
        - math.lgamma(small)
        - _log_gamma_ratio(small, large)
    )
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    fraction = d
    for m in range(1, 10_000):
        even = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        for numerator in (even, odd):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + numerator / c
            c = c if abs(c) > _TINY else _TINY
            fraction *= c * d
        if abs(c * d - 1.0) <= 2.0**-52:
            break
    return math.exp(log_front) * fraction / a


class BatchStats(NamedTuple):
    mean: float
    median: float
    std_dev: float
    min: float
    max: float


def batch_stats(values: Sequence[float]) -> BatchStats:
    """Mean, median, sample standard deviation (n - 1), min, and max.

    The mean and median are those of ``statistics.fmean`` and ``median``.
    A single observation has no dispersion, so its std_dev is 0.0.
    """
    import statistics  # with fractions, which only callers of this need
    if len(values) == 0:
        raise DomainError("cannot summarize an empty batch")
    data = [float(value) for value in values]
    n = len(data)
    mean = statistics.fmean(data)
    std_dev = 0.0
    if n > 1:
        # statistics.stdev differs from fsum in the last bit, and by version.
        std_dev = math.sqrt(math.fsum((value - mean) ** 2 for value in data) / (n - 1))
    return BatchStats(mean, statistics.median(data), std_dev, min(data), max(data))


# ---------------------------------------------------------------------------
# citation curves
# ---------------------------------------------------------------------------

class CitationCurves(NamedTuple):
    """Plot-ready rank-frequency curves for one entity.

    ``g`` holds per-paper citation counts sorted descending; ``f`` holds the
    counts with self-citations removed, sorted descending independently. The
    area under g is C, the area under f is C - SC, and the intersection of
    each curve with the diagonal is the corresponding h-index.
    """

    g: tuple[int, ...]
    f: tuple[int, ...]


def export_citation_curves(aggregate: EntityAggregate) -> CitationCurves:
    """Build both citation curves from an entity's per-paper counts."""
    if not aggregate.per_paper:
        raise DomainError(f"entity {aggregate.entity_id!r} has no papers to chart")
    g = sorted((item.citations_received for item in aggregate.per_paper), reverse=True)
    f = sorted(
        (item.citations_received - item.self_citations_received for item in aggregate.per_paper),
        reverse=True,
    )
    return CitationCurves(g=tuple(g), f=tuple(f))


# ---------------------------------------------------------------------------
# table rendering
# ---------------------------------------------------------------------------

def _table_cells(ranked: RankedRow) -> list[str]:
    row = ranked.row
    counts = row.counts
    return [
        row.entity_id,
        str(counts.citable_documents),
        str(ranked.rank_by_cd),
        str(counts.citations_total),
        str(counts.self_citations),
        fmt3(row.c_p),
        str(counts.h_index),
        str(ranked.rank_by_h),
        "" if row.h_star is None else str(row.h_star),
        fmt3(row.v_rate),
        fmt3(row.v_p),
        fmt3(row.v_index),
        str(ranked.rank_by_v),
        fmt3(row.ratio),
    ]


def format_table(
    header: Sequence[str], rows: Iterable[Sequence[str | int]], format: TableFormat = "csv"
) -> str:
    """Write a header and rows of string cells as CSV or a Markdown pipe table.

    CSV also takes int cells, written as ``str`` writes them, quotes as RFC
    4180 needs, a cell holding a CR or LF included, ends every line with a
    bare newline, and refuses NUL; Markdown escapes pipes inside body cells
    and writes each line break in a cell (CRLF, CR or LF) as ``<br>``, so
    every row stays on one line.
    """
    if format == "csv":
        # Before Python 3.13 the writer quotes a cell holding a bare CR only
        # when the line terminator holds one, so rows are written ending in
        # CRLF. Every other CR or LF is then inside quotes, so the CRLFs in
        # the even parts of a split at '"' are the row ends, cut to LF; the
        # bytes are 3.13's on every version.
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\r\n")
        try:
            writer.writerow(header)
            writer.writerows(rows)
        except csv.Error:  # 3.10's one refusal of a str or int cell: NUL
            out.write("\0")
        text = out.getvalue()
        if "\0" in text:
            raise DomainError("a CSV table cannot hold NUL")
        parts = text.split('"')
        parts[::2] = [part.replace("\r\n", "\n") for part in parts[::2]]
        return '"'.join(parts)
    if format == "markdown":
        lines = [
            "| " + " | ".join(header) + " |",
            "| " + " | ".join("---" for _ in header) + " |",
        ]
        for cells in rows:
            line = "| " + " | ".join([cell.replace("|", "\\|") for cell in cells]) + " |"
            # No separator holds a line break, so the whole line is rewritten.
            lines.append(line.replace("\r\n", "<br>").replace("\r", "<br>").replace("\n", "<br>"))
        return "\n".join(lines) + "\n"
    raise DomainError(f"unknown table format {format!r}")


def render_table(table: RankedTable, format: TableFormat = "csv") -> str:
    """Render a ranked table as CSV or a Markdown pipe table.

    The column order is fixed, reals carry exactly three decimals, and a
    missing h* leaves its cell empty. Equal tables render to identical
    bytes.
    """
    return format_table(TABLE_COLUMNS, (_table_cells(ranked) for ranked in table.rows), format)
