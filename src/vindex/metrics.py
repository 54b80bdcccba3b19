"""Self-citation-aware impact metrics.

The central quantity is the virtuosity rate, the fraction of an entity's
citations that come from outside the entity itself. The v-index discounts
the h-index by the square root of that rate: removing a fraction k of a
power-law record's citations uniformly shrinks its h-index by sqrt(1 - k),
so h * sqrt((C - SC) / C) estimates h without self-citations. A small
closed family of alternative discount weights serves sensitivity analysis.

Everything here is a pure function of its arguments: no I/O, no shared
state. Counts are exact integers; derived metrics are IEEE doubles and
rounding for display is left to the renderer.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, NamedTuple

from .errors import DomainError

__all__ = [
    "CitationCounts",
    "WeightFunction",
    "MetricsRow",
    "h_index",
    "metrics_row",
]


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------

class _CountFields(NamedTuple):
    citations_total: int
    self_citations: int
    citable_documents: int
    h_index: int


class CitationCounts(_CountFields):
    """Aggregate citation statistics for one author, venue, or country.

    ``citations_total`` (C) counts every citation received, ``self_citations``
    (SC) the subset coming from the entity itself, ``citable_documents`` (CD)
    the publications able to receive citations, and ``h_index`` the h-index
    observed over all citations, self-citations included.
    """

    __slots__ = ()

    def __new__(
        cls, citations_total: int, self_citations: int, citable_documents: int, h_index: int
    ) -> CitationCounts:
        self = tuple.__new__(cls, (citations_total, self_citations, citable_documents, h_index))
        c, sc, cd, h = self
        # Exact ints that hold every invariant pass at once; anything else,
        # int subclasses included, takes the field walk, which words the error.
        if type(c) is type(sc) is type(cd) is type(h) is int and 0 <= sc <= c and 0 <= h <= cd > 0:
            return self
        for name, value in zip(self._fields, self):
            if isinstance(value, bool) or not isinstance(value, int):
                raise DomainError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise DomainError(f"{name} must be >= 0, got {value}")
        if sc > c:
            raise DomainError(f"self_citations ({sc}) exceed citations_total ({c})")
        if h > cd:
            raise DomainError(f"h_index ({h}) exceeds citable_documents ({cd})")
        if cd == 0:
            raise DomainError("citable_documents must be >= 1, got 0")
        return self

    # ``_replace`` builds through ``_make``, so it checks as the constructor does.
    _make = classmethod(lambda cls, values: cls(*values))


# Each named kind is its own spec and maps to its f.
_NAMED_WEIGHTS = {"sqrt": math.sqrt, "unity": lambda x: 1.0, "linear": float}
_POWER_KINDS = ("power_concave", "power_convex")
_POWER_PATTERN = re.compile(r"x\^(?:([0-9]+)|\(1/([0-9]+)\))")
# Exponents below this convert to float, so 1/N and x**N are floats; the
# 308 digits ``parse`` reads always stay below it.
_MAX_EXPONENT = 10**308


class _WeightFields(NamedTuple):
    kind: str
    exponent: int | None


class WeightFunction(_WeightFields):
    """A discount weight f mapping [0, 1] into [0, 1].

    The family is closed by construction: the canonical square root, the
    constant 1 (which recovers the plain h-index), the identity, and the
    integer power laws x^(1/n) (concave, milder than sqrt for n > 2) and
    x^n (convex, harsher than the identity) with 2 <= n < 10**308. Every
    member is non-decreasing and fixes f(1) = 1, so a clean record is never
    penalized.
    """

    __slots__ = ()

    def __new__(cls, kind: str, exponent: int | None = None) -> WeightFunction:
        if kind in _POWER_KINDS:
            exp = exponent
            if isinstance(exp, bool) or not isinstance(exp, int) or not 2 <= exp < _MAX_EXPONENT:
                raise DomainError("power weights need an integer exponent >= 2 and < 10**308")
        elif kind not in _NAMED_WEIGHTS:
            raise DomainError(f"unknown weight kind {kind!r}")
        elif exponent is not None:
            raise DomainError(f"weight kind {kind!r} takes no exponent")
        return tuple.__new__(cls, (kind, exponent))

    # ``_replace`` builds through ``_make``, so it checks as the constructor does.
    _make = classmethod(lambda cls, values: cls(*values))

    @classmethod
    def parse(cls, spec: str) -> WeightFunction:
        """Parse a weight spec string.

        Accepted forms: "sqrt", "unity", "linear", "x^N" and "x^(1/N)" with
        N >= 2 written in at most 308 ASCII digits, in any letter case, and
        with any whitespace before or after the form, which is dropped.
        Anything else, such as whitespace inside the form, raises DomainError.
        """
        text = spec.strip().lower()
        if text in _NAMED_WEIGHTS:
            return cls(text)
        match = _POWER_PATTERN.fullmatch(text)
        if match is None:
            raise DomainError(
                f"unrecognized weight spec {spec!r}; expected 'sqrt', 'unity', "
                "'linear', 'x^N' or 'x^(1/N)' with integer N >= 2"
            )
        convex, concave = match.groups()
        digits = convex or concave
        # Checked before ``int``, which refuses more than 4300 digits.
        if len(digits) > 308:
            raise DomainError(f"weight spec {spec!r}: exponent too large")
        n = int(digits)
        if n < 2:
            raise DomainError(f"weight spec {spec!r}: exponent must be >= 2 (use 'linear' for 1)")
        return cls("power_convex" if convex else "power_concave", n)

    def __call__(self, x: float) -> float:
        if not 0.0 <= x <= 1.0:
            raise DomainError(f"weight argument must lie in [0, 1], got {x!r}")
        if self.kind == "power_concave":
            return float(x) ** (1.0 / self.exponent)
        if self.kind == "power_convex":
            return float(x) ** self.exponent
        return _NAMED_WEIGHTS[self.kind](x)


class MetricsRow(NamedTuple):
    """Every derived metric for one entity, ready for ranking and rendering.

    ``h_star`` is the h-index recomputed after dropping self-citations from
    each paper's count. It needs a full citation graph, so rows built from
    pre-aggregated statistics leave it None.
    """

    entity_id: str
    counts: CitationCounts
    v_rate: float
    c_p: float
    v_p: float
    v_index: float
    ratio: float
    h_star: int | None = None


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def h_index(citations_per_paper: Iterable[int]) -> int:
    """Largest h such that at least h papers have h or more citations each.

    The empty collection yields 0.
    """
    counts = sorted(citations_per_paper, reverse=True)
    h = 0
    for position, received in enumerate(counts, start=1):
        if received >= position:
            h = position
        else:
            break
    return h


_DEFAULT_WEIGHT = WeightFunction("sqrt")


def metrics_row(
    entity_id: str,
    counts: CitationCounts,
    weight: WeightFunction = _DEFAULT_WEIGHT,
    h_star: int | None = None,
) -> MetricsRow:
    """Assemble the full metric set for one entity from its aggregate counts.

    The ratio column is v_index / h, a direct read of how much the discount
    cost the entity; h = 0 leaves nothing to discount, so the ratio is 1
    there. ``h_star`` cannot be derived from aggregate counts: pipelines
    that own the citation graph pass it in, and it is None otherwise.

    V_rate is (C - SC) / C, or 1 when nobody has cited the entity (C = 0).
    V_index is ``weight(rate) * h``, C/P is C / CD and V/P is (C - SC) / CD.
    Valid ``CitationCounts`` (0 <= SC <= C, 0 <= h <= CD, CD >= 1) raise
    nothing here, apart from OverflowError for counts past the float range.
    """
    c, sc = counts.citations_total, counts.self_citations
    cd, h = counts.citable_documents, counts.h_index
    rate = 1.0 if c == 0 else (c - sc) / c
    index = weight(rate) * h
    ratio = index / h if h > 0 else 1.0
    return MetricsRow(entity_id, counts, rate, c / cd, (c - sc) / cd, index, ratio, h_star)
