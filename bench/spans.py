"""Spans around the benchmark's calls into each ``vindex`` layer.

The tracer replaces public functions in the ``vindex.graph``,
``vindex.metrics`` and ``vindex.analytics`` module namespaces with thin
wrappers while it is installed. The CLI and the library look those names
up at call time, so a call to ``vindex.cli.main`` decomposes into spans for
each layer without any change to the package. Spans stay in memory as
parallel arrays (name, parent, start, end) until the run writes them out.

Work counts are taken from the return values, but only after the
outermost span has closed, so counting never lands inside a timed span.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

# (module, function) -> span name; a callable picks the name from the
# arguments where one function is reported per mode or per format.
TRACED = {
    ("graph", "ingest_corpus"): "graph.ingest_corpus",
    ("graph", "audit_corpus"): "graph.audit_corpus",
    ("graph", "aggregate_all"): lambda args, kwargs: "graph.aggregate_all." + _arg(args, kwargs, 1, "mode"),
    ("graph", "read_aggregate_csv"): "graph.read_aggregate_csv",
    ("graph", "audit_aggregate"): "graph.audit_aggregate",
    ("graph", "generate_synthetic_corpus"): "graph.generate_synthetic_corpus",
    ("graph", "serialize_corpus"): "graph.serialize_corpus",
    ("graph", "self_citation_fraction"): "graph.self_citation_fraction",
    # aggregation calls h_index through the name it imported into graph
    ("graph", "h_index"): "metrics.h_index",
    ("metrics", "metrics_row"): "metrics.metrics_row",
    ("analytics", "rank"): "analytics.rank",
    ("analytics", "render_table"): lambda args, kwargs: "analytics.render_table."
    + _arg(args, kwargs, 1, "format", "csv"),
    ("analytics", "pearson"): "analytics.pearson",
    ("analytics", "batch_stats"): "analytics.batch_stats",
    ("analytics", "export_citation_curves"): "analytics.export_citation_curves",
}

SPAN_NAMES = (
    "cli.main",
    "analysis",
    "graph.ingest_corpus",
    "graph.audit_corpus",
    "graph.aggregate_all.author",
    "graph.aggregate_all.journal",
    "graph.read_aggregate_csv",
    "graph.audit_aggregate",
    "graph.generate_synthetic_corpus",
    "graph.serialize_corpus",
    "graph.self_citation_fraction",
    "metrics.h_index",
    "metrics.metrics_row",
    "analytics.rank",
    "analytics.render_table.csv",
    "analytics.render_table.markdown",
    "analytics.pearson",
    "analytics.batch_stats",
    "analytics.export_citation_curves",
)

COUNT_NAMES = (
    "graph.papers",
    "graph.edges",
    "graph.dangling_refs",
    "graph.self_edges.author",
    "graph.self_edges.journal",
    "graph.entities.author",
    "graph.entities.journal",
    "analytics.rows_ranked",
    "analytics.bytes_rendered",
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# Spans whose return values carry work counts.
_COUNTED = {
    "graph.ingest_corpus",
    "graph.aggregate_all.author",
    "graph.aggregate_all.journal",
    "analytics.rank",
    "analytics.render_table.csv",
    "analytics.render_table.markdown",
}


def _count(name: str, result, counts: dict[str, int]) -> None:
    """Add the work one finished call did to ``counts``."""
    if name == "graph.ingest_corpus":
        counts["graph.papers"] += len(result.papers)
        counts["graph.edges"] += sum(
            1 for paper in result.papers.values() for ref in paper.refs if ref in result.papers
        )
        counts["graph.dangling_refs"] += result.dangling_refs
    elif name.startswith("graph.aggregate_all."):
        mode = name.rsplit(".", 1)[1]
        self_received = {
            item.paper_id: item.self_citations_received for agg in result for item in agg.per_paper
        }
        counts[f"graph.self_edges.{mode}"] += sum(self_received.values())
        counts[f"graph.entities.{mode}"] += len(result)
    elif name == "analytics.rank":
        counts["analytics.rows_ranked"] += len(result.rows)
    elif name.startswith("analytics.render_table."):
        counts["analytics.bytes_rendered"] += len(result.encode("utf-8"))


class Tracer:
    """Records spans and work counts for calls made while it is installed."""

    def __init__(self, vindex_modules: dict[str, object]):
        self._modules = vindex_modules
        self._originals: dict[tuple[str, str], object] = {}
        self.names: list[str] = list(SPAN_NAMES)
        self._ids = {name: index for index, name in enumerate(self.names)}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._pending: list[tuple[str, object]] = []
        self.counts: dict[str, int] = defaultdict(int)

    # -- installing the wrappers ---------------------------------------------

    def install(self) -> None:
        for (module_name, function_name), label in TRACED.items():
            module = self._modules[module_name]
            original = getattr(module, function_name)
            self._originals[module_name, function_name] = original
            setattr(module, function_name, self._wrap(original, label))

    def uninstall(self) -> None:
        for (module_name, function_name), original in self._originals.items():
            setattr(self._modules[module_name], function_name, original)
        self._originals.clear()

    def _wrap(self, function, label):
        def traced(*args, **kwargs):
            name = label if isinstance(label, str) else label(args, kwargs)
            result = self.call(name, function, *args, **kwargs)
            if name in _COUNTED:
                self._pending.append((name, result))
            return result

        traced.__wrapped__ = function
        return traced

    # -- spans -----------------------------------------------------------------

    def call(self, name: str, function, *args, **kwargs):
        """Run ``function`` inside a span called ``name``."""
        index = len(self.start)
        self.name.append(self._ids[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        try:
            return function(*args, **kwargs)
        finally:
            self.end[index] = time.perf_counter()
            self._stack.pop()
            if not self._stack:
                self._settle()

    def _settle(self) -> None:
        for name, result in self._pending:
            _count(name, result, self.counts)
        self._pending.clear()

    def mark(self) -> int:
        """Index of the next span, to cut the record into rounds."""
        return len(self.start)

    def self_times(self, first: int, last: int) -> dict[str, float]:
        """Self time per span name over spans ``first`` to ``last - 1``.

        A span's self time is its duration minus the durations of its
        direct children, which tile part of its interval.
        """
        child = defaultdict(float)
        for index in range(first, last):
            parent = self.parent[index]
            if parent >= 0:
                child[parent] += self.end[index] - self.start[index]
        totals = dict.fromkeys(self.names, 0.0)
        for index in range(first, last):
            duration = self.end[index] - self.start[index]
            totals[self.names[self.name[index]]] += duration - child[index]
        return totals

    def dump(self, first: int, last: int, threshold: float = 1e-3) -> dict:
        """Spans of one round for the record.

        Spans of at least ``threshold`` seconds are listed one by one as
        [index, name, parent index, start, end], in seconds from the round's
        first span; shorter ones are folded into one [name, parent index,
        number, summed duration] entry per name and parent.
        """
        base = self.start[first] if last > first else 0.0
        kept: list = []
        folded: dict[tuple[str, int], list] = {}
        for index in range(first, last):
            name = self.names[self.name[index]]
            duration = self.end[index] - self.start[index]
            parent = self.parent[index] - first if self.parent[index] >= 0 else -1
            if duration >= threshold:
                kept.append([index - first, name, parent, self.start[index] - base, self.end[index] - base])
            else:
                entry = folded.setdefault((name, parent), [name, parent, 0, 0.0])
                entry[2] += 1
                entry[3] += duration
        return {"spans": kept, "folded": list(folded.values())}
