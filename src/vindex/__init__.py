"""Self-citation-aware impact metrics for authors, journals, and countries.

The package splits into three layers plus a CLI:

* :mod:`vindex.metrics` - pure closed-form metrics: the h-index, the
  virtuosity rate, the v-index, and its generalized discount family.
* :mod:`vindex.graph` - citation corpora: JSONL ingestion, self-citation
  classification, per-entity aggregation, synthetic corpus generation, and
  the aggregate CSV interchange format.
* :mod:`vindex.analytics` - rankings with deterministic tie-breaking,
  Pearson correlation, batch statistics, citation curves, and table
  rendering.
* :mod:`vindex.cli` - the ``vindex`` command with the ``metrics``,
  ``validate``, ``synth``, and ``compare`` subcommands.
"""

from .analytics import (
    BatchStats,
    CitationCurves,
    CorrelationResult,
    RankedRow,
    RankedTable,
    batch_stats,
    export_citation_curves,
    pearson,
    rank,
    render_table,
)
from .errors import (
    CorpusIntegrityError,
    CorpusParseError,
    DomainError,
    UnknownEntityError,
    VindexError,
)
from .graph import (
    AuditReport,
    Corpus,
    EntityAggregate,
    Paper,
    PaperCitations,
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
from .metrics import (
    CitationCounts,
    MetricsRow,
    WeightFunction,
    adjusted_citations_per_publication,
    citations_per_publication,
    generalized_v_index,
    h_index,
    metrics_row,
    v_index,
    v_rate,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "VindexError",
    "DomainError",
    "CorpusParseError",
    "CorpusIntegrityError",
    "UnknownEntityError",
    # metrics
    "CitationCounts",
    "WeightFunction",
    "MetricsRow",
    "h_index",
    "v_rate",
    "v_index",
    "generalized_v_index",
    "citations_per_publication",
    "adjusted_citations_per_publication",
    "metrics_row",
    # graph
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
    # analytics
    "RankedRow",
    "RankedTable",
    "CorrelationResult",
    "BatchStats",
    "CitationCurves",
    "rank",
    "pearson",
    "batch_stats",
    "export_citation_curves",
    "render_table",
]
