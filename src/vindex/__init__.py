"""Self-citation-aware impact metrics for authors, journals, and countries.

The package splits into three layers plus a CLI:

* :mod:`vindex.metrics` - pure closed-form metrics: checked citation
  counts, the h-index, the discount weight family, and the metric row.
* :mod:`vindex.graph` - citation corpora: JSONL ingestion, self-citation
  classification, per-entity aggregation, synthetic corpus generation, and
  the aggregate CSV interchange format.
* :mod:`vindex.analytics` - rankings with deterministic tie-breaking,
  Pearson correlation, batch statistics, citation curves, and table
  rendering.
* :mod:`vindex.cli` - the ``vindex`` command with the ``metrics``,
  ``validate``, ``synth``, and ``compare`` subcommands.

The package exports every name in the three layers' ``__all__`` and the
error classes; a public name is declared only in its own layer.
"""

from . import analytics, graph, metrics
from .analytics import *
from .errors import (
    CorpusIntegrityError,
    CorpusParseError,
    DomainError,
    VindexError,
)
from .graph import *
from .metrics import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "VindexError",
    "DomainError",
    "CorpusParseError",
    "CorpusIntegrityError",
    *metrics.__all__,
    *graph.__all__,
    *analytics.__all__,
]
