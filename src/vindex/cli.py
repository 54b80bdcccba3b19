"""Command-line entry point.

Four subcommands: ``metrics`` computes, ranks, and renders the metric table
for a corpus or an aggregate CSV; ``validate`` audits an input without
computing anything; ``synth`` writes a deterministic synthetic corpus; and
``compare`` shows how rankings shift between two discount weights.

Data goes to stdout (or --output); every diagnostic goes to stderr. Exit
status is 0 on success, 1 when a file cannot be read or written or memory
runs out, and 2 on invalid data or usage.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path
from typing import Sequence

from . import analytics, graph, metrics
from .errors import DomainError, VindexError

EXIT_OK = 0
EXIT_READ = 1
EXIT_DATA = 2

_SORT_KEYS: dict[str, analytics.SortKey] = {"v": "v_index", "h": "h_index", "cd": "cd"}
_FORMATS: dict[str, analytics.TableFormat] = {"csv": "csv", "md": "markdown"}

__all__ = ["EXIT_OK", "EXIT_READ", "EXIT_DATA", "main"]


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _emit(text: str, output_path: Path | None) -> None:
    """Write ``text`` as UTF-8 to ``output_path``, or to stdout when it is
    None, whatever the encoding of ``sys.stdout``. A stdout with no byte
    buffer under it, such as ``io.StringIO``, takes the text itself."""
    if output_path is not None:
        output_path.write_bytes(text.encode("utf-8"))
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        data = memoryview(text.encode("utf-8"))
        try:
            while data:  # an unbuffered stdout may take part of the bytes
                data = data[sys.stdout.buffer.write(data):]
            sys.stdout.buffer.flush()
        except BrokenPipeError:  # main reports it; the flush at exit goes to os.devnull
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
            raise
    else:
        sys.stdout.write(text)


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _resolve_mode(args: argparse.Namespace) -> graph.Mode:
    if args.mode is not None and args.kind == "aggregate":
        _warn("--mode has no effect on aggregate input")
    return args.mode or "author"


def _entity_counts(
    args: argparse.Namespace, mode: graph.Mode
) -> list[tuple[str, metrics.CitationCounts, int | None]]:
    """Entity counts plus h* (None when the input is pre-aggregated). A corpus
    warns of stripped self-references and, in journal mode, venue-less edges."""
    if args.kind == "corpus":
        corpus = graph.ingest_corpus(args.input)
        if corpus.self_loops:
            _warn(f"stripped {corpus.self_loops} self-referencing citation(s)")
        if mode == "journal" and (missing := corpus.missing_venue_edges):
            _warn(f"{missing} citation edge(s) lack venue metadata and were classified genuine")
        return [
            (agg.entity_id, agg.counts(), agg.h_star)
            for agg in graph.aggregate_all(corpus, mode)
        ]
    return [(name, counts, None) for name, counts in graph.read_aggregate_csv(args.input)]


def _metric_rows(
    entities: Sequence[tuple[str, metrics.CitationCounts, int | None]],
    weight: metrics.WeightFunction,
) -> list[metrics.MetricsRow]:
    return [
        metrics.metrics_row(entity_id, counts, weight, h_star)
        for entity_id, counts, h_star in entities
    ]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _metrics(args: argparse.Namespace) -> int:
    mode = _resolve_mode(args)
    weight = metrics.WeightFunction.parse(args.weight)
    rows = _metric_rows(_entity_counts(args, mode), weight)
    table = analytics.rank(rows, _SORT_KEYS[args.sort])
    _emit(analytics.render_table(table, _FORMATS[args.format]), args.output)
    return EXIT_OK


def _validate(args: argparse.Namespace) -> int:
    mode = _resolve_mode(args)
    if args.kind == "corpus":
        report = graph.audit_corpus(args.input, mode)
    else:
        report = graph.audit_aggregate(args.input)
    lines = [f"error: {message}" for message in report.errors]
    lines += [f"warning: {message}" for message in report.warnings]
    lines.append(f"{len(report.errors)} error(s), {len(report.warnings)} warning(s)")
    _emit("\n".join(lines) + "\n", None)
    return EXIT_OK if report.ok else EXIT_DATA


def _synth(args: argparse.Namespace) -> int:
    corpus = graph.generate_synthetic_corpus(args.seed, args.papers, args.authors, args.bias)
    _emit(graph.serialize_corpus(corpus), args.output)
    fraction = graph.self_citation_fraction(corpus)
    print(f"self-citation fraction (author mode): {fraction:.3f}", file=sys.stderr)
    return EXIT_OK


def _compare(args: argparse.Namespace) -> int:
    """Emit per-entity rank shifts between two discount weights.

    Rows carry the rank under each weight and delta = rank_a - rank_b,
    sorted by |delta| descending, then entity id. A positive delta means the
    second weight ranks the entity better (closer to 1).
    """
    specs = args.weight or ["unity", "sqrt"]
    if len(specs) != 2:
        raise DomainError(f"compare needs exactly two --weight flags, got {len(specs)}")
    weights = [metrics.WeightFunction.parse(spec) for spec in specs]
    entities = _entity_counts(args, _resolve_mode(args))
    ranks: list[dict[str, int]] = []
    for weight in weights:
        table = analytics.rank(_metric_rows(entities, weight), "v_index")
        ranks.append({item.row.entity_id: item.rank_by_v for item in table.rows})
    rank_a, rank_b = ranks
    rows = [
        (name, str(rank_a[name]), str(rank_b[name]), str(rank_a[name] - rank_b[name]))
        for name in sorted(rank_a, key=lambda name: (-abs(rank_a[name] - rank_b[name]), name))
    ]
    text = analytics.format_table(
        ("entity_id", "rank_a", "rank_b", "delta"), rows, _FORMATS[args.format]
    )
    _emit(text, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argv wiring
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reads ``--opt=--`` as ``--`` through the option's type and choices,
    as 3.13 does; argparse before 3.13 drops that ``--`` in ``_get_values``."""

    def _get_values(self, action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


def _path(value: str) -> Path:
    """A path option's type; ``Path("")`` would be the directory ``.``."""
    if not value:
        raise argparse.ArgumentTypeError("expected a path, got an empty value")
    return Path(value)


@functools.cache  # once per process; parsing leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vindex",
        description=(
            "Self-citation-aware impact metrics over citation corpora "
            "and pre-aggregated citation statistics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", required=True, type=_path, help="path to the input file")
        p.add_argument(
            "--kind",
            choices=("corpus", "aggregate"),
            default="corpus",
            help="input format: JSONL corpus or entity_id,cd,c,sc,h CSV (default: %(default)s)",
        )
        p.add_argument(
            "--mode",
            choices=graph.MODES,
            default=None,
            help="entity mode for corpus input (default: author)",
        )

    def add_table_output(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=tuple(_FORMATS),
            default="csv",
            help="table format (default: %(default)s)",
        )
        p.add_argument("--output", type=_path, default=None, help="write here instead of stdout")

    cmd = sub.add_parser("metrics", help="compute, rank, and render impact metrics")
    cmd.set_defaults(run=_metrics)
    add_input_options(cmd)
    cmd.add_argument(
        "--weight",
        default="sqrt",
        help="discount weight: sqrt, unity, linear, x^N or x^(1/N) (default: %(default)s)",
    )
    cmd.add_argument(
        "--sort",
        choices=tuple(_SORT_KEYS),
        default="v",
        help="criterion ordering the table rows (default: %(default)s)",
    )
    add_table_output(cmd)

    cmd = sub.add_parser("validate", help="audit an input file without computing metrics")
    cmd.set_defaults(run=_validate)
    add_input_options(cmd)

    cmd = sub.add_parser("synth", help="generate a deterministic synthetic corpus")
    cmd.set_defaults(run=_synth)
    cmd.add_argument("--seed", type=int, required=True, help="random seed")
    cmd.add_argument("--papers", type=int, required=True, help="number of papers")
    cmd.add_argument("--authors", type=int, required=True, help="size of the author pool")
    cmd.add_argument(
        "--bias",
        type=float,
        default=0.0,
        help="probability of preferring a shared-author citation target (default: %(default)s)",
    )
    cmd.add_argument("--output", type=_path, default=None, help="write here instead of stdout")

    cmd = sub.add_parser("compare", help="show rank shifts between two discount weights")
    cmd.set_defaults(run=_compare)
    add_input_options(cmd)
    cmd.add_argument(
        "--weight",
        action="append",
        default=None,
        metavar="SPEC",
        help="give twice, baseline then alternative (default: unity then sqrt)",
    )
    add_table_output(cmd)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its message; fold --help and usage errors
        # into the exit-code contract.
        return int(exc.code or 0)
    try:
        return args.run(args)
    except (OSError, VindexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_READ if isinstance(exc, OSError) else EXIT_DATA
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_READ


if __name__ == "__main__":
    raise SystemExit(main())
