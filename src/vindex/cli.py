"""Command-line entry point.

Four subcommands: ``metrics`` computes, ranks, and renders the metric table
for a corpus or an aggregate CSV; ``validate`` audits an input without
computing anything; ``synth`` writes a deterministic synthetic corpus; and
``compare`` shows how rankings shift between two discount weights.

Data goes to stdout (or --output); every diagnostic goes to stderr. Exit
status is 0 on success, 1 when the input file cannot be read, and 2 on
invalid data or usage.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from typing import Sequence

from . import analytics, graph, metrics
from .errors import VindexError

EXIT_OK = 0
EXIT_READ = 1
EXIT_DATA = 2

_SORT_KEYS: dict[str, analytics.SortKey] = {"v": "v_index", "h": "h_index", "cd": "cd"}
_FORMATS: dict[str, analytics.TableFormat] = {"csv": "csv", "md": "markdown"}

__all__ = [
    "EXIT_OK",
    "EXIT_READ",
    "EXIT_DATA",
    "build_parser",
    "cmd_metrics",
    "cmd_validate",
    "cmd_synth",
    "cmd_compare",
    "main",
]


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _emit(text: str, output_path: Path | None) -> None:
    if output_path is None:
        sys.stdout.write(text)
    else:
        output_path.write_text(text, encoding="utf-8")


def _entity_counts(
    input_path: Path,
    input_kind: str,
    mode: graph.Mode,
) -> list[tuple[str, metrics.CitationCounts, int | None]]:
    """Entity counts plus h* (None when the input is pre-aggregated)."""
    if input_kind == "corpus":
        corpus = graph.ingest_corpus(input_path)
        return [
            (agg.entity_id, agg.counts(), agg.h_star)
            for agg in graph.aggregate_all(corpus, mode)
        ]
    return [
        (entity_id, counts, None)
        for entity_id, counts in graph.read_aggregate_csv(input_path)
    ]


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

def cmd_metrics(
    input_path: Path,
    input_kind: str = "corpus",
    mode: graph.Mode = "author",
    weight: metrics.WeightFunction = metrics.WeightFunction.sqrt(),
    sort_key: analytics.SortKey = "v_index",
    table_format: analytics.TableFormat = "csv",
    output_path: Path | None = None,
) -> int:
    """Compute, rank, and render the metric table for one input and emit it."""
    entities = _entity_counts(input_path, input_kind, mode)
    rows = _metric_rows(entities, weight)
    table = analytics.rank(rows, sort_key)
    _emit(analytics.render_table(table, table_format), output_path)
    return EXIT_OK


def cmd_validate(
    input_path: Path, input_kind: str = "corpus", mode: graph.Mode = "author"
) -> int:
    """Audit the input and print a diagnostic report; exit 2 on hard errors."""
    if input_kind == "corpus":
        report = graph.audit_corpus(input_path, mode)
    else:
        report = graph.audit_aggregate(input_path)
    lines = [f"error: {message}" for message in report.errors]
    lines += [f"warning: {message}" for message in report.warnings]
    lines.append(f"{len(report.errors)} error(s), {len(report.warnings)} warning(s)")
    print("\n".join(lines))
    return EXIT_OK if report.ok else EXIT_DATA


def cmd_synth(
    seed: int,
    n_papers: int,
    n_authors: int,
    self_cite_bias: float = 0.0,
    output_path: Path | None = None,
) -> int:
    """Generate a synthetic corpus and report its self-citation fraction."""
    corpus = graph.generate_synthetic_corpus(seed, n_papers, n_authors, self_cite_bias)
    _emit(graph.serialize_corpus(corpus), output_path)
    fraction = graph.self_citation_fraction(corpus, "author")
    print(f"self-citation fraction (author mode): {fraction:.3f}", file=sys.stderr)
    return EXIT_OK


def cmd_compare(
    input_path: Path,
    weight_a: metrics.WeightFunction,
    weight_b: metrics.WeightFunction,
    input_kind: str = "corpus",
    mode: graph.Mode = "author",
    table_format: analytics.TableFormat = "csv",
    output_path: Path | None = None,
) -> int:
    """Emit per-entity rank shifts between two discount weights.

    Rows carry the rank under each weight and delta = rank_a - rank_b,
    sorted by |delta| descending, then entity id. A positive delta means the
    second weight ranks the entity better (closer to 1).
    """
    entities = _entity_counts(input_path, input_kind, mode)
    positions: list[dict[str, int]] = []
    for weight in (weight_a, weight_b):
        table = analytics.rank(_metric_rows(entities, weight), "v_index")
        positions.append({item.row.entity_id: item.rank_by_v for item in table.rows})
    shifts = [
        (entity_id, positions[0][entity_id], positions[1][entity_id])
        for entity_id, _, _ in entities
    ]
    shifts.sort(key=lambda item: (-abs(item[1] - item[2]), item[0]))
    rows = [
        (entity_id, str(rank_a), str(rank_b), str(rank_a - rank_b))
        for entity_id, rank_a, rank_b in shifts
    ]
    text = analytics.format_table(("entity_id", "rank_a", "rank_b", "delta"), rows, table_format)
    _emit(text, output_path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argv wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vindex",
        description=(
            "Self-citation-aware impact metrics over citation corpora "
            "and pre-aggregated citation statistics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_options(p: argparse.ArgumentParser, default_kind: str = "corpus") -> None:
        p.add_argument("--input", required=True, type=Path, help="path to the input file")
        p.add_argument(
            "--kind",
            choices=("corpus", "aggregate"),
            default=default_kind,
            help="input format: JSONL corpus or entity_id,cd,c,sc,h CSV (default: %(default)s)",
        )
        p.add_argument(
            "--mode",
            choices=graph.MODES,
            default=None,
            help="entity mode for corpus input (default: author)",
        )

    cmd = sub.add_parser("metrics", help="compute, rank, and render impact metrics")
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
    cmd.add_argument(
        "--format",
        choices=tuple(_FORMATS),
        default="csv",
        help="table format (default: %(default)s)",
    )
    cmd.add_argument("--output", type=Path, default=None, help="write here instead of stdout")

    cmd = sub.add_parser("validate", help="audit an input file without computing metrics")
    add_input_options(cmd)

    cmd = sub.add_parser("synth", help="generate a deterministic synthetic corpus")
    cmd.add_argument("--seed", type=int, required=True, help="random seed")
    cmd.add_argument("--papers", type=int, required=True, help="number of papers")
    cmd.add_argument("--authors", type=int, required=True, help="size of the author pool")
    cmd.add_argument(
        "--bias",
        type=float,
        default=0.0,
        help="probability of preferring a shared-author citation target (default: %(default)s)",
    )
    cmd.add_argument("--output", type=Path, default=None, help="write here instead of stdout")

    cmd = sub.add_parser("compare", help="show rank shifts between two discount weights")
    add_input_options(cmd)
    cmd.add_argument(
        "--weight",
        action="append",
        default=None,
        metavar="SPEC",
        help="give twice, baseline then alternative (default: unity then sqrt)",
    )
    cmd.add_argument(
        "--format",
        choices=tuple(_FORMATS),
        default="csv",
        help="table format (default: %(default)s)",
    )
    cmd.add_argument("--output", type=Path, default=None, help="write here instead of stdout")

    return parser


def _resolve_mode(args: argparse.Namespace) -> graph.Mode:
    if args.mode is not None and args.kind == "aggregate":
        print("warning: --mode has no effect on aggregate input", file=sys.stderr)
    return args.mode or "author"


def _configure_logging() -> None:
    logging.basicConfig(stream=sys.stderr, format="warning: %(message)s", level=logging.WARNING)


def main(argv: Sequence[str] | None = None) -> int:
    _configure_logging()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its message; fold --help and usage errors
        # into the exit-code contract.
        return int(exc.code or 0)
    try:
        if args.command == "metrics":
            return cmd_metrics(
                args.input,
                input_kind=args.kind,
                mode=_resolve_mode(args),
                weight=metrics.WeightFunction.parse(args.weight),
                sort_key=_SORT_KEYS[args.sort],
                table_format=_FORMATS[args.format],
                output_path=args.output,
            )
        if args.command == "validate":
            return cmd_validate(args.input, args.kind, _resolve_mode(args))
        if args.command == "synth":
            return cmd_synth(args.seed, args.papers, args.authors, args.bias, args.output)
        specs = args.weight if args.weight is not None else ["unity", "sqrt"]
        if len(specs) != 2:
            print(
                f"error: compare needs exactly two --weight flags, got {len(specs)}",
                file=sys.stderr,
            )
            return EXIT_DATA
        return cmd_compare(
            args.input,
            metrics.WeightFunction.parse(specs[0]),
            metrics.WeightFunction.parse(specs[1]),
            input_kind=args.kind,
            mode=_resolve_mode(args),
            table_format=_FORMATS[args.format],
            output_path=args.output,
        )
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_READ
    except VindexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
