"""End-to-end and per-layer benchmark of the vindex pipeline.

Usage, from the repository root:

    python3 bench/run.py --workload corpus-dense --seed 1 --seconds 55 --trace 0

The benchmark makes its inputs from ``--seed``, then repeats whole rounds
of the workload's operations for about ``--seconds`` seconds. One client
runs one operation at a time: each CLI command is a ``python -m vindex``
subprocess with ``src`` on the path, and the library session runs in this
process. Every output is checked against ``checker.py``, which never
imports ``vindex``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the same
rounds in this process with spans around every call into a layer (see
``spans.py``) and reports each layer's self time and work counts. The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a fuller record goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import importlib.metadata
import io
import json
import logging
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = ROOT / "data"
OUT = HERE / "out"

import checker  # noqa: E402  (sibling modules of this script)
import inputs  # noqa: E402
from spans import COUNT_NAMES, SPAN_NAMES, Tracer  # noqa: E402

WORKLOADS = ("corpus-dense", "aggregate-wide")

# Input sizes, chosen so that a round takes about 7 to 9 seconds and a run
# holds five or more rounds. corpus-dense: about 100k in-corpus edges;
# aggregate-wide: 5000 entity rows, and a synthesized corpus that is the
# largest part of its synth command today, which its corpus commands read.
# The small synth of corpus-dense only keeps synth_s measured there.
DENSE = dict(n_papers=4000, n_authors=1200, n_venues=200, refs_low=15, refs_high=35)
WIDE_ROWS = 5000
SYNTH = {
    "corpus-dense": (200, 40, 0.2),
    "aggregate-wide": (2500, 400, 0.3),
}
SETUP_REPEATS = 2
# Library sessions a round, each one sample, spread between the commands
# so that the samples of analysis_s cover the whole run.
ANALYSIS_SESSIONS = 3
IMPORT_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "session_s": "s",
    "metrics_author_s": "s",
    "metrics_journal_s": "s",
    "metrics_aggregate_s": "s",
    "validate_s": "s",
    "compare_s": "s",
    "analysis_s": "s",
    "small_run_s": "s",
    "synth_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.import_vindex_s": "s",
    "cli.import_numeric_s": "s",
    **{f"{name}_s": "s" for name in SPAN_NAMES if name != "analysis"},
    **{name: "count" for name in COUNT_NAMES},
}


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    exit: int
    stdout: str
    stderr: str
    seconds: float
    rss_mb: float = 0.0
    value: object = None


@dataclass
class Op:
    """One user operation: a CLI command, or the library session when argv is None."""

    name: str
    argv: tuple[str, ...] | None
    check: Callable[[Outcome], list[str]]
    metric: str | None = None
    expect_exit: int = 0
    # A case the program is known to get wrong today; it counts as failed
    # until the program is fixed, and never makes the run incorrect.
    known_fault: bool = False
    # Files whose bytes must repeat from round to round, besides stdout.
    outputs: tuple[Path, ...] = ()
    # The corpus and aggregate CSV of the library session.
    paths: tuple[Path, ...] = ()
    # A command checked for its output only, run as vindex.cli.main(argv)
    # in this process; it feeds no metric.
    in_process: bool = False


@dataclass
class CorpusRef:
    """Checker results for one JSONL corpus, by entity mode."""

    counts: dict
    entities: dict


def corpus_ref(path: Path) -> CorpusRef:
    papers = checker.parse_corpus(path.read_text(encoding="utf-8"))
    counts = {mode: checker.received(papers, mode) for mode in ("author", "journal")}
    entities = {mode: checker.corpus_entities(counts[mode]) for mode in counts}
    return CorpusRef(counts, entities)


def write_author_aggregates(ref: CorpusRef, path: Path) -> dict:
    """Write the corpus's author aggregates as the CSV a user would hand to
    ``--kind aggregate``; returns them without h*."""
    entities = ref.entities["author"]
    rows = [(name, e.cd, e.c, e.sc, e.h) for name, e in sorted(entities.items())]
    path.write_text(inputs.aggregate_csv(rows), encoding="utf-8")
    return {name: checker.Entity(e.cd, e.c, e.sc, e.h) for name, e in entities.items()}


@dataclass
class AnalysisResult:
    markdown: str
    curves: list
    table_csv: str
    rho: float
    p_value: float
    stats: object
    h: list
    v: list

    def digest(self) -> str:
        text = repr((self.markdown, self.curves, self.table_csv, self.rho, self.p_value, self.stats))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def analysis(vindex, corpus_path: Path, aggregate_path: Path) -> AnalysisResult:
    """The library session: README quickstart plus curves on the corpus,
    then read -> rows -> rank -> render -> pearson -> batch_stats on the CSV.
    Names are looked up on the modules at call time, so the tracer sees them."""
    graph, metrics, analytics = vindex.graph, vindex.metrics, vindex.analytics
    corpus = graph.ingest_corpus(corpus_path)
    aggregates = graph.aggregate_all(corpus, "author")
    rows = [metrics.metrics_row(agg.entity_id, agg.counts()) for agg in aggregates]
    markdown = analytics.render_table(analytics.rank(rows, "v_index"), "markdown")
    curves = []
    for agg in aggregates:
        curve = analytics.export_citation_curves(agg)
        curves.append((agg.entity_id, curve.g, curve.f))
    entity_rows = [
        metrics.metrics_row(entity_id, counts)
        for entity_id, counts in graph.read_aggregate_csv(aggregate_path)
    ]
    table_csv = analytics.render_table(analytics.rank(entity_rows, "v_index"), "csv")
    h = [row.counts.h_index for row in entity_rows]
    v = [row.v_index for row in entity_rows]
    correlation = analytics.pearson(h, v)
    stats = analytics.batch_stats(v)
    return AnalysisResult(markdown, curves, table_csv, correlation.rho, correlation.p_value, stats, h, v)


def check_analysis(
    outcome: Outcome, corpus: Callable[[], CorpusRef], aggregate: Callable[[], dict]
) -> list[str]:
    result: AnalysisResult = outcome.value
    ref = corpus()
    entities = aggregate()
    return (
        checker.check_table(result.markdown, "markdown", ref.entities["author"])
        + checker.check_curves(result.curves, ref.counts["author"], ref.entities["author"])
        + checker.check_table(result.table_csv, "csv", entities)
        + checker.check_pearson(result.rho, result.p_value, [float(x) for x in result.h], result.v)
        + checker.check_batch_stats(result.stats, result.v)
    )


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _cli(*argv) -> tuple[str, ...]:
    return tuple(str(arg) for arg in argv)


def build(workload: str, seed: int, work: Path) -> list[Op]:
    """The operations of one round of ``workload``, with inputs written to ``work``."""
    papers, authors, bias = SYNTH[workload]
    synth_path = work / "synth.jsonl"
    # computed on first use: a synthesized corpus exists once round 1 wrote it
    synth_ref = functools.cache(lambda: corpus_ref(synth_path))
    ops = [
        Op(
            "synth",
            _cli("synth", "--seed", seed, "--papers", papers, "--authors", authors,
                 "--bias", bias, "--output", synth_path),
            lambda o: checker.check_synth(synth_path.read_text(encoding="utf-8"), papers, o.stderr),
            metric="synth_s",
            outputs=(synth_path,),
        )
    ]

    if workload == "corpus-dense":
        corpus_path = work / "dense.jsonl"
        text, injected = inputs.dense_corpus(seed, **DENSE)
        corpus_path.write_text(text, encoding="utf-8")
        corpus = functools.cache(lambda: corpus_ref(corpus_path))
        aggregate_path = work / "dense_authors.csv"
        dense_authors = write_author_aggregates(corpus(), aggregate_path)
        aggregate = lambda: dense_authors  # noqa: E731
        validate_facts = dict(self_ref_papers=injected.self_ref_papers, dangling_refs=injected.dangling_refs)
        compare_on = ("corpus", corpus_path, lambda: corpus().entities["author"], "unity", "sqrt")
        primary_validate = "corpus"
    else:  # aggregate-wide
        corpus_path, corpus, validate_facts = synth_path, synth_ref, {}
        aggregate_path = work / "wide.csv"
        wide = inputs.wide_aggregate(seed, WIDE_ROWS)
        aggregate_path.write_text(wide, encoding="utf-8")
        aggregate = functools.cache(lambda: checker.aggregate_entities(wide))
        compare_on = ("aggregate", aggregate_path, aggregate, "linear", "x^2")
        primary_validate = "aggregate"
    ops += [
        Op(
            "validate-corpus",
            _cli("validate", "--input", corpus_path),
            lambda o: checker.check_validate(o.stdout, **validate_facts),
            metric="validate_s" if primary_validate == "corpus" else None,
        ),
        Op(
            "validate-aggregate",
            _cli("validate", "--kind", "aggregate", "--input", aggregate_path),
            lambda o: checker.check_validate(o.stdout),
            metric="validate_s" if primary_validate == "aggregate" else None,
        ),
        Op(
            "metrics-author",
            _cli("metrics", "--input", corpus_path, "--mode", "author"),
            lambda o: checker.check_table(o.stdout, "csv", corpus().entities["author"], with_h_star=True),
            metric="metrics_author_s",
        ),
        Op(
            "metrics-journal",
            _cli("metrics", "--input", corpus_path, "--mode", "journal"),
            lambda o: checker.check_table(o.stdout, "csv", corpus().entities["journal"], with_h_star=True),
            metric="metrics_journal_s",
        ),
        Op(
            "metrics-aggregate",
            _cli("metrics", "--kind", "aggregate", "--input", aggregate_path),
            lambda o: checker.check_table(o.stdout, "csv", aggregate()),
            metric="metrics_aggregate_s",
        ),
    ]
    if workload == "aggregate-wide":
        ops.append(
            Op(
                "metrics-aggregate-md-by-h",
                _cli("metrics", "--kind", "aggregate", "--input", aggregate_path,
                     "--format", "md", "--sort", "h"),
                lambda o: checker.check_table(o.stdout, "markdown", aggregate(), sort="h"),
            )
        )
    kind, compare_path, compare_entities, weight_a, weight_b = compare_on
    ops.append(
        Op(
            "compare",
            _cli("compare", "--kind", kind, "--input", compare_path,
                 "--weight", weight_a, "--weight", weight_b),
            lambda o: checker.check_compare(o.stdout, compare_entities(), weight_a, weight_b),
            metric="compare_s",
        )
    )
    # A library session after each part of the commands, so that its
    # samples are spread over the round.
    commands, ops = ops, []
    for i in range(ANALYSIS_SESSIONS):
        ops += commands[i * len(commands) // ANALYSIS_SESSIONS:(i + 1) * len(commands) // ANALYSIS_SESSIONS]
        ops.append(
            Op(
                f"analysis-{i + 1}",
                None,
                lambda o: check_analysis(o, corpus, aggregate),
                metric="analysis_s",
                paths=(corpus_path, aggregate_path),
            )
        )
    if workload == "aggregate-wide":
        ops += table_and_exact_input_ops(work)
    return ops


def table_and_exact_input_ops(work: Path) -> list[Op]:
    """The three bundled tables and the three exact-input cases.

    They are checked for their output only and feed no metric, so they run
    in this process and add milliseconds to a round. The tables are the
    data/*_top25.csv files cut down to entity_id,cd,c,sc,h. The author
    table must reproduce every derived column and all three positions of
    its reference; of the journal and country tables only V_index, ratio
    and pos_v follow from their own c, sc and h (see data/README.md), so
    only those are compared with the printed cells.
    """
    ops = []
    for name, columns in (
        ("authors", ("C_P", "V_rate", "V_P", "V_index", "ratio", "pos_cd", "pos_h", "pos_v")),
        ("journals", ("V_index", "ratio", "pos_v")),
        ("countries", ("V_index", "ratio", "pos_v")),
    ):
        path = work / f"{name}.csv"
        path.write_text(inputs.reduced_table(DATA / f"{name}_top25.csv"), encoding="utf-8")
        reference = (DATA / f"{name}_top25.csv").read_text(encoding="utf-8")
        entities = checker.aggregate_entities(path.read_text(encoding="utf-8"))
        ops += [
            Op(
                f"metrics-{name}",
                _cli("metrics", "--kind", "aggregate", "--input", path),
                lambda o, e=entities, r=reference, c=columns: checker.check_table(o.stdout, "csv", e)
                + checker.check_reference_table(o.stdout, r, c),
                in_process=True,
            ),
            Op(
                f"compare-{name}",
                _cli("compare", "--kind", "aggregate", "--input", path),
                lambda o, e=entities: checker.check_compare(o.stdout, e, "unity", "sqrt"),
                in_process=True,
            ),
        ]

    u2028 = work / "u2028.jsonl"
    u2028.write_text(inputs.u2028_corpus(), encoding="utf-8")
    u2028_entities = checker.corpus_entities(
        checker.received(checker.parse_corpus(inputs.u2028_corpus()), "author")
    )
    newline = work / "quoted_newline.csv"
    newline.write_text(inputs.quoted_newline_csv(), encoding="utf-8")
    newline_entities = checker.aggregate_entities(inputs.quoted_newline_csv())
    counts = work / "count_syntax.csv"
    counts.write_text(inputs.count_syntax_csv(), encoding="utf-8")
    ops += [
        Op(
            "u2028-jsonl",
            _cli("metrics", "--input", u2028),
            lambda o: checker.check_table(o.stdout, "csv", u2028_entities, with_h_star=True),
            known_fault=True,
            in_process=True,
        ),
        Op(
            "csv-quoted-newline",
            _cli("metrics", "--kind", "aggregate", "--input", newline),
            lambda o: checker.check_table(o.stdout, "csv", newline_entities),
            known_fault=True,
            in_process=True,
        ),
        Op(
            "csv-count-syntax",
            _cli("validate", "--kind", "aggregate", "--input", counts),
            lambda o: checker.check_validate(o.stdout, errors=2, error_lines=(2, 3)),
            expect_exit=2,
            known_fault=True,
            in_process=True,
        ),
    ]
    return ops


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------

def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_subprocess(argv: list[str], work: Path) -> Outcome:
    """Run one command to completion; its max RSS comes from wait4 on that child."""
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_env(), cwd=work)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        exit=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        seconds=seconds,
        rss_mb=usage.ru_maxrss / 1024.0,
    )


class Runner:
    """Runs operations: CLI commands as subprocesses, or in this process
    under the tracer when there is one; the library session in this process."""

    def __init__(self, vindex, work: Path, tracer: Tracer | None):
        self.vindex = vindex
        self.work = work
        self.tracer = tracer

    def _call(self, name: str, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(name, fn, *args)

    def run(self, op: Op) -> Outcome:
        if op.argv is None:
            gc.collect()
            start = time.perf_counter()
            value = self._call("analysis", analysis, self.vindex, *op.paths)
            return Outcome(0, "", "", time.perf_counter() - start, value=value)
        if self.tracer is None and not op.in_process:
            return run_subprocess([sys.executable, "-m", "vindex", *op.argv], self.work)
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = self._call("cli.main", self.vindex.cli.main, list(op.argv))
            seconds = time.perf_counter() - start
        return Outcome(code, out.getvalue(), err.getvalue(), seconds)


def digest(op: Op, outcome: Outcome) -> str:
    if outcome.value is not None:
        return outcome.value.digest()
    h = hashlib.sha256()
    h.update(f"{outcome.exit}\0{outcome.stdout}\0{outcome.stderr}".encode("utf-8"))
    for path in op.outputs:
        h.update(path.read_bytes())
    return h.hexdigest()


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    def judge(self, op: Op, outcome: Outcome) -> bool:
        """Count one attempt and say whether it failed. The first success is
        checked in full; repeats must reproduce its output exactly. Only a
        known fault may fail and leave the run correct."""
        self.attempted += 1
        if outcome.exit != op.expect_exit:
            self.failed += 1
            said = (outcome.stderr.strip() or outcome.stdout.strip())[-300:]
            self.failures.setdefault(op.name, f"exit {outcome.exit}: {said}")
            if not op.known_fault:
                self.problems.append(f"{op.name}: exit {outcome.exit}, expected {op.expect_exit}: {said}")
            return True
        if op.name not in self.digests:
            found = op.check(outcome)
            if found and op.known_fault:
                self.failed += 1
                self.failures[op.name] = found[0]
                self.digests[op.name] = "failed"
                return True
            self.problems += [f"{op.name}: {problem}" for problem in found]
            self.digests[op.name] = digest(op, outcome)
        elif self.digests[op.name] == "failed":
            self.failed += 1
            return True
        elif digest(op, outcome) != self.digests[op.name]:
            self.problems.append(f"{op.name}: output differs from the first round")
        return False


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def setup_seconds(work: Path) -> float:
    """One fresh ``python -m vindex --help``: interpreter start plus package
    and CLI import."""
    return run_subprocess([sys.executable, "-m", "vindex", "--help"], work).seconds


def import_seconds(work: Path) -> tuple[float, float]:
    """Cumulative ``-X importtime`` of vindex, and of numpy and scipy within it."""
    totals, numeric = [], []
    for _ in range(IMPORT_REPEATS):
        outcome = run_subprocess([sys.executable, "-X", "importtime", "-c", "import vindex"], work)
        entries = []
        for line in outcome.stderr.splitlines():
            match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
            if match:
                entries.append((len(match.group(2)), match.group(3), int(match.group(1)) * 1e-6))
        # importtime lists children before their parent; walk it backwards to
        # add each numpy or scipy module that no other one imported.
        stack: list[tuple[int, bool]] = []
        total = numeric_total = 0.0
        for level, name, cumulative in reversed(entries):
            while stack and stack[-1][0] >= level:
                stack.pop()
            inside = bool(stack) and stack[-1][1]
            is_numeric = name.split(".")[0] in ("numpy", "scipy")
            if is_numeric and not inside:
                numeric_total += cumulative
            if name == "vindex":
                total = cumulative
            stack.append((level, inside or is_numeric))
        totals.append(total)
        numeric.append(numeric_total)
    return statistics.median(totals), statistics.median(numeric)


def rounds(ops: list[Op], runner: Runner, tally: Tally, seconds: float, before=None, after=None):
    """Whole rounds until the next one would end after ``seconds``; yields
    each round's outcomes as (outcome, failed) by op name."""
    start = time.perf_counter()
    done = 0
    while True:
        if before is not None:
            before()
        outcomes = {}
        for op in ops:
            outcome = runner.run(op)
            outcomes[op.name] = (outcome, tally.judge(op, outcome))
        done += 1
        yield outcomes
        if after is not None:
            after()
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done > seconds:
            return


def upper_quartile(values: list[float]) -> float:
    return statistics.quantiles(values, n=4)[2] if len(values) > 1 else values[0]


def measure(ops: list[Op], runner: Runner, tally: Tally, seconds: float, work: Path, record: dict):
    # small_run_s and peak_rss_mb come from every subprocess, not one kind.
    samples: dict[str, list[float]] = {
        metric: [] for metric in END_TO_END if metric not in ("small_run_s", "peak_rss_mb")
    }
    # Set-up is sampled before the rounds and again at the start of each
    # one, so that its median spans the whole run; the first run only
    # writes the bytecode cache.
    setup_seconds(work)
    samples["setup_s"] += [setup_seconds(work) for _ in range(SETUP_REPEATS)]
    invocations: list[float] = []
    peak = 0.0
    take_setup = lambda: samples["setup_s"].append(setup_seconds(work))  # noqa: E731
    for outcomes in rounds(ops, runner, tally, seconds, before=take_setup):
        samples["session_s"].append(sum(outcome.seconds for outcome, _ in outcomes.values()))
        for op in ops:
            outcome, failed = outcomes[op.name]
            if failed:
                continue
            if op.metric:
                samples[op.metric].append(outcome.seconds)
            if op.argv is not None and not op.in_process:
                invocations.append(outcome.seconds)
                peak = max(peak, outcome.rss_mb)
    for metric, found in samples.items():
        if not found:
            tally.problems.append(f"{metric}: no operation behind it succeeded")
            found.append(0.0)
    # The machine runs our code in a fast and a slow state that alternate
    # second by second, and the fast share changes from run to run. A
    # sample shorter than a state reads one or the other, so the median of
    # a run flips with that share; the upper quartile stays in the slow
    # state unless three quarters of the run were fast (README,
    # "Steadiness"). Like the median, and unlike a minimum or maximum, it
    # does not move by itself when a faster program fits more rounds in.
    # setup_s (one command, every round) and small_run_s (every command of
    # the run) stay medians, which spread less on them.
    values = {metric: upper_quartile(found) for metric, found in samples.items()}
    values["setup_s"] = statistics.median(samples["setup_s"])
    values["small_run_s"] = statistics.median(invocations)
    values["peak_rss_mb"] = peak
    record["samples"] = {**samples, "invocations": invocations}
    return values


def measure_traced(ops, runner: Runner, tally: Tally, seconds: float, work: Path, record: dict):
    tracer = runner.tracer
    import_total, import_numeric = import_seconds(work)
    per_round: list[dict[str, float]] = []
    counts: list[dict[str, int]] = []
    traced, untraced = [], []
    analysis_op = next(op for op in ops if op.argv is None)
    cut = tracer.mark()

    plain = Runner(runner.vindex, work, None)

    def untraced_analysis():
        tracer.uninstall()
        untraced.append(plain.run(analysis_op).seconds)
        tracer.install()

    tracer.install()
    try:
        for outcomes in rounds(ops, runner, tally, seconds, after=untraced_analysis):
            end = tracer.mark()
            per_round.append(tracer.self_times(cut, end))
            if not counts:
                record["spans_round_1"] = tracer.dump(cut, end)
            counts.append(dict(tracer.counts))
            tracer.counts.clear()
            traced += [outcomes[op.name][0].seconds for op in ops if op.argv is None]
            cut = end
    finally:
        tracer.uninstall()
    if any(found != counts[0] for found in counts):
        tally.problems.append(f"work counts differ between rounds: {counts!r}")
    values = {"cli.import_vindex_s": import_total, "cli.import_numeric_s": import_numeric}
    for name in SPAN_NAMES:
        values[f"{name}_s"] = statistics.median(times[name] for times in per_round)
    for name in COUNT_NAMES:
        values[name] = counts[0].get(name, 0)
    record["tracing_overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    record["analysis_traced_s"] = traced
    record["analysis_untraced_s"] = untraced
    record["self_times_per_round"] = per_round
    return {name: values[name] for name in PER_LAYER}


# ---------------------------------------------------------------------------
# the run record
# ---------------------------------------------------------------------------

def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def machine() -> dict:
    model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
    }


def src_lines() -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines()) for path in SRC.rglob("*.py"))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vindex" / "__init__.py").is_file() or not (DATA / "authors_top25.csv").is_file():
        print(f"error: no vindex sources under {SRC} or reference tables under {DATA}", file=sys.stderr)
        return 2
    # A terminated run still kills its command and removes its work files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path.insert(0, str(SRC))
    import vindex
    import vindex.cli

    # The library's warnings (stripped self-references and the like) are
    # expected on these inputs. A handler on the root logger also keeps
    # the CLI's logging.basicConfig, run in-process when tracing, from
    # binding a redirected stderr.
    logging.getLogger().addHandler(logging.NullHandler())

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        ops = build(args.workload, args.seed, work)
        tally = Tally()
        record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
        if args.trace:
            modules = {"graph": vindex.graph, "metrics": vindex.metrics, "analytics": vindex.analytics}
            runner = Runner(vindex, work, Tracer(modules))
            values = measure_traced(ops, runner, tally, args.seconds, work, record)
            units = PER_LAYER
        else:
            runner = Runner(vindex, work, None)
            values = measure(ops, runner, tally, args.seconds, work, record)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record.update(
        operations=[op.name for op in ops],
        rounds=tally.attempted // len(ops),
        attempted=tally.attempted,
        failed=tally.failed,
        failures=tally.failures,
        problems=tally.problems[:50],
        machine=machine(),
        commit=_commit(),
        src_lines=src_lines(),
        result=result,
    )
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=repr) + "\n", encoding="utf-8"
    )
    for problem in tally.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    for name, failure in tally.failures.items():
        print(f"failed: {name}: {failure}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:34s} {values[name]:14.6f} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
