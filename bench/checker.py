"""Reference computations the benchmark checks the program's outputs against.

This module never imports ``vindex``. It recomputes everything from the
inputs by the rules the package documents:

* JSONL records are split on ``\\n`` only; duplicate refs collapse, a
  paper's refs to itself are stripped, refs outside the corpus are
  ignored.
* Author mode: an edge is self when the two author sets intersect, and a
  paper counts for each of its distinct authors. Journal mode: the entity
  is the venue (an empty venue is none); an edge is self when both papers
  carry the same venue, and genuine when either has none.
* v_rate = (C - SC) / C (1 when C = 0), V_index = f(v_rate) * h,
  C_P = C / CD, V_P = (C - SC) / CD, ratio = V_index / h (1 when h = 0).
* Each ``pos_*`` ranks by its value descending, then h descending, then CD
  descending, then entity id ascending.

Every check returns a list of problems; an empty list means the output is
right.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import statistics
from dataclasses import dataclass

TABLE_COLUMNS = (
    "entity_id", "CD", "pos_cd", "C", "SC", "C_P", "h", "pos_h", "h_star",
    "V_rate", "V_P", "V_index", "pos_v", "ratio",
)
HALF_UNIT = 0.0005 + 1e-9
MAX_PROBLEMS = 20


@dataclass(frozen=True)
class Entity:
    """The four aggregate numbers of one entity, plus h* when known."""

    cd: int
    c: int
    sc: int
    h: int
    h_star: int | None = None


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------

def h_of(counts) -> int:
    ranked = sorted(counts, reverse=True)
    return sum(1 for position, value in enumerate(ranked, start=1) if value >= position)


def parse_corpus(text: str) -> list[dict]:
    """Decode JSONL split on ``\\n`` only, normalised by the documented rules."""
    papers = []
    for line in text.split("\n"):
        if not line.strip():
            continue
        record = json.loads(line)
        refs = [ref for ref in dict.fromkeys(record.get("refs", [])) if ref != record["id"]]
        papers.append(
            {
                "id": record["id"],
                "authors": list(dict.fromkeys(record["authors"])),
                "venue": record.get("venue") or None,
                "refs": refs,
            }
        )
    return papers


def _is_self(citing: dict, cited: dict, mode: str) -> bool:
    if mode == "author":
        return not set(citing["authors"]).isdisjoint(cited["authors"])
    return citing["venue"] is not None and citing["venue"] == cited["venue"]


def received(papers: list[dict], mode: str) -> dict[str, tuple[list[int], list[int]]]:
    """Per entity in ``mode``: gross and net received counts of its papers, in corpus order."""
    by_id = {paper["id"]: paper for paper in papers}
    gross = dict.fromkeys(by_id, 0)
    net = dict.fromkeys(by_id, 0)
    for citing in papers:
        for ref in citing["refs"]:
            cited = by_id.get(ref)
            if cited is None:
                continue
            gross[ref] += 1
            net[ref] += not _is_self(citing, cited, mode)
    counts: dict[str, tuple[list[int], list[int]]] = {}
    for paper in papers:
        keys = paper["authors"] if mode == "author" else [paper["venue"]] if paper["venue"] else []
        for key in keys:
            g, f = counts.setdefault(key, ([], []))
            g.append(gross[paper["id"]])
            f.append(net[paper["id"]])
    return counts


def corpus_entities(counts: dict[str, tuple[list[int], list[int]]]) -> dict[str, Entity]:
    """Every entity's CD, C, SC, h and h* from its per-paper counts."""
    return {
        key: Entity(cd=len(g), c=sum(g), sc=sum(g) - sum(f), h=h_of(g), h_star=h_of(f))
        for key, (g, f) in counts.items()
    }


def self_edge_fraction(papers: list[dict]) -> float:
    """Share of in-corpus edges whose two papers share an author."""
    by_id = {paper["id"]: paper for paper in papers}
    edges = [(citing, by_id[ref]) for citing in papers for ref in citing["refs"] if ref in by_id]
    same = sum(_is_self(citing, cited, "author") for citing, cited in edges)
    return same / len(edges) if edges else 0.0


def aggregate_entities(text: str) -> dict[str, Entity]:
    """Entities of an ``entity_id,cd,c,sc,h`` CSV (read with RFC 4180 quoting)."""
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)
    return {
        row[0]: Entity(cd=int(row[1]), c=int(row[2]), sc=int(row[3]), h=int(row[4]))
        for row in reader
        if row
    }


# ---------------------------------------------------------------------------
# metric formulas and ordering
# ---------------------------------------------------------------------------

def weight(spec: str):
    """The discount f for a weight spec: sqrt, unity, linear, x^N, x^(1/N)."""
    if spec == "sqrt":
        return math.sqrt
    if spec == "unity":
        return lambda x: 1.0
    if spec == "linear":
        return lambda x: float(x)
    match = re.fullmatch(r"x\^\(1/(\d+)\)", spec)
    if match:
        n = int(match.group(1))
        return lambda x: float(x) ** (1.0 / n)
    match = re.fullmatch(r"x\^(\d+)", spec)
    if match:
        n = int(match.group(1))
        return lambda x: float(x) ** n
    raise ValueError(f"unknown weight spec {spec!r}")


def derived(entity: Entity, f=math.sqrt) -> dict[str, float]:
    rate = (entity.c - entity.sc) / entity.c if entity.c else 1.0
    v = f(rate) * entity.h
    return {
        "C_P": entity.c / entity.cd,
        "V_P": (entity.c - entity.sc) / entity.cd,
        "V_rate": rate,
        "V_index": v,
        "ratio": v / entity.h if entity.h else 1.0,
    }


def positions(entities: dict[str, Entity], key: str, f=math.sqrt) -> dict[str, int]:
    """1-based positions by ``key`` ("v", "h" or "cd") with the documented tie-breaks."""
    def value(name: str) -> float:
        entity = entities[name]
        if key == "v":
            return derived(entity, f)["V_index"]
        return entity.h if key == "h" else entity.cd

    order = sorted(
        entities,
        key=lambda name: (-value(name), -entities[name].h, -entities[name].cd, name),
    )
    return {name: position for position, name in enumerate(order, start=1)}


# ---------------------------------------------------------------------------
# parsing rendered output
# ---------------------------------------------------------------------------

def parse_table(text: str, fmt: str) -> list[list[str]]:
    """Rows of a rendered table (header first), from CSV or a markdown pipe table."""
    if fmt == "csv":
        return list(csv.reader(io.StringIO(text, newline="")))
    rows = []
    lines = text.split("\n")
    for number, line in enumerate(lines):
        if number == 1 or not line:
            continue
        if not (line.startswith("| ") and line.endswith(" |")):
            rows.append([line])
            continue
        cells = re.split(r"(?<!\\) \| ", line[2:-2])
        rows.append([cell.replace("\\|", "|") for cell in cells])
    return rows


def _close(printed: str, exact: float) -> bool:
    try:
        return abs(float(printed) - exact) <= HALF_UNIT and len(printed.rsplit(".", 1)[-1]) == 3
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_table(
    text: str,
    fmt: str,
    entities: dict[str, Entity],
    sort: str = "v",
    with_h_star: bool = False,
) -> list[str]:
    """A ``vindex metrics`` table against the reference entities.

    Integers must match exactly, reals within half a unit of the third
    decimal, every ``pos_*`` column must equal the reference ordering, and
    the rows must come in the order of ``sort``.
    """
    problems: list[str] = []
    rows = parse_table(text, fmt)
    if not rows or tuple(rows[0]) != TABLE_COLUMNS:
        return [f"table header is {rows[0] if rows else None!r}"]
    body = rows[1:]
    if len(body) != len(entities):
        return [f"table has {len(body)} rows, expected {len(entities)}"]
    pos = {key: positions(entities, key) for key in ("cd", "h", "v")}
    order = sorted(entities, key=lambda name: pos[sort][name])
    for line, (row, name) in enumerate(zip(body, order), start=2):
        if len(problems) >= MAX_PROBLEMS:
            break
        if len(row) != len(TABLE_COLUMNS):
            problems.append(f"row {line}: {len(row)} cells")
            continue
        cells = dict(zip(TABLE_COLUMNS, row))
        if cells["entity_id"] != name:
            problems.append(f"row {line}: entity {cells['entity_id']!r}, expected {name!r}")
            continue
        entity = entities[name]
        exact_ints = {
            "CD": entity.cd, "C": entity.c, "SC": entity.sc, "h": entity.h,
            "pos_cd": pos["cd"][name], "pos_h": pos["h"][name], "pos_v": pos["v"][name],
        }
        for column, expected in exact_ints.items():
            if cells[column] != str(expected):
                problems.append(f"row {line} {name!r}: {column} = {cells[column]}, expected {expected}")
        star = str(entity.h_star) if with_h_star else ""
        if cells["h_star"] != star:
            problems.append(f"row {line} {name!r}: h_star = {cells['h_star']!r}, expected {star!r}")
        for column, expected in derived(entity).items():
            if not _close(cells[column], expected):
                problems.append(f"row {line} {name!r}: {column} = {cells[column]}, expected {expected!r}")
    return problems


def check_compare(
    text: str, entities: dict[str, Entity], weight_a: str, weight_b: str
) -> list[str]:
    """A ``vindex compare`` CSV: ranks under each weight and delta = rank_a - rank_b."""
    rows = parse_table(text, "csv")
    if not rows or rows[0] != ["entity_id", "rank_a", "rank_b", "delta"]:
        return [f"compare header is {rows[0] if rows else None!r}"]
    rank_a = positions(entities, "v", weight(weight_a))
    rank_b = positions(entities, "v", weight(weight_b))
    expected = sorted(
        ((name, rank_a[name], rank_b[name]) for name in entities),
        key=lambda item: (-abs(item[1] - item[2]), item[0]),
    )
    body = rows[1:]
    if len(body) != len(expected):
        return [f"compare has {len(body)} rows, expected {len(expected)}"]
    problems = []
    for line, (row, (name, a, b)) in enumerate(zip(body, expected), start=2):
        if row != [name, str(a), str(b), str(a - b)]:
            problems.append(f"compare row {line}: {row!r}, expected {[name, a, b, a - b]!r}")
            if len(problems) >= MAX_PROBLEMS:
                break
    return problems


def check_validate(
    stdout: str, errors: int = 0, self_ref_papers: int = 0, dangling_refs: int = 0,
    error_lines: tuple[int, ...] = (),
) -> list[str]:
    """A ``vindex validate`` report: exact error, self-reference and dangling
    counts, and an error naming each of ``error_lines``."""
    lines = stdout.rstrip("\n").split("\n")
    warnings = [line for line in lines if line.startswith("warning: ")]
    problems = [
        f"validate names no error on line {number}"
        for number in error_lines
        if not any(line.startswith(f"error: line {number}:") for line in lines)
    ]
    cites_itself = sum(1 for line in warnings if "cites itself" in line)
    if cites_itself != self_ref_papers:
        problems.append(f"validate names {cites_itself} self-citing papers, expected {self_ref_papers}")
    dangling = re.findall(r"(\d+) reference\(s\) point outside the corpus", stdout)
    if [int(n) for n in dangling] != ([dangling_refs] if dangling_refs else []):
        problems.append(f"validate reports dangling {dangling!r}, expected {dangling_refs}")
    expected_warnings = self_ref_papers + bool(dangling_refs)
    summary = f"{errors} error(s), {expected_warnings} warning(s)"
    if lines[-1] != summary:
        problems.append(f"validate summary {lines[-1]!r}, expected {summary!r}")
    return problems


def check_synth(text: str, n_papers: int, stderr: str) -> list[str]:
    """Properties of a ``vindex synth`` corpus and its reported self-citation share."""
    problems = []
    records = [json.loads(line) for line in text.split("\n") if line]
    ids = [record["id"] for record in records]
    if len(ids) != n_papers or len(set(ids)) != n_papers:
        problems.append(f"synth wrote {len(ids)} papers ({len(set(ids))} unique ids), expected {n_papers}")
    earlier: set[str] = set()
    for record in records:
        if not 1 <= len(record["authors"]) <= 4 or len(set(record["authors"])) != len(record["authors"]):
            problems.append(f"paper {record['id']}: {len(record['authors'])} authors")
        refs = record.get("refs", [])
        if len(refs) > 4 or len(set(refs)) != len(refs) or not earlier.issuperset(refs):
            problems.append(f"paper {record['id']}: refs {refs!r} not distinct earlier papers")
        earlier.add(record["id"])
        if len(problems) >= MAX_PROBLEMS:
            return problems
    share = self_edge_fraction(parse_corpus(text))
    match = re.search(r"self-citation fraction \(author mode\): (\d+\.\d+)", stderr)
    if match is None or not _close(match.group(1), share):
        problems.append(f"synth reported {stderr.strip()!r}, recomputed fraction {share!r}")
    return problems


def check_curves(curves, per_paper, entities: dict[str, Entity]) -> list[str]:
    """Citation curves: both sorted descending, areas C and C - SC, one point per paper."""
    problems = []
    if len(curves) != len(per_paper):
        return [f"{len(curves)} curves for {len(per_paper)} entities"]
    for name, g, f in curves:
        expected_g, expected_f = per_paper[name]
        if list(g) != sorted(expected_g, reverse=True) or list(f) != sorted(expected_f, reverse=True):
            problems.append(f"curves of {name!r} differ from the per-paper counts")
        elif sum(g) != entities[name].c or sum(f) != entities[name].c - entities[name].sc:
            problems.append(f"curve areas of {name!r} are not C and C - SC")
        if len(problems) >= MAX_PROBLEMS:
            break
    return problems


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) by the Lentz continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    result = d
    for m in range(1, 10000):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            result *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    return math.exp(log_front) * result / a


def check_pearson(rho: float, p_value: float, x, y) -> list[str]:
    """rho to 1e-9 and the two-sided p to 1e-6 relative (tiny p only as tiny)."""
    n = len(x)
    mx, my = math.fsum(x) / n, math.fsum(y) / n
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = math.fsum((a - mx) ** 2 for a in x)
    syy = math.fsum((b - my) ** 2 for b in y)
    expected = max(-1.0, min(1.0, sxy / math.sqrt(sxx * syy)))
    problems = []
    if abs(rho - expected) > 1e-9:
        problems.append(f"pearson rho {rho!r}, expected {expected!r}")
    dof = n - 2
    p = 0.0 if abs(expected) >= 1.0 else _betainc(
        dof / 2.0, 0.5, dof / (dof + expected * expected * dof / (1.0 - expected * expected))
    )
    if not 0.0 < p_value <= 1.0:
        problems.append(f"pearson p {p_value!r} outside (0, 1]")
    elif p < 1e-290:
        if p_value > 1e-280:
            problems.append(f"pearson p {p_value!r}, expected below 1e-290")
    elif abs(p_value - p) > 1e-6 * p:
        problems.append(f"pearson p {p_value!r}, expected {p!r}")
    return problems


def check_batch_stats(stats, values) -> list[str]:
    expected = {
        "mean": statistics.fmean(values),
        "median": statistics.median(values),
        "std_dev": statistics.stdev(values) if len(values) > 1 else 0.0,
        "min": min(values),
        "max": max(values),
    }
    return [
        f"batch_stats {name} {getattr(stats, name)!r}, expected {value!r}"
        for name, value in expected.items()
        if not math.isclose(getattr(stats, name), value, rel_tol=1e-9, abs_tol=1e-12)
    ]


def check_reference_table(text: str, reference_csv: str, columns) -> list[str]:
    """A rendered table against the printed cells of a bundled ``data/`` table."""
    rows = parse_table(text, "csv")
    got = {row[0]: dict(zip(TABLE_COLUMNS, row)) for row in rows[1:]}
    names = {
        "C_P": "c_p", "V_rate": "v_rate", "V_P": "v_p", "V_index": "v_index", "ratio": "ratio",
        "pos_cd": "pos_cd", "pos_h": "pos_h", "pos_v": "pos_v",
    }
    problems = []
    reference = list(csv.DictReader(io.StringIO(reference_csv, newline="")))
    if len(got) != len(reference):
        return [f"table has {len(got)} rows, reference {len(reference)}"]
    for row in reference:
        mine = got.get(row["entity_id"])
        if mine is None:
            problems.append(f"{row['entity_id']!r} missing")
            continue
        for column in columns:
            printed = row[names[column]]
            if column.startswith("pos_"):
                ok = mine[column] == printed
            else:
                ok = abs(float(mine[column]) - float(printed)) <= HALF_UNIT
            if not ok:
                problems.append(f"{row['entity_id']!r}: {column} {mine[column]}, reference {printed}")
    return problems
