"""The export lists name only what exists, every exported name and every
member of an exported class has a reader outside the tests, and deleted names
and members stay deleted."""

from __future__ import annotations

import ast
import inspect
import textwrap
from pathlib import Path

import pytest

import vindex
from vindex import analytics, cli, errors, graph, metrics

SUBMODULES = (graph, metrics, analytics, cli)

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("module", (vindex, *SUBMODULES), ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def _error_classes() -> set[str]:
    return {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.VindexError)
    }


def test_package_exports_only_submodule_names():
    error_classes = _error_classes()
    allowed = set().union(*(module.__all__ for module in SUBMODULES))
    unknown = set(vindex.__all__) - allowed - error_classes - {"__version__"}
    assert unknown == set()


ERROR_CLASSES = [
    "VindexError",
    "DomainError",
    "CorpusParseError",
    "CorpusIntegrityError",
]


def test_package_exports_every_layer_name_once():
    assert set(ERROR_CLASSES) == _error_classes()
    layers = [*metrics.__all__, *graph.__all__, *analytics.__all__]
    assert len(set(vindex.__all__)) == len(vindex.__all__)
    assert vindex.__all__ == ["__version__", *ERROR_CLASSES, *layers]


def test_star_import_binds_every_exported_name():
    namespace: dict[str, object] = {}
    exec("from vindex import *", namespace)
    for name in vindex.__all__:
        assert namespace[name] is getattr(vindex, name)


# Exported names that no module outside the tests uses, each with the
# reason it stays public.
JUSTIFIED = {
    "write_aggregate_csv": "writes the aggregate CSV format, the inverse of read_aggregate_csv, "
    "so a corpus's aggregates can be fed back in with --kind aggregate",
}

# The names under which modules outside the tests reach a vindex module.
VINDEX_MODULES = {"vindex", "graph", "metrics", "analytics", "cli", "errors"}


def _identifiers_used(path: Path) -> set[str]:
    """Every name a module reads, every attribute it reads off a vindex
    module, and every name it imports. Assigned names are left out, so a
    definition does not count as a use; an ``__all__`` entry is a string and
    never counts either. An attribute read off anything else, such as the
    ``row.v_index`` field, is not a use of the function of that name."""
    used: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id in VINDEX_MODULES:
                used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
    return used


def _paths_outside_tests() -> list[Path]:
    # The package __init__ only re-exports, and bench/test_*.py are tests.
    paths = [
        path
        for directory in ("src", "demos", "bench")
        for path in sorted((REPO / directory).rglob("*.py"))
        if not path.name.startswith("test_") and path != Path(vindex.__file__).resolve()
    ]
    assert len(paths) >= 10
    return paths


def _callers_outside_tests() -> set[str]:
    return set().union(*map(_identifiers_used, _paths_outside_tests()))


def test_every_exported_name_has_a_caller_outside_the_tests():
    exported = {*vindex.__all__, *cli.__all__} - {"__version__"}
    unused = exported - _callers_outside_tests()
    assert sorted(unused - set(JUSTIFIED)) == []
    # Every justification names a real export that still needs one.
    assert set(JUSTIFIED) <= unused


# Members of exported classes that no module outside the tests reads as an
# attribute, each with the reason it stays.
JUSTIFIED_MEMBERS = {
    "BatchStats.std_dev": "bench/checker.py reads every BatchStats field by name through getattr",
}


def _attributes_read(path: Path) -> set[str]:
    """Every attribute name a module reads, off any object: a member counts
    as read wherever an attribute of its name is."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _instance_attributes(cls: type) -> set[str]:
    """The attributes that the ``__init__`` or ``__post_init__`` a class
    declares itself assigns on its instance, read from the class source."""
    (tree,) = ast.parse(textwrap.dedent(inspect.getsource(cls))).body
    names = set()
    for method in tree.body:
        if isinstance(method, ast.FunctionDef) and method.name in ("__init__", "__post_init__"):
            instance = method.args.args[0].arg
            names.update(
                node.attr
                for node in ast.walk(method)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == instance
            )
    return names


def _public_members(cls: type) -> set[str]:
    """The fields, properties, methods and instance attributes a class
    declares itself, leaving out private and dunder names."""
    names = set(vars(cls)) | _instance_attributes(cls)
    names.update(getattr(cls, "_fields", ()))
    return {name for name in names if not name.startswith("_")}


def test_every_exported_member_is_read_outside_the_tests():
    exported = [getattr(vindex, name) for name in vindex.__all__]
    classes = [value for value in exported if isinstance(value, type)]
    assert len(classes) >= 10
    read = set().union(*map(_attributes_read, _paths_outside_tests()))
    unread = {
        f"{cls.__name__}.{name}" for cls in classes for name in _public_members(cls) - read
    }
    assert sorted(unread - set(JUSTIFIED_MEMBERS)) == []
    # Every justification names a real member that still needs one.
    assert set(JUSTIFIED_MEMBERS) <= unread


@pytest.mark.parametrize(
    "name",
    [
        "CitationClass",
        "classify_citation",
        "aggregate_entity",
        "RunConfig",
        "cmd_metrics",
        "cmd_validate",
        "cmd_synth",
        "cmd_compare",
        "build_parser",
        "citations_per_publication",
        "adjusted_citations_per_publication",
        "round3",
        "UnknownEntityError",
        "generalized_v_index",
        "v_rate",
        "v_index",
    ],
)
def test_deleted_names_are_gone(name):
    for module in (vindex, metrics, analytics, graph, errors, cli):
        assert not hasattr(module, name), f"{module.__name__}.{name}"
        assert name not in getattr(module, "__all__", ())


def test_deleted_members_are_gone():
    for name in ("paper", "__len__", "__contains__", "__iter__"):
        assert not hasattr(graph.Corpus, name), name
    assert "mode" not in graph.EntityAggregate._fields
    for name in ("spec", "sqrt", "unity", "linear", "concave", "convex"):
        assert not hasattr(metrics.WeightFunction, name), name
    assert analytics.RankedTable._fields == ("rows",)
    assert analytics.CorrelationResult._fields == ("rho", "p_value")
    assert not hasattr(analytics.CitationCurves, "to_csv")
    assert list(inspect.signature(graph.self_citation_fraction).parameters) == ["corpus"]
    assert "__init__" not in vars(errors.VindexError)
    error = errors.VindexError("line 2: message")
    assert not hasattr(error, "line") and not hasattr(error, "source")
