"""The export lists name only what exists, and deleted names stay deleted."""

from __future__ import annotations

import pytest

import vindex
from vindex import analytics, cli, errors, graph, metrics

SUBMODULES = (graph, metrics, analytics, cli)


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
    "UnknownEntityError",
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
    ],
)
def test_deleted_names_are_gone(name):
    for module in (vindex, graph, cli):
        assert not hasattr(module, name), f"{module.__name__}.{name}"
        assert name not in module.__all__
