"""The package's modules import one way, and every protocol has an engine."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

from onebitsim import predict
from onebitsim.protocols import PROTOCOLS

PACKAGE = Path(predict.__file__).parent


def _relative_imports(path):
    """(module imported, whether the statement is at module level) for each
    relative import in ``path``, at any depth: function bodies and
    ``TYPE_CHECKING`` blocks too. ``from . import x`` imports ``x``."""
    tree = ast.parse(path.read_text())
    top = {id(node) for node in tree.body}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [a.name for a in node.names]
            for name in names:
                yield name.split(".")[0], id(node) in top


def _module_graph():
    """Each package module's imports of the others. ``__init__`` is left
    out: every module loads it first, and it loads the modules it re-exports."""
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    return {
        name: {dep for dep, _ in _relative_imports(PACKAGE / f"{name}.py")} & modules
        for name in modules
    }


def test_package_modules_import_without_a_cycle():
    try:
        list(TopologicalSorter(_module_graph()).static_order())
    except CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


def test_package_modules_import_each_other_at_module_level():
    nested = [
        f"{path.stem} imports {dep}"
        for path in PACKAGE.glob("*.py")
        for dep, at_top in _relative_imports(path)
        if not at_top
    ]
    assert nested == []


def test_every_protocol_has_a_batch_engine():
    assert set(predict._ENGINES) == set(PROTOCOLS)
