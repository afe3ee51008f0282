"""The benchmark tracer and the tools name real program functions.

`perfbench/tracer.py` wraps the functions its ``LAYERS`` table names by
module and attribute, and the scripts under ``tools/`` import names from
``orient2``, private ones included.  A rename in the program would leave
a traced run or a tool failing at start-up, so every name is resolved
here against ``orient2``.  The table and the imports are read from the
files' source; nothing under ``perfbench/`` or ``tools/`` is imported or
run.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
TOOLS = sorted((ROOT / "tools").glob("*.py"))


def tracer_layers():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "LAYERS":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYERS table")


@pytest.mark.skipif(not TRACER.is_file(), reason="perfbench/ is absent")
def test_every_tracer_layer_resolves():
    layers = tracer_layers()
    assert layers
    missing = [
        f"{module}.{attr}"
        for _, module, attr, _ in layers
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, f"tracer LAYERS name functions orient2 no longer has: {missing}"


def tool_imports(path):
    """(module, name) for every ``from orient2... import name`` in the file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "orient2":
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.skipif(not TOOLS, reason="tools/ is absent")
@pytest.mark.parametrize("path", TOOLS, ids=lambda path: path.name)
def test_every_tool_import_resolves(path):
    names = list(tool_imports(path))
    missing = [
        f"{module}.{name}"
        for module, name in names
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, f"{path.name} imports names orient2 no longer has: {missing}"
