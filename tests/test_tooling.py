"""The benchmark tracer names real program functions.

`perfbench/tracer.py` wraps the functions its ``LAYERS`` table names by
module and attribute.  A rename in the program would leave a traced run
failing at start-up, so every name is resolved here against ``orient2``.
The table is read from the file's source; nothing under ``perfbench/``
is imported or run.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
