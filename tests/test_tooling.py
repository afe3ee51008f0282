"""The benchmark tracer and the tools name real program functions, and the
constructor still builds the pinned digest of `tools/construct_scale.py`.

`perfbench/tracer.py` wraps the functions its ``LAYERS`` table names by
module and attribute, and the scripts under ``tools/`` import names from
``orient2``, private ones included.  A rename in the program would leave
a traced run or a tool failing at start-up, so every name is resolved
here against ``orient2``.  The table and the imports are read from the
files' source; nothing under ``perfbench/`` is imported or run, and of
``tools/`` only `construct_scale.py` is loaded, for its instances and
digest.
"""

import ast
import importlib
from pathlib import Path

import pytest

from conftest import load_tool

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


CONSTRUCT_SCALE = ROOT / "tools" / "construct_scale.py"


@pytest.mark.skipif(not CONSTRUCT_SCALE.is_file(), reason="tools/construct_scale.py is absent")
def test_construct_scale_digest_at_order_200():
    # the golden corpus stops at n = 36; this pins seeds 1..5 of the tool at n = 200
    from orient2.construct import orient_diameter_two

    tool = load_tool("construct_scale")
    digest = 0
    for seed in range(1, 6):
        o, trace = orient_diameter_two(tool.threshold_instance(200, seed))
        digest = tool.fold_digest(digest, o, trace)
    assert f"{digest:08x}" == "a689d353"


@pytest.mark.skipif(not CONSTRUCT_SCALE.is_file(), reason="tools/construct_scale.py is absent")
def test_construct_scale_digest_and_replay_at_order_400():
    # traces about 190 levels deep, recorded by rank: replay maps the ranks
    # back to labels and must rebuild each seed's orientation
    from orient2.construct import orient_diameter_two, replay_trace

    tool = load_tool("construct_scale")
    digest = 0
    for seed in range(1, 6):
        g = tool.threshold_instance(400, seed)
        o, trace = orient_diameter_two(g)
        assert len(trace.steps) > 150 and trace.fallback_count() == 0
        assert replay_trace(g, trace) == o
        digest = tool.fold_digest(digest, o, trace)
    assert f"{digest:08x}" == "072b6871"
