"""The two kernels must be interchangeable: same answers, same witnesses,
same node counts, same budget behavior.

Where ``orient2._speedups`` is not installed, the module builds
``src/orient2/_speedups.c`` into pytest's temporary directory and loads
it from there; it skips only when no C compiler is on PATH."""

import importlib.util
import random
import shutil
import sysconfig
from pathlib import Path

import pytest

from conftest import complete_graph, cycle_graph, petersen, reference_solve, slack_instances
from orient2 import _backend, _pysearch
from orient2._backend import backend_name, ordered_edges
from orient2.graphs import Digraph, Graph, Orientation, is_bridgeless, is_connected
from orient2.oracle import (
    DecisionOutcome,
    SearchBudget,
    SearchStatus,
    exact_oriented_diameter,
    exists_orientation_diameter2,
    extremal_graph,
)

SOURCE = Path(__file__).resolve().parents[1] / "src" / "orient2" / "_speedups.c"


@pytest.fixture(scope="module")
def speedups(tmp_path_factory):
    try:
        from orient2 import _speedups

        return _speedups
    except ImportError:
        pass
    cc = (sysconfig.get_config_var("CC") or "").split()
    if not cc or shutil.which(cc[0]) is None:
        pytest.skip("no C compiler to build the compiled kernel")
    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext

    tmp = tmp_path_factory.mktemp("speedups")
    cmd = build_ext(Distribution({"ext_modules": [Extension("orient2._speedups", [str(SOURCE)])]}))
    cmd.build_lib = str(tmp / "lib")
    cmd.build_temp = str(tmp / "temp")
    cmd.ensure_finalized()
    cmd.run()
    spec = importlib.util.spec_from_file_location("orient2._speedups", cmd.get_ext_fullpath("orient2._speedups"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compiled_backend_active_by_default():
    # "compiled" wherever the extension is installed, whatever the environment says
    installed = importlib.util.find_spec("orient2._speedups") is not None
    assert backend_name() == ("compiled" if installed else "python")


def _both(speedups, n, edges, d, max_nodes, time_limit=None):
    got = speedups.solve(n, edges, d, max_nodes, time_limit)
    assert got == _pysearch.solve(n, edges, d, max_nodes, time_limit), (n, edges, d, max_nodes)
    return got


class TestKernelEquivalence:
    def test_fuzz_solve(self, speedups):
        rng = random.Random(151515)
        statuses = set()
        for _ in range(1000):
            n = rng.randint(2, 12)
            p = rng.uniform(0.2, 0.95)
            g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
            if rng.random() < 0.5:
                edges = ordered_edges(g)
            else:
                edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges()]
                rng.shuffle(edges)
            d = rng.randint(1, 5)
            max_nodes = 10**7 if rng.random() < 0.5 else rng.randint(0, 30)
            statuses.add(_both(speedups, n, edges, d, max_nodes)[0])
        assert statuses == {_pysearch.STATUS_NO, _pysearch.STATUS_YES, _pysearch.STATUS_BUDGET}

    def test_fuzz_where_sources_have_slack(self, speedups):
        statuses = {_both(speedups, *instance)[0] for instance in slack_instances(random.Random(151516), 300)}
        assert statuses == {_pysearch.STATUS_NO, _pysearch.STATUS_YES, _pysearch.STATUS_BUDGET}

    @pytest.mark.parametrize("n, restart_nodes", [(5, 20), (6, 21), (7, 27), (8, 33), (9, 39)])
    def test_sharpness_node_counts(self, speedups, n, restart_nodes):
        # 3n - 3 nodes with one cyclic scan, more when the scan restarts at
        # edge 0 after each forced edge
        edges = ordered_edges(extremal_graph(n))
        assert _both(speedups, n, edges, 2, 10**7) == (_pysearch.STATUS_NO, None, 3 * n - 3)
        assert reference_solve(n, edges, 2, 10**7, restart=True)[2] == restart_nodes

    def test_petersen_level_node_counts(self, speedups):
        edges = ordered_edges(petersen())
        got = [_both(speedups, 10, edges, d, 10**7) for d in range(2, 7)]
        assert [nodes for _, _, nodes in got] == [1, 1, 43, 308, 15]
        assert [status for status, _, _ in got] == [_pysearch.STATUS_NO] * 4 + [_pysearch.STATUS_YES]

    @pytest.mark.parametrize(
        "g, d, nodes", [(extremal_graph(9), 2, 24), (petersen(), 5, 308)], ids=["sharpness-9", "petersen-5"]
    )
    def test_budget_of_exactly_the_node_count_decides(self, speedups, g, d, nodes):
        # the node that would exceed the budget is still counted
        edges = ordered_edges(g)
        assert _both(speedups, g.n, edges, d, nodes) == (_pysearch.STATUS_NO, None, nodes)
        assert _both(speedups, g.n, edges, d, nodes - 1) == (_pysearch.STATUS_BUDGET, None, nodes)

    def test_identical_budget_cutoffs(self, speedups):
        eo = ordered_edges(complete_graph(7))
        for budget in (1, 2, 5, 11, 50):
            _both(speedups, 7, eo, 2, budget)

    def test_identical_witness_on_petersen(self, speedups):
        assert _both(speedups, 10, ordered_edges(petersen()), 6, 10**7)[0] == _pysearch.STATUS_YES

    def test_zero_time_limit_stops_at_first_clock_read(self, speedups):
        # a bridgeless graph whose d = 3 search takes 3,437 nodes; the clock
        # is first read at node 2,048
        rng = random.Random(6)
        pairs = [(u, v) for u in range(19) for v in range(u + 1, 19)]
        g = Graph.from_edges(19, sorted(rng.sample(pairs, 58)))
        assert is_connected(g) and is_bridgeless(g)
        eo = ordered_edges(g)
        assert speedups.solve(19, eo, 3, 10**7, None)[::2] == (_pysearch.STATUS_YES, 3437)
        assert _both(speedups, 19, eo, 3, 10**7, 0.0) == (_pysearch.STATUS_BUDGET, None, 2048)

    def test_no_answers_match(self, speedups):
        eo = ordered_edges(cycle_graph(6))
        for d in (2, 3, 4):
            assert _both(speedups, 6, eo, d, 10**7)[0] == _pysearch.STATUS_NO

    def test_edge_order_is_degree_ranked(self):
        g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])
        eo = ordered_edges(g)
        # vertices 3 and 4 have degree 1 and rank first
        assert eo[0][0] in (3, 4)


BAD_EDGES = [
    (3, [(0, 1), (1, 2), (0, 70)], "distinct vertices"),
    (3, [(0, 1), (1, -1)], "distinct vertices"),
    (3, [(0, 1), (2, 2)], "distinct vertices"),
    (3, [(0, 1, 2)], "distinct vertices"),
    (3, [(0, 1), (1, 0)], "repeats"),
]


class TestPureArguments:
    """The pure kernel rejects what the compiled one rejects, without a compiler."""

    @pytest.mark.parametrize("n, edges, message", [(-1, [], "number of vertices"), *BAD_EDGES])
    def test_bad_input_raises(self, n, edges, message):
        with pytest.raises(ValueError, match=message):
            _pysearch.solve(n, edges, 2, 100)

    def test_negative_diameter_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            _pysearch.solve(3, [(0, 1), (1, 2), (0, 2)], -1, 100)


class TestCompiledArguments:
    def test_budget_beyond_long_long_is_unlimited(self, speedups):
        eo = ordered_edges(extremal_graph(6))
        assert _both(speedups, 6, eo, 2, 10**20) == (_pysearch.STATUS_NO, None, 15)
        assert _both(speedups, 6, eo, 2, -(10**20)) == (_pysearch.STATUS_BUDGET, None, 1)

    def test_budget_beyond_long_long_through_the_oracle(self, speedups, monkeypatch):
        budget = SearchBudget(max_nodes=10**20)
        expected = exact_oriented_diameter(extremal_graph(6), budget)
        monkeypatch.setattr(_backend, "_impl", speedups)
        monkeypatch.setattr(_backend, "BACKEND", "compiled")
        assert exact_oriented_diameter(extremal_graph(6), budget) == expected == 3

    def test_large_orders_route_to_the_pure_kernel(self, speedups, monkeypatch):
        monkeypatch.setattr(_backend, "_impl", speedups)
        monkeypatch.setattr(_backend, "BACKEND", "compiled")
        assert _backend.solve_bounded_diameter(63, [], 1, 10) == (_pysearch.STATUS_NO, None, 0)

    @pytest.mark.parametrize("n, edges, message", [(63, [], "0..62 vertices"), (-1, [], "0..62 vertices"), *BAD_EDGES])
    def test_bad_input_raises(self, speedups, n, edges, message):
        with pytest.raises(ValueError, match=message):
            speedups.solve(n, edges, 2, 100)

    def test_negative_diameter_raises(self, speedups):
        with pytest.raises(ValueError, match="non-negative"):
            speedups.solve(3, [(0, 1), (1, 2), (0, 2)], -1, 100)


@pytest.fixture(params=["python", "compiled"])
def kernel(request, monkeypatch):
    """Routes `_backend` to the pure kernel or to the compiled one."""
    impl = _pysearch if request.param == "python" else request.getfixturevalue("speedups")
    monkeypatch.setattr(_backend, "_impl", impl)
    monkeypatch.setattr(_backend, "BACKEND", request.param)
    return request.param


def _two_triangles() -> Graph:
    return Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


class TestDecisionLeftToTheKernel:
    """`exists_orientation_diameter2` tests only for bridges; the kernel's
    first reach check settles the other inputs no orientation can serve,
    and the trivial ones, before its first node."""

    @pytest.mark.parametrize(
        "g, status",
        [
            (Graph.from_edges(0, []), SearchStatus.YES),
            (Graph.from_edges(1, []), SearchStatus.YES),
            (Graph.from_edges(2, []), SearchStatus.NO),
            (_two_triangles(), SearchStatus.NO),
            (cycle_graph(6), SearchStatus.NO),
        ],
        ids=["K0", "K1", "2K1", "two-triangles", "C6"],
    )
    def test_settled_without_a_node(self, kernel, g, status):
        outcome = exists_orientation_diameter2(g)
        assert (outcome.status, outcome.nodes) == (status, 0)
        expected = Orientation(g, Digraph(g.n, (0,) * g.n)) if status is SearchStatus.YES else None
        assert outcome.orientation == expected

    @pytest.mark.parametrize("n, restart_nodes", [(5, 20), (6, 21), (7, 27), (8, 33), (9, 39)])
    def test_sharpness_orders(self, kernel, n, restart_nodes):
        # 3n - 3 nodes with one cyclic scan, more when the scan restarts at
        # edge 0 after each forced edge
        g = extremal_graph(n)
        assert exists_orientation_diameter2(g) == DecisionOutcome(SearchStatus.NO, None, 3 * n - 3)
        assert reference_solve(n, ordered_edges(g), 2, 10**7, restart=True)[2] == restart_nodes
