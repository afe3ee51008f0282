import json
import random
from itertools import combinations

import pytest

from conftest import complete_graph, path_graph, petersen
from orient2 import cli, construct
from orient2.codec import emit_graph6, parse_digraph6
from orient2.construct import InternalVerificationError, orient_diameter_two
from orient2.graphs import Graph, Orientation, complement, diameter
from orient2.oracle import extremal_graph


def run_cli(capsys, monkeypatch, argv, stdin=""):
    import io
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOrient:
    def test_k5_digraph6(self, capsys, monkeypatch):
        code, out, err = run_cli(capsys, monkeypatch, ["orient"], emit_graph6(complete_graph(5)) + "\n")
        assert code == 0
        d = parse_digraph6(out.strip())
        assert diameter(d) <= 2

    def test_reparsed_output_is_valid_orientation(self, capsys, monkeypatch):
        g = complete_graph(7)
        code, out, _ = run_cli(capsys, monkeypatch, ["orient"], emit_graph6(g) + "\n")
        assert code == 0
        d = parse_digraph6(out.strip())
        Orientation(g, d)  # validates the arcs orient exactly the input edges

    def test_batch_lines(self, capsys, monkeypatch):
        stdin = emit_graph6(complete_graph(5)) + "\n" + emit_graph6(complete_graph(6)) + "\n"
        code, out, _ = run_cli(capsys, monkeypatch, ["orient"], stdin)
        assert code == 0 and len(out.strip().splitlines()) == 2

    def test_json_schema(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, monkeypatch, ["orient", "--json", "--trace"], emit_graph6(complete_graph(6)) + "\n"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "orient2/1"
        assert payload["diameter"] == 2
        assert payload["trace"][0]["kind"] == "pad"

    def test_json_deterministic(self, capsys, monkeypatch):
        stdin = emit_graph6(complete_graph(8)) + "\n"
        _, out1, _ = run_cli(capsys, monkeypatch, ["orient", "--json"], stdin)
        _, out2, _ = run_cli(capsys, monkeypatch, ["orient", "--json"], stdin)
        assert out1 == out2

    def test_below_threshold_exit_2(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, monkeypatch, ["orient"], emit_graph6(extremal_graph(6)) + "\n")
        assert code == 2 and "14" in err  # threshold for n=6 named in the message

    def test_malformed_exit_2(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, monkeypatch, ["orient"], "not-a-graph((\n")
        assert code == 2 and err

    def test_edge_list_input(self, capsys, monkeypatch):
        text = "5 10\n" + "\n".join(f"{u} {v}" for u in range(5) for v in range(u + 1, 5)) + "\n"
        code, out, _ = run_cli(capsys, monkeypatch, ["orient"], text)
        assert code == 0
        assert diameter(parse_digraph6(out.strip())) <= 2

    def test_order_80_line(self, capsys, monkeypatch):
        # past the single-byte graph6 order: long headers in and out
        rng = random.Random(80)
        g = complement(Graph.from_edges(80, rng.sample(list(combinations(range(80), 2)), 75)))
        line = emit_graph6(g)
        assert line.startswith("~")
        code, out, err = run_cli(capsys, monkeypatch, ["orient"], line + "\n")
        assert code == 0 and not err
        d = parse_digraph6(out.strip())
        Orientation(g, d)  # the arcs orient exactly the input edges
        assert diameter(d) <= 2

    def test_text_trace_follows_each_orientation(self, capsys, monkeypatch):
        rng = random.Random(20)
        blue = Graph.from_edges(20, rng.sample(list(combinations(range(20), 2)), 15))
        graphs = [complete_graph(8), complement(blue)]
        stdin = "".join(emit_graph6(g) + "\n" for g in graphs)
        code, out, err = run_cli(capsys, monkeypatch, ["orient", "--trace"], stdin)
        assert code == 0 and not err
        blocks = []  # each digraph6 line with the JSON of the '# ' lines below it
        for line in out.splitlines():
            if line.startswith("# "):
                blocks[-1][1].append(json.loads(line[2:]))
            else:
                blocks.append((line, []))
        assert len(blocks) == 2
        for g, (encoded, entries) in zip(graphs, blocks):
            o, trace = orient_diameter_two(g)
            assert parse_digraph6(encoded) == o.dir
            assert entries == trace.to_json() and len(entries) > 1

    def test_order_below_five_exit_2_and_the_batch_goes_on(self, capsys, monkeypatch):
        k5 = emit_graph6(complete_graph(5))
        below = emit_graph6(extremal_graph(6))  # 13 edges, one below the threshold
        _, single, _ = run_cli(capsys, monkeypatch, ["orient"], k5 + "\n")
        code, out, err = run_cli(capsys, monkeypatch, ["orient"], f"C~\n{below}\n{k5}\n")
        assert code == 2 and out == single
        assert err == (
            "error: line 1: need at least 5 vertices, got 4\n"
            "error: line 2: graph of order 6 has 13 edges; 14 are required\n"
        )

    def test_large_line_below_threshold_is_rejected_before_any_work(self, capsys, monkeypatch):
        # the rule reads the order and edge count alone: no complement of order 100,000 is built
        def small_only(g):
            assert g.n <= 5, f"complement built at order {g.n}"
            return complement(g)

        k5 = emit_graph6(complete_graph(5))
        _, single, _ = run_cli(capsys, monkeypatch, ["orient"], k5 + "\n")
        monkeypatch.setattr(construct, "complement", small_only)
        code, out, err = run_cli(capsys, monkeypatch, ["orient"], f"{k5}\n100000 0\n{k5}\n")
        assert code == 2 and out == single * 2
        assert err == "error: line 2: graph of order 100000 has 0 edges; 4999850005 are required\n"

    def test_a_fault_in_the_descent_is_not_bad_input(self, capsys, monkeypatch):
        def faulty(blue, count):
            raise ValueError("islice count out of range")

        monkeypatch.setattr(construct, "_first_red_pairs", faulty)
        code, out, err = run_cli(capsys, monkeypatch, ["orient"], emit_graph6(complete_graph(5)) + "\n")
        assert code == cli.EXIT_VERIFY_FAILED and out == ""
        assert err == "error: line 1: internal error: construction failed: islice count out of range\n"

    def test_bad_budget_variable_fails_the_batch(self, capsys, monkeypatch):
        # with every constructor move refused, each line would reach the
        # exhaustive fallback, which reads ORIENT2_BUDGET
        from orient2 import construct

        for name in ("_base_case_with_family", "find_reduction", "find_violating_triple"):
            monkeypatch.setattr(construct, name, lambda *args: None)
        monkeypatch.setenv("ORIENT2_BUDGET", "abc")
        k9 = emit_graph6(complete_graph(9))
        code, out, err = run_cli(capsys, monkeypatch, ["orient"], f"{k9}\n{k9}\n")
        assert code == 2 and out == ""
        assert err == "error: ORIENT2_BUDGET must be an integer of at least 0, got 'abc'\n"


class TestDiameter:
    def test_petersen(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["diameter"], emit_graph6(petersen()) + "\n")
        assert code == 0 and out.strip() == "6"

    def test_path_infinite(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["diameter"], emit_graph6(path_graph(3)) + "\n")
        assert code == 0 and out.strip() == "infinite"

    def test_c5_four(self, capsys, monkeypatch):
        c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        code, out, _ = run_cli(capsys, monkeypatch, ["diameter"], emit_graph6(c5) + "\n")
        assert code == 0 and out.strip() == "4"

    def test_budget_indeterminate_exit_1(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, monkeypatch, ["diameter", "--budget", "2"], emit_graph6(petersen()) + "\n"
        )
        assert code == 1 and out.strip() == "indeterminate"

    def test_zero_budget_is_a_budget(self, capsys, monkeypatch):
        # a zero budget used to fall back to the default and answer 3
        code, out, _ = run_cli(
            capsys, monkeypatch, ["diameter", "--budget", "0"], emit_graph6(extremal_graph(7)) + "\n"
        )
        assert code == 1 and out.strip() == "indeterminate"

    @pytest.mark.parametrize("command", [["diameter"], ["sharpness", "--n", "7"]])
    def test_negative_budget_exit_2(self, capsys, monkeypatch, command):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, monkeypatch, command + ["--budget", "-1"], emit_graph6(petersen()) + "\n")
        assert exc.value.code == 2
        assert "--budget: must be at least 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "-5"])
    def test_bad_budget_variable_exit_2(self, capsys, monkeypatch, value):
        monkeypatch.setenv("ORIENT2_BUDGET", value)
        code, out, err = run_cli(capsys, monkeypatch, ["diameter"], emit_graph6(petersen()) + "\n")
        assert code == 2 and out == ""
        assert err == f"error: ORIENT2_BUDGET must be an integer of at least 0, got {value!r}\n"


class TestBatches:
    @pytest.mark.parametrize("command", ["orient", "diameter", "classify"])
    def test_bad_line_is_reported_and_skipped(self, capsys, monkeypatch, command):
        k5 = emit_graph6(complete_graph(5))
        _, single, _ = run_cli(capsys, monkeypatch, [command], k5 + "\n")
        code, out, err = run_cli(capsys, monkeypatch, [command], f"{k5}\nbad!\n\n{k5}\n")
        assert code == 2 and out == single * 2
        assert err.startswith("error: line 2: ") and err.count("\n") == 1

    def test_exit_code_is_the_worst_line(self, capsys, monkeypatch):
        # a bad line (2) before an indeterminate answer (1): the batch exits 2
        stdin = "bad!\n" + emit_graph6(petersen()) + "\n"
        code, out, err = run_cli(capsys, monkeypatch, ["diameter", "--budget", "2"], stdin)
        assert code == 2 and out == "indeterminate\n" and err.startswith("error: line 1: ")

    @pytest.mark.parametrize("command", ["orient", "classify"])
    def test_non_ascii_file_line_is_reported_and_skipped(self, capsys, monkeypatch, tmp_path, command):
        k5 = emit_graph6(complete_graph(5))
        _, single, _ = run_cli(capsys, monkeypatch, [command], k5 + "\n")
        path = tmp_path / "batch.txt"
        path.write_bytes(f"{k5}\n".encode() + "é\n".encode() + f"{k5}\n".encode())
        code, out, err = run_cli(capsys, monkeypatch, [command, "--file", str(path)])
        assert code == 2 and out == single * 2
        assert err.startswith("error: line 2: ") and err.count("\n") == 1
        assert "bad length byte 195" in err  # the first byte of the UTF-8 'é'

    def test_non_ascii_stdin_line_is_reported_and_skipped(self, capsys, monkeypatch):
        import io
        import sys

        k5 = emit_graph6(complete_graph(5))
        _, single, _ = run_cli(capsys, monkeypatch, ["orient"], k5 + "\n")
        raw = f"{k5}\n".encode() + b"\xff\n" + f"{k5}\n".encode()
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="strict"))
        code = cli.main(["orient"])
        out, err = capsys.readouterr()
        assert code == 2 and out == single * 2
        assert err == "error: line 2: bad length byte 255\n"

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"~\xff??\n", "bad long order header '~\\xff??'"),
            (b"3 1\n0 \xff\n", "non-integer token in edge list: '\\xff'"),
        ],
        ids=["long-header", "edge-list-token"],
    )
    def test_non_ascii_bytes_are_shown_as_bytes(self, capsys, monkeypatch, raw, message):
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="strict"))
        code = cli.main(["classify"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: line 1: {message}\n"

    def test_internal_error_exit_3_and_the_batch_goes_on(self, capsys, monkeypatch):
        k5 = emit_graph6(complete_graph(5))
        _, single, _ = run_cli(capsys, monkeypatch, ["orient"], k5 + "\n")
        real = cli.orient_diameter_two
        calls = []

        def fails_once(g):
            calls.append(g)
            if len(calls) == 1:
                raise InternalVerificationError("final orientation failed its diameter check")
            return real(g)

        monkeypatch.setattr(cli, "orient_diameter_two", fails_once)
        code, out, err = run_cli(capsys, monkeypatch, ["orient"], f"{k5}\n{k5}\n")
        assert code == 3 and out == single and len(calls) == 2
        assert err == "error: line 1: internal error: final orientation failed its diameter check\n"

    def test_faulty_base_case_exit_3_on_each_line(self, capsys, monkeypatch):
        # corrupt base-case rows reach the output check, which fails the line, not the batch
        from orient2 import construct

        built = construct._base_case_with_family

        def sinking(level, comps):
            found = built(level, comps)
            if found is None:
                return None
            rows, family = found
            return (0,) + tuple(row | (rows[0] >> v & 1) for v, row in enumerate(rows) if v), family

        monkeypatch.setattr(construct, "_base_case_with_family", sinking)
        stdin = emit_graph6(complete_graph(5)) + "\n" + emit_graph6(complete_graph(9)) + "\n"
        code, out, err = run_cli(capsys, monkeypatch, ["orient"], stdin)
        assert code == 3 and out == ""
        lines = err.splitlines()
        assert len(lines) == 2
        for number, line in enumerate(lines, start=1):
            assert line.startswith(f"error: line {number}: internal error: ")

    @pytest.mark.parametrize(
        "stdin, message",
        [
            # a negative order: one edge-list block, not two lines
            ("-5 1\n0 1\n", "negative vertex or edge count"),
            # a header with one value: an edge list, not a graph6 length byte
            ("5\n0 1\n", "expected 0 endpoint values, found 1"),
        ],
    )
    def test_text_starting_with_an_integer_is_one_edge_list(self, capsys, monkeypatch, stdin, message):
        code, out, err = run_cli(capsys, monkeypatch, ["classify"], stdin)
        assert code == 2 and out == ""
        assert err == f"error: line 1: {message}\n"

    @pytest.mark.parametrize(
        "line, message",
        [
            # K5 with its first edge listed again, as 1 0
            ("5 11 0 1 0 2 0 3 0 4 1 2 1 3 1 4 2 3 2 4 3 4 1 0", "edge list repeats edge 0-1"),
            ("3 1 0 0", "self-loop at vertex 0"),
            ("3 1 0 5", "edge 0-5 outside 0..2"),
        ],
        ids=["repeat", "self-loop", "out-of-range"],
    )
    def test_bad_edge_list_line_exit_2_and_the_batch_goes_on(self, capsys, monkeypatch, line, message):
        k5 = emit_graph6(complete_graph(5))
        _, single, _ = run_cli(capsys, monkeypatch, ["orient"], k5 + "\n")
        code, out, err = run_cli(capsys, monkeypatch, ["orient"], f"{k5}\n{line}\n{k5}\n")
        assert code == 2 and out == single * 2
        assert err == f"error: line 2: {message}\n"

    @pytest.mark.parametrize("command", ["orient", "classify"])
    def test_missing_file_exit_2(self, capsys, monkeypatch, tmp_path, command):
        path = tmp_path / "absent.txt"
        code, out, err = run_cli(capsys, monkeypatch, [command, "--file", str(path)])
        assert code == 2 and out == ""
        assert err == f"error: {path}: No such file or directory\n"


class TestVerify:
    def test_n7_clean(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["verify", "--n", "7"])
        assert code == 0
        assert "0 failures" in out and "0 oracle fallbacks" in out
        assert "s (enumeration " in out.splitlines()[0]

    def test_range_exit_2(self, capsys, monkeypatch):
        code, out, err = run_cli(capsys, monkeypatch, ["verify", "--n", "4"])
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_failure_lines_carry_the_reason(self, capsys, monkeypatch):
        import orient2.construct

        def broken(g):
            raise RuntimeError("no move")

        monkeypatch.setattr(orient2.construct, "orient_diameter_two", broken)
        code, out, _ = run_cli(capsys, monkeypatch, ["verify", "--n", "5"])
        assert code == 1
        assert out.splitlines()[1].endswith(": RuntimeError: no move")


class TestSharpness:
    def test_confirmed(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["sharpness", "--n", "6"])
        assert code == 0 and out.startswith("CONFIRMED")

    def test_n14_confirmed(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["sharpness", "--n", "14"])
        assert code == 0 and out.startswith("CONFIRMED")

    def test_range_exit_2(self, capsys, monkeypatch):
        code, out, err = run_cli(capsys, monkeypatch, ["sharpness", "--n", "4"])
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_budget_exhausted_indeterminate(self, capsys, monkeypatch):
        code, out, err = run_cli(capsys, monkeypatch, ["sharpness", "--n", "6", "--budget", "1"])
        assert code == 1 and not out and err.startswith("indeterminate:")

    def test_zero_budget_indeterminate(self, capsys, monkeypatch):
        # a zero budget used to fall back to the default and print CONFIRMED
        code, out, err = run_cli(capsys, monkeypatch, ["sharpness", "--n", "7", "--budget", "0"])
        assert code == 1 and not out and err.startswith("indeterminate:")


class TestClassify:
    def test_dumbbell_complement(self, capsys, monkeypatch):
        # input whose complement is a (3,4)-dumbbell plus 8 singletons
        from conftest import dumbbell

        blue_parts = dumbbell(3, 4)
        edges = list(blue_parts.edges())
        blue = Graph.from_edges(15, edges)
        red = complement(blue)
        code, out, _ = run_cli(capsys, monkeypatch, ["classify"], emit_graph6(red) + "\n")
        assert code == 0
        assert out.count("PATH(1)") == 8
        assert "PROPER_DUMBBELL(3,4)" in out
        assert "excess=3" in out

    def test_complete_graph_all_singletons(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["classify"], emit_graph6(complete_graph(6)) + "\n")
        assert code == 0 and out.count("PATH(1)") == 6
