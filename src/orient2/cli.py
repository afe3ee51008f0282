"""Command-line front end.

One graph per line on stdin (graph6 or edge-list via --file), results on
stdout, batch-friendly.  Exit codes: 0 success, 1 negative or
indeterminate answer, 2 bad input, 3 internal verification failure.  A
failing line is reported on stderr as ``error: line N: ...`` and the rest of
the batch still runs; the exit code is the worst over all lines.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable

from ._backend import backend_name
from .codec import GraphFormatError, emit_graph6, emit_orientation, is_edge_list, parse_graph
from .construct import InternalVerificationError, orient_diameter_two
from .graphs import INFINITE, Graph, complement, components
from .oracle import (
    SearchBudget,
    default_budget,
    exact_oriented_diameter,
    verify_sharpness,
    verify_theorem,
)
from .structure import classify_component, excess

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_BAD_INPUT = 2
EXIT_VERIFY_FAILED = 3

JSON_SCHEMA = "orient2/1"


def _input_lines(args: argparse.Namespace) -> list[tuple[int, str]]:
    """Numbered non-blank input lines (an edge-list block counts as line 1).

    A byte that is not ASCII reaches the per-line parser, which rejects
    only its own line.  Raises OSError when ``--file`` cannot be read.
    """
    if getattr(args, "file", None):
        with open(args.file, "r", encoding="ascii", errors="surrogateescape") as fh:
            text = fh.read()
    elif hasattr(sys.stdin, "buffer"):
        text = sys.stdin.buffer.read().decode("ascii", "surrogateescape")
    else:  # a text-only stream
        text = sys.stdin.read()
    if is_edge_list(text):
        # an edge list is one block, however many lines it spans
        return [(1, text)]
    return [(number, line) for number, line in enumerate(text.splitlines(), start=1) if line.strip()]


def _budget(args: argparse.Namespace) -> SearchBudget:
    if getattr(args, "budget", None) is not None:
        return SearchBudget(max_nodes=args.budget)
    return default_budget()


def _node_budget(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


class _LineError(Exception):
    """One input line failed with the given exit code; the batch goes on."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _each_line(args: argparse.Namespace, handle: Callable[[Graph], int]) -> int:
    """Run ``handle`` on the graph of every input line.  A failing line is
    reported on stderr with its number and the batch continues; returns the
    worst exit code seen."""
    try:
        lines = _input_lines(args)
    except OSError as exc:
        print(f"error: {args.file}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    worst = EXIT_OK
    for number, line in lines:
        try:
            code = handle(parse_graph(line))
        except (GraphFormatError, _LineError) as exc:
            code = exc.code if isinstance(exc, _LineError) else EXIT_BAD_INPUT
            print(f"error: line {number}: {exc}", file=sys.stderr)
        worst = max(worst, code)
    return worst


def cmd_orient(args: argparse.Namespace) -> int:
    try:
        default_budget()  # read again by the exhaustive fallback, so checked before any line
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    def orient(g: Graph) -> int:
        try:
            orientation, trace = orient_diameter_two(g)
        except ValueError as exc:  # below order 5 or below the threshold, checked before any work
            raise _LineError(EXIT_BAD_INPUT, str(exc)) from exc
        except InternalVerificationError as exc:
            raise _LineError(EXIT_VERIFY_FAILED, f"internal error: {exc}") from exc
        if args.json:
            payload = {
                "schema": JSON_SCHEMA,
                "n": g.n,
                "arcs": [[u, v] for u, v in orientation.dir.arcs()],
                "diameter": 2,
            }
            if args.trace:
                payload["trace"] = trace.to_json()
            print(json.dumps(payload, separators=(",", ":")))
        else:
            print(emit_orientation(orientation))
            if args.trace:
                for entry in trace.to_json():
                    print(f"# {json.dumps(entry, separators=(',', ':'))}")
        return EXIT_OK

    return _each_line(args, orient)


def cmd_diameter(args: argparse.Namespace) -> int:
    try:
        budget = _budget(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    def oriented_diameter(g: Graph) -> int:
        value = exact_oriented_diameter(g, budget)
        if value is None:
            print("indeterminate")
            return EXIT_NEGATIVE
        print("infinite" if value == INFINITE else int(value))
        return EXIT_OK

    return _each_line(args, oriented_diameter)


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        report = verify_theorem(args.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    print(
        f"n={report.n}: checked {report.instances_checked} instances, "
        f"{len(report.failures)} failures, {report.fallback_count} oracle fallbacks, "
        f"{report.wall_time:.2f}s (enumeration {report.enumeration_time:.2f}s)"
    )
    for failure in report.failures:
        print(f"failure: {failure}")
    if report.fallback_count:
        print("warning: oracle fallback fired; the case analysis may have a gap", file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def cmd_sharpness(args: argparse.Namespace) -> int:
    try:
        sharp = verify_sharpness(args.n, _budget(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except RuntimeError as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    if sharp:
        print(f"CONFIRMED: extremal graph of order {args.n} has no diameter-2 orientation")
        return EXIT_OK
    print(f"REFUTED: extremal graph of order {args.n} admits a diameter-2 orientation")
    return EXIT_NEGATIVE


def cmd_classify(args: argparse.Namespace) -> int:
    def classify(g: Graph) -> int:
        blue = complement(g)
        print(f"graph {emit_graph6(g)}: complement components")
        for comp in components(blue):
            cls = classify_component(blue, comp)
            sub = blue.induced(comp)
            print(f"  {{{','.join(map(str, comp))}}} order={len(comp)} class={cls} excess={excess(sub)}")
        return EXIT_OK

    return _each_line(args, classify)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orient2",
        description="Diameter-two orientations of dense graphs and exact oriented diameters.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s (backend: {backend_name()})")
    sub = parser.add_subparsers(dest="command", required=True)

    p_orient = sub.add_parser("orient", help="orient graphs at or above the size threshold")
    p_orient.add_argument("--file", help="read input from a file instead of stdin")
    p_orient.add_argument("--json", action="store_true", help="emit JSON instead of digraph6")
    p_orient.add_argument("--trace", action="store_true", help="include construction steps")
    p_orient.set_defaults(func=cmd_orient)

    p_diam = sub.add_parser("diameter", help="exact oriented diameter by exhaustive search")
    p_diam.add_argument("--file", help="read input from a file instead of stdin")
    p_diam.add_argument("--budget", type=_node_budget, help="search-node budget override")
    p_diam.set_defaults(func=cmd_diameter)

    p_verify = sub.add_parser("verify", help="check every threshold instance of one order")
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.set_defaults(func=cmd_verify)

    p_sharp = sub.add_parser("sharpness", help="confirm the extremal graph is not orientable")
    p_sharp.add_argument("--n", type=int, required=True)
    p_sharp.add_argument("--budget", type=_node_budget, help="search-node budget override")
    p_sharp.set_defaults(func=cmd_sharpness)

    p_classify = sub.add_parser("classify", help="tabulate complement component classes")
    p_classify.add_argument("--file", help="read input from a file instead of stdin")
    p_classify.set_defaults(func=cmd_classify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
