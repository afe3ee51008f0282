"""Golden traces: a fixed-seed corpus whose orientations and traces are pinned.

Any change to the constructor's decisions, certificates, expansions or trace
format changes the digest.  A refactor that keeps behaviour keeps it; one
that changes behaviour on purpose must update the pin and say why.
"""

import hashlib
import json
import random
from collections import Counter
from itertools import combinations

import pytest

from orient2.codec import emit_orientation
from orient2.construct import orient_diameter_two, replay_trace
from orient2.graphs import Graph, complement

GOLDEN_SHA256 = "bf0ff5bb073b76bde1c8503fd774069b560816a80b1703eb9b3b7e61ba2da4d1"
GOLDEN_MOVES = {"base-case": 124, "pad": 79, "contract-triple": 447, "reduce": 41}


def golden_corpus() -> list[Graph]:
    """Threshold and near-threshold instances, n = 6..36, four per order."""
    rng = random.Random(2026)
    graphs = []
    for n in range(6, 37):
        for extra in (0, 0, 1, 2):
            blue = rng.sample(list(combinations(range(n), 2)), max(0, n - 5 - extra))
            graphs.append(complement(Graph.from_edges(n, blue)))
    return graphs


@pytest.fixture(scope="module")
def constructed():
    return [(g, *orient_diameter_two(g)) for g in golden_corpus()]


def test_outputs_and_traces_match_the_pin(constructed):
    digest = hashlib.sha256()
    for _, o, trace in constructed:
        line = emit_orientation(o) + json.dumps(trace.to_json(), sort_keys=True) + "\n"
        digest.update(line.encode())
    assert digest.hexdigest() == GOLDEN_SHA256


def test_move_tally(constructed):
    moves = Counter(entry["kind"] for _, _, trace in constructed for entry in trace.to_json())
    assert moves == GOLDEN_MOVES


def test_replay_reproduces_every_instance(constructed):
    for g, o, trace in constructed:
        assert replay_trace(g, trace) == o
