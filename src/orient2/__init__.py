"""orient2: diameter-two orientations of dense graphs.

Any simple graph with n >= 5 vertices and at least C(n,2) - n + 5 edges
has an orientation of diameter two; `orient_diameter_two` builds one
constructively.  The `oracle` module provides the exact oriented-diameter
solver and the exhaustive verification harnesses, and the `cli` module a
command-line front end (`orient2`).
"""

from ._backend import backend_name
from .certs import (
    GoodOrientationCert,
    combine,
    verify_cert,
)
from .codec import (
    GraphFormatError,
    emit_digraph6,
    emit_graph6,
    emit_orientation,
    parse_digraph6,
    parse_graph,
    parse_graph6,
)
from .construct import (
    ConstructionTrace,
    InternalVerificationError,
    orient_diameter_two,
    replay_trace,
    threshold_size,
)
from .graphs import (
    INFINITE,
    Digraph,
    DistanceValue,
    Graph,
    Orientation,
    complement,
    components,
    diameter,
    is_bridgeless,
    undirected_diameter,
)
from .oracle import (
    DecisionOutcome,
    SearchBudget,
    SearchStatus,
    VerificationReport,
    enumerate_blue,
    exact_oriented_diameter,
    exists_orientation_diameter2,
    extremal_graph,
    naive_oriented_diameter,
    verify_sharpness,
    verify_theorem,
)
from .structure import (
    ComponentClass,
    ComponentKind,
    ReductionPlan,
    TripleStep,
    classify_component,
    excess,
    find_reduction,
    find_violating_triple,
)

__version__ = "0.1.0"

__all__ = [
    "ComponentClass",
    "ComponentKind",
    "ConstructionTrace",
    "DecisionOutcome",
    "Digraph",
    "DistanceValue",
    "Graph",
    "GraphFormatError",
    "GoodOrientationCert",
    "INFINITE",
    "InternalVerificationError",
    "Orientation",
    "ReductionPlan",
    "SearchBudget",
    "SearchStatus",
    "TripleStep",
    "VerificationReport",
    "backend_name",
    "classify_component",
    "combine",
    "complement",
    "components",
    "diameter",
    "emit_digraph6",
    "emit_graph6",
    "emit_orientation",
    "enumerate_blue",
    "exact_oriented_diameter",
    "excess",
    "exists_orientation_diameter2",
    "extremal_graph",
    "find_reduction",
    "find_violating_triple",
    "is_bridgeless",
    "naive_oriented_diameter",
    "orient_diameter_two",
    "parse_digraph6",
    "parse_graph",
    "parse_graph6",
    "replay_trace",
    "threshold_size",
    "undirected_diameter",
    "verify_cert",
    "verify_sharpness",
    "verify_theorem",
]
