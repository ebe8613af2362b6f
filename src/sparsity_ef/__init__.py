"""Extended formulations for (k,l)-sparsity matroid base polytopes.

Pipeline: decide sparsity / enumerate bases, orient tight subgraphs to
prescribed in-degrees, run the one-round randomized protocols, extract
the exact nonnegative slack factorization they induce, and emit the
resulting lifted polytope as an ``.ine`` H-representation.
"""

from .factorization import (
    Factorization,
    FactorizationCheck,
    SlackMatrix,
    Transcript,
    build_factorization,
    enumerate_rows,
    enumerate_transcripts,
    slack_matrix,
    slack_value,
    verify_factorization,
)
from .graphs import (
    Graph,
    GraphError,
    InstanceError,
    SparsityParams,
    dump_graph,
    induced_edges,
    load_graph,
    load_graph_file,
    make_graph,
    validate_instance,
)
from .lifted import (
    EmptyPolytopeError,
    InfeasibleLiftedPointError,
    LiftedPoint,
    LiftedPolytope,
    build_lifted,
    check_projection,
    emit_ine,
    format_ine,
    lift_vertex,
    verify_extension,
)
from .orientation import (
    InfeasibleOrientationError,
    Orientation,
    hakimi_feasible,
    orient_with_targets,
    protocol_targets_A,
    protocol_targets_B,
)
from .protocol import (
    MCResult,
    alice_choice,
    bit_complexity,
    exact_expectation,
    monte_carlo,
    resolve_variant,
    run_once,
)
from .sparsity import (
    Basis,
    EnumerationGuardError,
    enumerate_bases,
    is_sparse_bruteforce,
    is_sparse_pebble,
    is_tight,
)

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "EmptyPolytopeError",
    "EnumerationGuardError",
    "Factorization",
    "FactorizationCheck",
    "Graph",
    "GraphError",
    "InfeasibleLiftedPointError",
    "InfeasibleOrientationError",
    "InstanceError",
    "LiftedPoint",
    "LiftedPolytope",
    "MCResult",
    "Orientation",
    "SlackMatrix",
    "SparsityParams",
    "Transcript",
    "alice_choice",
    "bit_complexity",
    "build_factorization",
    "build_lifted",
    "check_projection",
    "dump_graph",
    "emit_ine",
    "enumerate_bases",
    "enumerate_rows",
    "enumerate_transcripts",
    "exact_expectation",
    "format_ine",
    "hakimi_feasible",
    "induced_edges",
    "is_sparse_bruteforce",
    "is_sparse_pebble",
    "is_tight",
    "lift_vertex",
    "load_graph",
    "load_graph_file",
    "make_graph",
    "monte_carlo",
    "orient_with_targets",
    "protocol_targets_A",
    "protocol_targets_B",
    "resolve_variant",
    "run_once",
    "slack_matrix",
    "slack_value",
    "validate_instance",
    "verify_extension",
    "verify_factorization",
]
