"""Extended formulations for (k,l)-sparsity matroid base polytopes.

Pipeline: decide sparsity / enumerate bases, orient tight subgraphs to
prescribed in-degrees, run the one-round randomized protocols, extract
the exact nonnegative slack factorization they induce, and emit the
resulting lifted polytope as an ``.ine`` H-representation.

The package is pure Python, with no runtime dependency.
Each public name is imported from its module on first access, so
``import sparsity_ef`` loads none of its submodules: importing
``lifted``, ``factorization`` and ``protocol`` eagerly costs about 2 ms
(10–13 ms compiling, as in ``cli``), which every start would pay.
"""

import importlib

__version__ = "0.1.0"

_MODULES = {
    "errors": (
        "EmptyPolytopeError", "EnumerationGuardError", "GraphError", "InfeasibleLiftedPointError",
        "InfeasibleOrientationError", "InstanceError",
    ),
    "factorization": (
        "Factorization", "build_factorization", "enumerate_rows", "slack_matrix", "slack_value",
        "verify_factorization",
    ),
    "graphs": (
        "Graph", "SparsityParams", "induced_edges", "load_graph", "load_graph_file",
        "make_graph", "validate_instance",
    ),
    "lifted": ("format_ine", "verify_extension"),
    "orientation": ("orient_with_targets",),
    "protocol": (
        "MCResult", "alice_choice", "bit_complexity", "exact_expectation", "monte_carlo", "protocol_targets",
        "resolve_variant",
    ),
    "sparsity": ("Basis", "enumerate_bases", "is_sparse_bruteforce", "is_sparse_pebble", "is_tight"),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
