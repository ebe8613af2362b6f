"""The package's public names and which commands load numpy."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sparsity_ef

from conftest import complete_graph
from sparsity_ef.graphs import dump_graph

SRC = Path(__file__).resolve().parents[1] / "src"

# every public name, under the module it has always been importable from
PUBLIC = {
    "factorization": [
        "Factorization", "FactorizationCheck", "SlackMatrix", "Transcript", "build_factorization",
        "enumerate_rows", "enumerate_transcripts", "slack_matrix", "slack_value", "verify_factorization",
    ],
    "graphs": [
        "Graph", "GraphError", "InstanceError", "SparsityParams", "dump_graph", "induced_edges",
        "load_graph", "load_graph_file", "make_graph", "validate_instance",
    ],
    "lifted": [
        "EmptyPolytopeError", "InfeasibleLiftedPointError", "LiftedPoint", "LiftedPolytope", "build_lifted",
        "check_projection", "emit_ine", "format_ine", "lift_vertex", "verify_extension",
    ],
    "orientation": [
        "InfeasibleOrientationError", "Orientation", "hakimi_feasible", "orient_with_targets",
        "protocol_targets_A", "protocol_targets_B",
    ],
    "protocol": [
        "MCResult", "alice_choice", "bit_complexity", "exact_expectation", "monte_carlo", "resolve_variant",
        "run_once",
    ],
    "sparsity": [
        "Basis", "EnumerationGuardError", "enumerate_bases", "is_sparse_bruteforce", "is_sparse_pebble",
        "is_tight",
    ],
}
EXIT_CODE_ERRORS = [
    "EmptyPolytopeError", "EnumerationGuardError", "GraphError", "InfeasibleLiftedPointError",
    "InfeasibleOrientationError", "InstanceError",
]


def test_public_names_are_pinned():
    names = sorted(name for group in PUBLIC.values() for name in group)
    assert len(names) == 49
    assert sorted(sparsity_ef.__all__) == names


def test_each_public_name_is_its_module_attribute():
    for module, names in PUBLIC.items():
        home = importlib.import_module(f"sparsity_ef.{module}")
        for name in names:
            assert getattr(sparsity_ef, name) is getattr(home, name), name
    errors = importlib.import_module("sparsity_ef.errors")
    for name in EXIT_CODE_ERRORS:
        assert getattr(sparsity_ef, name) is getattr(errors, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from sparsity_ef import *", namespace)
    assert set(sparsity_ef.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sparsity_ef.no_such_name


def _numpy_loaded(tmp_path, body: str) -> bool:
    """Run ``body`` in a fresh interpreter on the source tree; report whether numpy got loaded."""
    graph = tmp_path / "k4.json"
    graph.write_text(dump_graph(complete_graph(4)))
    script = f"import sys\nGRAPH = {str(graph)!r}\n{body}\nprint('numpy' in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


HELP = """from sparsity_ef import cli
try:
    cli.main(["--help"])
except SystemExit:
    pass"""


K4_23 = "from sparsity_ef import cli\ncli.main([{}, '--graph', GRAPH, '--k', '2', '--l', '3'])"


@pytest.mark.parametrize(
    "body,loaded",
    [
        ("import sparsity_ef", False),
        ("import sparsity_ef.cli", False),
        (HELP, False),
        (K4_23.format("'bases'"), False),
        (K4_23.format("'verify'"), False),
        (K4_23.format("'factorize'"), False),
        (K4_23.format("'slack'"), False),
        (K4_23.format("'emit', '--verify', '--out', GRAPH + '.ine'"), False),
        (K4_23.format("'check'"), True),
        (K4_23.format("'protocol', '--X', '0,1', '--F', '0,1,2,3,4', '--mode', 'mc', '--samples', '10'"), True),
    ],
    ids=["import", "import-cli", "help", "bases", "verify", "factorize", "slack", "emit", "check", "protocol-mc"],
)
def test_numpy_is_loaded_only_by_array_commands(tmp_path, body, loaded):
    assert _numpy_loaded(tmp_path, body) is loaded
