"""The package's public names, the README's library example, and that no command needs numpy."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sparsity_ef

from conftest import complete_graph

SRC = Path(__file__).resolve().parents[1] / "src"
README = SRC.parent / "README.md"

# every public name, under the module it has always been importable from
PUBLIC = {
    "factorization": [
        "Factorization", "build_factorization", "slack_matrix", "slack_value", "verify_factorization",
    ],
    "graphs": [
        "Graph", "GraphError", "InstanceError", "SparsityParams", "induced_edges",
        "load_graph", "load_graph_file", "make_graph", "validate_instance",
    ],
    "lifted": ["EmptyPolytopeError", "InfeasibleLiftedPointError", "format_ine", "verify_extension"],
    "orientation": ["InfeasibleOrientationError", "orient_with_targets"],
    "protocol": [
        "MCResult", "alice_choice", "bit_complexity", "exact_expectation", "monte_carlo", "protocol_targets",
        "resolve_variant",
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
    assert len(names) == 33
    assert sorted(sparsity_ef.__all__) == names


def test_each_public_name_is_its_module_attribute():
    for module, names in PUBLIC.items():
        home = importlib.import_module(f"sparsity_ef.{module}")
        for name in names:
            assert getattr(sparsity_ef, name) is getattr(home, name), name
    errors = importlib.import_module("sparsity_ef.errors")
    for name in EXIT_CODE_ERRORS:
        assert getattr(sparsity_ef, name) is getattr(errors, name), name


def test_readme_library_example_runs():
    """The README's one ``python`` block, the library example, runs as written."""
    head, *blocks = README.read_text(encoding="utf-8").split("```python\n")
    assert len(blocks) == 1
    lead = "\n" * (head.count("\n") + 1)  # so a traceback names the README's own line
    exec(compile(lead + blocks[0].split("```")[0], str(README), "exec"), {})


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from sparsity_ef import *", namespace)
    assert set(sparsity_ef.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sparsity_ef.no_such_name


def _run_without_numpy(tmp_path, body: str) -> subprocess.CompletedProcess:
    """Run ``body`` in a fresh interpreter on the source tree, beside k4.json, with numpy, dataclasses and inspect blocked.

    ``dataclasses`` would pull ``inspect`` in, and with it ``ast``, ``dis`` and ``tokenize``, at every start.
    """
    k4 = complete_graph(4)
    (tmp_path / "k4.json").write_text(json.dumps({"n": k4.n, "edges": k4.edges}))
    blocked = "".join(f"sys.modules[{name!r}] = None\n" for name in ("numpy", "dataclasses", "inspect"))
    script = f"import sys\n{blocked}# any import of a blocked module now raises\n{body}\n"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120
    )


HELP = """from sparsity_ef import cli
try:
    cli.main(["--help"])
except SystemExit as exc:
    print(exc.code)"""


def _cli(*args: str, k: int = 2, ell: int = 3) -> str:
    """A probe body that runs one command on K4 in process and prints its exit code."""
    argv = [*args, "--graph", "k4.json", "--k", str(k), "--l", str(ell)]
    return f"from sparsity_ef import cli\nprint(cli.main({argv!r}))"


@pytest.mark.parametrize(
    "body,exit_code",
    [
        ("import sparsity_ef", None),
        ("import sparsity_ef.cli", None),
        ("from sparsity_ef import *", None),
        (HELP, 0),
        (_cli("bases"), 0),
        (_cli("verify"), 0),
        (_cli("factorize"), 0),
        (_cli("slack"), 0),
        (_cli("emit", "--verify", "--out", "k4.ine"), 0),
        (_cli("check"), 1),
        (_cli("check", "--edges", "0,1,2,3,4"), 0),
        (_cli("orient", "--edges", "0,1,2", "--x", "0", k=1, ell=1), 0),
        (_cli("protocol", "--X", "0,1", "--F", "0,1,2,3,4", "--mode", "exact"), 0),
        (_cli("protocol", "--X", "0,1", "--F", "0,1,2,3,4", "--mode", "mc", "--samples", "10"), 0),
    ],
    ids=[
        "import", "import-cli", "import-all", "help", "bases", "verify", "factorize", "slack", "emit", "check",
        "check-edges", "orient", "protocol-exact", "protocol-mc",
    ],
)
def test_numpy_is_loaded_only_by_array_commands(tmp_path, body, exit_code):
    """Each probe runs, and exits as the contract says, with numpy, dataclasses and inspect blocked: nothing needs them."""
    proc = _run_without_numpy(tmp_path, body)
    assert proc.returncode == 0, proc.stderr
    if exit_code is not None:
        assert proc.stdout.splitlines()[-1] == str(exit_code)


@pytest.mark.parametrize(
    "args,rational",
    [
        (("bases",), False),
        (("slack",), False),
        (("verify",), False),
        (("emit", "--out", "k4.ine"), False),
        (("emit", "--verify", "--out", "k4.ine"), False),
        (("factorize",), False),
        (("protocol", "--X", "0,1", "--F", "0,1,2,3,4"), False),
        (("factorize", "--out", "k4"), True),
        (("protocol", "--X", "0,1", "--F", "0,1,2,3,4", "--mode", "mc", "--samples", "10"), True),
    ],
    ids=["bases", "slack", "verify", "emit", "emit-verify", "factorize", "protocol-exact", "factorize-out",
         "protocol-mc"],
)
def test_fractions_is_loaded_only_where_a_value_is_rational(tmp_path, args, rational):
    """Only U.csv's 1/c and the Monte Carlo mean are rational; every other command runs on ints alone."""
    proc = _run_without_numpy(tmp_path, _cli(*args) + "\nprint('fractions' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["0", str(rational)]


def test_no_rational_renderer():
    """``str`` renders every value an output holds: an int as 'p', a Fraction as 'p/q' in lowest terms."""
    from sparsity_ef import factorization

    assert not hasattr(factorization, "render_rational")
