"""The exit-code contract under drawn input: no command raises, and none exits 2, which is kept for bugs."""

import contextlib
import io
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from sparsity_ef import cli

SMALL = st.integers(-1, 6)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.just(2**70) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["n", "edges"]), inner, max_size=2),
    max_leaves=8,
)


def _graphs(n):
    """Simple graphs on n vertices with n - 1 to 10 edges: few enough that every enumeration and check is small."""
    pairs = st.sampled_from(list(itertools.combinations(range(n), 2)))
    return st.lists(pairs, unique=True, min_size=n - 1, max_size=10).map(lambda e: json.dumps({"n": n, "edges": e}))


BROKEN = st.one_of(
    st.builds(lambda n, edges: json.dumps({"n": n, "edges": edges}), st.integers(0, 6),
              st.lists(st.lists(SMALL, min_size=2, max_size=2), max_size=10)),  # loops, repeats, endpoints outside
    st.builds(json.dumps, JSON_VALUES),
    st.text(max_size=12),
    st.sampled_from(["[" * 2000, '{"n": 3, "edges": [[0, 1]', ""]),
)
GRAPH_TEXT = st.integers(0, 3).flatmap(lambda i: st.integers(2, 6).flatmap(_graphs) if i else BROKEN)  # 1 in 4 broken
NUMBER = st.one_of(SMALL, st.sampled_from(["x", "", "1.5", str(2**62)]))
LIST = st.one_of(
    st.lists(SMALL, max_size=10).map(lambda items: ",".join(map(str, items))),
    st.lists(st.tuples(SMALL, SMALL), max_size=8).map(lambda items: ",".join(f"{u}-{v}" for u, v in items)),
    st.text(max_size=8),
)


@st.composite
def command_lines(draw):
    """A command on g.json with (k, l) and any of its own options; --max-enum is drawn for every command."""
    command = draw(st.sampled_from(["check", "bases", "orient", "protocol", "slack", "factorize", "emit", "verify"]))

    def rarely():
        return draw(st.integers(0, 3)) == 0

    def maybe(option, values):
        value = draw(st.none() | values)
        if value is not None:
            argv.append(f"{option}={value}")  # one token, so a value may start with "-"

    k, ell = draw(st.tuples(NUMBER, NUMBER) if rarely() else st.sampled_from([(1, 0), (1, 1), (2, 2), (2, 3)]))
    argv = [command, "--graph", "g.json", f"--k={k}", f"--l={ell}"]
    if rarely():  # check, orient and protocol refuse it
        maybe("--max-enum", st.integers(-1, 10**7))
    if command in ("protocol", "factorize", "emit", "verify"):
        maybe("--variant", st.sampled_from(["auto", "A", "B"]))
    if command in ("check", "orient"):
        maybe("--edges", LIST)
    if command == "orient":
        maybe("--targets", LIST)
        maybe("--x", SMALL)
        maybe("--y", SMALL)
    if command == "protocol":
        argv.extend([f"--X={draw(LIST)}", f"--F={draw(LIST)}", f"--mode={draw(st.sampled_from(['exact', 'mc']))}"])
        maybe("--samples", st.integers(-1, 20))
        maybe("--seed", st.integers(-(2**64), 2**64))
    if command == "emit":
        argv.extend(["--out", "." if rarely() else "out.ine"])  # "." is a directory: exit 1
        if draw(st.booleans()):
            argv.append("--verify")
    if command in ("slack", "factorize", "verify") and draw(st.booleans()):
        argv.extend(["--out", "." if rarely() else "out"])
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(text=GRAPH_TEXT, argv=command_lines())
def test_drawn_input_never_raises_nor_exits_2(workdir, text, argv):
    (workdir / "g.json").write_text(text, encoding="utf-8")
    argv = [str(workdir / arg) if flag in ("--graph", "--out") else arg for flag, arg in zip(["", *argv], argv)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 3, 4), (argv, err.getvalue())
