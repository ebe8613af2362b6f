import hashlib
import json
import pathlib

import pytest

from sparsity_ef import cli, factorization, lifted, protocol
from sparsity_ef.graphs import MAX_VERTICES
from sparsity_ef.lifted import InfeasibleLiftedPointError

from conftest import b_matrix, complete_graph, path_graph, wheel_graph


@pytest.fixture
def k3_path(tmp_path):
    path = tmp_path / "k3.json"
    g = complete_graph(3)
    path.write_text(json.dumps({"n": g.n, "edges": g.edges}))
    return str(path)


@pytest.fixture
def k4_path(tmp_path):
    path = tmp_path / "k4.json"
    g = complete_graph(4)
    path.write_text(json.dumps({"n": g.n, "edges": g.edges}))
    return str(path)


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_positive(k4_path, capsys):
    code, out, _ = run(
        ["check", "--graph", k4_path, "--k", "2", "--l", "3", "--edges", "0,1,2,3,4"],
        capsys,
    )
    assert code == 0
    assert "sparse[pebble]: yes" in out
    assert "sparse[bruteforce]: yes" in out
    assert "tight: yes" in out


def test_check_negative_verdict(k4_path, capsys):
    code, out, _ = run(["check", "--graph", k4_path, "--k", "2", "--l", "3"], capsys)
    assert code == 1
    assert "sparse[pebble]: no" in out


def test_check_oracle_disagreement_trap(k4_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "is_sparse_pebble", lambda *a, **kw: True)
    code, out, _ = run(["check", "--graph", k4_path, "--k", "2", "--l", "3"], capsys)
    assert code == 2
    assert "DISAGREEMENT" in out


def test_check_edge_pair_syntax(k3_path, capsys):
    code, out, _ = run(
        ["check", "--graph", k3_path, "--k", "1", "--l", "1", "--edges", "0-1,1-2"],
        capsys,
    )
    assert code == 0 and "tight: yes" in out


@pytest.mark.parametrize(
    "edges,verdict",
    [("0,1,2", (0, "yes", "yes")), ("0,1,2,2,0", (0, "yes", "yes")), ("0,1", (0, "yes", "no")),
     ("0,1,3", (1, "no", "no")), ("0,1,3,4", (1, "no", "no"))],
    ids=["star", "star-repeated", "short", "triangle", "triangle-plus"],
)
def test_check_tightness_needs_sparse_and_basis_size(k4_path, capsys, edges, verdict):
    """K4 at (1,1): tight is sparse with kn - l = 3 distinct edges; a triangle has 3 edges but is not sparse."""
    code, out, _ = run(["check", "--graph", k4_path, "--k", "1", "--l", "1", "--edges", edges], capsys)
    sparse = f"sparse[pebble]: {verdict[1]}\nsparse[bruteforce]: {verdict[1]}\n"
    assert (code, out) == (verdict[0], sparse + f"tight: {verdict[2]}\n")


def test_malformed_graph(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for text in ("{oops", "[" * 100_000):  # the second nests past the decoder's recursion limit
        path.write_text(text)
        code, _, err = run(["check", "--graph", str(path), "--k", "1", "--l", "1"], capsys)
        assert code == 1
        assert err.startswith("error: malformed JSON")


def test_bad_params(k3_path, capsys):
    code, _, err = run(["check", "--graph", k3_path, "--k", "1", "--l", "2"], capsys)
    assert code == 1 and "outside" in err
    code, _, err = run(["check", "--graph", k3_path, "--k", "1", "--l", "1", "--edges", "-1"], capsys)
    assert code == 1 and "could not parse edge '-1': expected an index or u-v pair" in err
    code, _, err = run(
        ["protocol", "--graph", k3_path, "--k", "1", "--l", "1", "--X", "0,1", "--F", "0-a"], capsys
    )
    assert code == 1 and "could not parse edge '0-a': expected an index or u-v pair" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--graph", "g.json", "--k", "x", "--l", "3"],
        ["verify", "--k", "2", "--l", "3"],
        ["no-such-command"],
        [],
        ["verify", "--graph", "g.json", "--k", "2", "--l", "3", "--variant", "C"],
    ],
    ids=["bad-int", "missing-graph", "unknown-command", "no-arguments", "bad-choice"],
)
def test_usage_errors_exit_1(argv, capsys):
    # argparse would exit 2, which the contract keeps for failed cross-checks
    code, _, err = run(argv, capsys)
    assert code == 1 and "usage: sparsity-ef" in err


def test_bases_output(k3_path, k4_path, capsys):
    code, out, _ = run(["bases", "--graph", k3_path, "--k", "1", "--l", "1"], capsys)
    assert code == 0
    assert out.splitlines() == ["0,1", "0,2", "1,2", "3"]
    code, out, _ = run(["bases", "--graph", k4_path, "--k", "2", "--l", "3"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "6" and len(lines) == 7


# sha256 of `bases` stdout: K7 (1,1), K6 (2,3), and W6 (2,3) with hub 0 on the rim 1..6
BASES_SHA256 = [
    (complete_graph(7), 1, 1, "9287919345bc3c7ef482c908f0ff0d1c04dcd3c98b1b52962b889f6da68c873b"),
    (complete_graph(6), 2, 3, "fd7e476c8e41259a9a384a61afd5d820086b6ad3176735564f894dbda99a4b1f"),
    (wheel_graph(6), 2, 3, "c1d8419e8e955785049ec88fb8971a560b6fe7627517674458215e5b4704ccd9"),
]


@pytest.mark.parametrize("g,k,ell,digest", BASES_SHA256, ids=["K7-11", "K6-23", "W6-23"])
def test_bases_output_is_pinned(g, k, ell, digest, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": g.n, "edges": g.edges}))
    code, out, _ = run(["bases", "--graph", str(path), "--k", str(k), "--l", str(ell)], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_bases_guard_exit(k4_path, capsys):
    code, _, err = run(
        ["bases", "--graph", k4_path, "--k", "1", "--l", "1", "--max-enum", "1"], capsys
    )
    assert code == 3 and "guard" in err


@pytest.mark.parametrize("g, k, ell", [(complete_graph(5), 1, 1), (path_graph(3), 2, 3)], ids=["K5-11", "P3-23"])
def test_negative_max_enum_is_a_usage_error(g, k, ell, tmp_path, capsys):
    """Neither a guard refusal (exit 3) on K5 nor a pass on P3, whose basis size 3 exceeds its 2 edges."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": g.n, "edges": g.edges}))
    code, out, err = run(["bases", "--graph", str(path), "--k", str(k), "--l", str(ell), "--max-enum=-5"], capsys)
    assert code == 1 and out == ""
    assert err.endswith("error: argument --max-enum: invalid nonnegative_int value: '-5'\n")


def test_max_enum_is_an_option_of_exactly_the_enumerating_commands(k4_path, tmp_path, capsys):
    """bases, slack, factorize, verify and emit take --max-enum; check, orient and protocol refuse it as usage."""
    extra = {
        "orient": ["--x", "0"],
        "protocol": ["--X", "0,1", "--F", "0,1,2"],
        "emit": ["--out", str(tmp_path / "k4.ine")],
    }
    for command in ("check", "bases", "orient", "protocol", "slack", "factorize", "emit", "verify"):
        argv = [command, "--graph", k4_path, "--k", "1", "--l", "1", *extra.get(command, []), "--max-enum", "1000"]
        code, _, err = run(argv, capsys)
        if command in ("check", "orient", "protocol"):
            assert code == 1 and err.endswith("error: unrecognized arguments: --max-enum 1000\n"), command
        else:
            assert code == 0 and err == "", command


@pytest.mark.parametrize(
    "graph, argv, lines",
    [
        ("k3_path", ["--k", "1", "--l", "1", "--edges", "0,2", "--x", "0"], ["0->1", "1->2", "rho: 0,1,1"]),
        ("k4_path", ["--k", "2", "--l", "3", "--edges", "0,1,2,3,4", "--x", "0", "--y", "1"],
         ["0->1", "0->2", "0->3", "1->2", "1->3", "rho: 0,1,2,2"]),
        # edge 0-1 goes in headed at 0, and the fetch for 0-3 reverses it
        ("k4_path", ["--k", "1", "--l", "1", "--edges", "0,1,2", "--targets", "2,1,0,0"],
         ["0->1", "2->0", "3->0", "rho: 2,1,0,0"]),
    ],
    ids=["k3-x", "k4-x-y", "k4-targets-reversed"],
)
def test_orient_with_announced_vertex(graph, argv, lines, capsys, request):
    code, out, _ = run(["orient", "--graph", request.getfixturevalue(graph), *argv], capsys)
    assert code == 0
    assert out.splitlines() == lines


def test_orient_infeasible(tmp_path, capsys):
    path = tmp_path / "p3.json"
    g = path_graph(3)
    path.write_text(json.dumps({"n": g.n, "edges": g.edges}))
    code, _, err = run(
        ["orient", "--graph", str(path), "--k", "1", "--l", "1", "--targets", "0,0,2"],
        capsys,
    )
    assert code == 1
    assert "violating vertex set: [0, 1]" in err


def test_orient_requires_some_target_spec(k3_path, capsys):
    code, _, err = run(["orient", "--graph", k3_path, "--k", "1", "--l", "1"], capsys)
    assert code == 1 and "--targets" in err


def test_protocol_exact_match(k3_path, capsys):
    code, out, _ = run(
        ["protocol", "--graph", k3_path, "--k", "1", "--l", "1",
         "--X", "0,1", "--F", "0-2,1-2", "--mode", "exact"],
        capsys,
    )
    assert code == 0
    assert out.splitlines() == ["expectation: 1", "slack: 1", "MATCH"]


def test_protocol_mc(k3_path, capsys):
    code, out, _ = run(
        ["protocol", "--graph", k3_path, "--k", "1", "--l", "1",
         "--X", "0,1", "--F", "1,2", "--mode", "mc", "--samples", "2000", "--seed", "7"],
        capsys,
    )
    assert code == 0
    assert "mean:" in out and "stderr:" in out and "samples: 2000" in out


def test_protocol_rejects_small_x_for_b(k4_path, capsys):
    code, _, err = run(
        ["protocol", "--graph", k4_path, "--k", "2", "--l", "3",
         "--X", "0", "--F", "0,1,2,3,4", "--mode", "exact"],
        capsys,
    )
    assert code == 1 and "|X| >= 2" in err


def test_slack_csv(k3_path, capsys):
    code, out, _ = run(["slack", "--graph", k3_path, "--k", "1", "--l", "1"], capsys)
    assert code == 0
    assert out.startswith(",F:0+1,F:0+2,F:1+2\n")


def test_factorize(k3_path, tmp_path, capsys):
    prefix = str(tmp_path / "k3")
    code, out, _ = run(
        ["factorize", "--graph", k3_path, "--k", "1", "--l", "1", "--out", prefix],
        capsys,
    )
    assert code == 0
    assert "verified: yes" in out
    assert "transcripts: 18" in out
    for suffix in ("S.csv", "T.csv", "U.csv"):
        assert (tmp_path / f"k3.{suffix}").exists()


def test_emit_and_verify(k3_path, tmp_path, capsys):
    out_path = str(tmp_path / "k3.ine")
    code, out, _ = run(
        ["emit", "--graph", k3_path, "--k", "1", "--l", "1", "--out", out_path, "--verify"],
        capsys,
    )
    assert code == 0
    assert "wrote" in out
    report = json.loads(out[out.index("{"):])
    assert report["pass"] and report["counts"]["ine_rows"] == 25
    text = (tmp_path / "k3.ine").read_text()
    assert text.startswith("H-representation\n")
    assert len(text.splitlines()) == 30


def test_emit_empty_polytope_exit4(tmp_path, capsys):
    path = tmp_path / "p3.json"
    g = path_graph(3)
    path.write_text(json.dumps({"n": g.n, "edges": g.edges}))
    code, _, err = run(
        ["emit", "--graph", str(path), "--k", "2", "--l", "3", "--out", str(tmp_path / "x.ine")],
        capsys,
    )
    assert code == 4 and "empty" in err


def test_emit_determinism(k4_path, tmp_path, capsys):
    a, b = str(tmp_path / "a.ine"), str(tmp_path / "b.ine")
    for out_path in (a, b):
        code, _, _ = run(
            ["emit", "--graph", k4_path, "--k", "2", "--l", "3", "--out", out_path],
            capsys,
        )
        assert code == 0
    assert pathlib.Path(a).read_bytes() == pathlib.Path(b).read_bytes()


def test_verify_command(k4_path, tmp_path, capsys):
    report_path = str(tmp_path / "report.json")
    code, out, _ = run(
        ["verify", "--graph", k4_path, "--k", "2", "--l", "3", "--out", report_path],
        capsys,
    )
    assert code == 0
    saved = json.loads(pathlib.Path(report_path).read_text())
    assert saved["pass"] and saved["variant"] == "B"
    assert saved["counts"]["inequality_count"] == 150


@pytest.fixture
def corrupted_t(monkeypatch):
    """The first row of A charges one more transcript, the first that a basis's orientation uses, so c more of T."""
    real_rows = factorization.Factorization.rows

    def corrupted(self):
        rows = real_rows(self)
        x, rhs, inside, row = next(rows)
        w = next(w for w, b_row in enumerate(b_matrix(self)) if any(b_row) and w not in row)
        yield x, rhs, inside, sorted([*row, w])
        yield from rows

    monkeypatch.setattr(factorization.Factorization, "rows", corrupted)


def test_injected_residual_exits_2(k4_path, tmp_path, corrupted_t, capsys):
    base = ["--graph", k4_path, "--k", "2", "--l", "3"]
    for argv in (["verify", *base], ["emit", *base, "--out", str(tmp_path / "x.ine"), "--verify"]):
        code, _, err = run(argv, capsys)
        assert code == 2, argv
        assert err.startswith("error: basis (") and "equality row X=" in err
        assert "Traceback" not in err
    assert not (tmp_path / "x.ine").exists()  # emit --verify checks before it writes


@pytest.fixture
def no_memory_on_third_row(monkeypatch):
    """Every walk over the rows raises MemoryError when it reaches the third, after the .ine has begun."""
    real_rows = factorization.Factorization.rows

    def failing(self):
        rows = real_rows(self)
        yield next(rows)
        yield next(rows)
        raise MemoryError

    monkeypatch.setattr(factorization.Factorization, "rows", failing)


def test_emit_leaves_no_file_when_the_system_cannot_be_built(k4_path, tmp_path, no_memory_on_third_row, capsys):
    """A row of A that cannot be built while the .ine is written: exit 2, and the partly written file is removed."""
    code, _, err = run(["emit", "--graph", k4_path, "--k", "2", "--l", "3", "--out", str(tmp_path / "x.ine")], capsys)
    assert (code, err) == (2, "error: internal failure: MemoryError()\n")
    assert list(tmp_path.iterdir()) == [tmp_path / "k4.json"]


def test_a_failed_write_keeps_a_symlinked_out(k4_path, tmp_path, no_memory_on_third_row, capsys):
    """Only a regular file is removed: a failed write through a symlink leaves the symlink."""
    link = tmp_path / "link.ine"
    link.symlink_to(tmp_path / "target.ine")
    code, _, err = run(["emit", "--graph", k4_path, "--k", "2", "--l", "3", "--out", str(link)], capsys)
    assert (code, err) == (2, "error: internal failure: MemoryError()\n")
    assert link.is_symlink() and (tmp_path / "target.ine").is_file()


def test_refused_basis_orientation_exits_2(k4_path, tmp_path, monkeypatch, capsys):
    """Targets that a basis cannot meet are a bug: every command that orients a basis exits 2 with one line.

    The targets are moved for announcement (1,) alone, which the rows X = {1, ...} make, so each
    command reaches the refusal in the first block that holds it, with the blocks before it right.
    """
    targets = protocol.protocol_targets

    def moved(n, p, announced):  # vertex n-1's target moved onto vertex 0
        m = list(targets(n, p, announced))
        if announced == (1,):
            m[0], m[n - 1] = m[0] + m[n - 1], 0
        return tuple(m)

    monkeypatch.setattr(protocol, "protocol_targets", moved)
    monkeypatch.setattr(factorization, "protocol_targets", moved)
    base = ["--graph", k4_path, "--k", "1", "--l", "1"]
    for argv in (["verify", *base], ["factorize", *base], ["emit", *base, "--out", str(tmp_path / "x.ine"), "--verify"],
                 ["protocol", *base, "--mode", "exact", "--X", "1,2", "--F", "2,3,4"]):
        assert run(argv, capsys) == (2, "", (
            "error: internal consistency failure: orientation of a basis was refused (in-degree targets "
            "infeasible: region [1, 3] has 1 internal edges but target sum 0)\n"
        )), argv
    assert not (tmp_path / "x.ine").exists()


def test_unannounced_refusal_stops_only_factorize(k4_path, tmp_path, monkeypatch, capsys):
    """K4 (1,1): a refusal in the block of announcement (3,), which no row X makes, enters no row of the lift.

    So verify, emit --verify and plain factorize never build that block and pass; factorize --out builds
    every block before its check, so it exits 2 with nothing printed or written.
    """
    targets = protocol.protocol_targets

    def refused(n, p, announced):
        return (p.k * n - p.ell, *[0] * (n - 1)) if announced == (3,) else targets(n, p, announced)

    monkeypatch.setattr(factorization, "protocol_targets", refused)
    base = ["--graph", k4_path, "--k", "1", "--l", "1"]
    assert run(["verify", *base], capsys)[0] == 0
    assert run(["emit", *base, "--out", str(tmp_path / "x.ine"), "--verify"], capsys)[0] == 0
    assert run(["factorize", *base], capsys)[0] == 0
    code, out, err = run(["factorize", *base, "--out", str(tmp_path / "dump")], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: internal consistency failure: orientation of a basis was refused")
    assert list(tmp_path.glob("dump*")) == []


@pytest.mark.parametrize("k, l, announced, every", [(2, 3, 1000, 2000), (1, 1, 500, 625)])
def test_bob_plays_each_block_once(tmp_path, monkeypatch, capsys, k, l, announced, every):
    """K5: verify, emit --verify and factorize play Bob's games only for the announcements Alice makes, --out for all.

    K5 has 100 bases at (2,3), with 20 announcements of which 10 are made, and 125 at (1,1), with 5 and 4.
    """
    games = []
    bob = factorization.bob_orientation

    def counted(edges, targets):
        games.append(targets)
        return bob(edges, targets)

    monkeypatch.setattr(factorization, "bob_orientation", counted)
    path = tmp_path / "k5.json"
    g = complete_graph(5)
    path.write_text(json.dumps({"n": g.n, "edges": g.edges}))
    base = ["--graph", str(path), "--k", str(k), "--l", str(l)]
    for argv, expected in ((["verify", *base], announced),
                           (["emit", *base, "--out", str(tmp_path / "k5.ine"), "--verify"], announced),
                           (["factorize", *base], announced),
                           (["factorize", *base, "--out", str(tmp_path / "k5")], every)):
        games.clear()
        assert run(argv, capsys)[0] == 0, argv
        assert len(games) == expected, argv


G9_EDGES = [(0, 2), (0, 6), (1, 3), (1, 5), (1, 7), (1, 8), (2, 3), (2, 5), (2, 6), (2, 8), (3, 4), (3, 8), (4, 7),
            (4, 8), (6, 7), (7, 8)]

# sha256 of the files written for G9_EDGES at (2,3), variant B, 8 bases; only U.csv depends on Bob's fetch order
G9_SHA256 = {
    "g9.S.csv": "219b347c37710127e6e53a2d2d21828bf17c28aefdca8ad909e53319a043e391",
    "g9.T.csv": "b4aa0dac484149e720ac0bfc72298be3524375f09981e4c502dd595d8ddf5289",
    "g9.U.csv": "de217a1e32794671379dad1732419aa0a323b7a61c062309d1f23b5e6716985e",
    "g9.ine": "1ae821223fc26af60f5091c59bc652addd43db78db2e4554fd46bb19c8f08c1a",
}


def test_bob_is_pinned_on_nine_vertices(tmp_path, capsys):
    """At n >= 9 a set can iterate {1, 9} either way; Bob's ascending fetch order fixes U.csv."""
    path = tmp_path / "g9.json"
    path.write_text(json.dumps({"n": 9, "edges": G9_EDGES}))
    base = ["--graph", str(path), "--k", "2", "--l", "3"]
    assert run(["factorize", *base, "--out", str(tmp_path / "g9")], capsys)[0] == 0
    assert run(["emit", *base, "--out", str(tmp_path / "g9.ine")], capsys)[0] == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in G9_SHA256}
    assert digests == G9_SHA256


@pytest.mark.parametrize(
    "exc",
    [
        AssertionError("a feasible lifted point projected outside the base polytope"),
        RuntimeError("internal consistency failure: orientation of a basis was refused"),
        InfeasibleLiftedPointError("y[0] = -1/5 < 0"),
    ],
)
def test_failed_verification_exits_2(k4_path, monkeypatch, capsys, exc):
    def failing(*args, **kwargs):
        raise exc

    monkeypatch.setattr(lifted, "verify_extension", failing)
    code, _, err = run(["verify", "--graph", k4_path, "--k", "2", "--l", "3"], capsys)
    assert code == 2
    assert err == f"error: {exc}\n"


@pytest.mark.parametrize("exc", [KeyError(3), TypeError("unsupported operand"), IndexError("list index out of range")])
def test_unexpected_exception_exits_2(k4_path, monkeypatch, capsys, exc):
    """An exception outside main's list is a bug: exit 2 with one line, not a traceback and exit 1."""

    def failing(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_bases", failing)
    code, _, err = run(["bases", "--graph", k4_path, "--k", "1", "--l", "1"], capsys)
    assert code == 2
    assert err == f"error: internal failure: {exc!r}\n"


def test_factorize_mismatch_exits_2(k4_path, tmp_path, corrupted_t, capsys):
    """A failed check is verify's error line, with nothing printed and no dump written."""
    prefix = tmp_path / "dump"
    base = ["--graph", k4_path, "--k", "2", "--l", "3"]
    code, out, err = run(["factorize", *base, "--out", str(prefix)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: basis (") and "equality row X=" in err
    assert (code, err) == run(["verify", *base], capsys)[::2]
    assert list(tmp_path.glob("dump*")) == []


def test_malformed_factorization_exits_2(k4_path, monkeypatch, capsys):
    """A support out of order can only come from a bug: exit 2, not exit 1."""
    real_rows = factorization.Factorization.rows

    def reversed_supports(self):
        return ((x, rhs, inside, row[::-1]) for x, rhs, inside, row in real_rows(self))

    monkeypatch.setattr(factorization.Factorization, "rows", reversed_supports)
    base = ["--graph", k4_path, "--k", "2", "--l", "3"]
    message = "A row X=(0, 1) must be ascending transcript indices in [0, 144), at most 6 of them"
    for argv in (["verify", *base], ["factorize", *base]):
        code, _, err = run(argv, capsys)
        assert (code, err) == (2, f"error: internal failure: TypeError({message!r})\n"), argv


# each misplaces row 3 of K4's eleven rows X, keeping every row as rows() gives it
ROW_MUTATIONS = {
    "dropped": (lambda rows: [*rows[:3], *rows[4:]], "row 3 is X=(0, 2, 3), not X=(0, 2)"),
    "repeated": (lambda rows: [*rows[:4], *rows[3:]], "row 4 is X=(0, 2), not X=(0, 2, 3)"),
    "swapped": (lambda rows: [*rows[:3], rows[4], rows[3], *rows[5:]], "row 3 is X=(0, 2, 3), not X=(0, 2)"),
    "wrong-x": (lambda rows: [*rows[:3], ((1, 3), *rows[3][1:]), *rows[4:]], "row 3 is X=(1, 3), not X=(0, 2)"),
}


@pytest.mark.parametrize("mutation", list(ROW_MUTATIONS))
def test_misplaced_row_of_a_exits_2(mutation, k4_path, tmp_path, monkeypatch, capsys):
    """A row that is missing, repeated, out of order or for the wrong X is a bug: exit 2, and no .ine."""
    mutate, wrong = ROW_MUTATIONS[mutation]
    real_rows = factorization.Factorization.rows
    monkeypatch.setattr(factorization.Factorization, "rows", lambda self: iter(mutate(list(real_rows(self)))))
    message = f"rows must be the X in lexicographic order, then X = V: {wrong}"
    base = ["--graph", k4_path, "--k", "2", "--l", "3"]
    for argv in (["verify", *base], ["emit", *base, "--out", str(tmp_path / "x.ine"), "--verify"]):
        assert run(argv, capsys) == (2, "", f"error: internal failure: TypeError({message!r})\n"), argv
    assert not (tmp_path / "x.ine").exists()


def test_verify_never_builds_the_slack_matrix(k4_path, tmp_path, monkeypatch, capsys):
    def no_slack(*args, **kwargs):
        raise AssertionError("slack_matrix was built")

    monkeypatch.setattr(factorization, "slack_matrix", no_slack)
    base = ["--graph", k4_path, "--k", "2", "--l", "3"]
    for argv in (["verify", *base], ["emit", *base, "--out", str(tmp_path / "x.ine"), "--verify"],
                 ["factorize", *base]):
        code, out, _ = run(argv, capsys)
        assert code == 0 and ('"pass": true' in out or "verified: yes" in out), argv


@pytest.mark.parametrize("graph", ["k3_path", "k4_path"])
def test_huge_k_is_answered_exactly(graph, tmp_path, capsys, request):
    """k = 2^62 is answered with exact integers: every edge set is sparse, and no basis exists."""
    base = ["--graph", request.getfixturevalue(graph), "--k", str(2**62), "--l", "0"]
    assert run(["check", *base], capsys) == (0, "sparse[pebble]: yes\nsparse[bruteforce]: yes\ntight: no\n", "")
    assert run(["bases", *base], capsys) == (0, "0\n", "")
    for argv in (["slack", *base], ["factorize", *base], ["verify", *base],
                 ["emit", *base, "--out", str(tmp_path / "x.ine")]):
        code, out, err = run(argv, capsys)
        assert (code, out) == (4, ""), argv
        assert err.startswith("error: ") and "the polytope is empty" in err, argv
    assert not (tmp_path / "x.ine").exists()
    code, out, err = run(["orient", *base, "--x", "0"], capsys)
    assert (code, out) == (1, "") and "but targets sum to" in err
    code, out, err = run(["protocol", *base, "--X", "0,1", "--F", "0,1"], capsys)
    assert (code, out, err) == (1, "", "error: the edge set is not a basis (not tight for these parameters)\n")


def test_one_edge_at_huge_k_verifies_and_writes_pinned_bytes(tmp_path, capsys):
    """P2 at k = 2^62, l = 2^63 - 1 has one basis, c = 1: verify, factorize --out and emit --verify pass it.

    k n = 2^63 is far past a byte, yet the check packs one byte per basis; every output is pinned.
    """
    path = tmp_path / "p2.json"
    path.write_text(json.dumps({"n": 2, "edges": [[0, 1]]}))
    base = ["--graph", str(path), "--k", str(2**62), "--l", str(2**63 - 1)]
    code, report, err = run(["verify", *base], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(report.encode()).hexdigest() == \
        "7f68758aef57a598414074067b4d7bb57329a8d8eb6ec8cf9f2b2887d80d3b93"
    summary = json.loads(report)
    assert (summary["counts"]["bases"], summary["pass"], summary["variant"]) == (1, True, "B")
    prefix = tmp_path / "p2"
    wrote = "".join(f"wrote {prefix}.{suffix}\n" for suffix in ("S.csv", "T.csv", "U.csv"))
    assert run(["factorize", *base, "--out", str(prefix)], capsys) == \
        (0, f"variant: B\nslack matrix: 0x1\ntranscripts: 4\nverified: yes\n{wrote}", "")
    ine = tmp_path / "p2.ine"
    assert run(["emit", *base, "--out", str(ine), "--verify"], capsys) == \
        (0, f"wrote {ine} (1 equalities + 5 inequalities)\n{report}", "")
    assert (tmp_path / "p2.S.csv").read_text() == ",F:0\n"
    assert (tmp_path / "p2.T.csv").read_text() == ",0+1/e0h1,0+1/e0h0,1+0/e0h1,1+0/e0h0\n"
    assert (tmp_path / "p2.U.csv").read_text() == ",F:0\n0+1/e0h1,1\n0+1/e0h0,0\n1+0/e0h1,0\n1+0/e0h0,1\n"
    assert ine.read_text() == ("H-representation\nlinearity 1 1\nbegin\n6 6 rational\n1 -1 0 0 0 0\n"
                               "0 1 0 0 0 0\n0 0 1 0 0 0\n0 0 0 1 0 0\n0 0 0 0 1 0\n0 0 0 0 0 1\nend\n")


def test_vertex_guard_exits_3(tmp_path, capsys):
    """One vertex past the guard is refused as the instance is read, before any game is built."""
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"n": MAX_VERTICES + 1, "edges": [[0, 1]]}))
    for command in ("check", "bases"):
        code, out, err = run([command, "--graph", str(path), "--k", "1", "--l", "1"], capsys)
        assert code == 3, command
        assert out == "" and err.startswith("error: ") and "vertex guard" in err, command


def test_emit_needs_no_enumeration(k4_path, tmp_path, capsys):
    base = ["emit", "--graph", k4_path, "--k", "1", "--l", "1"]
    plain, guarded = tmp_path / "plain.ine", tmp_path / "guarded.ine"
    assert run([*base, "--out", str(plain)], capsys)[0] == 0
    assert run([*base, "--out", str(guarded), "--max-enum", "1"], capsys)[0] == 0
    assert guarded.read_bytes() == plain.read_bytes()
    verified = tmp_path / "verified.ine"
    code, _, err = run([*base, "--out", str(verified), "--verify", "--max-enum", "1"], capsys)
    assert code == 3 and "guard" in err
    assert not verified.exists()


def test_factorize_guard_fires_before_the_slack_matrix(k4_path, monkeypatch, capsys):
    def no_slack(*args, **kwargs):
        raise AssertionError("slack_matrix was built")

    monkeypatch.setattr(factorization, "MAX_MATRIX_BYTES", 1000)
    monkeypatch.setattr(factorization, "slack_matrix", no_slack)
    code, _, err = run(["factorize", "--graph", k4_path, "--k", "2", "--l", "3"], capsys)
    assert code == 3
    assert "guard" in err


def test_memory_guard_exits_3(k4_path, monkeypatch, capsys):
    monkeypatch.setattr(factorization, "MAX_MATRIX_BYTES", 1000)
    for command in ("verify", "factorize"):
        code, _, err = run([command, "--graph", k4_path, "--k", "2", "--l", "3"], capsys)
        assert code == 3, command
        assert "guard" in err


@pytest.mark.parametrize("limit, refused", [(1000, "B for 6 bases")])
def test_factorize_out_guards_refuse_before_orientation(k4_path, tmp_path, monkeypatch, capsys, limit, refused):
    """factorize --out exits 3 at the B guard before any orientation or output; on K4 (2,3) B is estimated at 1,728."""
    def no_orientation(*args):
        raise AssertionError("a basis was oriented")

    monkeypatch.setattr(factorization, "MAX_MATRIX_BYTES", limit)
    monkeypatch.setattr(factorization, "bob_orientation", no_orientation)
    argv = ["factorize", "--graph", k4_path, "--k", "2", "--l", "3", "--out", str(tmp_path / "dump")]
    code, out, err = run(argv, capsys)
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {refused} would take about")
    assert list(tmp_path.glob("dump*")) == []


def test_verify_seed_has_no_effect(k4_path, capsys):
    base = ["verify", "--graph", k4_path, "--k", "2", "--l", "3"]
    assert run([*base, "--seed", "3"], capsys) == run(base, capsys)


def test_row_guard_fires_before_enumeration(tmp_path, monkeypatch, capsys):
    def no_bases(*args, **kwargs):
        raise AssertionError("bases were enumerated")

    path = tmp_path / "p17.json"
    g = path_graph(17)
    path.write_text(json.dumps({"n": g.n, "edges": g.edges}))
    monkeypatch.setattr(cli, "enumerate_bases", no_bases)
    base = ["--graph", str(path), "--k", "1", "--l", "1"]
    for argv in (["slack", *base], ["factorize", *base], ["verify", *base],
                 ["emit", *base, "--out", str(tmp_path / "x.ine"), "--verify"]):
        code, _, err = run(argv, capsys)
        assert code == 3, argv
        assert "row enumeration refused" in err


def test_empty_polytope_exits_4_before_enumeration(tmp_path, monkeypatch, capsys):
    """K5 at (3,3) has no basis: every command that needs bases exits 4 without enumerating."""
    def no_bases(*args, **kwargs):
        raise AssertionError("bases were enumerated")

    path = tmp_path / "k5.json"
    g = complete_graph(5)
    path.write_text(json.dumps({"n": g.n, "edges": g.edges}))
    monkeypatch.setattr(cli, "enumerate_bases", no_bases)
    base = ["--graph", str(path), "--k", "3", "--l", "3"]
    for argv in (["slack", *base], ["factorize", *base], ["verify", *base],
                 ["emit", *base, "--out", str(tmp_path / "x.ine"), "--verify"]):
        code, out, err = run(argv, capsys)
        assert code == 4, argv
        assert out == "" and "the polytope is empty" in err, argv
    assert list(tmp_path.glob("*.ine")) == []


def test_emit_and_emit_verify_write_the_same_ine(corpus_cells, tmp_path, capsys):
    """On every cell, plain emit and emit --verify write the same .ine."""
    for name, g, p, _ in corpus_cells:
        graph = tmp_path / f"{name}.json"
        graph.write_text(json.dumps({"n": g.n, "edges": g.edges}))
        base = ["emit", "--graph", str(graph), "--k", str(p.k), "--l", str(p.ell)]
        written = []
        for extra in ([], ["--verify"]):
            out = tmp_path / f"{name}-{p.k}-{p.ell}-{len(extra)}.ine"
            assert run([*base, "--out", str(out), *extra], capsys)[0] == 0, (name, p, extra)
            written.append(out.read_bytes())
        assert written[0] == written[1], (name, p)
