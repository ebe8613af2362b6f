import itertools
import json
from fractions import Fraction

import pytest

from sparsity_ef import cli
from sparsity_ef.graphs import Graph, SparsityParams
from sparsity_ef.protocol import (
    alice_choice,
    announcements,
    bit_complexity,
    bob_orientation,
    exact_expectation,
    monte_carlo,
    protocol_targets,
    resolve_variant,
    splitmix_draw,
    transcript_count,
)
from sparsity_ef.factorization import _transcript_labels, slack_value
from sparsity_ef.sparsity import enumerate_bases

from conftest import complete_graph, oriented, row_sets

K3 = complete_graph(3)
K4 = complete_graph(4)
P11 = SparsityParams(1, 1)
P23 = SparsityParams(2, 3)


def _bob(g, p, basis, alice):
    """Bob's orientation of a basis, given by edge indices, for an announcement: its in-degrees and directed edges."""
    edges = tuple(g.edges[i] for i in basis)
    return oriented(g.n, edges, bob_orientation(edges, protocol_targets(g.n, p, alice)))


def test_alice_choice():
    assert alice_choice({2, 0, 3}, "A") == (0,)
    assert alice_choice({2, 5, 3}, "B") == (2, 3)
    with pytest.raises(ValueError):
        alice_choice({1}, "B")
    with pytest.raises(ValueError):
        alice_choice(set(), "A")


def _closed_form_targets(n, p, announced):
    """Bob's targets as first stated: k - l at x (A); 0 at x and 2k - l at y (B); k elsewhere."""
    m = [p.k] * n
    if len(announced) == 1:
        m[announced[0]] = p.k - p.ell
    else:
        x, y = announced
        m[x], m[y] = 0, 2 * p.k - p.ell
    return tuple(m)


def test_protocol_targets_match_closed_forms():
    cells = 0
    for n in range(2, 7):
        for k in range(1, 4):
            for ell in range(2 * k):
                p = SparsityParams(k, ell)
                for count in [c for c, legal in ((1, k >= ell), (2, k <= ell)) if legal]:
                    for announced in itertools.permutations(range(n), count):
                        assert protocol_targets(n, p, announced) == _closed_form_targets(n, p, announced)
                        cells += 1
    assert cells == 600  # sum over n = 2..6 of 9n announcements of one vertex and 6n(n-1) of two


def test_protocol_targets_refusals():
    with pytest.raises(ValueError, match="k >= ell"):
        protocol_targets(4, P23, (0,))  # one vertex at k < l
    with pytest.raises(ValueError, match="k <= ell"):
        protocol_targets(4, SparsityParams(2, 1), (0, 1))  # two vertices at k > l
    with pytest.raises(ValueError, match="differ"):
        protocol_targets(4, P11, (2, 2))
    for announced in ((4,), (-1,), (0, 4), (-1, 0)):
        with pytest.raises(ValueError, match="outside"):
            protocol_targets(4, P11, announced)
    for announced in ((), (0, 1, 2)):
        with pytest.raises(ValueError, match="one or two"):
            protocol_targets(4, P11, announced)


@pytest.mark.parametrize("g", [K3, K4, complete_graph(5)], ids=["K3", "K4", "K5"])
def test_announcements_are_the_transcript_order(g):
    first_stated = {
        "A": [(x,) for x in range(g.n)],
        "B": [(x, y) for x in range(g.n) for y in range(g.n) if x != y],
    }
    for variant, expected in first_stated.items():
        assert announcements(g.n, variant) == expected
        labels = list(_transcript_labels(g, variant))
        alices = [label.split("/")[0] for label in labels[:: 2 * g.edge_count]]
        assert alices == ["+".join(map(str, a)) for a in expected]
        assert len(labels) == transcript_count(g, variant) == 2 * g.edge_count * len(expected)
        for x in row_sets(g.n):
            assert alice_choice(x, variant) in expected


def test_resolve_variant():
    assert resolve_variant(P11, "auto") == "A"  # ties prefer A
    assert resolve_variant(P23, "auto") == "B"
    assert resolve_variant(SparsityParams(2, 1), "auto") == "A"
    assert resolve_variant(P11, "B") == "B"
    with pytest.raises(ValueError):
        resolve_variant(P23, "A")
    with pytest.raises(ValueError):
        resolve_variant(P11, "C")


def test_run_once_support_and_frequencies():
    """One round is a Monte Carlo run of one sample, on draw 0 of its seed."""
    outputs = [monte_carlo(K3, P11, "A", {0, 1}, (1, 2), samples=1, seed=seed).mean for seed in range(400)]
    assert set(outputs) == {0, 2}
    # uniform pick between the two oriented edges: roughly half and half
    assert 120 < sum(1 for o in outputs if o == 2) < 280


def test_run_once_always_zero_cases():
    assert monte_carlo(K3, P11, "A", {0, 1}, (0, 2), samples=1, seed=5).mean == 0
    assert all(monte_carlo(K3, P11, "A", {0, 1, 2}, b, samples=1, seed=s).mean == 0
               for b in enumerate_bases(K3, P11) for s in range(10))


def test_run_once_uses_documented_stream():
    basis = (1, 2)
    members = {0, 1}
    _, directed = _bob(K3, P11, basis, (0,))
    for seed in (0, 1, 7, 2**63 + 11):
        idx = splitmix_draw(seed & ((1 << 64) - 1), 0, 2)
        tail, head = directed[idx]
        expected = Fraction(2) if tail not in members and head in members else Fraction(0)
        assert monte_carlo(K3, P11, "A", members, basis, samples=1, seed=seed).mean == expected


def test_exact_expectation_k3_cells():
    assert exact_expectation(K3, P11, "A", {0, 1}, (1, 2)) == 1
    assert exact_expectation(K3, P11, "A", {0, 1}, (0, 2)) == 0
    # the canonical orientation behind the nonzero cell: 0->2 then repaired 2->1
    assert _bob(K3, P11, (1, 2), (0,))[1] == ((0, 2), (2, 1))


def test_expectation_on_full_vertex_set_is_zero(corpus_cells):
    for _, g, p, bases in corpus_cells:
        variant = resolve_variant(p, "auto")
        assert exact_expectation(g, p, variant, range(g.n), bases[0]) == 0


@pytest.mark.parametrize(
    "g,p,variant",
    [
        (K3, P11, "A"),
        (K3, P11, "B"),
        (K4, P11, "A"),
        (K4, P11, "B"),
        (K4, P23, "B"),
        (K4, SparsityParams(2, 2), "A"),
    ],
)
def test_unbiasedness_exhaustive_small(g, p, variant):
    """Expected output equals the slack for every admissible (X, F), exactly."""
    bases = enumerate_bases(g, p)
    min_size = 1 if variant == "A" else 2
    for size in range(min_size, g.n + 1):
        for x in itertools.combinations(range(g.n), size):
            for basis in bases:
                assert exact_expectation(g, p, variant, x, basis) == slack_value(
                    g, p, x, basis
                ), (x, basis)


def test_both_variants_agree_at_boundary():
    for x in itertools.combinations(range(4), 2):
        for basis in enumerate_bases(K4, P11):
            a = exact_expectation(K4, P11, "A", x, basis)
            b = exact_expectation(K4, P11, "B", x, basis)
            auto = exact_expectation(K4, P11, "auto", x, basis)
            assert a == b == auto == slack_value(K4, P11, x, basis)


def test_counting_identity_inside_x():
    """Sum of in-degrees over X equals k|X| - l when the announced vertices lie in X."""
    for basis in enumerate_bases(K4, P23):
        for size in (2, 3, 4):
            for x in itertools.combinations(range(4), size):
                alice = alice_choice(x, "B")
                rho, _ = _bob(K4, P23, basis, alice)
                assert sum(rho[v] for v in x) == 2 * len(x) - 3


def test_entering_edge_identity():
    for basis in enumerate_bases(K4, P11):
        for size in (1, 2, 3):
            for x in itertools.combinations(range(4), size):
                _, directed = _bob(K4, P11, basis, alice_choice(x, "A"))
                entering = sum(
                    1 for tail, head in directed if tail not in x and head in x
                )
                assert entering == slack_value(K4, P11, x, basis)


def test_monte_carlo_reproducible_and_consistent():
    a = monte_carlo(K3, P11, "A", {0, 1}, (1, 2), samples=5000, seed=123)
    b = monte_carlo(K3, P11, "A", {0, 1}, (1, 2), samples=5000, seed=123)
    assert a == b == monte_carlo(K3, P11, "auto", {0, 1}, (1, 2), samples=5000, seed=123)
    # the sample mean is the average of the documented per-draw stream
    hits = sum(1 for t in range(5000) if splitmix_draw(123, t, 2) == 1)
    assert a.hits == hits
    assert a.mean == Fraction(2 * hits, 5000)


# Hit counts of the splitmix stream, recorded from the earlier numpy sampler
# (2^20 + 17 crossed its chunk boundary); any change to the stream moves them.
MC_CELLS = {
    "K3-A": (K3, P11, "A", {0, 1}, (1, 2)),
    "K4-B": (K4, P23, "B", {2, 3}, (0, 1, 2, 3, 4)),
}


@pytest.mark.parametrize(
    "cell,samples,seed,hits",
    [
        ("K3-A", 1, 3, 1),
        ("K3-A", 997, 42, 486),
        ("K3-A", 997, -7, 492),
        ("K3-A", 10**5, 7, 49913),
        ("K3-A", 2**20 + 17, 5, 524244),
        ("K4-B", 1, -5, 0),
        ("K4-B", 997, 42, 174),
        ("K4-B", 10**5, -1, 20359),
    ],
)
def test_monte_carlo_golden_hits(cell, samples, seed, hits):
    g, p, variant, x_set, basis = MC_CELLS[cell]
    r = monte_carlo(g, p, variant, x_set, basis, samples=samples, seed=seed)
    assert r.hits == hits
    assert r.mean == Fraction((p.k * g.n - p.ell) * hits, samples)


@pytest.mark.parametrize(
    "graph,argv,stdout",
    [
        (K3, ["--k", "1", "--l", "1", "--X", "0,1", "--F", "1,2", "--seed", "7"],
         "mean: 49913/50000\nstderr: 0.0031622886845917857\nsamples: 100000\nseed: 7\n"),
        (K4, ["--k", "2", "--l", "3", "--variant", "B", "--X", "2,3", "--F", "0,1,2,3,4", "--seed", "-1"],
         "mean: 20359/20000\nstderr: 0.006366763960744369\nsamples: 100000\nseed: -1\n"),
    ],
    ids=["K3-A", "K4-B"],
)
def test_protocol_mc_golden_stdout(graph, argv, stdout, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": graph.n, "edges": graph.edges}))
    assert cli.main(["protocol", "--graph", str(path), "--mode", "mc", *argv]) == 0
    assert capsys.readouterr().out == stdout


def test_monte_carlo_zero_slack_exact():
    r = monte_carlo(K3, P11, "A", {0, 1}, (0, 2), samples=1000, seed=9)
    assert r.mean == 0 and r.hits == 0


def test_monte_carlo_single_sample():
    r = monte_carlo(K3, P11, "A", {0, 1}, (1, 2), samples=1, seed=3)
    assert r.mean in (0, 2)
    assert r.stderr == 0.0


def test_monte_carlo_four_sigma():
    exact = exact_expectation(K3, P11, "A", {0, 1}, (1, 2))
    r = monte_carlo(K3, P11, "A", {0, 1}, (1, 2), samples=100000, seed=7)
    assert r.stderr > 0
    assert abs(float(r.mean - exact)) <= 4 * r.stderr


def test_monte_carlo_validates_samples():
    with pytest.raises(ValueError):
        monte_carlo(K3, P11, "A", {0, 1}, (1, 2), samples=0, seed=0)


def test_bit_complexity():
    assert bit_complexity(K3, "A") == 5
    assert bit_complexity(K4, "B") == 8
    assert bit_complexity(complete_graph(2), "A") == 2
    with pytest.raises(ValueError):
        bit_complexity(Graph(2, ()), "A")


def test_round_input_validation():
    with pytest.raises(ValueError, match="not a basis"):
        monte_carlo(K3, P11, "A", {0, 1}, (0,), samples=1, seed=0)
    with pytest.raises(ValueError, match="invalid"):
        exact_expectation(K4, SparsityParams(2, 1), "B", {0, 1}, (0, 1, 2))
    with pytest.raises(ValueError, match=r"\|X\| >= 2"):
        exact_expectation(K4, P23, "B", {0}, enumerate_bases(K4, P23)[0])
    with pytest.raises(ValueError, match="outside"):
        exact_expectation(K3, P11, "A", {0, 9}, (1, 2))
