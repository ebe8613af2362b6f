import itertools
import random

import pytest

from sparsity_ef import factorization, orientation, protocol
from sparsity_ef.graphs import SparsityParams
from sparsity_ef.orientation import (
    InfeasibleOrientationError,
    orient_with_targets,
)
from sparsity_ef.protocol import exact_expectation, protocol_targets
from sparsity_ef.sparsity import enumerate_bases

from conftest import complete_graph, hakimi_violation, oriented, random_graph

K3 = complete_graph(3)
K4 = complete_graph(4)


def test_forced_tree_orientation():
    edges = [(0, 1), (1, 2)]
    rho, directed = oriented(3, edges, orient_with_targets(3, edges, (0, 1, 1)))
    assert directed == ((0, 1), (1, 2))
    assert rho == (0, 1, 1)


def test_triangle_becomes_directed_cycle():
    edges = [(0, 1), (0, 2), (1, 2)]
    rho, directed = oriented(3, edges, orient_with_targets(3, edges, (1, 1, 1)))
    assert rho == (1, 1, 1)
    assert set(directed) in ({(0, 1), (1, 2), (2, 0)}, {(1, 0), (0, 2), (2, 1)})


def test_determinism():
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    a = orient_with_targets(4, edges, (0, 1, 2, 2))
    b = orient_with_targets(4, edges, (0, 1, 2, 2))
    assert a == b
    assert oriented(4, edges, a)[0] == (0, 1, 2, 2)


def test_path_infeasible_with_witness():
    with pytest.raises(InfeasibleOrientationError) as exc_info:
        orient_with_targets(3, [(0, 1), (1, 2)], (0, 0, 2))
    witness = exc_info.value.witness
    assert witness is not None
    # the witness really violates the subset condition
    targets = (0, 0, 2)
    internal = [e for e in [(0, 1), (1, 2)] if e[0] in witness and e[1] in witness]
    assert len(internal) > sum(targets[v] for v in witness)
    assert {0, 1} <= witness


def test_total_mismatch_infeasible():
    with pytest.raises(InfeasibleOrientationError, match="sum"):
        orient_with_targets(3, [(0, 1)], (1, 1, 1))


def test_hakimi_examples():
    triangle = [(0, 1), (0, 2), (1, 2)]
    assert oriented(3, triangle, orient_with_targets(3, triangle, (1, 1, 1)))[0] == (1, 1, 1)
    with pytest.raises(InfeasibleOrientationError):
        orient_with_targets(3, [(0, 1), (1, 2)], (0, 0, 2))
    k4_minus = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    assert oriented(4, k4_minus, orient_with_targets(4, k4_minus, (0, 1, 2, 2)))[0] == (0, 1, 2, 2)


def test_hakimi_violation_example():
    # path 0-1-2 with targets (0,0,2): X={0,1} holds one edge but zero target mass
    assert hakimi_violation(3, [(0, 1), (1, 2)], (0, 0, 2)) == {0, 1}


def test_targets_A():
    assert protocol_targets(3, SparsityParams(1, 1), (0,)) == (0, 1, 1)
    assert protocol_targets(4, SparsityParams(2, 2), (3,)) == (2, 2, 2, 0)
    with pytest.raises(ValueError, match="k >= ell"):
        protocol_targets(3, SparsityParams(2, 3), (0,))
    with pytest.raises(ValueError, match="outside"):
        protocol_targets(3, SparsityParams(1, 1), (3,))


def test_targets_B():
    assert protocol_targets(4, SparsityParams(2, 3), (0, 1)) == (0, 1, 2, 2)
    assert protocol_targets(3, SparsityParams(1, 1), (0, 1)) == (0, 1, 1)
    with pytest.raises(ValueError, match="differ"):
        protocol_targets(4, SparsityParams(2, 3), (1, 1))
    with pytest.raises(ValueError, match="k <= ell"):
        protocol_targets(4, SparsityParams(2, 1), (0, 1))


def test_target_sums():
    for n in range(2, 7):
        p = SparsityParams(2, 2)
        for x in range(n):
            assert sum(protocol_targets(n, p, (x,))) == 2 * n - 2
        p = SparsityParams(2, 3)
        for x in range(n):
            for y in range(n):
                if x != y:
                    assert sum(protocol_targets(n, p, (x, y))) == 2 * n - 3


def test_orientation_lemmas_on_k4():
    """Prescribed-in-degree orientations exist for every basis and announcement."""
    for p, count in ((SparsityParams(1, 1), 1), (SparsityParams(2, 3), 2)):
        for basis in enumerate_bases(K4, p):
            edges = [K4.edges[i] for i in basis]
            for alice in itertools.permutations(range(4), count):
                targets = protocol_targets(4, p, alice)
                assert oriented(4, edges, orient_with_targets(4, edges, targets))[0] == targets


def test_constructive_matches_enumeration_oracle():
    rng = random.Random(99)
    checked = 0
    for _ in range(120):
        g = random_graph(rng, rng.randint(2, 8))
        edges = list(g.edges)
        if rng.random() < 0.5 and edges:
            # random split of |F| over the vertices: usually feasible
            targets = [0] * g.n
            for _ in range(len(edges)):
                targets[rng.randrange(g.n)] += 1
        else:
            targets = [rng.randint(0, 2) for _ in range(g.n)]
        by_enum = sum(targets) == len(edges) and hakimi_violation(g.n, edges, targets) is None
        try:
            heads = orient_with_targets(g.n, edges, targets)
            constructive = True
            assert oriented(g.n, edges, heads)[0] == tuple(targets)
        except InfeasibleOrientationError:
            constructive = False
        assert constructive == by_enum, (g, targets)
        checked += 1
    assert checked == 120


def test_infeasibility_witness_violates_condition():
    rng = random.Random(5)
    found = 0
    while found < 25:
        g = random_graph(rng, rng.randint(3, 7))
        edges = list(g.edges)
        targets = [rng.randint(0, 1) for _ in range(g.n)]
        if sum(targets) != len(edges):
            continue
        try:
            orient_with_targets(g.n, edges, targets)
        except InfeasibleOrientationError as exc:
            assert exc.witness is not None
            inside = [e for e in edges if e[0] in exc.witness and e[1] in exc.witness]
            assert len(inside) > sum(targets[v] for v in exc.witness)
            found += 1


def test_input_validation():
    with pytest.raises(ValueError, match="length"):
        orient_with_targets(3, [(0, 1)], (1,))
    with pytest.raises(ValueError, match="non-negative"):
        orient_with_targets(2, [(0, 1)], (2, -1))
    with pytest.raises(ValueError, match="bad edge"):
        orient_with_targets(2, [(0, 2)], (1, 1))
    for edges in ([(0, 1), (0, 1)], [(0, 1), (1, 0)]):
        with pytest.raises(ValueError, match="repeated edge"):
            orient_with_targets(2, edges, (1, 1))


def test_bob_plays_the_game_on_inputs_checked_once(monkeypatch):
    """Bob's edges (a basis of a validated graph) and targets (``protocol_targets``) are not checked again.

    ``orient_with_targets`` still checks its own inputs.
    """
    def checked(*args):
        raise AssertionError("inputs checked again")

    monkeypatch.setattr(orientation, "_check_inputs", checked)
    p = SparsityParams(2, 3)
    bases = enumerate_bases(K4, p)
    factorization.verify_factorization(factorization.build_factorization(K4, p, "B", bases=bases))
    assert exact_expectation(K4, p, "B", {0, 1}, bases[0]) == 0
    assert protocol._oriented_round(K4, p, "B", {0, 1}, [1, 0, 2, 3, 4]) == [0] * 5
    with pytest.raises(AssertionError, match="checked again"):
        orient_with_targets(4, K4.edges[:5], (0, 1, 2, 2))
