import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from sparsity_ef import sparsity
from sparsity_ef.graphs import MAX_VERTICES, Graph, SparsityParams
from sparsity_ef.sparsity import (
    EnumerationGuardError,
    enumerate_bases,
    has_basis,
    is_sparse_bruteforce,
    is_sparse_pebble,
    is_tight,
    tight_cardinality,
    vertex_violation,
)

from conftest import (
    PARAM_GRID,
    complete_graph,
    corpus_graphs,
    path_graph,
    random_graph,
    spanning_tree_count,
)
from pebble_reference import SetPebbleGame

K3 = complete_graph(3)
K4 = complete_graph(4)
P11 = SparsityParams(1, 1)
P23 = SparsityParams(2, 3)


@pytest.mark.parametrize("oracle", [is_sparse_bruteforce, is_sparse_pebble])
def test_sparsity_examples(oracle):
    assert not oracle(K3, P11, [0, 1, 2])  # 3 > 1*3-1
    assert oracle(K3, P11, [0, 2])  # forest {01,12}
    assert not oracle(K4, P23, range(6))  # 6 > 2*4-3
    assert oracle(K4, P23, [0, 1, 2, 3, 4])  # K4 minus an edge
    assert oracle(K3, SparsityParams(1, 0), [0, 1, 2])  # 3 <= 1*3-0
    assert oracle(K4, P23, [])


def test_tightness_examples():
    assert is_tight(K3, P11, [0, 2])
    assert not is_tight(K3, P11, [0])
    assert is_tight(K4, P23, [0, 1, 2, 3, 4])
    assert not is_tight(K4, P23, range(6))


def test_known_basis_counts():
    assert len(enumerate_bases(K3, P11)) == 3
    assert len(enumerate_bases(K4, P11)) == 16
    assert spanning_tree_count(K4) == 16  # Cayley: 4^2
    # every 5-edge subset of K4 is (2,3)-tight: check against the literal oracle
    by_brute = [
        f
        for f in itertools.combinations(range(6), 5)
        if is_sparse_bruteforce(K4, P23, f)
    ]
    assert len(by_brute) == 6
    assert enumerate_bases(K4, P23) == by_brute


def _bases_by_brute_force(g, p):
    """The basis list with no pebble game: every fixed-size subset, filtered by counting."""
    size = tight_cardinality(g, p)
    return [
        f
        for f in itertools.combinations(range(g.edge_count), size)
        if is_sparse_bruteforce(g, p, f)
    ]


def test_enumeration_matches_brute_force_oracle():
    rng = random.Random(2026)
    graphs = corpus_graphs() + [
        (f"random {i}", random_graph(rng, rng.randint(2, 7))) for i in range(30)
    ]
    for name, g in graphs:
        for k, ell in PARAM_GRID:
            p = SparsityParams(k, ell)
            expected = _bases_by_brute_force(g, p)
            assert enumerate_bases(g, p) == expected, (name, g.edges, p)
            assert has_basis(g, p) == bool(expected), (name, g.edges, p)


def test_complete_graph_counts():
    assert len(enumerate_bases(complete_graph(7), P11)) == 7**5  # Cayley
    assert len(enumerate_bases(complete_graph(6), P23)) == 3355


def test_long_path_has_one_basis():
    path = path_graph(1500)
    assert enumerate_bases(path, P11) == [tuple(range(1499))]
    assert has_basis(path, P11)


def test_spanning_tree_counts_match_matrix_tree(corpus):
    for name, g in corpus:
        assert len(enumerate_bases(g, P11)) == spanning_tree_count(g), name


def test_bases_sorted_and_equicardinal():
    bases = enumerate_bases(K4, P11)
    assert bases == sorted(bases)
    assert all(len(b) == tight_cardinality(K4, P11) == 3 for b in bases)


def test_empty_family_is_legal():
    assert enumerate_bases(path_graph(3), P23) == []


def test_has_basis_refuses_too_few_edges_without_a_game(monkeypatch):
    """Fewer edges than k*n - l decide emptiness before any O(n) game state exists."""

    def no_game(*args):
        raise AssertionError("the pebble game was built")

    monkeypatch.setattr(sparsity, "PebbleGame", no_game)
    assert has_basis(Graph(MAX_VERTICES, ()), P11) is False


def test_enumeration_guard():
    with pytest.raises(EnumerationGuardError):
        enumerate_bases(K4, P11, max_enum=1)


def test_bruteforce_guard_refusal():
    big = complete_graph(17)
    with pytest.raises(EnumerationGuardError):
        is_sparse_bruteforce(big, SparsityParams(3, 2), range(21))


def test_vertex_scan_returns_smallest_mask():
    # the triangle is not (1,1)-sparse; the full vertex set 0b111 is the only violator
    triangle = [(0, 1), (0, 2), (1, 2)]
    assert vertex_violation(3, triangle, P11) == 0b111
    assert vertex_violation(3, triangle, SparsityParams(1, 0)) is None


def test_bruteforce_forms_agree(monkeypatch):
    # force each enumeration form by zeroing the other's guard, and compare on instances where both apply
    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 6))
        if g.edge_count == 0:
            continue
        subset = [i for i in range(g.edge_count) if rng.random() < 0.7]
        k, ell = rng.choice(PARAM_GRID)
        p = SparsityParams(k, ell)
        with monkeypatch.context() as m:
            m.setattr(sparsity, "MAX_EDGE_ENUM", 0)
            vertex_form = is_sparse_bruteforce(g, p, subset)
        with monkeypatch.context() as m:
            m.setattr(sparsity, "MAX_VERTEX_ENUM", 0)
            edge_form = is_sparse_bruteforce(g, p, subset)
        assert vertex_form == edge_form


def test_oracles_agree_exhaustively_on_k4():
    for k, ell in PARAM_GRID:
        p = SparsityParams(k, ell)
        for r in range(7):
            for subset in itertools.combinations(range(6), r):
                assert is_sparse_pebble(K4, p, subset) == is_sparse_bruteforce(
                    K4, p, subset
                ), (p, subset)


@settings(deadline=None)
@given(st.data())
def test_hereditary_sparsity(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    g = random_graph(rng, rng.randint(2, 6))
    k, ell = data.draw(st.sampled_from(PARAM_GRID))
    p = SparsityParams(k, ell)
    subset = [i for i in range(g.edge_count) if rng.random() < 0.6]
    if is_sparse_pebble(g, p, subset):
        sub = [i for i in subset if rng.random() < 0.5]
        assert is_sparse_pebble(g, p, sub)
        assert is_sparse_bruteforce(g, p, sub)


def test_basis_exchange_small():
    for g, p in [(K3, P11), (K4, P11), (K4, P23)]:
        bases = enumerate_bases(g, p)
        family = set(bases)
        for f1 in bases:
            for f2 in bases:
                if f1 == f2:
                    continue
                for e in set(f1) - set(f2):
                    assert any(
                        tuple(sorted((set(f1) - {e}) | {f})) in family
                        for f in set(f2) - set(f1)
                    ), (f1, f2, e)


def test_subset_validation():
    with pytest.raises(ValueError):
        is_sparse_pebble(K3, P11, [5])


def test_fetch_order_does_not_depend_on_fill_order():
    """Two games in one state, but the out-list [1, 9] of vertex 0 filled in opposite orders.

    Both 1 and 9 hold a free pebble; each out-list is kept in ascending
    order whatever order it was filled in, and the fetch walks it as it
    stands, so both games fetch the pebble of vertex 1.
    """
    for first, second in ((9, 1), (1, 9)):
        game = sparsity.PebbleGame([2, 1, 0, 0, 0, 0, 0, 0, 0, 1], 0)
        assert game.play([(0, first), (0, second)]) == 2
        assert game.play([(0, 5)]) == 1  # vertex 0 has no pebble left, so one is fetched
        assert game.pebbles == [0, 0, 0, 0, 0, 0, 0, 0, 0, 1], first
        assert game.out[0] == [5, 9] and game.out[1] == [0], first


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_pebble_game_matches_the_set_reference(data):
    """Random play/accepts/remove sequences play the same game on ascending out-lists as on sorted sets.

    A "play" step plays one to three free edges at once, and the reference
    adds them one by one up to its first refusal; an "accepts" step plays
    one edge and takes it out again if it went in.  After every step the
    return values, free pebbles, out-neighbourhoods and failed-fetch
    regions agree, and every out-list is strictly ascending.
    """
    n = data.draw(st.integers(2, 12), label="n")
    budgets = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n), label="budgets")
    ell = data.draw(st.integers(0, 5), label="ell")
    game, ref = sparsity.PebbleGame(budgets, ell), SetPebbleGame(budgets, ell)
    accepted: set[tuple[int, int]] = set()
    pairs = list(itertools.combinations(range(n), 2))
    for _ in range(data.draw(st.integers(0, 40), label="steps")):
        free = [e for e in pairs if e not in accepted]
        op = data.draw(st.sampled_from(["play", "accepts"] * bool(free) + ["remove"] * bool(accepted)))
        if op == "remove":
            u, v = data.draw(st.sampled_from(sorted(accepted)))
            if data.draw(st.booleans()):
                u, v = v, u
            game.remove(u, v)
            ref.remove(u, v)
            accepted.discard((min(u, v), max(u, v)))
        else:
            size = 1 if op == "accepts" else 3
            edges = data.draw(st.lists(st.sampled_from(free), min_size=1, max_size=size, unique=True))
            edges = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in edges]
            played = game.play(edges)
            if op == "accepts":
                (u, v), answer = edges[0], played == 1
                if answer:
                    game.remove(u, v)
                assert answer == ref.accepts(u, v)
            else:
                expected = 0
                while expected < len(edges) and ref.add(*edges[expected]):
                    expected += 1
                assert played == expected
                accepted.update((min(u, v), max(u, v)) for u, v in edges[:played])
        assert game.pebbles == ref.pebbles
        assert [set(heads) for heads in game.out] == ref.out
        assert all(a < b for heads in game.out for a, b in zip(heads, heads[1:]))
        assert game.searched == ref.searched
