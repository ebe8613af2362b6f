"""Shared fixtures: the desk-scale graph corpus and small test oracles."""

from __future__ import annotations

import itertools
import random

import pytest

from sparsity_ef.graphs import Graph, SparsityParams, make_graph
from sparsity_ef.protocol import announcements
from sparsity_ef.sparsity import edge_counts, enumerate_bases

PARAM_GRID = [(1, 0), (1, 1), (2, 1), (2, 2), (2, 3), (3, 3), (3, 5)]
MAX_FEASIBILITY_ENUM_N = 16


def hakimi_violation(n: int, edges, targets) -> frozenset[int] | None:
    """Smallest-mask X with |F(X)| > sum of the targets over X, by full subset scan (n <= 16).

    Hakimi's condition: an orientation with these in-degrees exists iff
    |F| = sum(targets) and no such X exists.
    """
    if n > MAX_FEASIBILITY_ENUM_N:
        raise ValueError(f"subset scan refused for n={n} > {MAX_FEASIBILITY_ENUM_N}")
    inside = edge_counts(n, edges)
    target_sum = [0] * (1 << n)
    for mask in range(1, 1 << n):
        rest = mask & (mask - 1)
        target_sum[mask] = target_sum[rest] + targets[(mask ^ rest).bit_length() - 1]
        if inside[mask] > target_sum[mask]:
            return frozenset(v for v in range(n) if (mask >> v) & 1)
    return None


def oriented(n: int, edges, heads) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """An orientation given by its heads, one per edge: its in-degree vector, and (tail, head) for each edge."""
    rho, directed = [0] * n, []
    for (u, v), h in zip(edges, heads, strict=True):
        assert h in (u, v), (u, v, h)
        rho[h] += 1
        directed.append((v, u) if h == u else (u, v))
    return tuple(rho), tuple(directed)


def b_matrix(fac) -> list[bytearray]:
    """Every row of B, in transcript order: Bob's blocks, one per announcement, end to end."""
    return [row for i in range(len(announcements(fac.graph.n, fac.variant))) for row in fac.B(i)]


def b_rule(rows, edge_count: int):
    """A rule for ``Factorization.B`` that hands out the given rows of B, 2|E| to a block."""
    return lambda i: rows[2 * edge_count * i:2 * edge_count * (i + 1)]


def complete_graph(n: int) -> Graph:
    return make_graph(n, itertools.combinations(range(n), 2))


def wheel_graph(rim: int) -> Graph:
    """Hub vertex 0 joined to a cycle on vertices 1..rim (so W5 has 6 vertices)."""
    edges = [(0, i) for i in range(1, rim + 1)]
    edges += [(i, i + 1) for i in range(1, rim)]
    edges.append((1, rim))
    return make_graph(rim + 1, edges)


def prism_graph() -> Graph:
    return make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])


def path_graph(n: int) -> Graph:
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def random_graph(rng: random.Random, n: int, edge_prob: float = 0.6) -> Graph:
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < edge_prob]
    return make_graph(n, edges)


def det_bareiss(matrix: list[list[int]]) -> int:
    """Fraction-free integer determinant (the matrix-tree oracle backend)."""
    m = [row[:] for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for i in range(n - 1):
        if m[i][i] == 0:
            for r in range(i + 1, n):
                if m[r][i] != 0:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
        prev = m[i][i]
    return sign * m[-1][-1]


def spanning_tree_count(g: Graph) -> int:
    """Matrix-tree theorem: determinant of a Laplacian minor."""
    lap = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    return det_bareiss([row[1:] for row in lap[1:]])


def corpus_graphs() -> list[tuple[str, Graph]]:
    return [
        ("K3", complete_graph(3)),
        ("K4", complete_graph(4)),
        ("K5", complete_graph(5)),
        ("W5", wheel_graph(5)),
        ("prism", prism_graph()),
    ]


@pytest.fixture(scope="session")
def corpus():
    return corpus_graphs()


@pytest.fixture(scope="session")
def corpus_cells(corpus):
    """Every (graph, params) pair with a nonempty basis family, bases included."""
    cells = []
    for name, g in corpus:
        for k, ell in PARAM_GRID:
            p = SparsityParams(k, ell)
            bases = enumerate_bases(g, p)
            if bases:
                cells.append((name, g, p, bases))
    return cells
