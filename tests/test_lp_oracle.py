"""LP oracle: optimizing over the emitted system must give the greedy optimum of the base polytope.

For seeded integer objectives, ``scipy.optimize.linprog`` maximizes over
the `.ine` text that ``format_ine`` writes, and the matroid greedy
algorithm, with the pebble game as its independence oracle, gives the
exact optimum over the bases.  The projection of the emitted system is
the base polytope exactly when no objective separates them.
"""

import random

import pytest

from sparsity_ef.factorization import build_factorization
from sparsity_ef.lifted import format_ine, upper_bound_count
from sparsity_ef.sparsity import is_sparse_pebble

linprog = pytest.importorskip("scipy.optimize").linprog

OBJECTIVES = 8
TOLERANCE = 1e-6  # HiGHS optima of objectives with |weight| <= 10 on these small systems


def _ine_system(ine) -> tuple[list[list[int]], list[list[int]]]:
    """Equality and inequality rows ``[b, -a...]`` of an H-representation's lines (b - a.z >= 0)."""
    lines = [line.rstrip("\n") for line in ine]
    n_eq = int(lines[1].split()[1])
    rows = [[int(v) for v in line.split()] for line in lines[4:-1]]
    return rows[:n_eq], rows[n_eq:]


def _lp_max(weights, equalities, inequalities) -> float:
    d = len(equalities[0]) - 1
    result = linprog(
        [-w for w in weights] + [0] * (d - len(weights)),
        A_ub=[[-v for v in row[1:]] for row in inequalities], b_ub=[row[0] for row in inequalities],
        A_eq=[[-v for v in row[1:]] for row in equalities], b_eq=[row[0] for row in equalities],
        bounds=(None, None), method="highs",
    )
    assert result.status == 0, result.message
    return -result.fun


def _greedy_max(g, p, weights) -> int:
    """The largest weight of a basis: heaviest edges first, kept while independent."""
    chosen = []
    for e in sorted(range(g.edge_count), key=lambda e: -weights[e]):
        if is_sparse_pebble(g, p, chosen + [e]):
            chosen.append(e)
    return sum(weights[e] for e in chosen)


def _oracle_cells(corpus_cells):
    return [(name, g, p) for name, g, p, _ in corpus_cells if name in ("K5", "W5", "prism")]


def test_lp_optimum_over_emitted_system_is_greedy_optimum(corpus_cells):
    rng = random.Random(2024)
    cells = _oracle_cells(corpus_cells)
    assert len(cells) == 13
    for name, g, p in cells:
        equalities, inequalities = _ine_system(format_ine(build_factorization(g, p, bases=())))
        for _ in range(OBJECTIVES):
            weights = [rng.randint(-10, 10) for _ in range(g.edge_count)]
            assert abs(_lp_max(weights, equalities, inequalities) - _greedy_max(g, p, weights)) <= TOLERANCE, (
                name, p, weights,
            )


def test_lp_oracle_separates_the_system_without_upper_bounds(corpus_cells):
    """Where 2k - l >= 2, dropping the x_e <= 1 rows lets the LP beat greedy."""
    rng = random.Random(2025)
    cells = [(name, g, p) for name, g, p in _oracle_cells(corpus_cells) if 2 * p.k - p.ell >= 2]
    assert cells
    for name, g, p in cells:
        equalities, inequalities = _ine_system(format_ine(build_factorization(g, p, bases=())))
        assert upper_bound_count(g, p) == g.edge_count
        weaker = inequalities[:-g.edge_count]
        gaps = []
        for _ in range(OBJECTIVES):
            weights = [rng.randint(-10, 10) for _ in range(g.edge_count)]
            gaps.append(_lp_max(weights, equalities, weaker) - _greedy_max(g, p, weights))
        assert max(gaps) > 1 - TOLERANCE, (name, p, gaps)
