"""Per-point ``Fraction`` reference for the lift check, an oracle for ``lifted.verify_extension``.

A point of the lifted polytope of a ``Factorization`` is (x, y): x over
the edges, y over the transcripts.  ``lift_vertex`` lifts one basis with
its U-column, ``assert_in_lifted`` checks a point against the emitted
system row by row in exact rationals, and ``in_base_polytope`` tests the
x-part against every counting inequality by full subset scan.
``build_factorization`` is called through its module for Bob's rule,
and A is read through ``Factorization.rows``, so a test that replaces
either changes the lift here and in the factorization alike.  Only X
and its support are read from a row: the reference requires the rows
X in lexicographic order, then X = V, and computes each row's E(X) and
k|X| - l from X itself, so the global row is X = V's, sum_e x_e = c.
Each support is densified here, one count per index, so the reference
reads A as a plain matrix.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple, Sequence

from sparsity_ef import factorization
from sparsity_ef.errors import InfeasibleLiftedPointError
from sparsity_ef.factorization import Factorization
from sparsity_ef.graphs import Graph, SparsityParams, induced_edges
from sparsity_ef.protocol import transcript_count

from conftest import b_matrix, row_sets


class LiftedPoint(NamedTuple):
    x: tuple[Fraction, ...]
    y: tuple[Fraction, ...]


def lift_vertex(fac: Factorization, basis) -> LiftedPoint:
    """The canonical lift of a basis: x = its incidence vector, y = its U-column."""
    basis = tuple(sorted(basis))
    in_basis = set(basis)
    x = tuple(Fraction(1 if i in in_basis else 0) for i in range(fac.graph.edge_count))
    column = b_matrix(factorization.build_factorization(fac.graph, fac.params, fac.variant, bases=[basis]))
    return LiftedPoint(x=x, y=tuple(Fraction(row[0], fac.c) for row in column))


def equality_residuals(fac: Factorization, point: LiftedPoint) -> list[tuple[str, Fraction]]:
    """Each row equality's name and left-hand side minus right-hand side, the global one's last."""
    g, p = fac.graph, fac.params
    rows = [(x_set, support) for x_set, *_, support in fac.rows()]
    if [x_set for x_set, _ in rows] != [*row_sets(g.n), tuple(range(g.n))]:
        raise TypeError("the rows are not every X with 2 <= |X| <= n - 1 in lexicographic order, then X = V")
    residuals = []
    for x_set, support in rows:  # T = c * A
        a_row = [support.count(w) for w in range(len(point.y))]
        acc = sum((point.x[i] for i in induced_edges(g, x_set)), Fraction(0))
        acc += sum((fac.c * a * yw for a, yw in zip(a_row, point.y) if a), Fraction(0))
        name = "global" if len(x_set) == g.n else f"X={x_set}"
        residuals.append((name, acc - (p.k * len(x_set) - p.ell)))
    return residuals


def assert_in_lifted(fac: Factorization, point: LiftedPoint) -> None:
    shape = (fac.graph.edge_count, transcript_count(fac.graph, fac.variant))
    if (len(point.x), len(point.y)) != shape:
        raise InfeasibleLiftedPointError(f"point has shape ({len(point.x)}, {len(point.y)}), expected {shape}")
    for name, values in (("x", point.x), ("y", point.y)):
        for i, v in enumerate(values):
            if v < 0:
                raise InfeasibleLiftedPointError(f"{name}[{i}] = {v} < 0")
    for row, res in equality_residuals(fac, point):
        if res != 0:
            raise InfeasibleLiftedPointError(f"equality row {row} has residual {res}")


def in_base_polytope(g: Graph, p: SparsityParams, x: Sequence[Fraction]) -> bool:
    """Whether x satisfies x >= 0, the global equality and every counting inequality."""
    if any(xv < 0 for xv in x):
        return False
    if sum(x, Fraction(0)) != max(p.k * g.n - p.ell, 0):
        return False
    for size in range(2, g.n + 1):
        for members in itertools.combinations(range(g.n), size):
            total = sum((x[i] for i in induced_edges(g, members)), Fraction(0))
            if total > max(p.k * size - p.ell, 0):
                return False
    return True


def check_projection(fac: Factorization, point: LiftedPoint) -> bool:
    """A feasible lifted point must project into the base polytope.

    Raises InfeasibleLiftedPointError when the point is not in the lifted
    polytope (that is an input error, not a projection failure); otherwise
    returns whether the x-part lies in the base polytope.
    """
    assert_in_lifted(fac, point)
    return in_base_polytope(fac.graph, fac.params, point.x)
