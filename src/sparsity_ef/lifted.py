"""The lifted polytope of a factorization: its emission and its check.

The lift follows the standard slack-covering construction (Faenza et
al. 2012), fixed by the left factor T = c * A alone (c = k n - l): one
equality per row X of ``Factorization.rows``,

    sum_{e in E(X)} x_e  +  sum_w c * A[X][w] * y_w  =  k|X| - l,

the counting rows, then X = V, the global row sum_e x_e = c (A has no
row V); x >= 0 and y >= 0; and x <= 1 where 2k - l >= 2.  Elsewhere the
row X = {u, v} of each edge (for n = 2, the global row) already gives
x_e <= 2k - l <= 1.  The ``.ine`` is the T side of a ``Factorization``:
one over no bases (``build_factorization(..., bases=())``) writes it.
The inequality count |E| + |W| (plus |E| upper bounds where they are
emitted, ``ine_size``) bounds the facet count (the measure the size
theorems use); reports carry both totals, with and without edge bounds.

The columns of U = B / c certify that each basis lifts.
``verify_extension`` checks one certificate (Yannakakis 1991) on a
factorization over the bases: every basis F lifts with zero residual.
That is, (1_F, U-column of F) satisfies each row: a counting row is the
identity A @ B = S on F's column, and the global row is |F| = c.
``verify_factorization`` checks the rows that ``format_ine`` writes,
each over all the bases at once, and refuses a factorization over no
bases, which certifies nothing.  T >= 0, as a row of T is c >= 1 on its
support and 0 elsewhere; y >= 0, as the check refuses a block of B that
is not 0/1.  The lifts put every basis in the projection.  Conversely,
for a feasible point, T >= 0 and y >= 0 make each row read
sum_{E(X)} x_e = k|X| - l - (T y)[X] <= k|X| - l, and the global row
fixes sum_e x_e = c; both are linear, so they hold for every convex
combination as well.  T >= 0 therefore certifies the counting
inequalities and x >= 0 of the projection, and x <= 1 holds there by the
emitted bound rows or by the rows |X| = 2.  A per-point ``Fraction``
reference for the same check lives with the tests
(``tests/lift_reference.py``).

Emission uses the cdd/lrs ``.ine`` H-representation layout with equality
rows first and exact integer coefficients, byte-deterministic for a
fixed instance.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .errors import EmptyPolytopeError, InfeasibleLiftedPointError  # both are re-exported
from .factorization import Factorization, row_count, sparse_renderer, verify_factorization
from .graphs import Graph, SparsityParams
from .protocol import ANNOUNCED, bit_complexity, transcript_count


def upper_bound_count(g: Graph, p: SparsityParams) -> int:
    """The x_e <= 1 rows emitted: one per edge where 2k - l >= 2, none where the rows imply them."""
    return g.edge_count if 2 * p.k - p.ell >= 2 else 0


def ine_size(g: Graph, p: SparsityParams, variant: str) -> tuple[int, int]:
    """(equalities, inequalities) of the lifted system in closed form: rows + global, then bounds on x and y."""
    return row_count(g.n) + 1, g.edge_count + transcript_count(g, variant) + upper_bound_count(g, p)


def verify_extension(fac: Factorization) -> dict:
    """End-to-end verification report for a factorization over the instance's bases.

    Checks the certificate of the module docstring with ``verify_factorization``, which raises
    InfeasibleLiftedPointError naming the basis and the row on the first failure, and refuses a
    factorization over no bases; returns the report dict on success.
    """
    g, p = fac.graph, fac.params
    verify_factorization(fac)

    n, m, w = g.n, g.edge_count, transcript_count(g, fac.variant)
    equality_count, inequality_count = ine_size(g, p, fac.variant)
    bits = bit_complexity(g, fac.variant)
    return {
        "instance": {"n": n, "edge_count": m, "k": p.k, "ell": p.ell},
        "variant": fac.variant,
        "counts": {
            "bases": len(fac.cols),
            "x_vars": m,
            "y_vars": w,
            "equality_rows": equality_count,
            "inequality_count": inequality_count,
            "inequality_count_excluding_edge_bounds": w,
            "ine_rows": equality_count + inequality_count,
        },
        "bounds": {
            "bit_complexity": bits,
            "protocol_size_bound": 2**bits,
            "size_bound": 3 * n ** ANNOUNCED[fac.variant] * m,
        },
        "note": (
            "size counts inequality constraints, an upper bound on the facet count"
        ),
        "pass": True,
    }


def format_ine(fac: Factorization) -> Iterator[str]:
    """H-representation of the T side, line by line: equalities first (listed in `linearity`), then bounds.

    The bounds are z >= 0 for every variable, then x_e <= 1 for every
    edge where 2k - l >= 2 (``upper_bound_count``).  Each row is
    ``b  -a`` for a constraint a.z <= b (cdd convention
    ``b + a'.z >= 0``); columns are 1 + |E| + |W|.  Each line is rendered
    from supports (``sparse_renderer``): an equality row's, E(X) and its
    row of A, come from ``fac.rows()`` as its line is taken.
    """
    g, p = fac.graph, fac.params
    m, w = g.edge_count, transcript_count(g, fac.variant)
    d = m + w
    n_eq, n_ineq = ine_size(g, p, fac.variant)
    on_x, on_y, on_z = sparse_renderer(m, " "), sparse_renderer(w, " "), sparse_renderer(d, " ")
    minus_c = str(-fac.c)  # the coefficient of y_w is -T[X][w], -c on X's support
    equalities = (str(rhs) + on_x(inside, "-1") + on_y(support, minus_c) for _, rhs, inside, support in fac.rows())

    header = ["H-representation", "linearity " + " ".join([str(n_eq), *[str(i + 1) for i in range(n_eq)]]),
              "begin", f"{n_eq + n_ineq} {d + 1} rational"]
    nonnegative = ("0" + on_z([i], "1") for i in range(d))  # z_i >= 0
    upper = ("1" + on_z([e], "-1") for e in range(upper_bound_count(g, p)))  # x_e <= 1
    return (line + "\n" for line in itertools.chain(header, equalities, nonnegative, upper, ["end"]))
