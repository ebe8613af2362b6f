"""The lifted polytope implied by the factorization, its emission and its check.

The lift follows the standard slack-covering construction: one equality
per counting row X,

    sum_{e in E(X)} x_e  +  sum_w T[X][w] * y_w  =  k|X| - l,

plus the global equality sum_e x_e = k n - l, with x >= 0 and y >= 0,
and x <= 1 where 2k - l >= 2.  Elsewhere the row X = {u, v} of each
edge (for n = 2, the global row) already gives x_e <= 2k - l <= 1.
The inequality count |E| + |W|
(plus |E| upper bounds where they are emitted) is an upper bound on the
facet count (the measure the size theorems use); reports carry both
totals, with and without the edge bounds.

``verify_extension`` checks one certificate (Yannakakis 1991; Faenza et
al. 2012) on the factorization ``factorize`` builds and checks: T >= 0,
and every basis F lifts with zero residual, that is y = U-column >= 0,
the integer identity T @ B = c * S of ``verify_factorization`` on F's
column (c = k n - l) and |F| = c.  The lifts put every basis in the
projection.  Conversely, for a feasible point, T >= 0 and y >= 0 make
each row read sum_{E(X)} x_e = k|X| - l - (T y)[X] <= k|X| - l, and the
global row fixes sum_e x_e = c; both are linear, so they hold for every
convex combination as well.  T >= 0 therefore certifies the counting
inequalities and x >= 0 of the projection, and x <= 1 holds there by the
emitted bound rows or by the rows |X| = 2.  ``lift_vertex``,
``equality_residuals``, ``assert_in_lifted``, ``in_base_polytope`` and
``check_projection`` are a per-point ``Fraction`` reference for the
same check, kept for tests.

Emission uses the cdd/lrs ``.ine`` H-representation layout with equality
rows first and exact integer coefficients, byte-deterministic for a
fixed instance.  T is a list of rows of ints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import EmptyPolytopeError, InfeasibleLiftedPointError  # EmptyPolytopeError is re-exported
from .factorization import (
    Factorization,
    Transcript,
    build_factorization,
    build_T,
    build_U,
    enumerate_rows,
    enumerate_transcripts,
    render_rows,
    row_incidence,
    slack_matrix,
    verify_factorization,
)
from .graphs import Graph, SparsityParams, induced_edges, validate_instance
from .protocol import VARIANT_A, bit_complexity, resolve_variant
from .sparsity import Basis, require_basis


@dataclass(frozen=True, eq=False)
class LiftedPolytope:
    graph: Graph
    params: SparsityParams
    variant: str
    rows: tuple[tuple[int, ...], ...]
    row_rhs: tuple[int, ...]
    transcripts: tuple[Transcript, ...]
    T: list[list[int]]  # |rows| x |W|
    global_rhs: int

    @property
    def x_count(self) -> int:
        return self.graph.edge_count

    @property
    def y_count(self) -> int:
        return len(self.transcripts)

    @property
    def equality_count(self) -> int:
        return len(self.rows) + 1

    @property
    def inequality_count(self) -> int:
        """Bounds on x and y: the formulation's size measure."""
        return self.x_count + self.y_count + upper_bound_count(self.graph, self.params)


def upper_bound_count(g: Graph, p: SparsityParams) -> int:
    """The x_e <= 1 rows emitted: one per edge where 2k - l >= 2, none where the rows imply them."""
    return g.edge_count if 2 * p.k - p.ell >= 2 else 0


class LiftedPoint(NamedTuple):
    x: tuple[Fraction, ...]
    y: tuple[Fraction, ...]


def _nonempty_variant(g: Graph, p: SparsityParams, variant: str) -> str:
    """The resolved variant; refuses (EmptyPolytopeError) an instance without a basis.

    Emptiness is decided by ``has_basis``, one greedy pebble game that
    finds the matroid rank, so no basis is enumerated and no enumeration
    guard applies.
    """
    validate_instance(g, p)
    variant = resolve_variant(p, variant)
    require_basis(g, p)
    return variant


def build_lifted(
    g: Graph, p: SparsityParams, variant: str = "auto", *, fac: Factorization | None = None
) -> LiftedPolytope:
    """Assemble the equality system; refuses instances with an empty basis family.

    ``fac`` is the instance's factorization when the caller has built it:
    the lift then takes its T, rows and transcripts instead of building T again.
    """
    variant = _nonempty_variant(g, p, variant)
    if fac is None:
        rows = enumerate_rows(g, p)
        transcripts = enumerate_transcripts(g, variant)
        t = build_T(g, p, variant, rows, transcripts)
    else:
        rows, transcripts, t = fac.rows, fac.transcripts, fac.T
    return LiftedPolytope(
        graph=g,
        params=p,
        variant=variant,
        rows=tuple(rows),
        row_rhs=tuple(p.k * len(x) - p.ell for x in rows),
        transcripts=transcripts,
        T=t,
        global_rhs=p.k * g.n - p.ell,
    )


def lift_vertex(q: LiftedPolytope, basis: Basis) -> LiftedPoint:
    """The canonical lift of a basis: x = its incidence vector, y = its U-column."""
    g, p = q.graph, q.params
    basis = tuple(sorted(basis))
    in_basis = set(basis)
    x = tuple(Fraction(1 if i in in_basis else 0) for i in range(g.edge_count))
    y = tuple(Fraction(row[0], q.global_rhs) for row in build_U(g, p, q.variant, [basis], q.transcripts))
    return LiftedPoint(x=x, y=y)


def equality_residuals(q: LiftedPolytope, point: LiftedPoint) -> list[Fraction]:
    """Left-hand side minus right-hand side for each row equality, then the global one."""
    residuals = []
    for x_set, t_row, rhs in zip(q.rows, q.T, q.row_rhs):
        acc = sum((point.x[i] for i in induced_edges(q.graph, x_set)), Fraction(0))
        acc += sum((t * yw for t, yw in zip(t_row, point.y) if t), Fraction(0))
        residuals.append(acc - rhs)
    residuals.append(sum(point.x, Fraction(0)) - q.global_rhs)
    return residuals


def _row_name(q: LiftedPolytope, idx: int) -> str:
    return "global" if idx == len(q.rows) else f"X={q.rows[idx]}"


def assert_in_lifted(q: LiftedPolytope, point: LiftedPoint) -> None:
    if len(point.x) != q.x_count or len(point.y) != q.y_count:
        raise InfeasibleLiftedPointError(
            f"point has shape ({len(point.x)}, {len(point.y)}), "
            f"expected ({q.x_count}, {q.y_count})"
        )
    for i, xv in enumerate(point.x):
        if xv < 0:
            raise InfeasibleLiftedPointError(f"x[{i}] = {xv} < 0")
    for i, yv in enumerate(point.y):
        if yv < 0:
            raise InfeasibleLiftedPointError(f"y[{i}] = {yv} < 0")
    for idx, res in enumerate(equality_residuals(q, point)):
        if res != 0:
            raise InfeasibleLiftedPointError(
                f"equality row {_row_name(q, idx)} has residual {res}"
            )


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


def check_projection(g: Graph, p: SparsityParams, q: LiftedPolytope, point: LiftedPoint) -> bool:
    """Reference check: a feasible lifted point must project into the base polytope.

    Raises InfeasibleLiftedPointError when the point is not in the lifted
    polytope (that is an input error, not a projection failure); otherwise
    returns whether the x-part satisfies every counting inequality, the
    global equality and x >= 0.
    """
    assert_in_lifted(q, point)
    return in_base_polytope(g, p, point.x)


def verify_extension(
    g: Graph,
    p: SparsityParams,
    variant: str = "auto",
    *,
    bases: Sequence[Basis] | None = None,
    fac: Factorization | None = None,
) -> dict:
    """End-to-end verification report for one instance.

    Checks the certificate of the module docstring on ``factorize``'s
    factorization: ``verify_factorization`` proves T >= 0, B >= 0 and
    T @ B = c * S over the bases, which is a zero residual on every
    counting row of every basis lift, and |F| = c is the global row.
    Raises on the first failure with ``verify_factorization``'s reason
    (AssertionError for a negative T entry, InfeasibleLiftedPointError
    naming the basis otherwise); returns the report dict on success.
    ``bases`` is the instance's basis list, or ``fac`` its factorization,
    when the caller already has it.
    """
    variant = _nonempty_variant(g, p, variant)
    if fac is None:
        fac = build_factorization(g, p, variant, bases=bases)
    check = verify_factorization(slack_matrix(g, p, bases=fac.cols), fac)
    if not check.ok:
        error = AssertionError if check.witness[0] == "T" else InfeasibleLiftedPointError
        raise error(check.reason)
    for basis in fac.cols:
        if len(basis) != fac.c:
            raise InfeasibleLiftedPointError(
                f"basis {basis}: equality row global has residual {len(basis) - fac.c}"
            )

    n, m = g.n, g.edge_count
    w = len(fac.transcripts)
    equality_count = len(fac.rows) + 1
    inequality_count = m + w + upper_bound_count(g, p)
    bits = bit_complexity(g, variant)
    size_bound = 3 * n * m if variant == VARIANT_A else 3 * n * n * m
    return {
        "instance": {"n": n, "edge_count": m, "k": p.k, "ell": p.ell},
        "variant": variant,
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
            "transcripts_within_protocol_bound": w <= 2**bits,
            "size_bound": size_bound,
            "within_size_bound": inequality_count <= size_bound,
        },
        "checks": {
            "basis_lifts_feasible": len(fac.cols),
            "factor_nonnegative": True,
        },
        "note": (
            "size counts inequality constraints, an upper bound on the facet count"
        ),
        "pass": True,
    }


def format_ine(q: LiftedPolytope) -> str:
    """H-representation text: equalities first (listed in `linearity`), then bounds.

    The bounds are z >= 0 for every variable, then x_e <= 1 for every
    edge where 2k - l >= 2 (``upper_bound_count``).  Each row is
    ``b  -a`` for a constraint a.z <= b (cdd convention
    ``b + a'.z >= 0``); columns are 1 + |E| + |W|.
    """
    d = q.x_count + q.y_count
    n_eq = q.equality_count
    equalities = [
        [rhs, *(-v for v in inside), *(-t for t in t_row)]
        for rhs, inside, t_row in zip(q.row_rhs, row_incidence(q.graph, q.rows), q.T)
    ]
    equalities.append([q.global_rhs, *[-1] * q.x_count, *[0] * q.y_count])

    lines = ["H-representation"]
    lines.append("linearity " + " ".join([str(n_eq), *[str(i + 1) for i in range(n_eq)]]))
    lines.append("begin")
    lines.append(f"{n_eq + q.inequality_count} {d + 1} rational")
    lines.extend(render_rows(equalities, " "))
    bound = ["0"] * (d + 1)
    for i in range(1, d + 1):
        bound[i] = "1"
        lines.append(" ".join(bound))
        bound[i] = "0"
    bound[0] = "1"
    for i in range(1, upper_bound_count(q.graph, q.params) + 1):  # x_e <= 1 for edge e = i - 1
        bound[i] = "-1"
        lines.append(" ".join(bound))
        bound[i] = "0"
    lines.append("end")
    return "\n".join(lines) + "\n"


def emit_ine(q: LiftedPolytope, path) -> None:
    """Write the H-representation; byte-identical across runs for a fixed instance."""
    text = format_ine(q)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
