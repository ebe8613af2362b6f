"""The lifted polytope implied by the factorization, its emission and checks.

The lift follows the standard slack-covering construction: one equality
per counting row X,

    sum_{e in E(X)} x_e  +  sum_w T[X][w] * y_w  =  k|X| - l,

plus the global equality sum_e x_e = k n - l, with x >= 0 and y >= 0.
Since T >= 0, any point with y >= 0 satisfies
sum_{E(X)} x_e <= k|X| - l row by row, which is the structural half of
projection correctness; the other half is that every basis lifts
feasibly with y set to its U-column.  The inequality count |E| + |W| is
an upper bound on the facet count (the measure the size theorems use);
reports carry both totals, with and without the |E| edge bounds.

Verification works on integer arrays (see ``factorization`` for the
A/B incidences and the int64 bound).  A batch of points is kept as
numerators over a per-point common denominator: x = xnum / den and
y = ynum / (c den), where c = k n - l, so a basis lift is its edge
incidence and its B-column over den = 1.  Scaled by c den, every
equality residual is the integer c R xnum + T ynum - c rhs den, with R
the E(X)-incidence of the counting rows.  ``lift_vertex``,
``equality_residuals``, ``assert_in_lifted`` and ``check_projection``
are the per-point ``Fraction`` reference path for the same checks.

Emission uses the cdd/lrs ``.ine`` H-representation layout with equality
rows first and exact integer coefficients, byte-deterministic for a
fixed instance.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .factorization import (
    AUDIT_WEIGHT,
    Transcript,
    basis_incidence,
    build_T,
    build_U,
    check_int64_range,
    enumerate_rows,
    enumerate_transcripts,
    render_rational,
    row_incidence,
    sparse_matmul,
)
from .graphs import Graph, SparsityParams, induced_edges, validate_instance
from .protocol import VARIANT_A, bit_complexity, resolve_variant
from .sparsity import Basis, enumerate_bases, has_basis


class EmptyPolytopeError(ValueError):
    """The instance has no basis at all, so there is nothing to lift."""


class InfeasibleLiftedPointError(ValueError):
    """A point claimed to lie in the lifted polytope violates one of its constraints."""


@dataclass(frozen=True, eq=False)
class LiftedPolytope:
    graph: Graph
    params: SparsityParams
    variant: str
    rows: tuple[tuple[int, ...], ...]
    row_edges: tuple[tuple[int, ...], ...]  # E(X) indices per row
    row_rhs: tuple[int, ...]
    transcripts: tuple[Transcript, ...]
    T: np.ndarray  # int64 |rows| x |W|
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
        """Nonnegativity bounds on x and y; the formulation's size measure."""
        return self.x_count + self.y_count


class LiftedPoint(NamedTuple):
    x: tuple[Fraction, ...]
    y: tuple[Fraction, ...]


def build_lifted(g: Graph, p: SparsityParams, variant: str = "auto") -> LiftedPolytope:
    """Assemble the equality system; refuses instances with an empty basis family.

    Emptiness is decided by ``has_basis``, one greedy pebble game that
    finds the matroid rank, so no basis is enumerated and no enumeration
    guard applies.
    """
    validate_instance(g, p)
    variant = resolve_variant(p, variant)
    if not has_basis(g, p):
        raise EmptyPolytopeError(
            f"no (k={p.k},l={p.ell})-tight spanning subgraph exists: the polytope is empty"
        )
    rows = enumerate_rows(g, p)
    transcripts = enumerate_transcripts(g, variant)
    return LiftedPolytope(
        graph=g,
        params=p,
        variant=variant,
        rows=tuple(rows),
        row_edges=tuple(tuple(sorted(induced_edges(g, x))) for x in rows),
        row_rhs=tuple(p.k * len(x) - p.ell for x in rows),
        transcripts=transcripts,
        T=build_T(g, p, variant, rows, transcripts),
        global_rhs=p.k * g.n - p.ell,
    )


def lift_vertex(q: LiftedPolytope, basis: Basis) -> LiftedPoint:
    """The canonical lift of a basis: x = its incidence vector, y = its U-column."""
    g, p = q.graph, q.params
    basis = tuple(sorted(basis))
    in_basis = set(basis)
    x = tuple(Fraction(1 if i in in_basis else 0) for i in range(g.edge_count))
    column = build_U(g, p, q.variant, [basis], q.transcripts)[:, 0].tolist()
    y = tuple(Fraction(b, q.global_rhs) for b in column)
    return LiftedPoint(x=x, y=y)


def equality_residuals(q: LiftedPolytope, point: LiftedPoint) -> list[Fraction]:
    """Left-hand side minus right-hand side for each row equality, then the global one."""
    residuals = []
    for edge_idx, t_row, rhs in zip(q.row_edges, q.T.tolist(), q.row_rhs):
        acc = sum((point.x[i] for i in edge_idx), Fraction(0))
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
    """Soundness audit: a feasible lifted point must project into the base polytope.

    Raises InfeasibleLiftedPointError when the point is not in the lifted
    polytope (that is an input error, not a projection failure); otherwise
    returns whether the x-part satisfies every counting inequality, the
    global equality and x >= 0.
    """
    assert_in_lifted(q, point)
    return in_base_polytope(g, p, point.x)


def lift_residuals(
    q: LiftedPolytope, xnum: np.ndarray, ynum: np.ndarray, den: np.ndarray
) -> np.ndarray:
    """Equality residuals of the points x = xnum/den, y = ynum/(c den), scaled by c den.

    One column per point; the rows follow ``equality_residuals``: the
    counting rows, then the global row.
    """
    c = q.global_rhs
    rows = c * (row_incidence(q.graph, q.rows) @ xnum) + sparse_matmul(q.T, ynum)
    rows -= c * np.outer(np.array(q.row_rhs, dtype=np.int64), den)
    total = c * (xnum.sum(axis=0) - q.global_rhs * den)
    return np.vstack([rows, total])


def _assert_batch_in_lifted(
    q: LiftedPolytope, xnum: np.ndarray, ynum: np.ndarray, den: np.ndarray, names: Sequence[str]
) -> None:
    """assert_in_lifted for a batch: raises on the first infeasible point, naming it."""
    residuals = lift_residuals(q, xnum, ynum, den)
    bad = (xnum < 0).any(axis=0) | (ynum < 0).any(axis=0) | (residuals != 0).any(axis=0)
    if not bad.any():
        return
    j = int(np.argmax(bad))
    c, d = q.global_rhs, int(den[j])
    for label, column, scale in (("x", xnum[:, j], d), ("y", ynum[:, j], c * d)):
        negative = np.flatnonzero(column < 0)
        if negative.size:
            i = int(negative[0])
            value = render_rational(Fraction(int(column[i]), scale))
            raise InfeasibleLiftedPointError(f"{names[j]}: {label}[{i}] = {value} < 0")
    idx = int(np.flatnonzero(residuals[:, j])[0])
    value = render_rational(Fraction(int(residuals[idx, j]), c * d))
    raise InfeasibleLiftedPointError(
        f"{names[j]}: equality row {_row_name(q, idx)} has residual {value}"
    )


def base_polytope_verdicts(
    g: Graph, p: SparsityParams, xnum: np.ndarray, den: np.ndarray
) -> np.ndarray:
    """in_base_polytope for every point x = xnum/den at once.

    Sums each point over every vertex mask by looping over edges, adding
    an edge's column to the masks that hold both its ends, so memory stays
    O(2^n * points).
    """
    masks = np.arange(1 << g.n)
    sizes = sum((masks >> v) & 1 for v in range(g.n))
    totals = np.zeros((masks.size, xnum.shape[1]), dtype=np.int64)
    for e, (u, v) in enumerate(g.edges):
        totals[((masks >> u) & (masks >> v) & 1).astype(bool)] += xnum[e]
    limits = np.outer(np.maximum(p.k * sizes - p.ell, 0), den)
    counted = sizes >= 2
    return (
        (xnum >= 0).all(axis=0)
        & (xnum.sum(axis=0) == max(p.k * g.n - p.ell, 0) * den)
        & (totals[counted] <= limits[counted]).all(axis=0)
    )


def _audit_weights(bases: int, samples: int, seed: int) -> np.ndarray:
    """#bases x (1 + samples) integer weights: the first basis alone, then seeded random mixes."""
    rng = random.Random(seed)
    columns = [[1] + [0] * (bases - 1)]
    for _ in range(samples):
        raw = [rng.randint(0, AUDIT_WEIGHT) for _ in range(bases)]
        if sum(raw) == 0:
            raw[rng.randrange(len(raw))] = 1
        columns.append(raw)
    return np.array(columns, dtype=np.int64).T


def verify_extension(
    g: Graph,
    p: SparsityParams,
    variant: str = "auto",
    *,
    audit_samples: int = 5,
    seed: int = 0,
    bases: Sequence[Basis] | None = None,
) -> dict:
    """End-to-end verification report for one instance.

    Asserts that every basis lifts with zero residuals, that T is
    entrywise nonnegative (the structural certificate that feasible
    points project into the base polytope), audits the first lift and
    seeded convex combinations of all lifts through the batched
    projection check, and reconciles all counts against the protocol's
    size bounds.  Raises on any failed assertion; returns the report
    dict on success.  ``bases`` is the instance's basis list when the
    caller already has it.
    """
    validate_instance(g, p)
    variant = resolve_variant(p, variant)
    if bases is None:
        bases = enumerate_bases(g, p)
    q = build_lifted(g, p, variant)
    check_int64_range(g, p, q.y_count, AUDIT_WEIGHT * len(bases))

    lift_x = basis_incidence(g, bases)
    lift_y = build_U(g, p, variant, bases, q.transcripts)
    names = [f"basis {tuple(b)}" for b in bases]
    _assert_batch_in_lifted(q, lift_x, lift_y, np.ones(len(bases), dtype=np.int64), names)

    negative = np.argwhere(q.T < 0)
    if negative.size:
        i, j = negative[0]
        raise AssertionError(f"T[{i}][{j}] = {q.T[i, j]} < 0 breaks the projection argument")

    weights = _audit_weights(len(bases), audit_samples, seed)
    den = weights.sum(axis=0)
    audit_x = lift_x @ weights
    names = [f"audit point {i}" for i in range(weights.shape[1])]
    _assert_batch_in_lifted(q, audit_x, lift_y @ weights, den, names)
    if not base_polytope_verdicts(g, p, audit_x, den).all():
        raise AssertionError("a feasible lifted point projected outside the base polytope")

    n, m = g.n, g.edge_count
    w = q.y_count
    expected_w = 2 * n * m if variant == VARIANT_A else 2 * n * (n - 1) * m
    bits = bit_complexity(g, variant)
    size_bound = 3 * n * m if variant == VARIANT_A else 3 * n * n * m
    counts_ok = (
        w == expected_w
        and q.inequality_count == m + expected_w
        and q.equality_count == len(q.rows) + 1
    )
    if not counts_ok:
        raise AssertionError(
            f"count mismatch: |W|={w} (expected {expected_w}), "
            f"inequalities={q.inequality_count}"
        )
    if w > 2**bits:
        raise AssertionError(f"|W|={w} exceeds the protocol bound 2^{bits}")
    if q.inequality_count > size_bound:
        raise AssertionError(
            f"inequality count {q.inequality_count} exceeds the size bound {size_bound}"
        )

    return {
        "instance": {"n": n, "edge_count": m, "k": p.k, "ell": p.ell},
        "variant": variant,
        "counts": {
            "bases": len(bases),
            "x_vars": q.x_count,
            "y_vars": w,
            "equality_rows": q.equality_count,
            "inequality_count": q.inequality_count,
            "inequality_count_excluding_edge_bounds": w,
            "ine_rows": q.equality_count + q.inequality_count,
        },
        "bounds": {
            "bit_complexity": bits,
            "protocol_size_bound": 2**bits,
            "transcripts_within_protocol_bound": w <= 2**bits,
            "size_bound": size_bound,
            "within_size_bound": q.inequality_count <= size_bound,
        },
        "checks": {
            "basis_lifts_feasible": len(bases),
            "projection_audits": weights.shape[1],
            "factor_nonnegative": True,
        },
        "note": (
            "size counts inequality constraints, an upper bound on the facet count"
        ),
        "pass": True,
    }


def format_ine(q: LiftedPolytope) -> str:
    """H-representation text: equalities first (listed in `linearity`), then bounds.

    Each row is ``b  -a`` for a constraint a.z <= b (cdd convention
    ``b + a'.z >= 0``); columns are 1 + |E| + |W|.
    """
    d = q.x_count + q.y_count
    n_eq = q.equality_count
    equalities = np.zeros((n_eq, 1 + d), dtype=np.int64)
    equalities[:-1, 0] = q.row_rhs
    for i, edge_idx in enumerate(q.row_edges):
        equalities[i, [1 + e for e in edge_idx]] = -1
    equalities[:-1, 1 + q.x_count:] = -q.T
    equalities[-1, 0] = q.global_rhs
    equalities[-1, 1:1 + q.x_count] = -1

    lines = ["H-representation"]
    lines.append("linearity " + " ".join([str(n_eq), *[str(i + 1) for i in range(n_eq)]]))
    lines.append("begin")
    lines.append(f"{n_eq + d} {d + 1} rational")
    for row in equalities.tolist():
        lines.append(" ".join(map(render_rational, row)))
    bound = ["0"] * (d + 1)
    for i in range(1, d + 1):
        bound[i] = "1"
        lines.append(" ".join(bound))
        bound[i] = "0"
    lines.append("end")
    return "\n".join(lines) + "\n"


def emit_ine(q: LiftedPolytope, path) -> None:
    """Write the H-representation; byte-identical across runs for a fixed instance."""
    text = format_ine(q)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
