"""Slack matrix of the base polytope and its protocol-induced factorization.

Rows of the slack matrix are the counting inequalities indexed by vertex
sets X with 2 <= |X| <= n-1 (the full-set row is the global equality and
singletons are dominated, so neither appears); columns are the bases in
lexicographic edge-index order.  Entry: k|X| - l - |F ∩ E(X)|, a
non-negative integer.

A transcript is one full protocol round: Alice's announced vertices plus
Bob's announced directed edge.  Transcripts are indexed lexicographically
by (alice vertices, edge index, head flag), where flag 0 points the edge
at its higher endpoint and flag 1 at its lower; there are 2n|E| of them
for variant A and 2n(n-1)|E| for variant B.  Every basis has
|F| = c = k n - l edges, so both factors are integral up to that one scale:

    T = c * A,   A[X][w] = [alice(w) = alice_choice(X)] * [w's edge enters X]
    U = B / c,   B[w][F] = [w's directed edge appears in Bob's
                            orientation of F for alice(w)]

with A and B 0/1 incidence matrices.  T @ U = S is therefore the integer
identity T @ B = c * S, which is how it is checked.  T and B are int64
arrays; the scale 1/c appears only in the U view and at the CSV
boundary, where entries render as exact 'p' or 'p/q'.

``graphs.validate_instance`` refuses k n beyond int64, and that is the
only range guard needed: once a basis exists, c = k n - l <= |E| <= 120
(rows are enumerated only for n <= 16), so every entry of T, B, S and
T @ B is small; otherwise S and B have no columns and T <= c <= k n.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import EnumerationGuardError
from .graphs import Graph, SparsityParams, induced_edges, validate_instance
from .protocol import VARIANT_A, alice_choice, orient_basis, resolve_variant
from .sparsity import Basis, enumerate_bases

MAX_ROW_ENUM_N = 16
MAX_U_BYTES = 2**30  # build_U refuses a dense B and hit lists estimated beyond this
HIT_BYTES = 32  # per hit: a slot in each of two Python lists and two intp index arrays


class Transcript(NamedTuple):
    alice: tuple[int, ...]
    edge: int
    head: int

    def directed(self, g: Graph) -> tuple[int, int]:
        u, v = g.edges[self.edge]
        return (u, v) if self.head == v else (v, u)


def render_rational(value) -> str:
    """The text of an exact number: 'p' for an integer, 'p/q' in lowest terms otherwise."""
    return str(value) if isinstance(value, int) else str(Fraction(value))


def check_row_count(g: Graph) -> None:
    """Refuse (EnumerationGuardError) a graph with too many vertices to enumerate its rows."""
    if g.n > MAX_ROW_ENUM_N:
        raise EnumerationGuardError(
            f"row enumeration refused for n={g.n} > {MAX_ROW_ENUM_N}"
        )


def enumerate_rows(g: Graph, p: SparsityParams) -> list[tuple[int, ...]]:
    """All X with 2 <= |X| <= n-1 as sorted tuples, in lexicographic order."""
    validate_instance(g, p)
    check_row_count(g)
    rows = []
    for size in range(2, g.n):
        rows.extend(itertools.combinations(range(g.n), size))
    rows.sort()
    return rows


def slack_value(g: Graph, p: SparsityParams, x_set: Iterable[int], basis: Iterable[int]) -> int:
    """k|X| - l - |F ∩ E(X)|; non-negative whenever the basis is sparse."""
    members = frozenset(x_set)
    inside = induced_edges(g, members)
    overlap = len(inside.intersection(basis))
    return p.k * len(members) - p.ell - overlap


def _membership(g: Graph, rows: Sequence[tuple[int, ...]]) -> np.ndarray:
    """Boolean |rows| x n matrix: vertex v lies in X."""
    inside = np.zeros((len(rows), g.n), dtype=bool)
    for i, x in enumerate(rows):
        inside[i, list(x)] = True
    return inside


def row_incidence(g: Graph, rows: Sequence[tuple[int, ...]]) -> np.ndarray:
    """int64 |rows| x |E| matrix R: R[X][e] = 1 when e lies in E(X)."""
    inside = _membership(g, rows)
    ends = np.array(g.edges, dtype=np.intp).reshape(g.edge_count, 2)
    return (inside[:, ends[:, 0]] & inside[:, ends[:, 1]]).astype(np.int64)


def basis_incidence(g: Graph, bases: Sequence[Basis]) -> np.ndarray:
    """int64 |E| x #bases matrix: column j is the 0/1 incidence vector of basis j."""
    x = np.zeros((g.edge_count, len(bases)), dtype=np.int64)
    for j, basis in enumerate(bases):
        x[list(basis), j] = 1
    return x


def sparse_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact a @ b for int64 matrices, summing each row over its nonzero entries only.

    T has at most |E| nonzeros per row of |W|, so this does a small
    fraction of the work of a dense integer product.
    """
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for i, row in enumerate(a):
        nz = np.flatnonzero(row)
        if nz.size:
            out[i] = row[nz] @ b[nz]
    return out


@dataclass(frozen=True, eq=False)
class SlackMatrix:
    rows: tuple[tuple[int, ...], ...]
    cols: tuple[Basis, ...]
    entries: np.ndarray  # int64 |rows| x |cols|

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.cols))


def slack_matrix(
    g: Graph, p: SparsityParams, *, bases: Sequence[Basis] | None = None
) -> SlackMatrix:
    """S = (k|X| - l) - R @ X over the given bases, or over all of them when ``bases`` is None."""
    rows = enumerate_rows(g, p)
    cols = enumerate_bases(g, p) if bases is None else list(bases)
    rhs = np.array([p.k * len(x) - p.ell for x in rows], dtype=np.int64)
    entries = rhs[:, None] - row_incidence(g, rows) @ basis_incidence(g, cols)
    return SlackMatrix(rows=tuple(rows), cols=tuple(cols), entries=entries)


def _alice_parts(g: Graph, variant: str) -> list[tuple[int, ...]]:
    if variant == VARIANT_A:
        return [(x,) for x in range(g.n)]
    return [(x, y) for x in range(g.n) for y in range(g.n) if x != y]


def enumerate_transcripts(g: Graph, variant: str) -> tuple[Transcript, ...]:
    """Lexicographic over (alice vertices, edge index, head flag)."""
    out = []
    for alice in _alice_parts(g, variant):
        for i, (u, v) in enumerate(g.edges):
            out.append(Transcript(alice=alice, edge=i, head=v))  # flag 0: head high
            out.append(Transcript(alice=alice, edge=i, head=u))  # flag 1: head low
    return tuple(out)


def build_T(
    g: Graph,
    p: SparsityParams,
    variant: str,
    rows: Sequence[tuple[int, ...]],
    transcripts: Sequence[Transcript],
) -> np.ndarray:
    """T = c * A as an int64 |rows| x |W| array."""
    c = p.k * g.n - p.ell
    alice_ids: dict[tuple[int, ...], int] = {}
    w_alice = np.array(
        [alice_ids.setdefault(w.alice, len(alice_ids)) for w in transcripts], dtype=np.intp
    )
    announced = np.array(
        [alice_ids.get(alice_choice(x, variant), -1) for x in rows], dtype=np.intp
    )
    ends = np.array([w.directed(g) for w in transcripts], dtype=np.intp).reshape(len(transcripts), 2)
    inside = _membership(g, rows)
    enters = ~inside[:, ends[:, 0]] & inside[:, ends[:, 1]]
    return c * ((announced[:, None] == w_alice[None, :]) & enters).astype(np.int64)


def build_U(
    g: Graph,
    p: SparsityParams,
    variant: str,
    cols: Sequence[Basis],
    transcripts: Sequence[Transcript],
) -> np.ndarray:
    """B = c * U as an int64 0/1 |W| x |cols| array.

    Orients each (basis, Alice announcement) pair exactly once.  Before
    any orientation, refuses (EnumerationGuardError) an instance whose
    dense B and hit lists, c hits per basis and announcement, are
    estimated at more than ``MAX_U_BYTES``.
    """
    index = {w: i for i, w in enumerate(transcripts)}
    alice_parts = _alice_parts(g, variant)
    c = p.k * g.n - p.ell
    estimate = len(cols) * (8 * len(transcripts) + HIT_BYTES * c * len(alice_parts))
    if estimate > MAX_U_BYTES:
        raise EnumerationGuardError(
            f"B and its hit lists for {len(cols)} bases would take about {estimate} bytes, "
            f"beyond the memory guard of {MAX_U_BYTES}"
        )
    hits: list[int] = []
    hit_cols: list[int] = []
    for j, basis in enumerate(cols):
        for alice in alice_parts:
            heads = orient_basis(g, p, variant, basis, alice).heads
            for e, h in zip(basis, heads):
                hits.append(index[alice, e, h])
                hit_cols.append(j)
    b = np.zeros((len(transcripts), len(cols)), dtype=np.int64)
    b[hits, hit_cols] = 1
    return b


@dataclass(frozen=True, eq=False)
class Factorization:
    """S = T @ U with T = c * A and U = B / c; T and B are int64 arrays."""

    variant: str
    transcripts: tuple[Transcript, ...]
    rows: tuple[tuple[int, ...], ...]
    cols: tuple[Basis, ...]
    T: np.ndarray
    B: np.ndarray
    c: int

    @property
    def U(self) -> tuple[tuple[Fraction, ...], ...]:
        """B / c as exact rationals, row by row."""
        return tuple(tuple(Fraction(b, self.c) for b in row) for row in self.B.tolist())


def build_factorization(
    g: Graph,
    p: SparsityParams,
    variant: str = "auto",
    *,
    bases: Sequence[Basis] | None = None,
) -> Factorization:
    """Factor the slack matrix over the given bases, or over all of them when ``bases`` is None."""
    variant = resolve_variant(p, variant)
    rows = enumerate_rows(g, p)
    cols = enumerate_bases(g, p) if bases is None else list(bases)
    transcripts = enumerate_transcripts(g, variant)
    return Factorization(
        variant=variant,
        transcripts=transcripts,
        rows=tuple(rows),
        cols=tuple(cols),
        T=build_T(g, p, variant, rows, transcripts),
        B=build_U(g, p, variant, cols, transcripts),
        c=p.k * g.n - p.ell,
    )


class FactorizationCheck(NamedTuple):
    ok: bool
    witness: tuple | None
    reason: str

    def __bool__(self) -> bool:
        return self.ok


def _first(mask: np.ndarray) -> tuple[int, int] | None:
    """Row-major first True entry of a 2-D mask."""
    hits = np.argwhere(mask)
    return (int(hits[0][0]), int(hits[0][1])) if len(hits) else None


def verify_factorization(s: SlackMatrix, fac: Factorization) -> FactorizationCheck:
    """Exact check that T and U are nonnegative and T @ U equals the slack matrix.

    Checked as the integer identity T @ B = c * S.  The witness names the
    first offending entry in row-major order: ("T", i, j) / ("U", i, j)
    for a negative factor entry, (i, j) for a product mismatch; the
    reason names it as a constraint of the lifted polytope, where column
    j of U is the y-part of basis j's lift and (T@U - S)[i][j] is that
    lift's residual on row i.  Dimension incompatibilities raise instead.
    """
    nrows, ncols = s.shape
    w = len(fac.transcripts)
    if fac.T.shape != (nrows, w):
        raise ValueError(f"T must be {nrows}x{w}")
    if fac.B.shape != (w, ncols):
        raise ValueError(f"U must be {w}x{ncols}")
    bad = _first(fac.T < 0)
    if bad is not None:
        i, j = bad
        return FactorizationCheck(
            False, ("T", i, j), f"T[{i}][{j}] = {fac.T[i, j]} < 0 breaks the projection argument"
        )
    bad = _first(fac.B < 0)
    if bad is not None:
        i, j = bad
        y = render_rational(Fraction(int(fac.B[i, j]), fac.c))
        return FactorizationCheck(False, ("U", i, j), f"basis {fac.cols[j]}: y[{i}] = {y} < 0")
    residual = sparse_matmul(fac.T, fac.B)
    residual -= fac.c * s.entries
    bad = _first(residual != 0)
    if bad is not None:
        i, j = bad
        r = render_rational(Fraction(int(residual[i, j]), fac.c))
        return FactorizationCheck(
            False, (i, j), f"basis {fac.cols[j]}: equality row X={fac.rows[i]} has residual {r}"
        )
    return FactorizationCheck(True, None, "T@U = S exactly; T, U >= 0")


def _label(prefix: str, indices: Iterable[int]) -> str:
    return prefix + "+".join(str(i) for i in indices)


def format_matrix_csv(
    row_labels: Sequence[str], col_labels: Sequence[str], entries, denominator: int = 1
) -> str:
    """Matrix dump: header line of column labels, then one labelled row per line.

    Entries are integers over the common ``denominator``, rendered as exact
    rationals 'p' or 'p/q'.
    """
    values = np.asarray(entries, dtype=np.int64).reshape(len(row_labels), len(col_labels))
    lines = ["," + ",".join(col_labels)]
    lines.extend(label + "," + row for label, row in zip(row_labels, render_rows(values, ",", denominator)))
    return "\n".join(lines) + "\n"


def render_rows(values: np.ndarray, sep: str, denominator: int = 1) -> Iterator[str]:
    """Each row of an integer matrix as its entries over ``denominator``, joined by ``sep``.

    Each distinct value is rendered once (render_rational), then looked up.
    """
    text = functools.cache(lambda value: render_rational(Fraction(value, denominator)))
    return (sep.join(map(text, row)) for row in values.tolist())


def slack_matrix_csv(s: SlackMatrix) -> str:
    return format_matrix_csv(
        [_label("X:", x) for x in s.rows],
        [_label("F:", f) for f in s.cols],
        s.entries,
    )


def factor_csvs(fac: Factorization) -> tuple[str, str]:
    """CSV dumps of (T, U) with transcript labels 'a0[+a1]/e<idx>h<head>'."""
    w_labels = [
        _label("", w.alice) + f"/e{w.edge}h{w.head}" for w in fac.transcripts
    ]
    t_csv = format_matrix_csv(
        [_label("X:", x) for x in fac.rows], w_labels, fac.T
    )
    u_csv = format_matrix_csv(
        w_labels, [_label("F:", f) for f in fac.cols], fac.B, fac.c
    )
    return t_csv, u_csv
