"""Slack matrix of the base polytope and its protocol-induced factorization.

Rows of the slack matrix are the counting inequalities indexed by vertex
sets X with 2 <= |X| <= n-1 (the full-set row is the global equality and
singletons are dominated, so neither appears); columns are the bases in
lexicographic edge-index order.  Entry: k|X| - l - |F ∩ E(X)|, a
non-negative integer.

A transcript is one full protocol round: Alice's announced vertices plus
Bob's announced directed edge.  Transcripts are indexed lexicographically
by (alice vertices, edge index, head flag), where flag 0 points the edge
at its higher endpoint and flag 1 at its lower; there are 2|E| of them
per announcement (``protocol.announcements``), so 2n|E| for variant A
and 2n(n-1)|E| for variant B.  The protocol's factors are two 0/1
incidence matrices,

    A[X][w] = [alice(w) = alice_choice(X)] * [w's edge enters X]
    B[w][F] = [w's directed edge appears in Bob's orientation of F for alice(w)]

and S = A @ B exactly: (A @ B)[X][F] counts the edges of F's orientation
that enter X.  Every basis has |F| = c = k n - l >= 1 edges, and the
nonnegative factorization of the lift is T = c * A and U = B / c.  A and
B are stored as lists of ``bytearray`` rows, so their entries are
nonnegative by type; T and U exist only where they are written, as the
exact 'p' or 'p/q' entries of T.csv and U.csv and as ``.ine``
coefficients.  The slack matrix is a list of rows of Python ints.

``verify_factorization`` compares whole rows.  A byte row packs into one
int whose little-endian fields of f bytes hold the entries, built from a
strided ``bytearray``.  Row i of A @ B packs to
sum_w A[i][w] * packed(B[w]), one big-int multiply-add per nonzero entry
of A, and is compared with packed(S[i]).  f is wide enough for the
largest possible entry of A @ B, the largest row sum of A times the
largest entry of B, so no field carries into the next and two packed
rows are equal exactly when their entries are.  A row sum of A counts
the edges that enter X, at most n^2/4 <= 64 for the n <= 16 that rows
allow, so f is one byte while B is 0/1.  Entries are scanned only to
name a failure.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import EnumerationGuardError
from .graphs import Graph, SparsityParams, induced_edges, validate_instance
from .protocol import alice_choice, announcements, orient_basis, resolve_variant
from .sparsity import Basis, enumerate_bases

MAX_ROW_ENUM_N = 16
MAX_U_BYTES = 2**30  # build_U refuses B, its packed rows and S estimated beyond this
# per entry of B: its byte, then the byte of its field when verify_factorization
# packs it (fields are one byte wide, module docstring); per entry of S: a list
# slot, and up to an eighth of one more that a list keeps free as it grows
B_ENTRY_BYTES = 2
S_ENTRY_BYTES = 9


class Transcript(NamedTuple):
    alice: tuple[int, ...]
    edge: int
    head: int


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


def row_incidence(g: Graph, rows: Sequence[tuple[int, ...]]) -> list[list[int]]:
    """|rows| x |E| 0/1 rows R: R[X][e] = 1 when e lies in E(X)."""
    return [[int(u in x and v in x) for u, v in g.edges] for x in map(frozenset, rows)]


@dataclass(frozen=True, eq=False)
class SlackMatrix:
    rows: tuple[tuple[int, ...], ...]
    cols: tuple[Basis, ...]
    entries: list[list[int]]  # |rows| x |cols|

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.cols))


def slack_matrix(
    g: Graph, p: SparsityParams, *, bases: Sequence[Basis] | None = None
) -> SlackMatrix:
    """S = (k|X| - l) - |F ∩ E(X)| over the given bases, or over all of them when ``bases`` is None.

    Each edge's incidence over the bases is packed one byte per basis, so
    the overlaps of row X are the bytes of one sum over E(X); it never
    carries, since |F ∩ E(X)| <= |E| <= 120 for the n <= 16 rows allow.
    """
    rows = enumerate_rows(g, p)
    cols = enumerate_bases(g, p) if bases is None else list(bases)
    incidence = [bytearray(len(cols)) for _ in g.edges]
    for j, basis in enumerate(cols):
        for e in basis:
            incidence[e][j] = 1
    packed = [int.from_bytes(column, "little") for column in incidence]
    entries = []
    for x, inside in zip(rows, row_incidence(g, rows)):
        overlaps = sum(b for b, flag in zip(packed, inside) if flag).to_bytes(len(cols), "little")
        rhs = p.k * len(x) - p.ell
        entries.append([rhs - overlap for overlap in overlaps])
    return SlackMatrix(rows=tuple(rows), cols=tuple(cols), entries=entries)


def enumerate_transcripts(g: Graph, variant: str) -> tuple[Transcript, ...]:
    """Lexicographic over (alice vertices, edge index, head flag)."""
    out = []
    for alice in announcements(g.n, variant):
        for i, (u, v) in enumerate(g.edges):
            out.append(Transcript(alice=alice, edge=i, head=v))  # flag 0: head high
            out.append(Transcript(alice=alice, edge=i, head=u))  # flag 1: head low
    return tuple(out)


def build_T(
    g: Graph,
    variant: str,
    rows: Sequence[tuple[int, ...]],
    transcripts: Sequence[Transcript],
) -> list[bytearray]:
    """A = T / c as |rows| x |W| 0/1 rows of bytes."""
    index = {w: i for i, w in enumerate(transcripts)}
    a = []
    for x in rows:
        row = bytearray(len(transcripts))
        alice, members = alice_choice(x, variant), frozenset(x)
        for e, (u, v) in enumerate(g.edges):
            if (u in members) != (v in members):  # e enters X at whichever end lies inside
                row[index[alice, e, v if v in members else u]] = 1
        a.append(row)
    return a


def build_U(
    g: Graph,
    p: SparsityParams,
    variant: str,
    cols: Sequence[Basis],
    transcripts: Sequence[Transcript],
) -> list[bytearray]:
    """B = c * U as |W| x |cols| 0/1 rows of bytes.

    Orients each (basis, Alice announcement) pair exactly once.  Before
    any orientation, refuses (EnumerationGuardError) an instance whose B,
    its rows as ``verify_factorization`` packs them and the slack matrix
    over the same bases are estimated at more than ``MAX_U_BYTES``.
    """
    index = {w: i for i, w in enumerate(transcripts)}
    announced = announcements(g.n, variant)
    row_count = max(2**g.n - g.n - 2, 0)
    estimate = len(cols) * (B_ENTRY_BYTES * len(transcripts) + S_ENTRY_BYTES * row_count)
    if estimate > MAX_U_BYTES:
        raise EnumerationGuardError(
            f"B and the slack matrix for {len(cols)} bases would take about {estimate} bytes, "
            f"beyond the memory guard of {MAX_U_BYTES}"
        )
    b = [bytearray(len(cols)) for _ in transcripts]
    for j, basis in enumerate(cols):
        for alice in announced:
            heads = orient_basis(g, p, basis, alice).heads
            for e, h in zip(basis, heads):
                b[index[alice, e, h]][j] = 1
    return b


@dataclass(frozen=True, eq=False)
class Factorization:
    """S = A @ B, that is S = T @ U with T = c * A and U = B / c; A and B are lists of byte rows.

    A and the rows fix the lifted system that ``lifted.format_ine`` emits;
    the columns of B only certify that each basis in ``cols`` lifts.
    """

    graph: Graph
    params: SparsityParams
    variant: str
    transcripts: tuple[Transcript, ...]
    rows: tuple[tuple[int, ...], ...]
    cols: tuple[Basis, ...]
    A: list[bytearray]
    B: list[bytearray]

    @property
    def c(self) -> int:
        """k n - l, the size of every basis and the scale of T = c * A and U = B / c."""
        return self.params.k * self.graph.n - self.params.ell


def build_factorization(
    g: Graph,
    p: SparsityParams,
    variant: str = "auto",
    *,
    bases: Sequence[Basis] | None = None,
) -> Factorization:
    """Factor the slack matrix over the given bases.

    ``bases=None`` enumerates every basis; ``bases=()`` gives the
    factorization over no bases, which is the lifted system without its
    certificate: A, rows and transcripts, and no basis is oriented.
    """
    variant = resolve_variant(p, variant)
    rows = enumerate_rows(g, p)
    cols = enumerate_bases(g, p) if bases is None else list(bases)
    transcripts = enumerate_transcripts(g, variant)
    return Factorization(
        graph=g,
        params=p,
        variant=variant,
        transcripts=transcripts,
        rows=tuple(rows),
        cols=tuple(cols),
        A=build_T(g, variant, rows, transcripts),
        B=build_U(g, p, variant, cols, transcripts),
    )


class FactorizationCheck(NamedTuple):
    ok: bool
    witness: tuple | None
    reason: str

    def __bool__(self) -> bool:
        return self.ok


def _byte_row(row: Sequence[int]) -> bytes | None:
    """The row as bytes when every entry lies in 0..255, else None; a C-speed scan."""
    try:
        return bytes(row)
    except ValueError:
        return None


def _pack(row: bytes, width: int) -> int:
    """sum_j row[j] * 256**(width*j), from a strided copy of the row's bytes."""
    buf = bytearray(len(row) * width)
    buf[::width] = row
    return int.from_bytes(buf, "little")


def _check_shape(name: str, rows: Sequence[bytes], length: int, width: int) -> None:
    if len(rows) != length or not all(isinstance(row, (bytes, bytearray)) and len(row) == width for row in rows):
        raise ValueError(f"{name} must be {length}x{width} rows of bytes")


def verify_factorization(s: SlackMatrix, fac: Factorization) -> FactorizationCheck:
    """Exact check that A @ B equals the slack matrix, so T @ U = S with T, U >= 0.

    Checked on packed rows (module docstring).  The witness (i, j) names
    the first mismatch in row-major order; the reason names it as a
    constraint of the lifted polytope, where column j of U is the y-part
    of basis j's lift and (A@B - S)[i][j] is that lift's residual on
    row i.  Dimension incompatibilities, and factor rows that are not
    bytes, raise ValueError instead.
    """
    nrows, ncols = s.shape
    w = len(fac.transcripts)
    _check_shape("A", fac.A, nrows, w)
    _check_shape("B", fac.B, w, ncols)

    # fields hold the largest possible entry of A @ B
    top_b = 255 if any(row.translate(None, b"\x00\x01") for row in fac.B) else 1
    width = max(1, (max(map(sum, fac.A), default=0) * top_b).bit_length() + 7 >> 3)
    packed_b = [_pack(row, width) for row in fac.B]
    for i, (a_row, s_row) in enumerate(zip(fac.A, s.entries)):
        product = sum(map(operator.mul, itertools.compress(a_row, a_row), itertools.compress(packed_b, a_row)))
        s_data = _byte_row(s_row)
        if s_data is not None and product == _pack(s_data, width):
            continue
        # name the first differing entry; an S row outside 0..255 is compared entry by entry
        fields = product.to_bytes(ncols * width, "little")
        for j, slack in enumerate(s_row):
            residual = int.from_bytes(fields[j * width:(j + 1) * width], "little") - slack
            if residual:
                return FactorizationCheck(
                    False, (i, j), f"basis {fac.cols[j]}: equality row X={fac.rows[i]} has residual {residual}"
                )
    return FactorizationCheck(True, None, "A@B = S exactly")


def _label(prefix: str, indices: Iterable[int]) -> str:
    return prefix + "+".join(str(i) for i in indices)


def format_matrix_csv(
    row_labels: Sequence[str], col_labels: Sequence[str], entries, scale: int | Fraction = 1
) -> str:
    """Matrix dump: header line of column labels, then one labelled row per line.

    Entries are integers times the common ``scale``, rendered as exact
    rationals 'p' or 'p/q'.
    """
    lines = ["," + ",".join(col_labels)]
    lines.extend(label + "," + row for label, row in zip(row_labels, render_rows(entries, ",", scale)))
    return "\n".join(lines) + "\n"


def render_rows(values: Iterable[Sequence[int]], sep: str, scale: int | Fraction = 1) -> Iterator[str]:
    """Each row of an integer matrix as its entries times ``scale``, joined by ``sep``.

    Each distinct value is rendered once (render_rational), then looked up.
    """
    text = functools.cache(lambda value: render_rational(value * scale))
    return (sep.join(map(text, row)) for row in values)


def slack_matrix_csv(s: SlackMatrix) -> str:
    return format_matrix_csv(
        [_label("X:", x) for x in s.rows],
        [_label("F:", f) for f in s.cols],
        s.entries,
    )


def factor_csvs(fac: Factorization) -> tuple[str, str]:
    """CSV dumps of (T, U) = (c * A, B / c) with transcript labels 'a0[+a1]/e<idx>h<head>'."""
    w_labels = [
        _label("", w.alice) + f"/e{w.edge}h{w.head}" for w in fac.transcripts
    ]
    t_csv = format_matrix_csv(
        [_label("X:", x) for x in fac.rows], w_labels, fac.A, fac.c
    )
    u_csv = format_matrix_csv(
        w_labels, [_label("F:", f) for f in fac.cols], fac.B, Fraction(1, fac.c)
    )
    return t_csv, u_csv
