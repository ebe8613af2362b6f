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
and 2n(n-1)|E| for variant B.  Every basis has
|F| = c = k n - l edges, so both factors are integral up to that one scale:

    T = c * A,   A[X][w] = [alice(w) = alice_choice(X)] * [w's edge enters X]
    U = B / c,   B[w][F] = [w's directed edge appears in Bob's
                            orientation of F for alice(w)]

with A and B 0/1 incidence matrices.  T @ U = S is therefore the integer
identity T @ B = c * S, which is how it is checked.  T, B and the slack
matrix are lists of rows of Python ints; the scale 1/c appears only in
the U view and at the CSV boundary, where entries render as exact 'p' or
'p/q'.

``verify_factorization`` compares whole rows.  A row of nonnegative
entries packs into one int whose little-endian fields of f bytes hold
the entries, built from a strided ``bytearray``.  Row i of T @ B packs
to sum_w T[i][w] * packed(B[w]), one big-int multiply-add per nonzero
entry of T, and is compared with c * packed(S[i]).  f is wide enough for
the largest possible entry of T @ B, the largest row sum of T times the
largest entry of B, so no field carries into the next and two packed
rows are equal exactly when their entries are.  Entries are scanned only
to name a failure.

Python ints do not overflow; ``graphs.validate_instance`` still refuses
k n beyond int64 on every command.  Once a basis exists,
c = k n - l <= |E| <= 120 (rows are enumerated only for n <= 16), so the
entries of T, B, S and T @ B are small and f is one or two bytes;
otherwise S and B have no columns and T <= c <= k n.
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
_BYTES = bytes(range(256))
MAX_U_BYTES = 2**30  # build_U refuses B, its packed copies and S estimated beyond this
# per entry of B: an 8-byte list slot (0 and 1 are shared int objects), then
# the byte of its bytes copy and the byte of its field when verify_factorization
# packs it (fields are one byte wide while c * n^2 / 4 < 256); per entry of S: a slot
B_ENTRY_BYTES = 10
S_ENTRY_BYTES = 8


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
    p: SparsityParams,
    variant: str,
    rows: Sequence[tuple[int, ...]],
    transcripts: Sequence[Transcript],
) -> list[list[int]]:
    """T = c * A as |rows| x |W| rows of ints."""
    c = p.k * g.n - p.ell
    index = {w: i for i, w in enumerate(transcripts)}
    t = []
    for x in rows:
        row = [0] * len(transcripts)
        alice, members = alice_choice(x, variant), frozenset(x)
        for e, (u, v) in enumerate(g.edges):
            if (u in members) != (v in members):  # e enters X at whichever end lies inside
                row[index[alice, e, v if v in members else u]] = c
        t.append(row)
    return t


def build_U(
    g: Graph,
    p: SparsityParams,
    variant: str,
    cols: Sequence[Basis],
    transcripts: Sequence[Transcript],
) -> list[list[int]]:
    """B = c * U as |W| x |cols| 0/1 rows of ints.

    Orients each (basis, Alice announcement) pair exactly once.  Before
    any orientation, refuses (EnumerationGuardError) an instance whose B,
    the copy of it that ``verify_factorization`` packs and the slack
    matrix over the same bases are estimated at more than ``MAX_U_BYTES``.
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
    b = [[0] * len(cols) for _ in transcripts]
    for j, basis in enumerate(cols):
        for alice in announced:
            heads = orient_basis(g, p, basis, alice).heads
            for e, h in zip(basis, heads):
                b[index[alice, e, h]][j] = 1
    return b


@dataclass(frozen=True, eq=False)
class Factorization:
    """S = T @ U with T = c * A and U = B / c; T and B are lists of rows of ints.

    T and the rows fix the lifted system that ``lifted.format_ine`` emits;
    the columns of B only certify that each basis in ``cols`` lifts.
    """

    graph: Graph
    params: SparsityParams
    variant: str
    transcripts: tuple[Transcript, ...]
    rows: tuple[tuple[int, ...], ...]
    cols: tuple[Basis, ...]
    T: list[list[int]]
    B: list[list[int]]

    @property
    def c(self) -> int:
        """k n - l, the size of every basis and the scale of T and B."""
        return self.params.k * self.graph.n - self.params.ell

    @property
    def U(self) -> tuple[tuple[Fraction, ...], ...]:
        """B / c as exact rationals, row by row."""
        return tuple(tuple(Fraction(b, self.c) for b in row) for row in self.B)


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
    certificate: T, rows and transcripts, and no basis is oriented.
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
        T=build_T(g, p, variant, rows, transcripts),
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


def _pack(row: Sequence[int], data: bytes | None, width: int) -> int:
    """sum_j row[j] * 256**(width*j) for a nonnegative row, built from strided byte planes.

    ``data`` is ``_byte_row(row)``; a row with larger entries is split into
    byte planes, so the sum is exact even where a field is too narrow.
    """
    if data is not None:
        planes = [data]
    else:
        planes = [bytes((v >> shift) & 255 for v in row) for shift in range(0, max(row).bit_length(), 8)]
    packed = 0
    for k, plane in enumerate(planes):
        buf = bytearray(len(plane) * width)
        buf[::width] = plane
        packed += int.from_bytes(buf, "little") << (8 * k)
    return packed


def _entry_bound(row: Sequence[int], data: bytes | None) -> int:
    """An upper bound on a nonnegative row's entries: 1 for a 0/1 row, 255 for another byte row."""
    if data is None:
        return max(row)
    return 255 if data.translate(None, b"\x00\x01") else 1


def _first_negative(rows: Sequence[Sequence[int]], data: Sequence[bytes | None]) -> tuple[int, int] | None:
    """Row-major first negative entry; rows whose ``data`` is bytes have none."""
    for i, (row, row_data) in enumerate(zip(rows, data)):
        if row_data is None and min(row, default=0) < 0:
            return i, next(j for j, v in enumerate(row) if v < 0)
    return None


def verify_factorization(s: SlackMatrix, fac: Factorization) -> FactorizationCheck:
    """Exact check that T and U are nonnegative and T @ U equals the slack matrix.

    Checked as the integer identity T @ B = c * S on packed rows (module
    docstring).  The witness names the first offending entry in row-major
    order: ("T", i, j) / ("U", i, j) for a negative factor entry, (i, j)
    for a product mismatch; the reason names it as a constraint of the
    lifted polytope, where column j of U is the y-part of basis j's lift
    and (T@U - S)[i][j] is that lift's residual on row i.  Dimension
    incompatibilities raise instead.
    """
    nrows, ncols = s.shape
    w = len(fac.transcripts)
    if len(fac.T) != nrows or any(len(row) != w for row in fac.T):
        raise ValueError(f"T must be {nrows}x{w}")
    if len(fac.B) != w or any(len(row) != ncols for row in fac.B):
        raise ValueError(f"U must be {w}x{ncols}")
    bad = _first_negative(fac.T, [None] * nrows)
    if bad is not None:
        i, j = bad
        return FactorizationCheck(
            False, ("T", i, j), f"T[{i}][{j}] = {fac.T[i][j]} < 0 breaks the projection argument"
        )
    b_data = [_byte_row(row) for row in fac.B]
    bad = _first_negative(fac.B, b_data)
    if bad is not None:
        i, j = bad
        y = render_rational(Fraction(fac.B[i][j], fac.c))
        return FactorizationCheck(False, ("U", i, j), f"basis {fac.cols[j]}: y[{i}] = {y} < 0")

    # fields hold the largest possible entry of T @ B
    top_b = max(map(_entry_bound, fac.B, b_data), default=0)
    width = max(1, (max(map(sum, fac.T), default=0) * top_b).bit_length() + 7 >> 3)
    packed_b = [_pack(row, data, width) for row, data in zip(fac.B, b_data)]
    s_limit = (256**width - 1) // fac.c  # the largest slack whose c-multiple fits a field
    for i, (t_row, s_row) in enumerate(zip(fac.T, s.entries)):
        product = sum(map(operator.mul, itertools.compress(t_row, t_row), itertools.compress(packed_b, t_row)))
        s_data = _byte_row(s_row)
        fits = s_data is not None and not s_data.translate(None, _BYTES[:s_limit + 1])
        if fits and product == fac.c * _pack(s_row, s_data, width):
            continue
        # a row that does not fit differs somewhere, since every field of the product does fit
        fields = product.to_bytes(ncols * width, "little")
        for j, slack in enumerate(s_row):
            residual = int.from_bytes(fields[j * width:(j + 1) * width], "little") - fac.c * slack
            if residual:
                r = render_rational(Fraction(residual, fac.c))
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
    lines = ["," + ",".join(col_labels)]
    lines.extend(label + "," + row for label, row in zip(row_labels, render_rows(entries, ",", denominator)))
    return "\n".join(lines) + "\n"


def render_rows(values: Iterable[Sequence[int]], sep: str, denominator: int = 1) -> Iterator[str]:
    """Each row of an integer matrix as its entries over ``denominator``, joined by ``sep``.

    Each distinct value is rendered once (render_rational), then looked up.
    """
    text = functools.cache(lambda value: render_rational(Fraction(value, denominator)))
    return (sep.join(map(text, row)) for row in values)


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
