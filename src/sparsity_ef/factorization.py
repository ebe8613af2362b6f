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
and 2n(n-1)|E| for variant B.  Transcript (alice, e, flag) has index
2|E| i + 2e + flag, where i is alice's position in ``announcements``.
The protocol's factors are two 0/1 incidence matrices,

    A[X][w] = [alice(w) = alice_choice(X)] * [w's edge enters X]
    B[w][F] = [w's directed edge appears in Bob's orientation of F for alice(w)]

and S = A @ B exactly: (A @ B)[X][F] counts the edges of F's orientation
that enter X.  Every basis has |F| = c = k n - l >= 1 edges, and the
nonnegative factorization of the lift is T = c * A and U = B / c.  Rows
of A and B are ``bytearray``s, nonnegative by type; B is stored, and
``Factorization.a_rows`` builds each row of A, from X alone in O(|E|),
as a reader reaches it.  T and U exist only where they are written, as
the exact 'p' or 'p/q' entries of T.csv and U.csv and as ``.ine``
coefficients.  Nothing holds the slack matrix: ``slack_matrix`` yields
it one row at a time, and S.csv is written as the rows are computed.
What its rows are computed from, the bases and their incidence packed
by ``_overlaps`` (2|E| bytes per basis at one-byte fields), is bounded
only by the basis-enumeration guard, as in every command that
enumerates bases.

``verify_factorization`` checks every basis lift on each equality row
of the lifted system and never builds S.  A row over the bases packs
into one int whose little-endian fields of f bytes hold its entries,
built from a strided ``bytearray``.  Row X's left side packs to
packed(|F ∩ E(X)|) + sum_w A[X][w] * packed(B[w]), one big-int add per
nonzero entry of A, and is compared with (k|X| - l) * packed(1, ..., 1).
Each row of A must be 0/1 with at most |E| ones (one transcript per
edge), so f holds k n and the largest possible left side, |E| times one
plus the largest entry of B: no field carries, and two packed rows are
equal exactly when their entries are.  |E| <= 120 for the n <= 16 that
rows allow, so f is one byte while B is 0/1 and k n < 256.  Entries are
unpacked only to name a failure.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import EnumerationGuardError, InfeasibleLiftedPointError
from .graphs import Graph, SparsityParams, induced_edges, validate_instance
from .protocol import alice_choice, announcements, bob_orientation, protocol_targets, resolve_variant
from .sparsity import Basis, enumerate_bases

MAX_ROW_ENUM_N = 16
MAX_MATRIX_BYTES = 2**30  # build_U refuses B estimated beyond this; no code holds S
# per entry of B: its byte, then the byte of its field when verify_factorization
# packs it (fields are one byte wide, module docstring)
B_ENTRY_BYTES = 2


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


def row_incidence(g: Graph, rows: Iterable[tuple[int, ...]]) -> Iterator[list[int]]:
    """The |E| 0/1 entries R[X][e] = [e lies in E(X)] of each row X, one row at a time."""
    return ([int(u in x and v in x) for u, v in g.edges] for x in map(frozenset, rows))


def _overlaps(g: Graph, rows: Sequence[tuple[int, ...]], cols: Sequence[Basis], width: int) -> Iterator[int]:
    """Each row's |F ∩ E(X)| over the bases F, packed in fields of ``width`` bytes.

    Each edge's incidence over the bases is packed once, so a row is one
    sum over E(X); no field carries while |E| < 256**width.
    """
    incidence = [bytearray(len(cols) * width) for _ in g.edges]
    for j, basis in enumerate(cols):
        for e in basis:
            incidence[e][j * width] = 1
    packed = [int.from_bytes(column, "little") for column in incidence]
    for inside in row_incidence(g, rows):
        yield sum(itertools.compress(packed, inside))


def slack_matrix(
    g: Graph, p: SparsityParams, *, bases: Sequence[Basis] | None = None
) -> Iterator[list[int]]:
    """The rows of S = (k|X| - l) - |F ∩ E(X)| over the given bases, or over all of them when ``bases`` is None.

    Rows and bases are enumerated by the call; each row X is a list of
    ints, built as it is taken, in ``enumerate_rows`` order.  The
    overlaps are one byte per basis, since |E| <= 120 for the n <= 16
    rows allow.
    """
    rows = enumerate_rows(g, p)
    cols = enumerate_bases(g, p) if bases is None else list(bases)

    def entries():
        for x, overlaps in zip(rows, _overlaps(g, rows, cols, 1)):
            rhs = p.k * len(x) - p.ell
            yield [rhs - overlap for overlap in overlaps.to_bytes(len(cols), "little")]

    return entries()


def enumerate_transcripts(g: Graph, variant: str) -> tuple[Transcript, ...]:
    """Lexicographic over (alice vertices, edge index, head flag): transcript 2|E| i + 2e + flag (module docstring)."""
    return tuple(Transcript(alice, e, head) for alice in announcements(g.n, variant)
                 for e, (u, v) in enumerate(g.edges) for head in (v, u))  # flag 0 heads e high, flag 1 low


def build_U(
    g: Graph,
    p: SparsityParams,
    variant: str,
    cols: Sequence[Basis],
    transcripts: Sequence[Transcript],
) -> list[bytearray]:
    """B = c * U as |W| x |cols| 0/1 rows of bytes.

    First refuses (EnumerationGuardError) an instance whose B and its rows
    as ``verify_factorization`` packs them are estimated at more than
    ``MAX_MATRIX_BYTES``.  Each announcement's targets are computed once;
    the bases are the outer loop, and each basis's edges go to
    ``bob_orientation`` once per announcement.
    """
    estimate = B_ENTRY_BYTES * len(cols) * len(transcripts)
    if estimate > MAX_MATRIX_BYTES:
        raise EnumerationGuardError(
            f"B for {len(cols)} bases would take about {estimate} bytes, beyond the memory guard of {MAX_MATRIX_BYTES}"
        )
    # announcement i's transcript (e, flag) is 2|E| i + 2e + flag (module docstring)
    targets = [(2 * g.edge_count * i, protocol_targets(g.n, p, a)) for i, a in enumerate(announcements(g.n, variant))]
    b = [bytearray(len(cols)) for _ in transcripts]
    for j, basis in enumerate(cols):
        edges = tuple(g.edges[e] for e in basis)
        for offset, m in targets:
            for e, (u, _), h in zip(basis, edges, bob_orientation(edges, m).heads):
                b[offset + 2 * e + (h == u)][j] = 1
    return b


class Factorization(NamedTuple):
    """S = A @ B, that is S = T @ U with T = c * A and U = B / c; B is a list of byte rows, A is built by ``a_rows``.

    A and the rows fix the lifted system that ``lifted.format_ine`` emits;
    the columns of B only certify that each basis in ``cols`` lifts.
    """

    graph: Graph
    params: SparsityParams
    variant: str
    transcripts: tuple[Transcript, ...]
    rows: tuple[tuple[int, ...], ...]
    cols: tuple[Basis, ...]
    B: list[bytearray]

    @property
    def c(self) -> int:
        """k n - l, the size of every basis and the scale of T = c * A and U = B / c."""
        return self.params.k * self.graph.n - self.params.ell

    def a_rows(self) -> Iterator[bytearray]:
        """A = T / c, one |W|-byte 0/1 row per counting row, in ``rows`` order, each built as it is taken.

        Row X charges, for each edge that enters X, the transcript of
        Alice's announcement for X that heads the edge at its end inside X.
        """
        g, w = self.graph, len(self.transcripts)
        offsets = {alice: 2 * g.edge_count * i for i, alice in enumerate(announcements(g.n, self.variant))}
        for x in map(frozenset, self.rows):
            row, offset = bytearray(w), offsets[alice_choice(x, self.variant)]
            for e, (u, v) in enumerate(g.edges):
                if (u in x) != (v in x):  # e enters X at whichever end lies inside
                    row[offset + 2 * e + (u in x)] = 1
            yield row


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
    certificate: rows and transcripts, and no basis is oriented.
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
        B=build_U(g, p, variant, cols, transcripts),
    )


def _pack(row: bytes, width: int) -> int:
    """sum_j row[j] * 256**(width*j), from a strided copy of the row's bytes."""
    buf = bytearray(len(row) * width)
    buf[::width] = row
    return int.from_bytes(buf, "little")


def verify_factorization(fac: Factorization) -> None:
    """Exact check that every basis lifts to (1_F, U-column) on every equality row, so T @ U = S.

    Row X reads |F ∩ E(X)| + (A @ B)[X][F] = k|X| - l for every basis F,
    checked on packed rows (module docstring); then the global row reads
    |F| = c.  Raises InfeasibleLiftedPointError on the first failure,
    rows in row-major order before the global row, naming the basis and
    the row with its residual, which on row X is (A @ B - S)[X][F].
    Factors of the wrong shape, rows that are not bytes, and a row of A
    that is not 0/1 with at most |E| ones are a bug and raise TypeError.
    """
    g, p = fac.graph, fac.params
    ncols, w, m = len(fac.cols), len(fac.transcripts), g.edge_count
    if len(fac.B) != w or not all(isinstance(row, (bytes, bytearray)) and len(row) == ncols for row in fac.B):
        raise TypeError(f"B must be {w}x{ncols} rows of bytes")

    # fields hold the largest possible left side and right side
    top_b = 255 if any(row.translate(None, b"\x00\x01") for row in fac.B) else 1
    width = max(1, max(m * (top_b + 1), p.k * g.n).bit_length() + 7 >> 3)
    packed_b = [_pack(row, width) for row in fac.B]
    ones = _pack(b"\x01" * ncols, width)
    for x, a_row, overlaps in itertools.zip_longest(fac.rows, fac.a_rows(), _overlaps(g, fac.rows, fac.cols, width)):
        if x is None or not isinstance(a_row, (bytes, bytearray)) or len(a_row) != w:
            raise TypeError(f"A must be {len(fac.rows)}x{w} rows of bytes")
        if a_row.translate(None, b"\x00\x01") or a_row.count(1) > m:
            raise TypeError(f"A row X={x} must be 0/1 with at most {m} ones")
        lhs = overlaps + sum(itertools.compress(packed_b, a_row))
        rhs = p.k * len(x) - p.ell
        if lhs != rhs * ones:
            fields = lhs.to_bytes(ncols * width, "little")
            entries = [int.from_bytes(fields[i:i + width], "little") for i in range(0, len(fields), width)]
            j, entry = next((j, entry) for j, entry in enumerate(entries) if entry != rhs)
            raise InfeasibleLiftedPointError(f"basis {fac.cols[j]}: equality row X={x} has residual {entry - rhs}")
    for basis in fac.cols:
        if len(basis) != fac.c:
            raise InfeasibleLiftedPointError(f"basis {basis}: equality row global has residual {len(basis) - fac.c}")


def _label(prefix: str, indices: Iterable[int]) -> str:
    return prefix + "+".join(str(i) for i in indices)


def format_matrix_csv(
    row_labels: Iterable[str], col_labels: Iterable[str], entries, scale: int | Fraction = 1
) -> Iterator[str]:
    """Matrix dump, line by line: header line of column labels, then one labelled row per line.

    Entries are integers times the common ``scale``, rendered as exact
    rationals 'p' or 'p/q'; each line ends in a newline.  Column labels
    are joined 1,024 at a time, so an iterator of them is never held whole.
    """
    labels = iter(col_labels)
    runs = iter(lambda: ",".join(itertools.islice(labels, 1024)), "")  # no label is empty
    yield "," + ",".join(runs) + "\n"
    for label, row in zip(row_labels, render_rows(entries, ",", scale)):
        yield label + "," + row + "\n"


def render_rows(values: Iterable[Sequence[int]], sep: str, scale: int | Fraction = 1) -> Iterator[str]:
    """Each row of an integer matrix as its entries times ``scale``, joined by ``sep``.

    Each distinct value is rendered once (render_rational), then looked up.
    """
    text = functools.cache(lambda value: render_rational(value * scale))
    return (sep.join(map(text, row)) for row in values)


def slack_matrix_csv(g: Graph, p: SparsityParams, bases: Sequence[Basis]) -> Iterator[str]:
    """CSV dump of S over the bases, line by line, each row rendered as ``slack_matrix`` yields it."""
    return format_matrix_csv(
        (_label("X:", x) for x in enumerate_rows(g, p)),
        (_label("F:", f) for f in bases),
        slack_matrix(g, p, bases=bases),
    )


def factor_csvs(fac: Factorization) -> tuple[Iterator[str], Iterator[str]]:
    """CSV dumps of (T, U) = (c * A, B / c), line by line, with transcript labels 'a0[+a1]/e<idx>h<head>'."""
    w_labels = [_label("", w.alice) + f"/e{w.edge}h{w.head}" for w in fac.transcripts]
    return (
        format_matrix_csv((_label("X:", x) for x in fac.rows), w_labels, fac.a_rows(), fac.c),
        format_matrix_csv(w_labels, (_label("F:", f) for f in fac.cols), fac.B, Fraction(1, fac.c)),
    )
