"""Slack matrix of the base polytope and its protocol-induced factorization.

Rows of the slack matrix are the counting inequalities indexed by vertex
sets X with 2 <= |X| <= n-1, 2^n - n - 2 of them in lexicographic order
(the full-set row is the global equality and singletons are dominated,
so neither appears); columns are the bases in lexicographic edge-index
order.  Entry: k|X| - l - |F ∩ E(X)|, a non-negative integer.

A transcript is one full protocol round: Alice's announced vertices plus
Bob's announced directed edge.  Transcript (alice, e, flag), where flag
0 heads edge e at its higher endpoint and flag 1 at its lower, has index
2|E| i + 2e + flag, i being alice's position in ``announcements``; its
T.csv and U.csv label is read off that rule.  ``transcript_count`` gives
|W|, 2n|E| for variant A and 2n(n-1)|E| for variant B.  The protocol's
factors are two 0/1 incidence matrices,

    A[X][w] = [alice(w) = alice_choice(X)] * [w's edge enters X]
    B[w][F] = [in Bob's heads for F and alice(w), w's edge has w's head]

and S = A @ B exactly: (A @ B)[X][F] counts the edges of F's orientation
that enter X.  Every basis has |F| = c = k n - l >= 1 edges, and the
nonnegative factorization of the lift is T = c * A and U = B / c.  A
``Factorization`` holds only the bases; rows, transcripts, A and B are
rules.  A row of A is its support, the ascending transcripts it
charges, one per edge entering X; ``Factorization.a_rows`` yields each X
with its support, built in O(|E|) as a reader reaches it.  B comes in
blocks: ``Factorization.B(i)`` plays Bob's games for announcement i and
returns its 2|E| rows, ``bytearray`` rows over the bases, nonnegative by
type; a game's heads, one per edge of the basis, go straight into its
column.  T and U exist only where ``sparse_renderer`` writes them from
supports, as the exact 'p' or 'p/q' entries of T.csv and U.csv and as
``.ine`` coefficients.  Nothing holds S: ``slack_matrix`` yields it one
row at a time, and S.csv is written row by row, from the bases' edge
incidence packed by ``_incidence`` (2|E| bytes per basis).

``verify_factorization`` checks every basis lift on each equality row
of the lifted system and never builds S.  It walks the row rule beside
``a_rows``, so a row of A that is missing, extra, repeated, out of order
or for another X is refused without a list of rows.  Row X charges the
block of alice(X), a prefix of X, so the rows of one announcement come
in a run: each block is built once, when a row first charges it, and
dropped before the next; a block no row charges, as vertex n-1's in A
or a decreasing pair's in B, is never built.  A row over the bases packs
into one int whose little-endian fields of f bytes hold its entries.
Row X's left side, packed(|F ∩ E(X)|) plus packed(B[w]) for each w in
X's support, is compared with (k|X| - l) * packed(1, ..., 1).  A support
must be strictly ascending in [0, |W|) with at most |E| indices, and B
must be 0/1, so f holds k n and the largest possible left side, 2|E|:
no field carries, and two packed rows are equal exactly when their
entries are.  |E| <= 120 for the n <= 16 that rows allow, so f is one
byte while k n < 256.  Entries are unpacked only to name a failure.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import EnumerationGuardError, InfeasibleLiftedPointError
from .graphs import Graph, SparsityParams, induced_edges, validate_instance
from .protocol import alice_choice, announcements, bob_orientation, protocol_targets, resolve_variant, transcript_count
from .sparsity import Basis, enumerate_bases

MAX_ROW_ENUM_N = 16
MAX_MATRIX_BYTES = 2**30  # build_factorization refuses B estimated beyond this; no code holds S
# per entry of B: the most any command holds, all of B at a byte an entry in factorize --out, and one block packed
B_ENTRY_BYTES = 2


def check_row_count(g: Graph) -> None:
    """Refuse (EnumerationGuardError) a graph with too many vertices to enumerate its rows."""
    if g.n > MAX_ROW_ENUM_N:
        raise EnumerationGuardError(
            f"row enumeration refused for n={g.n} > {MAX_ROW_ENUM_N}"
        )


def row_count(n: int) -> int:
    """2^n - n - 2, the number of X with 2 <= |X| <= n-1."""
    return 2**n - n - 2


def _rows(n: int) -> Iterator[tuple[int, ...]]:
    """Every X with 2 <= |X| <= n-1 as a sorted tuple, in lexicographic order: a preorder walk of the subsets."""
    x = [0]
    while len(x) > 1 or x[0] < n - 1:
        if x[-1] < n - 1:
            x.append(x[-1] + 1)
        else:
            x.pop()
            x[-1] += 1
        if 2 <= len(x) < n:
            yield tuple(x)


def enumerate_rows(g: Graph, p: SparsityParams) -> list[tuple[int, ...]]:
    """All X with 2 <= |X| <= n-1 as sorted tuples, in lexicographic order."""
    validate_instance(g, p)
    check_row_count(g)
    return list(_rows(g.n))


def slack_value(g: Graph, p: SparsityParams, x_set: Iterable[int], basis: Iterable[int]) -> int:
    """k|X| - l - |F ∩ E(X)|; non-negative whenever the basis is sparse."""
    members = frozenset(x_set)
    inside = induced_edges(g, members)
    overlap = len(inside.intersection(basis))
    return p.k * len(members) - p.ell - overlap


def _incidence(g: Graph, cols: Sequence[Basis], width: int) -> list[int]:
    """Each edge's incidence over the bases, in fields of ``width`` bytes: row X's |F ∩ E(X)| is a sum over E(X)."""
    incidence = [bytearray(len(cols) * width) for _ in g.edges]
    for j, basis in enumerate(cols):
        for e in basis:
            incidence[e][j * width] = 1
    return [int.from_bytes(column, "little") for column in incidence]


def slack_matrix(
    g: Graph, p: SparsityParams, *, bases: Sequence[Basis] | None = None
) -> Iterator[list[int]]:
    """The rows of S = (k|X| - l) - |F ∩ E(X)| over the given bases, or over all of them when ``bases`` is None.

    The instance and its row count are checked, and the bases enumerated,
    by the call; each row X is a list of ints, built as it is taken, in
    ``enumerate_rows`` order.  The overlaps are one byte per basis, since
    |E| <= 120 for the n <= 16 rows allow.
    """
    validate_instance(g, p)
    check_row_count(g)
    cols = enumerate_bases(g, p) if bases is None else list(bases)
    packed = _incidence(g, cols, 1)

    def entries():
        for x in _rows(g.n):
            rhs = p.k * len(x) - p.ell
            overlaps = sum([packed[e] for e in induced_edges(g, x)])
            yield [rhs - overlap for overlap in overlaps.to_bytes(len(cols), "little")]

    return entries()


class Factorization(NamedTuple):
    """S = A @ B, that is S = T @ U with T = c * A and U = B / c, over the bases ``cols``.

    Rows, transcripts and A (``a_rows``) are rules of the instance and variant that fix the lifted system
    ``lifted.format_ine`` emits.  B is Bob's rule: ``B(i)`` plays his games on ``cols`` for announcement i,
    returning B's rows 2|E| i + 2e + flag as rows 2e + flag; its columns only certify that each basis lifts.
    """

    graph: Graph
    params: SparsityParams
    variant: str
    cols: tuple[Basis, ...]
    B: Callable[[int], list[bytearray]]

    @property
    def c(self) -> int:
        """k n - l, the size of every basis and the scale of T = c * A and U = B / c."""
        return self.params.k * self.graph.n - self.params.ell

    def a_rows(self) -> Iterator[tuple[tuple[int, ...], list[int]]]:
        """Each counting row X with its support in A = T / c, in ``enumerate_rows`` order, built as it is taken.

        Row X charges, for each edge e = (u, v) that enters X, the transcript
        offset + 2e + [u in X] of Alice's announcement for X, which heads e
        at its end inside X.
        """
        g = self.graph
        offsets = {alice: 2 * g.edge_count * i for i, alice in enumerate(announcements(g.n, self.variant))}
        for x in _rows(g.n):
            members = frozenset(x)
            offset = offsets[alice_choice(x, self.variant)]
            yield x, [offset + 2 * e + (u in members)
                      for e, (u, v) in enumerate(g.edges) if (u in members) != (v in members)]


def build_factorization(
    g: Graph,
    p: SparsityParams,
    variant: str = "auto",
    *,
    bases: Sequence[Basis] | None = None,
) -> Factorization:
    """Factor the slack matrix over the given bases; a basis is oriented only when a reader calls ``B``.

    ``bases=None`` enumerates every basis; ``bases=()`` gives the factorization over no bases, the lifted
    system without its certificate.  Refuses (EnumerationGuardError) B estimated beyond ``MAX_MATRIX_BYTES``.
    """
    variant = resolve_variant(p, variant)
    validate_instance(g, p)
    check_row_count(g)
    cols = tuple(enumerate_bases(g, p) if bases is None else bases)
    estimate = B_ENTRY_BYTES * len(cols) * transcript_count(g, variant)
    if estimate > MAX_MATRIX_BYTES:
        raise EnumerationGuardError(f"B for {len(cols)} bases would take about {estimate} bytes, "
                                    f"beyond the memory guard of {MAX_MATRIX_BYTES}")

    def bob(i: int) -> list[bytearray]:
        block = [bytearray(len(cols)) for _ in range(2 * g.edge_count)]
        targets = protocol_targets(g.n, p, announcements(g.n, variant)[i])  # they depend only on the announcement
        for j, basis in enumerate(cols):
            edges = tuple(g.edges[e] for e in basis)
            for e, (u, _), h in zip(basis, edges, bob_orientation(edges, targets)):
                block[2 * e + (h == u)][j] = 1
        return block

    return Factorization(graph=g, params=p, variant=variant, cols=cols, B=bob)


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
    One block of B is held at a time (module docstring).  Rows of A that
    are not the rows X in ``enumerate_rows`` order, a row of A that is not
    a support, and a malformed block of B are a bug and raise TypeError.
    """
    g, p = fac.graph, fac.params
    ncols, w, m = len(fac.cols), transcript_count(g, fac.variant), g.edge_count
    width = max(1, max(2 * m, p.k * g.n).bit_length() + 7 >> 3)  # fields hold the largest left side and right side
    incidence = _incidence(g, fac.cols, width)
    held = None  # the announcement whose block is in hand, its rows packed in packed_b
    ones = _pack(b"\x01" * ncols, width)
    for r, (due, row) in enumerate(itertools.zip_longest(_rows(g.n), fac.a_rows())):
        x, support = row or (None, None)
        if x != due:
            raise TypeError(f"A must give the rows X in enumerate_rows order: row {r} is X={x}, not X={due}")
        bounded = [-1, *support, w]  # -1 < first < ... < last < |W|
        if len(bounded) > m + 2 or not all(map(operator.lt, bounded, bounded[1:])):
            raise TypeError(f"A row X={x} must be ascending transcript indices in [0, {w}), at most {m} of them")
        lhs = sum([incidence[e] for e in induced_edges(g, x)])
        for t in support:
            i, at = divmod(t, 2 * m)
            if i != held:
                packed_b = block = None  # the block in hand goes before the next is built
                block = fac.B(i)
                if len(block) != 2 * m or not all(isinstance(row, (bytes, bytearray)) and len(row) == ncols
                                                  and not row.translate(None, b"\x00\x01") for row in block):
                    raise TypeError(f"B({i}) must be {2 * m} rows of 0/1 bytes, each {ncols} long")
                held, packed_b = i, [_pack(row, width) for row in block]
            lhs += packed_b[at]
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


def sparse_renderer(width: int, sep: str) -> Callable[[Iterable[int], str], str]:
    """``render(support, text)``: ``width`` entries led by ``sep``, ``text`` at the ascending support, else "0".

    Runs of zeros are slices of one string; an index past the row raises IndexError.
    """
    zeros, step = (sep + "0") * width, len(sep) + 1

    def render(support: Iterable[int], text: str) -> str:
        lead, parts, at = sep + text, [], 0
        for i in support:
            parts += zeros[at * step:i * step], lead
            at = i + 1
        if at > width:
            raise IndexError(f"index {at - 1} is past a row of {width} entries")
        parts.append(zeros[at * step:])
        return "".join(parts)

    return render


def format_matrix_csv(col_labels: Iterable[str], rows: Iterable[tuple[str, str]]) -> Iterator[str]:
    """Matrix dump, line by line: a header of column labels, then each (label, comma-led entries) row.

    Column labels are joined 1,024 at a time, so an iterator of them is never held whole.
    """
    labels = iter(col_labels)
    runs = iter(lambda: ",".join(itertools.islice(labels, 1024)), "")  # no label is empty
    yield "," + ",".join(runs) + "\n"
    for label, row in rows:
        yield label + row + "\n"


def slack_matrix_csv(g: Graph, p: SparsityParams, bases: Sequence[Basis]) -> Iterator[str]:
    """CSV dump of S over the bases, line by line, each row rendered as ``slack_matrix`` yields it."""
    text = functools.cache(lambda value: "," + str(value))  # each distinct entry is rendered once
    return format_matrix_csv(
        (_label("F:", f) for f in bases),
        ((_label("X:", x), "".join(map(text, row))) for x, row in zip(_rows(g.n), slack_matrix(g, p, bases=bases))),
    )


def _transcript_labels(g: Graph, variant: str) -> Iterator[str]:
    """'a0[+a1]/e<idx>h<head>' for each transcript, in index order 2|E| i + 2e + flag (module docstring)."""
    return (_label("", alice) + f"/e{e}h{head}" for alice in announcements(g.n, variant)
            for e, (u, v) in enumerate(g.edges) for head in (v, u))  # flag 0 heads e high, flag 1 low


def factor_csvs(fac: Factorization) -> tuple[Iterator[str], Iterator[str]]:
    """CSV dumps of (T, U) = (c * A, B / c), line by line, B a block at a time; labels 'a0[+a1]/e<idx>h<head>'."""
    from fractions import Fraction  # U's 1/c is the one rational in the factorization
    g, cols = fac.graph, range(len(fac.cols))
    t_row, u_row = sparse_renderer(transcript_count(g, fac.variant), ","), sparse_renderer(len(cols), ",")
    c, c_inverse = str(fac.c), str(Fraction(1, fac.c))  # B is 0/1: U is 1/c where B is 1
    b_rows = (row for i in range(len(announcements(g.n, fac.variant))) for row in fac.B(i))
    return (
        format_matrix_csv(_transcript_labels(g, fac.variant),
                          ((_label("X:", x), t_row(s, c)) for x, s in fac.a_rows())),
        format_matrix_csv((_label("F:", f) for f in fac.cols),
                          zip(_transcript_labels(g, fac.variant),
                              (u_row(itertools.compress(cols, row), c_inverse) for row in b_rows))),
    )
