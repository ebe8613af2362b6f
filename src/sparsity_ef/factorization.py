"""Slack matrix of the base polytope and its protocol-induced factorization.

Rows of the slack matrix are the counting inequalities indexed by vertex
sets X with 2 <= |X| <= n-1, 2^n - n - 2 of them in lexicographic order
(the full-set row is the global equality and singletons are dominated,
so neither appears); columns are the bases passed in, none enumerated
here.  Entry: k|X| - l - |F ∩ E(X)|, a non-negative integer.

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
rules.  ``Factorization.rows`` is the one rule for the equality rows of
the lifted system: X, k|X| - l, E(X) and X's row of A, its support, the
ascending transcripts it charges, one per edge entering X, each built in
O(|E|) as a reader reaches it; the last, X = V, is the global row, with
right side c, every edge and no support.  B comes in blocks:
``Factorization.B(i)`` plays Bob's games for announcement i and returns
its 2|E| rows, ``bytearray`` rows over the bases, nonnegative by type; a
game's heads, one per edge of the basis, go straight into its column.
T and U exist only where ``sparse_renderer`` writes them from supports,
as the exact 'p' or 'p/q' entries of T.csv and U.csv and as ``.ine``
coefficients.  Nothing holds S: ``slack_matrix`` yields it one row at a
time, and S.csv is written row by row, from the bases' edge incidence
packed by ``_incidence`` (2|E| bytes per basis).

``verify_factorization`` checks every basis lift on each row of
``rows``, the rows ``lifted.format_ine`` writes, and never builds S; a
factorization over no bases certifies nothing and is refused.  It walks
the rows X, then X = V, beside ``rows``, so a row that is missing,
extra, repeated, out of order or for another X is refused without a list
of rows.  Row X charges the block of alice(X), a prefix of X, so the
rows of one announcement come in a run: each block is built once, when a
row first charges it, and dropped before the next; a block no row
charges, as vertex n-1's in A or a decreasing pair's in B, is never
built.  A row over the bases packs into one int whose little-endian
bytes hold its entries, one byte per basis.  Row X's left side,
packed(|F ∩ E(X)|) plus packed(B[w]) for each w in X's support, is
compared with (k|X| - l) * packed(1, ..., 1).  The check refuses n > 16,
so |E| <= 120; E(X) must be strictly ascending in [0, |E|), a support
in [0, |W|) with at most |E| indices, B 0/1, and a given basis a tuple
of ints strictly ascending in [0, |E|), so X = V's left side is
packed(|F|) and no left side exceeds 2|E| <= 240: no byte carries.  A
right side in [0, 256) is equal on every byte exactly when the entries
are, and any other is unequal to every left side.  Entries are unpacked
only to name a failure.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import EnumerationGuardError, InfeasibleLiftedPointError
from .graphs import Graph, SparsityParams, induced_edges, validate_instance
from .protocol import alice_choice, announcements, bob_orientation, protocol_targets, resolve_variant, transcript_count
from .sparsity import Basis, require_basis

MAX_ROW_ENUM_N = 16
MAX_MATRIX_BYTES = 2**30  # build_factorization refuses B estimated beyond this; no code holds S
# per entry of B: the most any command holds, a held byte (all of B in factorize --out) plus a packed byte (one block)
B_ENTRY_BYTES = 2


def check_row_count(g: Graph) -> None:
    """Refuse (EnumerationGuardError) a graph with too many vertices to enumerate its rows."""
    if g.n > MAX_ROW_ENUM_N:
        raise EnumerationGuardError(f"row enumeration refused for n={g.n} > {MAX_ROW_ENUM_N}")


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


def slack_value(g: Graph, p: SparsityParams, x_set: Iterable[int], basis: Iterable[int]) -> int:
    """k|X| - l - |F ∩ E(X)|; non-negative whenever the basis is sparse."""
    members = frozenset(x_set)
    return p.k * len(members) - p.ell - len(induced_edges(g, members).intersection(basis))


def _check_bases(g: Graph, cols: Iterable[Basis]) -> None:
    """Refuse (ValueError) a basis that is not a tuple of strictly ascending edge indices in [0, |E|)."""
    for basis in cols:
        try:  # in [0, |E|), an index is below |E| <= 120, so bytes() refuses only one that is not an int
            if type(basis) is tuple and all(map(operator.lt, (-1, *basis), (*basis, g.edge_count))):
                bytes(basis)
                continue
        except TypeError:
            pass
        raise ValueError(f"basis {basis!r}: not a tuple of strictly ascending edge indices in [0, {g.edge_count})")


def _incidence(g: Graph, cols: Sequence[Basis]) -> list[int]:
    """Each edge's incidence over the bases, one byte per basis: row X's |F ∩ E(X)| is a sum over E(X)."""
    incidence = [bytearray(len(cols)) for _ in g.edges]
    for j, basis in enumerate(cols):
        for e in basis:
            incidence[e][j] = 1
    return [int.from_bytes(column, "little") for column in incidence]


def slack_matrix(g: Graph, p: SparsityParams, *, bases: Sequence[Basis]) -> Iterator[list[int]]:
    """The rows of S = (k|X| - l) - |F ∩ E(X)| over the given bases.

    The instance, its row count and the bases are checked by the call;
    each row X is a list of ints, built as it is taken, in lexicographic
    order.  The overlaps are one byte per basis, since |E| <= 120 for the
    n <= 16 rows allow.
    """
    validate_instance(g, p)
    check_row_count(g)
    cols = list(bases)
    _check_bases(g, cols)
    packed = _incidence(g, cols)

    def entries():
        for x in _rows(g.n):
            rhs = p.k * len(x) - p.ell
            overlaps = sum([packed[e] for e in induced_edges(g, x)])
            yield [rhs - overlap for overlap in overlaps.to_bytes(len(cols), "little")]

    return entries()


class Factorization(NamedTuple):
    """S = A @ B, that is S = T @ U with T = c * A and U = B / c, over the bases ``cols``.

    Rows, transcripts and A (``rows``) are rules of the instance and variant that fix the lifted system
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

    def rows(self) -> Iterator[tuple[tuple[int, ...], int, list[int], list[int]]]:
        """Each equality row (X, k|X| - l, E(X), X's support in A): the rows X in lexicographic order, then V.

        A row is built as it is taken, in one pass over the edges: e = (u, v) entering X charges the
        transcript offset + 2e + [u in X] of Alice's announcement for X, which heads e at its end inside X.
        """
        g, p = self.graph, self.params
        offsets = {alice: 2 * g.edge_count * i for i, alice in enumerate(announcements(g.n, self.variant))}
        for x in itertools.chain(_rows(g.n), [tuple(range(g.n))]):
            members, inside, support = frozenset(x), [], []
            offset = offsets[alice_choice(x, self.variant)]
            for e, (u, v) in enumerate(g.edges):
                if (u in members) != (v in members):
                    support.append(offset + 2 * e + (u in members))
                elif u in members:
                    inside.append(e)
            yield x, p.k * len(x) - p.ell, inside, support


def build_factorization(
    g: Graph, p: SparsityParams, variant: str = "auto", *, bases: Sequence[Basis]
) -> Factorization:
    """Factor the slack matrix over the given bases; a basis is oriented only when a reader calls ``B``.

    ``bases=()`` gives the factorization over no bases, the lifted system without its certificate.
    Refuses (EnumerationGuardError) B estimated beyond ``MAX_MATRIX_BYTES``.
    """
    variant = resolve_variant(p, variant)
    validate_instance(g, p)
    check_row_count(g)
    cols = tuple(bases)
    estimate = B_ENTRY_BYTES * len(cols) * transcript_count(g, variant)
    if estimate > MAX_MATRIX_BYTES:
        raise EnumerationGuardError(f"B for {len(cols)} bases would take about {estimate} bytes, "
                                    f"beyond the memory guard of {MAX_MATRIX_BYTES}")
    _check_bases(g, cols)

    def bob(i: int) -> list[bytearray]:
        block = [bytearray(len(cols)) for _ in range(2 * g.edge_count)]
        targets = protocol_targets(g.n, p, announcements(g.n, variant)[i])  # they depend only on the announcement
        for j, basis in enumerate(cols):
            edges = [g.edges[e] for e in basis]
            for e, (u, _), h in zip(basis, edges, bob_orientation(edges, targets)):
                block[2 * e + (h == u)][j] = 1
        return block

    return Factorization(graph=g, params=p, variant=variant, cols=cols, B=bob)


def verify_factorization(fac: Factorization) -> None:
    """Exact check that every basis lifts to (1_F, U-column) on every equality row, so T @ U = S.

    Each row of ``fac.rows()`` reads |F ∩ E(X)| + (A @ B)[X][F] = k|X| - l for every basis F, on packed
    rows; on the global row, X = V, that is |F| = c.  Raises InfeasibleLiftedPointError on the first
    failure, in row-major order, naming the basis and the row with its residual, on row X (A @ B - S)[X][F].
    One block of B is held at a time, and a row packs one byte per basis (module docstring), so n > 16
    is refused first: EnumerationGuardError.  Rows other than the rows X in lexicographic order and X = V,
    an E(X) or support out of form, and a malformed block of B are a bug: TypeError.
    A factorization over no bases certifies nothing: EmptyPolytopeError where the instance has none, else ValueError.
    """
    g, p = fac.graph, fac.params
    check_row_count(g)  # |E| <= 120, so no left side carries out of its byte
    if not fac.cols:
        require_basis(g, p)
        raise ValueError("the factorization has no bases, so it certifies no lift")
    ncols, w, m = len(fac.cols), transcript_count(g, fac.variant), g.edge_count
    incidence = _incidence(g, fac.cols)
    held = None  # the announcement whose block is in hand, its rows packed in packed_b
    ones = int.from_bytes(b"\x01" * ncols, "little")
    due_rows = itertools.chain(_rows(g.n), [tuple(range(g.n))])
    for r, (due, row) in enumerate(itertools.zip_longest(due_rows, fac.rows())):
        x, rhs, inside, support = row or (None,) * 4
        if x != due:
            raise TypeError(f"rows must be the X in lexicographic order, then X = V: row {r} is X={x}, not X={due}")
        edges, bounded = [-1, *inside, m], [-1, *support, w]  # -1 < first < ... < last < |E| or |W|
        if not all(map(operator.lt, edges, edges[1:])):
            raise TypeError(f"E(X) of row X={x} must be ascending edge indices in [0, {m})")
        if len(bounded) > m + 2 or not all(map(operator.lt, bounded, bounded[1:])):
            raise TypeError(f"A row X={x} must be ascending transcript indices in [0, {w}), at most {m} of them")
        lhs = sum([incidence[e] for e in inside])
        for t in support:
            i, at = divmod(t, 2 * m)
            if i != held:
                packed_b = block = None  # the block in hand goes before the next is built
                block = fac.B(i)
                if len(block) != 2 * m or not all(isinstance(row, (bytes, bytearray)) and len(row) == ncols
                                                  and not row.translate(None, b"\x00\x01") for row in block):
                    raise TypeError(f"B({i}) must be {2 * m} rows of 0/1 bytes, each {ncols} long")
                held, packed_b = i, [int.from_bytes(row, "little") for row in block]
            lhs += packed_b[at]
        if lhs != rhs * ones:
            j, entry = next((j, entry) for j, entry in enumerate(lhs.to_bytes(ncols, "little")) if entry != rhs)
            name = "global" if len(x) == g.n else f"X={x}"
            raise InfeasibleLiftedPointError(f"basis {fac.cols[j]}: equality row {name} has residual {entry - rhs}")


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
                          ((_label("X:", x), t_row(s, c))
                           for x, _, _, s in itertools.islice(fac.rows(), row_count(g.n)))),
        format_matrix_csv((_label("F:", f) for f in fac.cols),
                          zip(_transcript_labels(g, fac.variant),
                              (u_row(itertools.compress(cols, row), c_inverse) for row in b_rows))),
    )
