"""Deciding (k,l)-sparsity and enumerating tight spanning subgraphs.

Two deliberately independent implementations of the sparsity predicate
live here.  ``is_sparse_pebble`` (the production path) runs the standard
(k,l)-pebble game, valid on simple graphs for 0 <= l <= 2k-1.
``is_sparse_bruteforce`` is the exponential test oracle: it checks the
defining counting inequalities by literal enumeration, either over vertex
subsets or over edge subsets, whichever is cheaper for the instance (the
choice rule is documented on the function).  The test suite pins the two
against each other exhaustively on small graphs.

An edge subset F is identified by its sorted tuple of edge indices; a
basis is such a tuple of cardinality max(k*n - l, 0) whose subgraph is
sparse (hence tight and spanning).

The game has one move, ``PebbleGame.play``, whose docstring states the
fetch rule, and ``remove`` takes an edge out again.  It serves three
more uses.  ``enumerate_bases`` is a depth-first search over edges in
index order that skips an edge as soon as the prefix plus that edge is
dependent, pruning all of its extensions at once (sparsity is
hereditary).  It has two independence tests.  Up to ``PACKED_MAX_N``
vertices it keeps a packed table of the prefix's slack on every vertex
set, so a test is one AND and a leaf inserts nothing; beyond that the
table's 2^n fields cost more than they save, and it keeps one game for
its current prefix, playing and taking out one edge at a time, which
needs O(n) state and so runs on any graph the vertex guard admits.
``has_basis`` plays every edge once, keeping
those that go in: the sparse edge sets are the independent sets of a
matroid, so the count that goes in is its rank, and a basis exists iff
that rank is k*n - l.  ``orientation.pebble_orientation`` plays it with
per-vertex budgets, the in-degree targets, and l = 0, and reads an
orientation's heads, one per edge, from ``out``; so ``PebbleGame`` is
the package's only path-reversal code.
"""

from __future__ import annotations

import math
from bisect import insort
from typing import Iterable, Sequence

from .errors import EmptyPolytopeError, EnumerationGuardError
from .graphs import Graph, SparsityParams, validate_instance

Basis = tuple[int, ...]

DEFAULT_MAX_ENUM = 10**7
MAX_VERTEX_ENUM = 16  # 2^n subset scans beyond this are refused
MAX_EDGE_ENUM = 20  # 2^|F| subset scans beyond this are refused
PACKED_MAX_N = 9  # enumerate_bases tests on a packed slack table up to this n, by pebble game beyond


def _normalize_subset(g: Graph, edge_set: Iterable[int]) -> Basis:
    subset = tuple(sorted(set(edge_set)))
    for i in subset:
        if not (0 <= i < g.edge_count):
            raise ValueError(f"edge index {i} outside 0..{g.edge_count - 1}")
    return subset


def is_sparse_bruteforce(g: Graph, p: SparsityParams, edge_set: Iterable[int]) -> bool:
    """Test oracle: decide sparsity by literal subset enumeration.

    Enumeration choice: whichever of the two equivalent forms has the
    smaller exponent is used — the vertex-subset form scans all X with
    |X| >= 2 and checks |F ∩ E(X)| <= max(k|X|-l, 0) (cost 2^n), the
    edge-subset form scans every F' ⊆ F and checks
    |F'| <= max(k|V(F')|-l, 0) (cost 2^|F|).  Ties go to the vertex form.
    Raises EnumerationGuardError when both exceed their guards,
    ``MAX_VERTEX_ENUM`` and ``MAX_EDGE_ENUM``, read at each call.
    """
    validate_instance(g, p)
    subset = _normalize_subset(g, edge_set)
    vertex_ok = g.n <= MAX_VERTEX_ENUM
    edge_ok = len(subset) <= MAX_EDGE_ENUM
    if vertex_ok and (not edge_ok or g.n <= len(subset)):
        return vertex_violation(g.n, [g.edges[i] for i in subset], p) is None
    if edge_ok:
        return _bruteforce_edge_form(g, p, subset)
    raise EnumerationGuardError(
        f"brute force refused: n={g.n} > {MAX_VERTEX_ENUM} and |F|={len(subset)} > {MAX_EDGE_ENUM}"
    )


def edge_counts(n: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """For every vertex mask X in 0..2^n-1, the number of edges with both ends in X.

    A DP over masks in ascending order: X's count is that of X minus its
    lowest vertex, plus the edges from that vertex into the rest.
    """
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    cnt = [0] * (1 << n)
    for mask in range(1, 1 << n):
        rest = mask & (mask - 1)
        cnt[mask] = cnt[rest] + (adj[(mask ^ rest).bit_length() - 1] & rest).bit_count()
    return cnt


def vertex_violation(n: int, edges: list[tuple[int, int]], p: SparsityParams) -> int | None:
    """Smallest mask X with |X| >= 2 and more than max(k|X| - l, 0) edges inside, or None."""
    for mask, inside in enumerate(edge_counts(n, edges)):
        size = mask.bit_count()
        if size >= 2 and inside > max(p.k * size - p.ell, 0):
            return mask
    return None


def _bruteforce_edge_form(g: Graph, p: SparsityParams, subset: Basis) -> bool:
    # vertex incidence of F' grown along a DP over bitmasks of F
    vmasks = [(1 << g.edges[i][0]) | (1 << g.edges[i][1]) for i in subset]
    f = len(subset)
    vertex_mask = [0] * (1 << f)
    for mask in range(1, 1 << f):
        low = mask & -mask
        vertex_mask[mask] = vertex_mask[mask ^ low] | vmasks[low.bit_length() - 1]
    for mask in range(1, 1 << f):
        size = mask.bit_count()
        nverts = vertex_mask[mask].bit_count()
        if size > max(p.k * nverts - p.ell, 0):
            return False
    return True


class PebbleGame:
    """The pebble game of Lee & Streinu (Discrete Math. 308, 2008) with per-vertex budgets.

    State: the free pebbles of each vertex and the accepted edges, each
    oriented away from the vertex whose pebble it took, so a vertex's free
    pebbles and out-edges always add up to its budget.  With budget k
    everywhere this is the (k,l)-pebble game: for a sparse edge set F in
    any such orientation, the free pebbles on a vertex set X plus the edges
    leaving X number k|X| - |F ∩ E(X)|, whatever the orientation.  So
    l+1 pebbles can be gathered on u and v exactly when F + uv is sparse,
    in every state the game can reach, and an edge can be taken out again
    by returning its pebble to its tail.

    Each ``out[w]``, the heads of w's out-edges, is a list kept in
    ascending order.  The keys of ``searched`` are the vertices that the
    last refused edge's search reached.  None of them holds a free pebble
    apart from u and v, and every out-edge of one of them ends in another.
    """

    def __init__(self, budgets: Sequence[int], ell: int):
        self.ell = ell
        self.pebbles = list(budgets)
        self.out: list[list[int]] = [[] for _ in budgets]
        self.searched: dict[int, int] = {}

    def play(self, edges: Iterable[tuple[int, int]]) -> int:
        """Insert the edges in order; how many went in, stopping at the first refused edge.

        Edge uv goes in once l+1 pebbles are gathered on u and v, paid
        for by u if u has a pebble and by v otherwise.  The fetch rule:
        each pebble is fetched breadth-first from u and v, each out-list
        walked in its ascending order, and the first free pebble found is
        moved to u or v by reversing the path to it.  Which pebble is
        fetched changes no answer, only the orientation that the game
        reaches; with this rule each move depends only on the game's
        state.  A refused edge is not inserted: the edges accepted before
        it stay in, some reversed by its fetches, and ``searched`` is set.
        """
        out, pebbles, ell = self.out, self.pebbles, self.ell
        played = 0
        for u, v in edges:
            while pebbles[u] + pebbles[v] <= ell:
                parent, queue, found = {u: -1, v: -1}, [u, v], -1
                for w in queue:  # the queue grows while it is walked
                    for s in out[w]:
                        if s not in parent:
                            parent[s] = w
                            if pebbles[s]:
                                found = s
                                break
                            queue.append(s)
                    if found >= 0:
                        break
                if found < 0:
                    self.searched = parent
                    return played
                node = found  # reverse the path root -> found, paying found's pebble to the root
                while parent[node] >= 0:
                    prev = parent[node]
                    out[prev].remove(node)
                    insort(out[node], prev)
                    node = prev
                pebbles[found] -= 1
                pebbles[node] += 1
            if pebbles[u]:
                pebbles[u] -= 1
                insort(out[u], v)
            else:
                pebbles[v] -= 1
                insort(out[v], u)
            played += 1
        return played

    def remove(self, u: int, v: int) -> None:
        """Take out the accepted edge uv and return its pebble to its tail."""
        tail, head = (u, v) if v in self.out[u] else (v, u)
        self.out[tail].remove(head)
        self.pebbles[tail] += 1


def is_sparse_pebble(g: Graph, p: SparsityParams, edge_set: Iterable[int]) -> bool:
    """Decide sparsity with the (k,l)-pebble game (production path).

    Every vertex starts with k pebbles, and ``PebbleGame.play`` inserts
    the edges of F in ascending index order; F is sparse iff every edge
    goes in.
    """
    validate_instance(g, p)
    subset = _normalize_subset(g, edge_set)
    game = PebbleGame([p.k] * g.n, p.ell)
    return game.play(g.edges[i] for i in subset) == len(subset)


def tight_cardinality(g: Graph, p: SparsityParams) -> int:
    return max(p.k * g.n - p.ell, 0)


def is_tight(g: Graph, p: SparsityParams, edge_set: Iterable[int]) -> bool:
    """Spanning tightness: sparse and |F| = max(k*n - l, 0) with n = |V(G)|."""
    subset = _normalize_subset(g, edge_set)
    if len(subset) != tight_cardinality(g, p):
        return False
    return is_sparse_pebble(g, p, subset)


def enumerate_bases(
    g: Graph, p: SparsityParams, *, max_enum: int | None = None
) -> list[Basis]:
    """All tight spanning edge sets, in lexicographic edge-index order.

    A depth-first search over edges in index order: edge j joins the
    prefix when the prefix plus j is sparse, and is skipped otherwise,
    which prunes every extension through it (sparsity is hereditary).
    An edge that fits at the last depth completes a basis, which is
    recorded; backtracking takes the last edge of the prefix out again.
    The search is a loop, so its depth, the basis size, is not bounded
    by Python's recursion limit.

    The two searches differ in what carries the prefix.  With n at most
    ``PACKED_MAX_N``, ``_packed_bases`` holds its slack on each of the
    2^n vertex sets, and tests an edge with one AND, inserting nothing.
    Beyond that, one pebble game plays each edge, taking it out again at
    the last depth: its O(n) state lets a path on 1500 vertices
    enumerate, and it beats the table from n = 10 on.  Both return the
    same list.

    Refuses (EnumerationGuardError) when C(|E|, k*n-l) exceeds the guard,
    ``max_enum`` or else ``DEFAULT_MAX_ENUM``; a negative ``max_enum`` is
    a ValueError.
    That count bounds the work rather than measuring it:
    each test at the last depth is a distinct subset of that size, and
    the ones with a dependent prefix are never reached.  An empty result
    is a legal outcome meaning the base polytope is empty.
    """
    validate_instance(g, p)
    guard = DEFAULT_MAX_ENUM if max_enum is None else max_enum
    if guard < 0:
        raise ValueError(f"enumeration guard must be >= 0, got {guard}")
    m = tight_cardinality(g, p)
    if m > g.edge_count:
        return []
    candidates = math.comb(g.edge_count, m)
    if candidates > guard:
        raise EnumerationGuardError(
            f"C({g.edge_count},{m}) = {candidates} exceeds enumeration guard {guard}"
        )
    if g.n <= PACKED_MAX_N:
        return _packed_bases(g, p, m)
    edges = g.edges
    game = PebbleGame([p.k] * g.n, p.ell)
    bases: list[Basis] = []
    prefix: list[int] = []
    j = 0
    while True:
        if len(edges) - j < m - len(prefix):  # too few edges left to complete the prefix
            if not prefix:
                return bases
            j = prefix.pop()
            game.remove(*edges[j])
        elif game.play([edges[j]]):
            if len(prefix) == m - 1:
                bases.append((*prefix, j))
                game.remove(*edges[j])
            else:
                prefix.append(j)
        j += 1


def _packed_bases(g: Graph, p: SparsityParams, m: int) -> list[Basis]:
    """``enumerate_bases``'s search with its prefix P held as one int of 2^n byte fields.

    Field X holds the slack k|X| - l - |P ∩ E(X)|, capped at m: P has at
    most m - 1 edges when an edge is tested, so a capped field never
    reaches 0.  Sets of fewer than 2 vertices contain no edge and are
    never read.  ``sup[e]`` has a 1 in the field of every set holding
    both ends of e, so P + e is sparse iff no such field is 0.  Every
    field is at most m <= |E| < 0x80, below the guard bit 0x80, so
    0x80 - slack borrows from no neighbour and keeps its guard bit
    exactly where the slack is 0: ``tight``, shifted onto the fields'
    low bits, marks the sets that P fills.  Pushing e subtracts
    ``sup[e]``, popping restores the saved int, and testing e is
    ``tight & sup[e]``.
    """
    fields = range(1 << g.n)
    holds = [int.from_bytes(bytes(x >> v & 1 for x in fields), "little") for v in range(g.n)]
    sup = [holds[u] & holds[v] for u, v in g.edges]
    guard = int.from_bytes(b"\x80" * len(fields), "little")
    slack = int.from_bytes(bytes(max(min(p.k * x.bit_count() - p.ell, m), 0) for x in fields), "little")
    tight = (guard - slack) >> 7
    bases: list[Basis] = []
    prefix: list[int] = []
    saved: list[int] = []
    j = 0
    while True:
        if len(sup) - j < m - len(prefix):
            if not prefix:
                return bases
            j = prefix.pop()
            slack = saved.pop()
            tight = (guard - slack) >> 7
        elif not tight & sup[j]:
            if len(prefix) == m - 1:
                bases.append((*prefix, j))
            else:
                prefix.append(j)
                saved.append(slack)
                slack -= sup[j]
                tight = (guard - slack) >> 7
        j += 1


def has_basis(g: Graph, p: SparsityParams) -> bool:
    """Whether a tight spanning edge set exists, from one greedy pebble game.

    The game plays every edge once, in index order, and keeps those that
    go in; their count is the rank of the sparsity matroid, and a basis exists iff
    that rank is k*n - l.  Polynomial, so no enumeration guard applies.
    """
    validate_instance(g, p)
    m = tight_cardinality(g, p)
    if g.edge_count < m:  # before the game's O(n) state is built
        return False
    game = PebbleGame([p.k] * g.n, p.ell)
    rank = sum(game.play([e]) for e in g.edges)
    return rank == m


def require_basis(g: Graph, p: SparsityParams) -> None:
    """Refuse (EmptyPolytopeError) an instance without a basis, decided by ``has_basis``."""
    if not has_basis(g, p):
        raise EmptyPolytopeError(
            f"no (k={p.k},l={p.ell})-tight spanning subgraph exists: the polytope is empty"
        )
