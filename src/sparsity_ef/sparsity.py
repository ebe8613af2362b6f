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

The same pebble game serves three more uses.  ``enumerate_bases`` is a
depth-first search over edges in index order that keeps one game for
its current prefix, adding and taking out one edge at a time, and skips
an edge as soon as the prefix plus that edge is dependent, pruning all
of its extensions at once (sparsity is hereditary).  ``has_basis`` plays
the game greedily once over all edges: the sparse edge sets are the
independent sets of a matroid, so the count inserted is its rank, and a
basis exists iff that rank is k*n - l.  ``orientation.orient_with_targets``
plays it with per-vertex budgets, the in-degree targets, and l = 0, so
``PebbleGame`` is the package's only path-reversal code.
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
    ascending order, so a fetch walks it as it stands.  The keys of
    ``searched`` are the vertices that the last failed fetch reached.
    None of them holds a free pebble apart from u and v, and every
    out-edge of one of them ends in another.
    """

    def __init__(self, budgets: Sequence[int], ell: int):
        self.ell = ell
        self.pebbles = list(budgets)
        self.out: list[list[int]] = [[] for _ in budgets]
        self.searched: dict[int, int] = {}

    def accepts(self, u: int, v: int) -> bool:
        """Gather l+1 pebbles on u and v; whether uv is independent of the accepted edges.

        A fetch only reverses paths, so the state stays valid for the same
        edges whether or not uv is then inserted.
        """
        pebbles = self.pebbles
        while pebbles[u] + pebbles[v] <= self.ell:
            if not self._fetch(u, v):
                return False
        return True

    def _fetch(self, u: int, v: int) -> bool:
        """Move one pebble onto u or v by reversing a directed path; False if none is reachable.

        Breadth-first from u and v, each out-list in its ascending order,
        stopping at the first vertex found with a free pebble.  Which pebble
        is fetched changes no answer, only the orientation that the game
        reaches.
        """
        out, pebbles = self.out, self.pebbles
        parent = {u: -1, v: -1}
        queue = [u, v]
        for w in queue:  # the queue grows while it is walked
            for s in out[w]:
                if s in parent:
                    continue
                parent[s] = w
                if pebbles[s] == 0:
                    queue.append(s)
                    continue
                # reverse the path root -> s, paying s's pebble to the root
                node = s
                while parent[node] >= 0:
                    prev = parent[node]
                    out[prev].remove(node)
                    insort(out[node], prev)
                    node = prev
                pebbles[s] -= 1
                pebbles[node] += 1
                return True
        self.searched = parent
        return False

    def insert(self, u: int, v: int) -> None:
        """Accept uv, after ``accepts(u, v)``, paying with a pebble of u if it has one."""
        tail, head = (u, v) if self.pebbles[u] > 0 else (v, u)
        self.pebbles[tail] -= 1
        insort(self.out[tail], head)

    def remove(self, u: int, v: int) -> None:
        """Take out the accepted edge uv and return its pebble to its tail."""
        tail, head = (u, v) if v in self.out[u] else (v, u)
        self.out[tail].remove(head)
        self.pebbles[tail] += 1

    def add(self, u: int, v: int) -> bool:
        """Insert uv if it is independent of the accepted edges; whether it was."""
        if not self.accepts(u, v):
            return False
        self.insert(u, v)
        return True


def is_sparse_pebble(g: Graph, p: SparsityParams, edge_set: Iterable[int]) -> bool:
    """Decide sparsity with the (k,l)-pebble game (production path).

    Every vertex starts with k pebbles.  Edges of F are inserted in
    ascending index order; inserting {u,v} requires l+1 pebbles gathered
    on u and v, where a pebble is fetched by searching the oriented
    inserted edges breadth-first for a pebbled vertex and reversing the
    connecting path.  F is sparse iff every edge gets inserted.
    """
    validate_instance(g, p)
    subset = _normalize_subset(g, edge_set)
    game = PebbleGame([p.k] * g.n, p.ell)
    return all(game.add(*g.edges[i]) for i in subset)


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

    A depth-first search over edges in index order that carries one
    pebble game for the current prefix: edge j joins the prefix when l+1
    pebbles can be gathered on its ends, and is skipped otherwise, which
    prunes every extension through it (sparsity is hereditary).  An edge
    accepted at the last depth is recorded without being inserted, and
    backtracking takes the last edge out again.  The search is a loop, so
    its depth, the basis size, is not bounded by Python's recursion limit.

    Refuses (EnumerationGuardError) when C(|E|, k*n-l) exceeds the guard,
    ``max_enum`` or else ``DEFAULT_MAX_ENUM``.
    That count bounds the work rather than measuring it:
    each test at the last depth is a distinct subset of that size, and
    the ones with a dependent prefix are never reached.  An empty result
    is a legal outcome meaning the base polytope is empty.
    """
    validate_instance(g, p)
    guard = DEFAULT_MAX_ENUM if max_enum is None else max_enum
    m = tight_cardinality(g, p)
    if m > g.edge_count:
        return []
    candidates = math.comb(g.edge_count, m)
    if candidates > guard:
        raise EnumerationGuardError(
            f"C({g.edge_count},{m}) = {candidates} exceeds enumeration guard {guard}"
        )
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
        elif game.accepts(*edges[j]):
            if len(prefix) == m - 1:
                bases.append((*prefix, j))
            else:
                game.insert(*edges[j])
                prefix.append(j)
        j += 1


def has_basis(g: Graph, p: SparsityParams) -> bool:
    """Whether a tight spanning edge set exists, from one greedy pebble game.

    The game inserts every edge it can, in index order; the count it
    inserts is the rank of the sparsity matroid, and a basis exists iff
    that rank is k*n - l.  Polynomial, so no enumeration guard applies.
    """
    validate_instance(g, p)
    m = tight_cardinality(g, p)
    if g.edge_count < m:  # before the game's O(n) state is built
        return False
    game = PebbleGame([p.k] * g.n, p.ell)
    rank = sum(game.add(u, v) for u, v in g.edges)
    return rank == m


def require_basis(g: Graph, p: SparsityParams) -> None:
    """Refuse (EmptyPolytopeError) an instance without a basis, decided by ``has_basis``."""
    if not has_basis(g, p):
        raise EmptyPolytopeError(
            f"no (k={p.k},l={p.ell})-tight spanning subgraph exists: the polytope is empty"
        )
