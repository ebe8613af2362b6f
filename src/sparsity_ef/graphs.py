"""Simple undirected graphs with canonical edge indexing.

Vertices are 0..n-1.  Edges are unordered pairs stored as (u, v) with
u < v, sorted lexicographically, so that edge indices are reproducible
across runs; every module downstream (orientations, transcripts, matrix
columns) relies on that ordering.  Multigraphs and self-loops are
rejected.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import Iterable, NamedTuple

from .errors import EnumerationGuardError, GraphError, InstanceError

# per-vertex state (a pebble game holds about 230 bytes a vertex) is built only below this
MAX_VERTICES = 2**16


class SparsityParams(NamedTuple):
    """The count-matroid parameter pair; valid iff k >= 1 and 0 <= ell <= 2k-1."""

    k: int
    ell: int


class Graph:
    """n vertices and canonical edges; equal and hashed by (n, edges), with edge_index built on first use."""

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...]):
        if n < 0:
            raise GraphError(f"vertex count must be >= 0, got {n}")
        seen = set()
        prev = None
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
            if u > v:
                raise GraphError(f"edge ({u},{v}) not normalized (expected u < v)")
            if (u, v) in seen:
                raise GraphError(f"duplicate edge ({u},{v})")
            if prev is not None and (u, v) < prev:
                raise GraphError("edge list not in canonical sorted order")
            seen.add((u, v))
            prev = (u, v)
        self.n = n
        self.edges = edges

    def __eq__(self, other):
        return other.__class__ is Graph and (self.n, self.edges) == (other.n, other.edges)

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n!r}, edges={self.edges!r})"

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}

    def index_of(self, u: int, v: int) -> int:
        """Edge index of the pair {u, v}; raises GraphError if absent."""
        key = (u, v) if u < v else (v, u)
        try:
            return self.edge_index[key]
        except KeyError:
            raise GraphError(f"no edge {{{u},{v}}} in graph") from None


def make_graph(n: int, edges: Iterable[Iterable[int]]) -> Graph:
    """Build a Graph from arbitrary-order endpoint pairs, canonicalizing.

    Pairs and integer endpoints are checked here, before the sort; the
    Graph then refuses self-loops, duplicates and out-of-range endpoints.
    """
    normalized = []
    for e in edges:
        try:
            pair = tuple(e)
        except TypeError:
            raise GraphError(f"edge {e!r} is not a 2-element pair") from None
        if len(pair) != 2:
            raise GraphError(f"edge {pair!r} is not a 2-element pair")
        u, v = pair
        if not isinstance(u, int) or not isinstance(v, int) or isinstance(u, bool) or isinstance(v, bool):
            raise GraphError(f"edge {pair!r} has non-integer endpoints")
        normalized.append((u, v) if u < v else (v, u))
    normalized.sort()
    return Graph(n, tuple(normalized))


def load_graph(text: str) -> Graph:
    """Parse the graph JSON format {"n": int, "edges": [[u,v], ...]}."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the decoder recurses once per nested array or object
        raise GraphError(f"malformed JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise GraphError("graph document must be a JSON object")
    if "n" not in doc or "edges" not in doc:
        raise GraphError('graph document needs fields "n" and "edges"')
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise GraphError('"n" must be an integer')
    edges = doc["edges"]
    if not isinstance(edges, list):
        raise GraphError('"edges" must be an array of pairs')
    return make_graph(n, edges)


def load_graph_file(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return load_graph(fh.read())


def induced_edges(g: Graph, x: Iterable[int]) -> frozenset[int]:
    """Indices of edges of g with both endpoints in the vertex set x."""
    members = frozenset(x)
    for v in members:
        if not (0 <= v < g.n):
            raise GraphError(f"vertex {v} outside 0..{g.n - 1}")
    return frozenset(
        i for i, (u, v) in enumerate(g.edges) if u in members and v in members
    )


def validate_instance(g: Graph, p: SparsityParams) -> None:
    """Guard shared by every entry point: n >= 2, 0 <= ell <= 2k-1, n <= MAX_VERTICES.

    More than ``MAX_VERTICES`` vertices is an EnumerationGuardError,
    raised before any per-vertex state is built.
    """
    if g.n < 2:
        raise InstanceError(f"n < 2 unsupported (got n={g.n})")
    if p.k < 1 or p.ell < 0 or p.ell > 2 * p.k - 1:
        raise InstanceError(
            f"parameters (k={p.k}, ell={p.ell}) outside 0 <= ell <= 2k-1, k >= 1"
        )
    if g.n > MAX_VERTICES:
        raise EnumerationGuardError(f"n = {g.n} vertices is beyond the vertex guard of {MAX_VERTICES}")
