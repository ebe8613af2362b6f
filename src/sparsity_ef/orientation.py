"""Orientations with prescribed in-degrees (Hakimi's theorem).

An in-degree vector m is realizable on (V, F) iff |F| = sum(m) and
|F(X)| <= sum_{v in X} m(v) for every X ⊆ V (Hakimi's theorem).
``pebble_orientation`` decides it and builds the orientation with the
pebble game of ``sparsity.PebbleGame``, the package's one path-reversal
routine: every vertex v gets a budget of m(v) pebbles, l = 0, and one
``play`` inserts the edges of F in the order given.  A pebble game
leaves every vertex with as many out-edges as pebbles it spent, so once
the |F| = sum(m) edges are in, no pebble is free and v has exactly m(v)
out-edges.  Bob's orientation is the reverse: each edge is headed at its
pebble tail, so the in-degree of v is m(v).  An orientation is its
heads, a tuple of one head per edge of F in the order given, read from
the game's out-lists: the tail of uv is the endpoint that is not its
head, and the in-degree of v is how often v is a head.  Targets above k
are as good as any others.  An edge that cannot get a pebble proves the
vector infeasible, and the vertices that the failed search reached are
the witness.

The fetch rule, stated on ``PebbleGame.play``, makes each move of the
game depend only on its current state, so Bob's orientation is a pure
function of (F in its given order, m), whatever the game's history, the
Python version or ``PYTHONHASHSEED``.  Where m does not force the
orientation, this rule is what fixes U.csv, the ``orient`` output and
Monte Carlo hit counts; no slack, T or ``.ine`` value depends on it,
because how many edges of F enter a set X does not depend on the
orientation.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InfeasibleOrientationError
from .sparsity import PebbleGame


def _check_inputs(n: int, edges: Sequence[tuple[int, int]], targets: Sequence[int]) -> None:
    if len(targets) != n:
        raise ValueError(f"target vector has length {len(targets)}, expected {n}")
    for t in targets:
        if t < 0:
            raise ValueError("in-degree targets must be non-negative")
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValueError(f"bad edge ({u},{v}) for n={n}")
    # heads are read back from the game's out-lists by endpoint pair, which cannot tell parallel edges apart
    if len({(u, v) if u < v else (v, u) for u, v in edges}) < len(edges):
        raise ValueError("repeated edge pair: parallel edges are not supported")


def orient_with_targets(n: int, edges: Sequence[tuple[int, int]], targets: Sequence[int]) -> tuple[int, ...]:
    """One head per edge, so that the in-degree vector equals targets: ``pebble_orientation`` on checked inputs."""
    _check_inputs(n, edges, targets)
    return pebble_orientation(edges, targets)


def pebble_orientation(edges: Sequence[tuple[int, int]], targets: Sequence[int]) -> tuple[int, ...]:
    """One head per edge, already checked, so that the in-degree vector equals targets, by the pebble game.

    Each vertex v starts with targets[v] pebbles, and one ``play`` inserts
    the edges in the order given with l = 0; each edge is headed at the
    endpoint whose pebble it took.  If an edge uv cannot get a pebble, the
    vertices that its failed search reached form a set X that contains u
    and v, holds no free pebble and has no game out-edge leaving it.  So
    the targets(X) edges paid for from X lie in F(X), as does uv, and
    |F(X)| > targets(X); X is raised as the witness.
    """
    total = sum(targets)
    if len(edges) != total:
        raise InfeasibleOrientationError(
            f"|F| = {len(edges)} but targets sum to {total}", witness=None
        )
    game = PebbleGame(targets, 0)
    if game.play(edges) < len(edges):
        region = frozenset(game.searched)
        inside = sum(a in region and b in region for a, b in edges)
        raise InfeasibleOrientationError(
            f"in-degree targets infeasible: region {sorted(region)} has {inside} internal "
            f"edges but target sum {sum(targets[w] for w in region)}",
            witness=region,
        )
    out = game.out
    return tuple(u if v in out[u] else v for u, v in edges)
