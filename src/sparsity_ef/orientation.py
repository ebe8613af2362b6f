"""Orientations with prescribed in-degrees, plus the protocol target vectors.

An in-degree vector m is realizable on (V, F) iff |F| = sum(m) and
|F(X)| <= sum_{v in X} m(v) for every X ⊆ V.  The constructive routine
starts from the canonical orientation (every edge headed at its higher
endpoint) and repairs it by flipping chains between over- and
under-subscribed vertices; the repair doubles as an exact feasibility
decider, and when it gets stuck the set of vertices it searched is a
certificate violating the subset condition.

Everything is deterministic: repairs always start at the lowest-index
vertex above target, searches expand neighbors in ascending index order.
Downstream code treats the result as a pure function of (F, targets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InfeasibleOrientationError
from .graphs import SparsityParams


@dataclass(frozen=True)
class Orientation:
    """Heads for each edge of F (aligned with the given edge list) and the in-degree vector."""

    n: int
    edges: tuple[tuple[int, int], ...]
    heads: tuple[int, ...]

    @property
    def rho(self) -> tuple[int, ...]:
        counts = [0] * self.n
        for h in self.heads:
            counts[h] += 1
        return tuple(counts)

    def directed_edges(self) -> tuple[tuple[int, int], ...]:
        """(tail, head) per edge, in the order the edge list was given."""
        out = []
        for (u, v), h in zip(self.edges, self.heads):
            out.append((u, v) if h == v else (v, u))
        return tuple(out)


def _check_inputs(n: int, edges: Sequence[tuple[int, int]], targets: Sequence[int]) -> None:
    if len(targets) != n:
        raise ValueError(f"target vector has length {len(targets)}, expected {n}")
    for t in targets:
        if t < 0:
            raise ValueError("in-degree targets must be non-negative")
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValueError(f"bad edge ({u},{v}) for n={n}")


def hakimi_feasible(n: int, edges: Sequence[tuple[int, int]], targets: Sequence[int]) -> bool:
    """Whether some orientation of the edges has in-degree vector = targets.

    Decided by attempting the construction, which is exact: it fails only
    on a count mismatch or with a violating vertex set as witness.
    The tests check it against a full subset scan of that condition.
    """
    try:
        orient_with_targets(n, edges, targets)
    except InfeasibleOrientationError:
        return False
    return True


def orient_with_targets(
    n: int, edges: Sequence[tuple[int, int]], targets: Sequence[int]
) -> Orientation:
    """Deterministically orient the edges so the in-degree vector equals targets.

    Starts all heads at the higher endpoint, then repeatedly takes the
    lowest-index vertex s with rho(s) > m(s), BFS-walks tail-ward along
    oriented edges (ascending index order) to the first vertex d with
    rho(d) < m(d), and flips the chain, shifting one unit of in-degree
    from s to d.  If the walk exhausts without finding a deficit vertex,
    the searched region certifies infeasibility and is raised as the
    witness.
    """
    _check_inputs(n, edges, targets)
    edges = [tuple(e) for e in edges]
    total = sum(targets)
    if len(edges) != total:
        raise InfeasibleOrientationError(
            f"|F| = {len(edges)} but targets sum to {total}", witness=None
        )

    heads = [max(u, v) for u, v in edges]
    rho = [0] * n
    for h in heads:
        rho[h] += 1
    # in_edges[v] = edge indices currently headed at v
    in_edges: list[set[int]] = [set() for _ in range(n)]
    for i, h in enumerate(heads):
        in_edges[h].add(i)

    while True:
        surplus = next((v for v in range(n) if rho[v] > targets[v]), None)
        if surplus is None:
            break
        # BFS from the surplus vertex, stepping head -> tail
        parent_edge: dict[int, int] = {}
        visited = {surplus}
        queue = [surplus]
        head_ptr = 0
        deficit = -1
        while head_ptr < len(queue):
            w = queue[head_ptr]
            head_ptr += 1
            if rho[w] < targets[w]:
                deficit = w
                break
            steps = sorted(
                (edges[i][0] if edges[i][1] == w else edges[i][1], i)
                for i in in_edges[w]
            )
            for tail, i in steps:
                if tail not in visited:
                    visited.add(tail)
                    parent_edge[tail] = i
                    queue.append(tail)
        if deficit < 0:
            raise InfeasibleOrientationError(
                f"in-degree targets infeasible: region {sorted(visited)} has "
                f"{sum(len(in_edges[v]) for v in visited)} internal edges but "
                f"target sum {sum(targets[v] for v in visited)}",
                witness=frozenset(visited),
            )
        # flip the chain deficit -> surplus; each flipped edge moves its head one step
        node = deficit
        while node != surplus:
            i = parent_edge[node]
            old_head = heads[i]
            u, v = edges[i]
            new_head = u if old_head == v else v
            in_edges[old_head].discard(i)
            in_edges[new_head].add(i)
            heads[i] = new_head
            rho[old_head] -= 1
            rho[new_head] += 1
            node = old_head

    return Orientation(n=n, edges=tuple(edges), heads=tuple(heads))


def protocol_targets_A(n: int, p: SparsityParams, x: int) -> tuple[int, ...]:
    """In-degree targets k everywhere except k-l at the announced vertex."""
    if p.k < p.ell:
        raise ValueError(f"targets require k >= ell, got (k={p.k}, ell={p.ell})")
    if not (0 <= x < n):
        raise ValueError(f"vertex {x} outside 0..{n - 1}")
    m = [p.k] * n
    m[x] = p.k - p.ell
    return tuple(m)


def protocol_targets_B(n: int, p: SparsityParams, x: int, y: int) -> tuple[int, ...]:
    """In-degree targets 0 at x, 2k-l at y, k elsewhere; needs k <= ell and x != y."""
    if p.k > p.ell:
        raise ValueError(f"targets require k <= ell, got (k={p.k}, ell={p.ell})")
    if x == y:
        raise ValueError("the two announced vertices must differ")
    for z in (x, y):
        if not (0 <= z < n):
            raise ValueError(f"vertex {z} outside 0..{n - 1}")
    m = [p.k] * n
    m[x] = 0
    m[y] = 2 * p.k - p.ell
    return tuple(m)
