"""Set-based reference pebble game, an oracle for ``sparsity.PebbleGame``.

The same game with each vertex's out-edges held as a set of heads and
walked through ``sorted`` at every fetch.  It makes the same moves as
the production game, which keeps each out-list in ascending order
instead, so the two agree step by step on every return value, pebble
count, out-neighbourhood and failed-fetch region.
"""

from __future__ import annotations

from typing import Sequence


class SetPebbleGame:
    def __init__(self, budgets: Sequence[int], ell: int):
        self.ell = ell
        self.pebbles = list(budgets)
        self.out: list[set[int]] = [set() for _ in budgets]
        self.searched: dict[int, int] = {}

    def accepts(self, u: int, v: int) -> bool:
        while self.pebbles[u] + self.pebbles[v] <= self.ell:
            if not self._fetch(u, v):
                return False
        return True

    def _fetch(self, u: int, v: int) -> bool:
        out, pebbles = self.out, self.pebbles
        parent = {u: -1, v: -1}
        queue = [u, v]
        for w in queue:
            for s in sorted(out[w]):
                if s in parent:
                    continue
                parent[s] = w
                if pebbles[s] == 0:
                    queue.append(s)
                    continue
                node = s
                while parent[node] >= 0:
                    prev = parent[node]
                    out[prev].discard(node)
                    out[node].add(prev)
                    node = prev
                pebbles[s] -= 1
                pebbles[node] += 1
                return True
        self.searched = parent
        return False

    def insert(self, u: int, v: int) -> None:
        tail, head = (u, v) if self.pebbles[u] > 0 else (v, u)
        self.pebbles[tail] -= 1
        self.out[tail].add(head)

    def remove(self, u: int, v: int) -> None:
        tail, head = (u, v) if v in self.out[u] else (v, u)
        self.out[tail].remove(head)
        self.pebbles[tail] += 1

    def add(self, u: int, v: int) -> bool:
        if not self.accepts(u, v):
            return False
        self.insert(u, v)
        return True
