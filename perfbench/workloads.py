"""The benchmark's four workloads: graphs, `sparsity-ef` command lines and pinned answers.

Each workload is a fixed list of batch commands run one after another by a
single client.  Basis counts below were computed with the independent
numpy oracle in ``checks.py``; file hashes were pinned from the program's
output once its basis counts agreed (see ``BASELINE.md``).

The seed relabels the vertices of the W6 and prism cells of
``verify-ladder`` and is passed on as ``verify --seed``.  The K5 cells
need no relabeling: every permutation of K_n is an automorphism, so the
relabeled instance is the same graph.  The other workloads ignore the
seed: ``bases-k7`` runs complete graphs only, and ``factorize-k6`` and
``emit-ine`` are seed-invariant on purpose, because their S.csv and
``.ine`` bytes are pinned by hash.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass

# (k, l) grid of the test corpus; K5 (3,3) has no basis and must exit 4.
K5_GRID = [(1, 0), (1, 1), (2, 1), (2, 2), (2, 3), (3, 3), (3, 5)]

# Basis counts per (graph, k, l), from the independent oracle.
BASIS_COUNTS = {
    ("K5", 1, 0): 222,
    ("K5", 1, 1): 5**3,  # Cayley: n^(n-2) spanning trees
    ("K5", 2, 1): 10,
    ("K5", 2, 2): 45,
    ("K5", 2, 3): 100,
    ("K5", 3, 3): 0,
    ("K5", 3, 5): 1,
    ("W6", 2, 3): 12,
    ("prism", 1, 1): 75,
    ("prism", 2, 3): 1,
    ("K6", 2, 3): 3355,
    ("K6", 3, 5): 105,
    ("K7", 1, 1): 7**5,
}

# sha256 of `factorize --out` S.csv, per (graph, k, l).
S_CSV_SHA256 = {
    ("K6", 3, 5): "3923b949a5a9ccef4767f83ce95d602dd74abb625c1c7dbc50ec5d444fecd3e9",
    ("W6", 2, 3): "86da07ed709987e172e9b9d1e75e33363a38a6249f1e3654d09187bb64a6ea1f",
    ("K5", 2, 3): "e10db3d25b01f38c4420e9131ea4cd8185890bdfd05051e8a45302be7c3fdeac",
    ("K5", 2, 2): "28d8b824f4b773249b8a9378de64e96c048360ccec0e36046197bdccebce723b",
}

# sha256 of `emit` .ine files.  Only (1,1), (2,3) and (3,5) cells: whenever
# 2k-l >= 2 the emitted system is known to be too weak, and pinning those
# bytes would pin that defect.
INE_SHA256 = {
    ("W6", 2, 3): "a6cbc8d3b64922c8c5060e217c5c25019c948d7b6d6761c2ac3b655e2521b5d4",
    ("K7", 1, 1): "783d20568d71cdb1a6b0b48cd1d7ac1ebc2fc5532f56bdeeba8440e2729427f3",
}



def complete_edges(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n), 2))


def wheel_edges(rim: int) -> list[tuple[int, int]]:
    """Hub 0 joined to the cycle 1..rim, so W6 has 7 vertices and 12 edges."""
    edges = [(0, i) for i in range(1, rim + 1)]
    edges += [(i, i + 1) for i in range(1, rim)]
    return edges + [(1, rim)]


PRISM_EDGES = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]


def canonical(edges) -> list[tuple[int, int]]:
    """Sorted (low, high) pairs: the program numbers edges in this order."""
    return sorted((min(u, v), max(u, v)) for u, v in edges)


GRAPHS = {
    "K5": (5, complete_edges(5)),
    "K6": (6, complete_edges(6)),
    "K7": (7, complete_edges(7)),
    "W6": (7, canonical(wheel_edges(6))),
    "prism": (6, canonical(PRISM_EDGES)),
}


def relabel(n: int, edges, rng: random.Random) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return canonical((perm[u], perm[v]) for u, v in edges)


def variant_for(k: int, ell: int) -> str:
    """The CLI's `--variant auto` rule, restated: A when k >= l, else B."""
    return "A" if k >= ell else "B"


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output must satisfy."""

    label: str
    kind: str  # bases | factorize | verify | emit
    argv: tuple[str, ...]
    n: int
    edges: tuple[tuple[int, int], ...]
    k: int
    ell: int
    variant: str
    bases: int
    exit_code: int = 0
    out: str | None = None  # --out path or prefix
    sha256: str | None = None


class Builder:
    """Writes graph files into the work directory and makes Commands."""

    def __init__(self, workdir: str):
        self.workdir = workdir

    def graph(self, name: str, n: int, edges) -> str:
        path = os.path.join(self.workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"n": n, "edges": [list(e) for e in edges]}, fh)
        return path

    def command(self, kind, gname, gpath, n, edges, k, ell, *extra_argv, **fields) -> Command:
        argv = (kind, "--graph", gpath, "--k", str(k), "--l", str(ell), *extra_argv)
        return Command(
            label=f"{kind} {gname} ({k},{ell})",
            kind=kind,
            argv=argv,
            n=n,
            edges=tuple(edges),
            k=k,
            ell=ell,
            variant=variant_for(k, ell),
            bases=BASIS_COUNTS[(gname, k, ell)],
            **fields,
        )


def _bases(b: Builder) -> list[Command]:
    cells = (("K7", 1, 1), ("K6", 2, 3))
    return [b.command("bases", g, b.graph(g, *GRAPHS[g]), *GRAPHS[g], k, ell) for g, k, ell in cells]


def _emit(b: Builder) -> list[Command]:
    cells = (("W6", 2, 3), ("K7", 1, 1))
    cmds = []
    for g, k, ell in cells:
        out = os.path.join(b.workdir, f"{g}_{k}{ell}.ine")
        cmds.append(b.command(
            "emit", g, b.graph(g, *GRAPHS[g]), *GRAPHS[g], k, ell, "--out", out,
            out=out, sha256=INE_SHA256[(g, k, ell)],
        ))
    return cmds


def _factorize(b: Builder) -> list[Command]:
    cells = (("K6", 3, 5), ("W6", 2, 3), ("K5", 2, 3), ("K5", 2, 2))
    cmds = []
    for g, k, ell in cells:
        variant = variant_for(k, ell)
        prefix = os.path.join(b.workdir, f"{g}_{k}{ell}")
        cmds.append(b.command(
            "factorize", g, b.graph(g, *GRAPHS[g]), *GRAPHS[g], k, ell,
            "--variant", variant, "--out", prefix,
            out=prefix, sha256=S_CSV_SHA256[(g, k, ell)],
        ))
    return cmds


def _verify(b: Builder, seed: int) -> list[Command]:
    rng = random.Random(seed)
    graphs = {"K5": GRAPHS["K5"]}
    for g in ("W6", "prism"):
        n, edges = GRAPHS[g]
        graphs[g] = (n, relabel(n, edges, rng))
    paths = {g: b.graph(f"{g}-verify", *graphs[g]) for g in graphs}
    cells = [("K5", k, ell) for k, ell in K5_GRID]
    cells += [("W6", 2, 3), ("prism", 1, 1), ("prism", 2, 3)]
    return [
        b.command(
            "verify", g, paths[g], *graphs[g], k, ell, "--seed", str(seed),
            exit_code=4 if BASIS_COUNTS[(g, k, ell)] == 0 else 0,
        )
        for g, k, ell in cells
    ]


# Each workload runs what the other bypasses: orientation, U, the T@U check
# and verification only in factorize-verify; .ine rendering only in
# enumerate-emit, whose enumeration share is the larger.
WORKLOADS = {
    "enumerate-emit": lambda b, seed: _bases(b) + _emit(b),
    "factorize-verify": lambda b, seed: _factorize(b) + _verify(b, seed),
}


def build(workload: str, seed: int, workdir: str) -> list[Command]:
    """The workload's command list; graph files are written to ``workdir``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return WORKLOADS[workload](Builder(workdir), seed)
