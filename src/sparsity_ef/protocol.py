"""The one-round randomized protocol and its exact expectations.

One round: Alice announces vertices of her set X, Bob orients his tight
edge set F to in-degree targets fixed by that announcement, picks one
oriented edge (u, v) uniformly at random and announces it; Alice outputs
k*n - l if the edge enters X (u outside, v inside) and 0 otherwise.  The
expected output equals the slack k|X| - l - |F ∩ E(X)| exactly, which is
what the factorization module turns into a nonnegative matrix
factorization.

The two variants differ in one number, ``ANNOUNCED[variant]``, the count
of vertices Alice announces: one in variant A (regime k >= l), two in
variant B (regime k <= l).  At l = k both are legal; ``resolve_variant``
maps 'auto' to A there.  Everything else follows from the count:

* the announcements are the ordered tuples of count distinct vertices,
  ``announcements(n, variant)``, in lexicographic order;
* Alice's "arbitrary" announcement is pinned to the count smallest
  vertices of X, in increasing order (``alice_choice``);
* Bob's targets (``protocol_targets``) are k at every vertex, less the
  deficit l, which the announced vertices take in order, up to k each:
  k - l at x in A, 0 at x and 2k - l at y in B;
* there are 2|E| transcripts per announcement (an edge and its head),
  so 2n|E| for A and 2n(n-1)|E| for B (``transcript_count``);
* a round exchanges count * bits(n-1) + bits(|E|-1) + 1 bits, where
  bits(m) is the bit length of m (``bit_complexity``);
* the size bound that ``lifted.verify_extension`` reports for the
  lifted system's inequality count is 3 n^count |E|: O(|V||E|) for A
  and O(|V|^2|E|) for B.

Bob has one entry point, ``bob_orientation(edges, targets)``, the
orientation module's game, unchecked, on F's edges in index order.  It
returns the orientation as its heads, one per edge, which is what B
records.  Each public round here and a factorization's ``B`` call it.
By the paper's lemma every basis meets every announcement's targets, so
a refusal is a bug, raised as RuntimeError ("internal consistency
failure: ...").

The random edge pick uses a counter-based splitmix64 stream,
``splitmix_draw``: draw ``t`` of ``seed`` is
``mix64(seed + (t+1)*GOLDEN) mod m``, with the seed taken mod 2^64.
``monte_carlo`` draws 0..samples-1, so a run of one sample is the round
that draw 0 of its seed picks.  The modulo introduces a bias of order m * 2^-64, far
below anything observable at desk scale.
"""

from __future__ import annotations

import itertools
from math import perm, sqrt
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import InfeasibleOrientationError
from .graphs import Graph, SparsityParams, validate_instance
from .orientation import pebble_orientation
from .sparsity import is_tight
if TYPE_CHECKING:
    from fractions import Fraction  # monte_carlo imports it where it builds the one rational

VARIANT_A, VARIANT_B = "A", "B"
ANNOUNCED = {VARIANT_A: 1, VARIANT_B: 2}  # how many vertices of X Alice announces

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix_draw(seed: int, t: int, m: int) -> int:
    """Draw ``t`` of the documented stream: a uniform index in [0, m)."""
    z = (seed + (t + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    z = (z ^ (z >> 31)) & _MASK64
    return z % m


def _count(variant: str) -> int:
    if variant not in ANNOUNCED:
        raise ValueError(f"unknown protocol variant {variant!r}")
    return ANNOUNCED[variant]


def resolve_variant(p: SparsityParams, requested: str = "auto") -> str:
    """Map 'auto' to the regime-appropriate variant (A preferred at k = l)."""
    if requested == "auto":
        return VARIANT_A if p.k >= p.ell else VARIANT_B
    count = _count(requested)
    if not (count - 1) * p.k <= p.ell <= count * p.k:
        raise ValueError(
            f"variant {requested} invalid for (k={p.k}, ell={p.ell}): "
            f"A needs k >= ell, B needs k <= ell"
        )
    return requested


def announcements(n: int, variant: str) -> list[tuple[int, ...]]:
    """Every announcement Alice can make on n vertices, in lexicographic order."""
    return list(itertools.permutations(range(n), _count(variant)))


def transcript_count(g: Graph, variant: str) -> int:
    """|W| = 2|E| P(n, count): an edge and its head for each announcement."""
    return 2 * g.edge_count * perm(g.n, _count(variant))


def alice_choice(x_set: Iterable[int], variant: str) -> tuple[int, ...]:
    """Alice's announcement for X: its ``ANNOUNCED[variant]`` smallest vertices, in increasing order."""
    count = _count(variant)
    members = sorted(set(x_set))
    if len(members) < count:
        raise ValueError(f"variant {variant} needs |X| >= {count}, got {len(members)}")
    return tuple(members[:count])


def protocol_targets(n: int, p: SparsityParams, announced: Sequence[int]) -> tuple[int, ...]:
    """Bob's in-degree targets: k everywhere, less the deficit l taken by the announced vertices.

    The announced vertices, in order, each take up to k of l, and all of
    l must be taken with every vertex but the last taking a full k: so
    one vertex needs k >= l and two need k <= l.
    """
    count = len(announced)
    if count not in ANNOUNCED.values():
        raise ValueError(f"Alice announces one or two vertices, got {count}")
    if p.ell > count * p.k:
        raise ValueError(f"targets require k >= ell, got (k={p.k}, ell={p.ell})")
    if p.ell < (count - 1) * p.k:
        raise ValueError(f"targets require k <= ell, got (k={p.k}, ell={p.ell})")
    if len(set(announced)) < count:
        raise ValueError("the two announced vertices must differ")
    m, deficit = [p.k] * n, p.ell
    for v in announced:
        if not (0 <= v < n):
            raise ValueError(f"vertex {v} outside 0..{n - 1}")
        take = min(p.k, deficit)
        m[v] -= take
        deficit -= take
    return tuple(m)


def bob_orientation(edges: Sequence[tuple[int, int]], targets: Sequence[int]) -> tuple[int, ...]:
    """Bob's heads for a basis (edges in index order) and announced targets: unchecked; a refusal is a bug."""
    try:
        return pebble_orientation(edges, targets)
    except InfeasibleOrientationError as exc:
        raise RuntimeError(f"internal consistency failure: orientation of a basis was refused ({exc})") from exc


def _oriented_round(
    g: Graph, p: SparsityParams, variant: str, x_set: Iterable[int], basis: Iterable[int]
) -> list[int]:
    """One flag per edge of the basis, in index order: 1 where Bob heads the edge into X from outside."""
    validate_instance(g, p)
    variant = resolve_variant(p, variant)
    members = frozenset(x_set)
    for v in members:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} outside 0..{g.n - 1}")
    alice = alice_choice(members, variant)
    b = tuple(sorted(set(basis)))
    if not is_tight(g, p, b):
        raise ValueError("the edge set is not a basis (not tight for these parameters)")
    edges = tuple(g.edges[i] for i in b)
    heads = bob_orientation(edges, protocol_targets(g.n, p, alice))
    return [int(h in members and u + v - h not in members) for (u, v), h in zip(edges, heads)]  # u + v - h: tail


def exact_expectation(
    g: Graph,
    p: SparsityParams,
    variant: str,
    x_set: Iterable[int],
    basis: Iterable[int],
) -> int:
    """Round output averaged over the |F| = c = k n - l equally likely picks: the number of F's edges entering X."""
    return sum(_oriented_round(g, p, variant, x_set, basis))


class MCResult(NamedTuple):
    mean: Fraction
    stderr: float
    samples: int
    hits: int


def monte_carlo(
    g: Graph,
    p: SparsityParams,
    variant: str,
    x_set: Iterable[int],
    basis: Iterable[int],
    samples: int,
    seed: int,
) -> MCResult:
    """Seeded sample mean and standard error of the round output.

    Deterministic for a fixed seed; stderr is the only floating-point
    quantity in the package (0.0 when samples=1).
    """
    from fractions import Fraction  # the sample mean is a round's one rational
    if samples < 1:
        raise ValueError("samples must be >= 1")
    entering = _oriented_round(g, p, variant, x_set, basis)
    hits = sum(entering[splitmix_draw(seed, t, len(entering))] for t in range(samples))
    c = p.k * g.n - p.ell
    mean = Fraction(c * hits, samples)
    if samples == 1:
        stderr = 0.0
    else:
        mean_f = float(mean)
        ssq = hits * (c - mean_f) ** 2 + (samples - hits) * mean_f**2
        stderr = sqrt(ssq / (samples - 1) / samples)
    return MCResult(mean=mean, stderr=stderr, samples=samples, hits=hits)


def bit_complexity(g: Graph, variant: str) -> int:
    """Bits exchanged per round: the announced vertices, then an edge index and a head bit."""
    if g.edge_count < 1:
        raise ValueError("bit complexity undefined for an empty edge set")
    return _count(variant) * (g.n - 1).bit_length() + (g.edge_count - 1).bit_length() + 1
