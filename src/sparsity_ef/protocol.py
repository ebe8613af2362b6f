"""The two one-round randomized protocols and their exact expectations.

One round: Alice announces one vertex of her set X (variant A, regime
k >= l) or two (variant B, regime k <= l); Bob orients his tight edge set
F to the matching in-degree targets, picks one oriented edge (u, v)
uniformly at random and announces it; Alice outputs k*n - l if the edge
enters X (u outside, v inside) and 0 otherwise.  The expected output
equals the slack k|X| - l - |F ∩ E(X)| exactly, which is what the
factorization module turns into a nonnegative matrix factorization.

Alice's "arbitrary" announcement is pinned to the smallest index (pair of
smallest indices) in X, and Bob's orientation is the deterministic one
from the orientation module, so each transcript is a pure function of
(X, F).  Each public round checks and orients F afresh; nothing is kept
between calls.  At l = k both variants are legal; callers default to A.

The random edge pick uses a counter-based splitmix64 stream,
``splitmix_draw``: draw ``t`` of ``seed`` is
``mix64(seed + (t+1)*GOLDEN) mod m``, with the seed taken mod 2^64.
``run_once`` consumes draw 0 of its seed and ``monte_carlo`` draws
0..samples-1, so a Monte Carlo run is exactly the average of ``run_once``
over that stream.  The modulo introduces a bias of order m * 2^-64, far
below anything observable at desk scale.
"""

from __future__ import annotations

from fractions import Fraction
from math import sqrt
from typing import Iterable, NamedTuple

from .graphs import Graph, SparsityParams, validate_instance
from .orientation import (
    Orientation,
    orient_with_targets,
    protocol_targets_A,
    protocol_targets_B,
)
from .sparsity import Basis, is_tight

VARIANT_A = "A"
VARIANT_B = "B"

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


def admissible_variants(p: SparsityParams) -> tuple[str, ...]:
    out = []
    if p.k >= p.ell:
        out.append(VARIANT_A)
    if p.k <= p.ell:
        out.append(VARIANT_B)
    return tuple(out)


def resolve_variant(p: SparsityParams, requested: str = "auto") -> str:
    """Map 'auto' to the regime-appropriate variant (A preferred at k = l)."""
    if requested == "auto":
        return VARIANT_A if p.k >= p.ell else VARIANT_B
    if requested not in (VARIANT_A, VARIANT_B):
        raise ValueError(f"unknown protocol variant {requested!r}")
    if requested not in admissible_variants(p):
        raise ValueError(
            f"variant {requested} invalid for (k={p.k}, ell={p.ell}): "
            f"A needs k >= ell, B needs k <= ell"
        )
    return requested


def alice_choice(x_set: Iterable[int], variant: str) -> tuple[int, ...]:
    """The announced vertex (A) or ordered vertex pair (B): smallest indices of X."""
    members = sorted(set(x_set))
    if variant == VARIANT_A:
        if len(members) < 1:
            raise ValueError("variant A needs |X| >= 1")
        return (members[0],)
    if variant == VARIANT_B:
        if len(members) < 2:
            raise ValueError("variant B needs |X| >= 2")
        return (members[0], members[1])
    raise ValueError(f"unknown protocol variant {variant!r}")


def targets_for(g: Graph, p: SparsityParams, variant: str, alice: tuple[int, ...]) -> tuple[int, ...]:
    if variant == VARIANT_A:
        (x,) = alice
        return protocol_targets_A(g.n, p, x)
    (x, y) = alice
    return protocol_targets_B(g.n, p, x, y)


def orient_basis(
    g: Graph, p: SparsityParams, variant: str, basis: Basis, alice: tuple[int, ...]
) -> Orientation:
    """Bob's deterministic orientation of the basis for the announced vertices."""
    targets = targets_for(g, p, variant, alice)
    edges = tuple(g.edges[i] for i in basis)
    return orient_with_targets(g.n, edges, targets)


def _check_round_inputs(
    g: Graph, p: SparsityParams, variant: str, x_set: Iterable[int], basis: Iterable[int]
) -> tuple[frozenset[int], Basis]:
    validate_instance(g, p)
    resolve_variant(p, variant)
    members = frozenset(x_set)
    for v in members:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} outside 0..{g.n - 1}")
    need = 1 if variant == VARIANT_A else 2
    if len(members) < need:
        raise ValueError(f"variant {variant} needs |X| >= {need}, got {len(members)}")
    b = tuple(sorted(set(basis)))
    if not is_tight(g, p, b):
        raise ValueError("the edge set is not a basis (not tight for these parameters)")
    return members, b


def _oriented_round(
    g: Graph, p: SparsityParams, variant: str, x_set: Iterable[int], basis: Iterable[int]
) -> tuple[frozenset[int], Basis, Orientation]:
    members, b = _check_round_inputs(g, p, variant, x_set, basis)
    alice = alice_choice(members, variant)
    try:
        orientation = orient_basis(g, p, variant, b, alice)
    except Exception as exc:  # Lemma guarantees feasibility for tight F
        raise RuntimeError(
            f"internal consistency failure: orientation of a basis was refused ({exc})"
        ) from exc
    return members, b, orientation


def _entering_flags(orientation: Orientation, members: frozenset[int]) -> list[int]:
    return [int(tail not in members and head in members) for tail, head in orientation.directed_edges()]


def run_once(
    g: Graph,
    p: SparsityParams,
    variant: str,
    x_set: Iterable[int],
    basis: Iterable[int],
    seed: int,
) -> Fraction:
    """Execute one seeded round; the output is 0 or k*n - l."""
    members, b, orientation = _oriented_round(g, p, variant, x_set, basis)
    idx = splitmix_draw(seed, 0, len(b))
    tail, head = orientation.directed_edges()[idx]
    if tail not in members and head in members:
        return Fraction(p.k * g.n - p.ell)
    return Fraction(0)


def exact_expectation(
    g: Graph,
    p: SparsityParams,
    variant: str,
    x_set: Iterable[int],
    basis: Iterable[int],
) -> Fraction:
    """Average the round output over all |F| equally likely edge picks."""
    members, b, orientation = _oriented_round(g, p, variant, x_set, basis)
    entering = sum(_entering_flags(orientation, members))
    return Fraction((p.k * g.n - p.ell) * entering, len(b))


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
    if samples < 1:
        raise ValueError("samples must be >= 1")
    members, b, orientation = _oriented_round(g, p, variant, x_set, basis)
    entering = _entering_flags(orientation, members)
    hits = sum(entering[splitmix_draw(seed, t, len(b))] for t in range(samples))
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
    """Bits exchanged per round: the vertex announcements plus an edge index and a head bit."""
    if g.edge_count < 1:
        raise ValueError("bit complexity undefined for an empty edge set")
    vertex_bits = (g.n - 1).bit_length()
    edge_bits = (g.edge_count - 1).bit_length()
    if variant == VARIANT_A:
        return vertex_bits + edge_bits + 1
    if variant == VARIANT_B:
        return 2 * vertex_bits + edge_bits + 1
    raise ValueError(f"unknown protocol variant {variant!r}")
