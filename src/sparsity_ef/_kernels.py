"""Integer numpy kernels: vertex-subset scans and Monte Carlo edge draws.

Everything in here is integer-only bitmask work: scanning all vertex
subsets of a small graph (as masks 0..2^n-1) for counting violations, and
drawing uniform edge indices for the Monte Carlo sampler.  The two subset
scans back the test oracles ``is_sparse_bruteforce`` and
``hakimi_violation``.  All arithmetic is exact (int64/uint64, no floats).

Random draws use a counter-based splitmix64 stream: draw ``t`` of ``seed``
is ``mix64(seed + (t+1)*GOLDEN) mod m``.  The same stream is implemented
twice (pure python in ``splitmix_draw``, vectorized numpy in ``mc_hits``)
and the test suite pins them to each other.  The modulo introduces a bias
of order m * 2^-64, far below anything observable at desk scale.
"""

from __future__ import annotations

import numpy as np

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


def _popcounts(masks: np.ndarray, n: int) -> np.ndarray:
    pc = np.zeros(masks.shape, dtype=np.int64)
    for i in range(n):
        pc += (masks >> i) & 1
    return pc


def _edge_in_counts(masks: np.ndarray, eu: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """Per mask X, the number of listed edges with both endpoints in X."""
    cnt = np.zeros(masks.shape, dtype=np.int64)
    for j in range(len(eu)):
        cnt += (masks >> eu[j]) & (masks >> ev[j]) & 1
    return cnt


def count_violation(eu: np.ndarray, ev: np.ndarray, n: int, k: int, ell: int) -> int:
    """Smallest mask X with |X| >= 2 and more than max(k|X| - ell, 0) edges inside, or -1."""
    masks = np.arange(1 << n, dtype=np.int64)
    pc = _popcounts(masks, n)
    cnt = _edge_in_counts(masks, eu, ev)
    rhs = np.maximum(k * pc - ell, 0)
    bad = (pc >= 2) & (cnt > rhs)
    if not bad.any():
        return -1
    return int(np.argmax(bad))


def hakimi_violation(eu: np.ndarray, ev: np.ndarray, m: np.ndarray, n: int) -> int:
    """Smallest mask X with more edges inside than the sum of m over X, or -1."""
    masks = np.arange(1 << n, dtype=np.int64)
    cnt = _edge_in_counts(masks, eu, ev)
    msum = np.zeros(masks.shape, dtype=np.int64)
    for v in range(n):
        msum += ((masks >> v) & 1) * m[v]
    bad = cnt > msum
    if not bad.any():
        return -1
    return int(np.argmax(bad))


_MC_CHUNK = 1 << 20


def mc_hits(entering: np.ndarray, samples: int, seed: int) -> int:
    """How many of draws 0..samples-1 of the stream pick an entry of ``entering`` that is 1."""
    m = np.uint64(len(entering))
    s = np.uint64(seed & _MASK64)
    hits = 0
    start = 0
    while start < samples:
        stop = min(start + _MC_CHUNK, samples)
        t = np.arange(start + 1, stop + 1, dtype=np.uint64)
        z = s + t * np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z = z ^ (z >> np.uint64(31))
        idx = (z % m).astype(np.int64)
        hits += int(entering[idx].sum())
        start = stop
    return hits


def as_edge_arrays(edges) -> tuple[np.ndarray, np.ndarray]:
    """Split endpoint pairs into the int64 arrays the kernels take."""
    eu = np.array([e[0] for e in edges], dtype=np.int64)
    ev = np.array([e[1] for e in edges], dtype=np.int64)
    return eu, ev
