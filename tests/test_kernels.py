"""The numpy kernels: subset scans on known cases, and the draw stream pinned to splitmix_draw."""

import numpy as np

from sparsity_ef import _kernels
from sparsity_ef._kernels import (
    as_edge_arrays,
    count_violation,
    hakimi_violation,
    mc_hits,
    splitmix_draw,
)


def test_mc_hits_matches_python_stream():
    entering = np.array([1, 0, 1, 0, 0], dtype=np.uint8)
    samples, seed = 997, 42
    expected = sum(int(entering[splitmix_draw(seed, t, 5)]) for t in range(samples))
    assert mc_hits(entering, samples, seed) == expected


def test_mc_hits_chunked_consistent():
    entering = np.array([1, 0, 1], dtype=np.uint8)
    samples = _kernels._MC_CHUNK + 17  # crosses a chunk boundary
    assert mc_hits(entering, samples, 5) == sum(
        int(entering[splitmix_draw(5, t, 3)]) for t in range(samples)
    )


def test_count_violation_returns_smallest_mask():
    # triangle is not (1,1)-sparse; the full vertex set 0b111 is the only violator
    eu, ev = as_edge_arrays([(0, 1), (0, 2), (1, 2)])
    assert count_violation(eu, ev, 3, 1, 1) == 0b111
    assert count_violation(eu, ev, 3, 1, 0) == -1


def test_hakimi_violation_example():
    # path 0-1-2 with targets (0,0,2): X={0,1} holds one edge but zero target mass
    eu, ev = as_edge_arrays([(0, 1), (1, 2)])
    m = np.array([0, 0, 2], dtype=np.int64)
    assert hakimi_violation(eu, ev, m, 3) == 0b011
