import functools
import gc
import hashlib
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest

from sparsity_ef import factorization
from sparsity_ef.graphs import SparsityParams
from sparsity_ef.factorization import (
    build_T,
    build_U,
    build_factorization,
    enumerate_rows,
    enumerate_transcripts,
    factor_csvs,
    slack_matrix,
    slack_matrix_csv,
    slack_value,
    verify_factorization,
)
from sparsity_ef.protocol import exact_expectation
from sparsity_ef.sparsity import EnumerationGuardError, enumerate_bases

from conftest import complete_graph, path_graph

K3 = complete_graph(3)
K4 = complete_graph(4)
P11 = SparsityParams(1, 1)
P23 = SparsityParams(2, 3)


def test_enumerate_rows():
    assert enumerate_rows(K3, P11) == [(0, 1), (0, 2), (1, 2)]
    assert enumerate_rows(complete_graph(2), P11) == []
    k4_rows = enumerate_rows(K4, P23)
    assert len(k4_rows) == 10
    assert k4_rows == sorted(k4_rows)
    assert all(2 <= len(x) <= 3 for x in k4_rows)


def test_slack_value_examples():
    assert slack_value(K3, P11, {0, 1}, (1, 2)) == 1
    assert slack_value(K3, P11, {0, 1}, (0, 2)) == 0
    assert slack_value(K4, P23, {0, 1, 2}, (0, 1, 2, 3, 4)) == 0


def test_k3_slack_matrix_pattern():
    s = slack_matrix(K3, P11)
    assert s.shape == (3, 3)
    for i, x in enumerate(s.rows):
        x_edge = K3.index_of(*x)
        for j, basis in enumerate(s.cols):
            assert s.entries[i][j] == (0 if x_edge in basis else 1)


def test_k4_slack_matrix_zero_one():
    s = slack_matrix(K4, P23)
    assert s.shape == (10, 6)
    assert {e for row in s.entries for e in row} == {0, 1}
    assert all(e >= 0 for row in s.entries for e in row)


def test_empty_family_gives_zero_columns():
    s = slack_matrix(path_graph(3), P23)
    assert s.shape == (3, 0)
    fac = build_factorization(path_graph(3), P23, "B")
    assert verify_factorization(s, fac).ok


def test_transcript_counts_and_order():
    ws = enumerate_transcripts(K3, "A")
    assert len(ws) == 2 * 3 * 3
    assert [w.alice for w in ws[:6]] == [(0,)] * 6
    assert [(w.edge, w.head) for w in ws[:4]] == [(0, 1), (0, 0), (1, 2), (1, 0)]
    wb = enumerate_transcripts(K4, "B")
    assert len(wb) == 4 * 3 * 2 * 6 == 144
    assert wb[0].alice == (0, 1)


def test_factorization_dimensions_and_entry_domains():
    """A and B are 0/1 byte rows; T = c * A and U = B / c with c = 2 on K3 (1,1)."""
    fac = build_factorization(K3, P11, "A")
    assert fac.c == 2
    assert len(fac.A) == 3 and all(type(r) is bytearray and len(r) == 18 for r in fac.A)
    assert len(fac.B) == 18 and all(type(r) is bytearray and len(r) == 3 for r in fac.B)
    assert {a for row in fac.A for a in row} == {0, 1}
    assert {b for row in fac.B for b in row} == {0, 1}


def test_u_column_sums_equal_n_variant_a():
    for g, p in [(K3, P11), (K4, P11)]:
        fac = build_factorization(g, p, "A")
        for j in range(len(fac.cols)):
            assert Fraction(sum(row[j] for row in fac.B), fac.c) == g.n  # a column of U = B / c


def test_verify_factorization_small_instances():
    for g, p, variant in [
        (K3, P11, "A"),
        (K3, P11, "B"),
        (K4, P11, "A"),
        (K4, P23, "B"),
        (K4, SparsityParams(2, 2), "A"),
        (K4, SparsityParams(1, 0), "A"),
    ]:
        s = slack_matrix(g, p)
        fac = build_factorization(g, p, variant)
        check = verify_factorization(s, fac)
        assert check.ok, (variant, check)


def test_fault_injection_detected():
    s = slack_matrix(K3, P11)
    fac = build_factorization(K3, P11, "A")
    b = [row.copy() for row in fac.B]
    b[4][1] += fac.c  # U[4][1] += 1
    check = verify_factorization(s, replace(fac, B=b))
    assert not check.ok
    assert check.witness is not None


def test_negative_entry_detected():
    """No factor holds a negative entry: a byte row cannot, and a row of ints is refused."""
    s = slack_matrix(K3, P11)
    fac = build_factorization(K3, P11, "A")
    with pytest.raises(ValueError):
        fac.B[2][0] = -1
    b = [row.copy() for row in fac.B]
    b[2] = [-1, *b[2][1:]]  # U[2][0] = -1/c
    with pytest.raises(ValueError, match="rows of bytes"):
        verify_factorization(s, replace(fac, B=b))
    a = [row.copy() for row in fac.A]
    a[0] = [-1, *a[0][1:]]
    with pytest.raises(ValueError, match="rows of bytes"):
        verify_factorization(s, replace(fac, A=a))
    # rows of ints are refused even where their entries are right
    with pytest.raises(ValueError, match="rows of bytes"):
        verify_factorization(s, replace(fac, B=[list(row) for row in fac.B]))


def test_packed_fields_hold_corrupted_entries():
    """B[w][j] = 255 with B[w][j+1] set from 1 to 0 is named with its true residual.

    In fields one byte wide, the product's field j would carry into field
    j+1, which the lowered B[w][j+1] cancels, and field j would read 256
    less than its entry.  The fields are sized for the corrupted entry
    instead, and the first row that charges w mismatches at column j by
    255 - B[w][j].  (w, j) is picked where that carry would happen, which
    K3 (1,1) has nowhere.
    """
    s = slack_matrix(K4, P11)
    fac = build_factorization(K4, P11, "A")

    def first_row(w):
        return next(i for i, a_row in enumerate(fac.A) if a_row[w])

    w, j = next((w, j) for w, row in enumerate(fac.B) for j in range(len(row) - 1)
                if row[j + 1] == 1 and any(a_row[w] for a_row in fac.A) and s.entries[first_row(w)][j] > row[j])
    b = [row.copy() for row in fac.B]
    b[w][j], b[w][j + 1] = 255, 0
    check = verify_factorization(s, replace(fac, B=b))
    assert not check.ok and check.witness == (first_row(w), j)
    assert check.reason.endswith(f" has residual {255 - fac.B[w][j]}")


def test_memory_guard_threshold(monkeypatch):
    # the guard reads only the basis count, so placeholder bases suffice
    k8 = complete_graph(8)
    # each Laman graph on 7 vertices, with a new vertex joined to 2 of its 21 pairs, is one on 8
    with pytest.raises(EnumerationGuardError, match="memory guard"):  # K8 (2,3): about 34 GB
        build_U(k8, P23, "B", [None] * (21 * 190491), enumerate_transcripts(k8, "B"))

    class Oriented(Exception):
        pass

    def reached(*args):
        raise Oriented

    monkeypatch.setattr(factorization, "orient_basis", reached)
    # K8 (1,1) is estimated at 815 MB, K7 (2,3) at 876 MB
    for g, p, variant, bases in ((k8, P11, "A", 8**6), (complete_graph(7), P23, "B", 190491)):
        with pytest.raises(Oriented):  # passes the guard and reaches orientation
            build_U(g, p, variant, [None] * bases, enumerate_transcripts(g, variant))


@pytest.mark.parametrize("params, variant", [(P23, "B"), (P11, "A")])
def test_memory_guard_covers_traced_bytes(params, variant, monkeypatch):
    """On K6, the guard's estimate is at least the traced bytes of B, of B packed and of S.

    The orientations are made before tracing starts, which would slow them tenfold.
    """
    g = complete_graph(6)
    bases, transcripts = enumerate_bases(g, params), enumerate_transcripts(g, variant)
    monkeypatch.setattr(factorization, "orient_basis", functools.cache(factorization.orient_basis))
    build_U(g, params, variant, bases, transcripts)
    tracemalloc.start()
    try:
        gc.collect()  # drops free lists, which hold memory that no object uses
        before = tracemalloc.get_traced_memory()[0]
        b = build_U(g, params, variant, bases, transcripts)
        packed = [factorization._pack(row, 1) for row in b]
        s = slack_matrix(g, params, bases=bases)
        gc.collect()
        traced = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(packed) == len(b) and s.shape == (2**6 - 8, len(bases))
    estimate = len(bases) * (
        factorization.B_ENTRY_BYTES * len(transcripts) + factorization.S_ENTRY_BYTES * s.shape[0]
    )
    assert estimate >= traced, (estimate, traced)


def test_build_t_needs_every_announced_transcript():
    """A row whose announcement has no transcripts is refused, not left as a zero row of T."""
    transcripts = enumerate_transcripts(K4, "A")
    rows = enumerate_rows(K4, P11)
    with pytest.raises(KeyError):  # X = {2, 3} announces vertex 2, dropped with the second half
        build_T(K4, "A", rows, transcripts[: len(transcripts) // 2])


def test_dimension_mismatch_raises():
    s = slack_matrix(K3, P11)
    fac = build_factorization(K3, P11, "A")
    with pytest.raises(ValueError):
        verify_factorization(s, replace(fac, A=fac.A[:-1]))


def test_product_matches_protocol_expectation():
    """T @ U recomputes the exact protocol expectation, route by route (T = c * A, U = B / c)."""
    for g, p, variant in [(K4, P11, "A"), (K4, P23, "B")]:
        fac = build_factorization(g, p, variant)
        for i, x in enumerate(fac.rows):
            for j, basis in enumerate(fac.cols):
                cell = sum(
                    fac.c * fac.A[i][w] * Fraction(fac.B[w][j], fac.c)
                    for w in range(len(fac.transcripts))
                    if fac.A[i][w]
                )
                assert cell == exact_expectation(g, p, variant, x, basis)


def test_slack_entries_nonnegative_integers(corpus_cells):
    for name, g, p, bases in corpus_cells:
        s = slack_matrix(g, p)
        assert s.cols == tuple(bases)
        assert all(type(e) is int for row in s.entries for e in row), (name, p)
        assert all(e >= 0 for row in s.entries for e in row), (name, p)


def test_slack_csv_golden():
    expected = (
        ",F:0+1,F:0+2,F:1+2\n"
        "X:0+1,0,0,1\n"
        "X:0+2,0,1,0\n"
        "X:1+2,1,0,0\n"
    )
    assert slack_matrix_csv(slack_matrix(K3, P11)) == expected


def test_factor_csv_golden_k4():
    """T.csv and U.csv bytes of K4 (2,3), pinned from the Fraction-based implementation."""
    t_csv, u_csv = factor_csvs(build_factorization(K4, P23, "B"))
    assert hashlib.sha256(t_csv.encode()).hexdigest() == (
        "c368c0608e08c33647e72cdde5400c64b2f8949252b75503d4f6c89aad519428"
    )
    assert hashlib.sha256(u_csv.encode()).hexdigest() == (
        "74a5c98634ca66b2c32139243ab1fc19ee7f4758b6e9b67c7f811960376b08e4"
    )
