import functools
import gc
import hashlib
import re
import tracemalloc
from fractions import Fraction

import pytest

from sparsity_ef import factorization
from sparsity_ef.errors import InfeasibleLiftedPointError
from sparsity_ef.graphs import SparsityParams, make_graph
from sparsity_ef.factorization import (
    Factorization,
    build_U,
    build_factorization,
    enumerate_rows,
    enumerate_transcripts,
    factor_csvs,
    slack_matrix,
    slack_matrix_csv,
    slack_value,
    sparse_renderer,
    verify_factorization,
)
from sparsity_ef.lifted import format_ine
from sparsity_ef.protocol import alice_choice, bob_orientation, exact_expectation, protocol_targets
from sparsity_ef.sparsity import EnumerationGuardError, enumerate_bases

from conftest import complete_graph, path_graph, wheel_graph

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
    s = list(slack_matrix(K3, P11))
    bases = enumerate_bases(K3, P11)
    assert (len(s), len(bases)) == (3, 3)
    for i, x in enumerate(enumerate_rows(K3, P11)):
        x_edge = K3.index_of(*x)
        for j, basis in enumerate(bases):
            assert s[i][j] == (0 if x_edge in basis else 1)


def test_k4_slack_matrix_zero_one():
    s = list(slack_matrix(K4, P23))
    assert [len(row) for row in s] == [6] * 10
    assert {e for row in s for e in row} == {0, 1}
    assert all(e >= 0 for row in s for e in row)


def test_empty_family_gives_zero_columns():
    assert list(slack_matrix(path_graph(3), P23)) == [[], [], []]
    fac = build_factorization(path_graph(3), P23, "B")
    verify_factorization(fac)  # no basis, so nothing to fail


def test_transcript_counts_and_order():
    ws = enumerate_transcripts(K3, "A")
    assert len(ws) == 2 * 3 * 3
    assert [w.alice for w in ws[:6]] == [(0,)] * 6
    assert [(w.edge, w.head) for w in ws[:4]] == [(0, 1), (0, 0), (1, 2), (1, 0)]
    wb = enumerate_transcripts(K4, "B")
    assert len(wb) == 4 * 3 * 2 * 6 == 144
    assert wb[0].alice == (0, 1)


def test_factorization_dimensions_and_entry_domains():
    """A is a support per row, B is 0/1 byte rows; T = c * A and U = B / c with c = 2 on K3 (1,1)."""
    fac = build_factorization(K3, P11, "A")
    assert fac.c == 2
    a = list(fac.a_rows())
    # each pair X has two entering edges, so two ones among the 18 transcripts
    assert len(a) == 3 and all(type(r) is list and len(r) == 2 and r == sorted(set(r)) for r in a)
    assert {w for row in a for w in row} <= set(range(18))
    assert len(fac.B) == 18 and all(type(r) is bytearray and len(r) == 3 for r in fac.B)
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
        verify_factorization(build_factorization(g, p, variant))


def test_fault_injection_detected():
    fac = build_factorization(K3, P11, "A")
    b = [row.copy() for row in fac.B]
    b[4][1] += fac.c  # U[4][1] += 1
    i = next(i for i, a_row in enumerate(fac.a_rows()) if 4 in a_row)  # the first row that charges transcript 4
    expected = f"basis {fac.cols[1]}: equality row X={fac.rows[i]} has residual {fac.c}"
    with pytest.raises(InfeasibleLiftedPointError, match=f"^{re.escape(expected)}$"):
        verify_factorization(fac._replace(B=b))


def test_global_row_checked_after_the_counting_rows():
    """|F| = c is checked too: on K2 no counting row exists, so only it can reject the empty edge set."""
    k2 = make_graph(2, [(0, 1)])
    fac = build_factorization(k2, P11, bases=[(0,)])
    verify_factorization(fac)
    with pytest.raises(InfeasibleLiftedPointError, match=r"^basis \(\): equality row global has residual -1$"):
        verify_factorization(fac._replace(cols=((),)))
    # on K3 a basis short of an edge fails a counting row first
    fac = build_factorization(K3, P11, "A")
    short = fac.cols[0][:-1]
    with pytest.raises(InfeasibleLiftedPointError, match=re.escape(f"basis {short}: equality row X=")):
        verify_factorization(fac._replace(cols=(short, *fac.cols[1:])))


def test_negative_entry_detected(monkeypatch):
    """No factor holds a negative entry: a byte row of B cannot, a row of ints is refused, and so is a negative index of A."""
    fac = build_factorization(K3, P11, "A")
    with pytest.raises(ValueError):
        fac.B[2][0] = -1
    b = [row.copy() for row in fac.B]
    b[2] = [-1, *b[2][1:]]  # U[2][0] = -1/c
    with pytest.raises(TypeError, match="rows of bytes"):
        verify_factorization(fac._replace(B=b))
    # rows of ints are refused even where their entries are right
    with pytest.raises(TypeError, match="rows of bytes"):
        verify_factorization(fac._replace(B=[list(row) for row in fac.B]))
    a = list(fac.a_rows())
    a[0] = [-1, *a[0][1:]]
    monkeypatch.setattr(Factorization, "a_rows", lambda self: iter(a))
    with pytest.raises(TypeError, match=re.escape("A row X=(0, 1) must be ascending transcript indices in [0, 18)")):
        verify_factorization(fac)


def test_packed_fields_hold_corrupted_entries():
    """B[w][j] = 255 with B[w][j+1] set from 1 to 0 is named with its true residual.

    In fields one byte wide, the left side's field j would carry into
    field j+1, which the lowered B[w][j+1] cancels, and field j would
    read 256 less than its entry.  The fields are sized for the corrupted
    entry instead, and the first row that charges w mismatches at column j
    by 255 - B[w][j].  (w, j) is picked where that carry would happen,
    k|X| - l > B[w][j], which K3 (1,1) has nowhere.
    """
    fac = build_factorization(K4, P11, "A")
    a = list(fac.a_rows())

    def first_row(w):
        return next(i for i, a_row in enumerate(a) if w in a_row)

    w, j = next((w, j) for w, row in enumerate(fac.B) for j in range(len(row) - 1)
                if row[j + 1] == 1 and any(w in a_row for a_row in a) and len(fac.rows[first_row(w)]) - 1 > row[j])
    b = [row.copy() for row in fac.B]
    b[w][j], b[w][j + 1] = 255, 0
    expected = f"basis {fac.cols[j]}: equality row X={fac.rows[first_row(w)]} has residual {255 - fac.B[w][j]}"
    with pytest.raises(InfeasibleLiftedPointError, match=f"^{re.escape(expected)}$"):
        verify_factorization(fac._replace(B=b))


def test_memory_guard_threshold(monkeypatch):
    # the guard reads only the basis count, so placeholder bases suffice
    k8 = complete_graph(8)
    # each Laman graph on 7 vertices, with a new vertex joined to 2 of its 21 pairs, is one on 8
    with pytest.raises(EnumerationGuardError, match="memory guard"):  # K8 (2,3): about 25 GB
        build_U(k8, P23, "B", [None] * (21 * 190491), enumerate_transcripts(k8, "B"))

    class Targeted(Exception):
        pass

    def reached(*args):
        raise Targeted

    monkeypatch.setattr(factorization, "protocol_targets", reached)
    # K8 (1,1) is estimated at 235 MB, K7 (2,3) at 672 MB
    for g, p, variant, bases in ((k8, P11, "A", 8**6), (complete_graph(7), P23, "B", 190491)):
        with pytest.raises(Targeted):  # passes the guard and reaches Bob's targets, made before any orientation
            build_U(g, p, variant, [None] * bases, enumerate_transcripts(g, variant))


def test_build_u_computes_targets_once_per_announcement(monkeypatch):
    """Bob's targets depend only on the announcement, so build_U makes one call per announcement."""
    calls = []
    targets = factorization.protocol_targets

    def counted(n, p, announced):
        calls.append(announced)
        return targets(n, p, announced)

    monkeypatch.setattr(factorization, "protocol_targets", counted)
    for g, p, variant in ((complete_graph(5), P11, "A"), (complete_graph(5), P23, "B")):
        calls.clear()
        fac = build_factorization(g, p, variant)
        assert calls == factorization.announcements(g.n, variant), (p, variant)
        verify_factorization(fac)


def _traced_bytes(build):
    """Bytes still allocated after ``build()`` runs, with the result kept alive."""
    tracemalloc.start()
    try:
        gc.collect()  # drops free lists, which hold memory that no object uses
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        gc.collect()
        traced = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return result, traced


@pytest.mark.parametrize("params, variant", [(P23, "B"), (P11, "A")])
def test_memory_guard_covers_traced_bytes(params, variant, monkeypatch):
    """On K6, build_U's estimate is at least the traced bytes of B and of B packed.

    The orientations are made before tracing starts, which would slow them tenfold.
    """
    g = complete_graph(6)
    bases, transcripts = enumerate_bases(g, params), enumerate_transcripts(g, variant)
    monkeypatch.setattr(factorization, "bob_orientation", functools.cache(factorization.bob_orientation))
    build_U(g, params, variant, bases, transcripts)

    def b_and_packed():
        b = build_U(g, params, variant, bases, transcripts)
        return b, [factorization._pack(row, 1) for row in b]

    (b, packed), traced = _traced_bytes(b_and_packed)
    assert len(packed) == len(b) == len(transcripts)
    estimate = factorization.B_ENTRY_BYTES * len(bases) * len(transcripts)
    assert estimate >= traced, (estimate, traced)


def test_slack_csv_is_written_without_holding_s():
    """S.csv for K6 (2,3) renders line by line within a quarter of S's 8 bytes per entry.

    The bases are enumerated before tracing starts; they are an input, bounded by the enumeration guard.
    """
    g = complete_graph(6)
    bases = enumerate_bases(g, P23)
    bound = 8 * len(enumerate_rows(g, P23)) * len(bases) // 4
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        size = sum(map(len, slack_matrix_csv(g, P23, bases)))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert size > bound  # holding the text alone would break the bound
    assert peak < bound, (peak, bound)


def test_a_rows_needs_every_announced_transcript():
    """A row whose announcement has no transcripts is refused by every reader, not left as a zero row of T."""
    fac = build_factorization(K4, P11, "A", bases=())
    half = len(fac.transcripts) // 2
    cut = fac._replace(transcripts=fac.transcripts[:half], B=fac.B[:half])
    # X = {2, 3} announces vertex 2, dropped with the second half
    with pytest.raises(TypeError, match=re.escape(f"A row X=(2, 3) must be ascending transcript indices in [0, {half})")):
        verify_factorization(cut)
    with pytest.raises(IndexError):
        "".join(format_ine(cut))
    with pytest.raises(IndexError):
        "".join(factor_csvs(cut)[0])


def test_dimension_mismatch_raises(monkeypatch):
    fac = build_factorization(K3, P11, "A")
    with pytest.raises(TypeError, match="B must be 18x2 rows of bytes"):
        verify_factorization(fac._replace(cols=fac.cols[:-1]))
    a = list(fac.a_rows())
    for rows in (a[:-1], [*a, a[0]]):  # a wrong row count is a TypeError, never the ValueError of zip(strict=True)
        monkeypatch.setattr(Factorization, "a_rows", lambda self: iter(rows))
        with pytest.raises(TypeError, match="^A must have 3 rows$"):
            verify_factorization(fac)


def test_a_rows_must_be_0_1_with_at_most_e_ones(monkeypatch):
    """Fields are sized for supports of at most |E| distinct transcripts; any other support is refused as a bug.

    An entry of 2 is a repeated index.  Each corrupted support replaces
    the last row, so every row before it has been checked and summed.
    """
    fac = build_factorization(K4, P11, "A")
    a = list(fac.a_rows())
    last, w = a[-1], len(fac.transcripts)
    assert len(last) == 4 and w == 48  # X = {2, 3}
    corrupted = (
        [last[0], *last],  # an entry of 2
        list(range(7)),  # 7 > |E| = 6 ones
        last[::-1],  # descending
        [-1, *last[1:]],  # before the first transcript
        [*last[:-1], w],  # |W| in place of the last index
        [*last, w],  # |W| appended
    )
    for row in corrupted:
        monkeypatch.setattr(Factorization, "a_rows", lambda self: iter([*a[:-1], row]))
        expected = f"A row X={fac.rows[-1]} must be ascending transcript indices in [0, 48), at most 6 of them"
        with pytest.raises(TypeError, match=f"^{re.escape(expected)}$"):
            verify_factorization(fac)


def test_sparse_renderer_places_text_at_the_support():
    """Each of the ``width`` entries is led by the separator; an index past the row is refused."""
    render = sparse_renderer(4, " ")
    assert render([], "x") == " 0 0 0 0"
    assert render([0, 2], "-12") == " -12 0 -12 0"
    assert render([3], "1") == " 0 0 0 1"
    assert sparse_renderer(3, ",")(range(3), "1/2") == ",1/2,1/2,1/2"
    assert sparse_renderer(0, " ")((), "x") == ""
    with pytest.raises(IndexError):
        render([4], "1")


def test_product_matches_protocol_expectation():
    """T @ U recomputes the exact protocol expectation, route by route (T = c * A, U = B / c)."""
    for g, p, variant in [(K4, P11, "A"), (K4, P23, "B")]:
        fac = build_factorization(g, p, variant)
        a = list(fac.a_rows())
        for i, x in enumerate(fac.rows):
            for j, basis in enumerate(fac.cols):
                cell = sum(fac.c * Fraction(fac.B[w][j], fac.c) for w in a[i])  # T[X][w] = c on the support
                assert cell == exact_expectation(g, p, variant, x, basis)


def test_slack_entries_nonnegative_integers(corpus_cells):
    for name, g, p, bases in corpus_cells:
        s = list(slack_matrix(g, p))
        assert [len(row) for row in s] == [len(bases)] * len(enumerate_rows(g, p)), (name, p)
        assert all(type(e) is int for row in s for e in row), (name, p)
        assert all(e >= 0 for row in s for e in row), (name, p)


def test_product_equals_slack_matrix(corpus_cells):
    """A plain product A @ B equals slack_matrix's S on every cell, an S comparison no command makes."""
    for name, g, p, bases in corpus_cells:
        fac = build_factorization(g, p, bases=bases)
        product = [[sum(fac.B[w][j] for w in support) for j in range(len(bases))] for support in fac.a_rows()]
        assert product == list(slack_matrix(g, p, bases=bases)), (name, p)


def test_a_and_b_follow_their_definitions(corpus_cells):
    """a_rows and build_U match the module docstring's A and B entry by entry, read off each Transcript's fields.

    This pins the transcript index 2|E| i + 2e + flag that both compute.
    """
    for name, g, p, bases in corpus_cells:
        fac = build_factorization(g, p, bases=bases)
        ws = fac.transcripts
        ends = [(w.head, sum(g.edges[w.edge]) - w.head) for w in ws]  # (head, tail)
        a = [[i for i, (w, (head, tail)) in enumerate(zip(ws, ends))
              if w.alice == alice_choice(x, fac.variant) and head in x and tail not in x]
             for x in fac.rows]
        assert list(fac.a_rows()) == a, (name, p)
        for j, basis in enumerate(bases):
            edges = [g.edges[e] for e in basis]
            heads = {alice: dict(zip(basis, bob_orientation(edges, protocol_targets(g.n, p, alice)).heads))
                     for alice in dict.fromkeys(w.alice for w in ws)}
            assert [row[j] for row in fac.B] == [int(heads[w.alice].get(w.edge) == w.head) for w in ws], (name, p, basis)


def test_ine_is_rendered_without_holding_a():
    """K10 (1,1): the factorization over no bases, and every .ine line rendered, peak below half of A's bytes."""
    g = complete_graph(10)
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fac = build_factorization(g, P11, bases=())
        size = sum(map(len, format_ine(fac)))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    bound = len(fac.rows) * len(fac.transcripts) // 2
    assert size > 2 * bound  # the text alone would break the bound
    assert peak < bound, (peak, bound)


def test_slack_csv_golden():
    expected = (
        ",F:0+1,F:0+2,F:1+2\n"
        "X:0+1,0,0,1\n"
        "X:0+2,0,1,0\n"
        "X:1+2,1,0,0\n"
    )
    assert "".join(slack_matrix_csv(K3, P11, enumerate_bases(K3, P11))) == expected


def test_factor_csv_golden_k4():
    """T.csv and U.csv bytes of K4 (2,3), pinned from the Fraction-based implementation."""
    t_csv, u_csv = map("".join, factor_csvs(build_factorization(K4, P23, "B")))
    assert hashlib.sha256(t_csv.encode()).hexdigest() == (
        "c368c0608e08c33647e72cdde5400c64b2f8949252b75503d4f6c89aad519428"
    )
    assert hashlib.sha256(u_csv.encode()).hexdigest() == (
        "74a5c98634ca66b2c32139243ab1fc19ee7f4758b6e9b67c7f811960376b08e4"
    )


# sha256 of U.csv, which holds Bob's orientations, per (graph, k, l, variant)
BOB_U_CSV = {
    ("K3", 1, 0, "auto"): "33ec86f3c0ad3178a8d00fd4171cd00e47d6735a65995c858302988e40d0f33b",
    ("K3", 1, 1, "A"): "5050fcb7fa6722514cdd9f63824d8674ac8936611a37d99172fc10d90408e1d9",
    ("K3", 1, 1, "B"): "289dc25acd67a633377b41c05ebc0f4d03cae421890e4494699245336c69cca4",
    ("K3", 2, 3, "auto"): "e09269c9f7ec12fa14e56d09a8d2b5f1eb13f69540207cb3fbdbc44c4522004f",
    ("K4", 1, 0, "auto"): "3c781d18da18b062b554bda862e59a0e59134ecbd0f68657abdaa4feeeb146cf",
    ("K4", 1, 1, "A"): "ad8e73bf21d7bc74568fa7d25f45e5068e6e96e6ee4fffa1e47bf36129e1b66c",
    ("K4", 1, 1, "B"): "8bf5bc8f372fa503a440099b88a12a7d3b15e4a73565480d5598efbdccec4993",
    ("K4", 2, 2, "A"): "0fa489dfc11501f190602feb5a5da7107773139e7cfb2a2f5b573c1984ef428e",
    ("K4", 2, 2, "B"): "e4833221af39cd1e07c3beedc81de88c388cfe4e2af988fe0b842c849c3193b9",
    ("K4", 2, 3, "auto"): "74a5c98634ca66b2c32139243ab1fc19ee7f4758b6e9b67c7f811960376b08e4",
    ("K5", 1, 0, "auto"): "308ff0e40a3edfacb9956b1dd7d73b9c2d013fb5cfcb4b6135286cfeeb681986",
    ("K5", 1, 1, "A"): "dc821698f249723c59e225dacdd105efdbff8817bf6ac1dda71a0c8ad294d46c",
    ("K5", 1, 1, "B"): "7d177c040edc94e3445c443b774a1526ff93a7ae4e06193e2812fbe031b2510a",
    ("K5", 2, 1, "auto"): "8fef5c1e467f4c4503c04c63ddc99649b7a6864367638f12561e9dd7efaf763a",
    ("K5", 2, 2, "A"): "8c57cf1a04fab1925a977632239ed5bc60217d898c74f0116ecbc0c0f090dc9c",
    ("K5", 2, 2, "B"): "7606663ba4fdb308af98e88d38bd855747ad485370559575933af6c2f2cd5070",
    ("K5", 2, 3, "auto"): "647ab32c71c70fcc22f3770767ac5bd96abab1342408980be48408b1b6d95e45",
    ("K5", 3, 5, "auto"): "3d2fb4c1db0ddf91e7d6cd974868b1974785e48a69edeb61d4e7c5d12811f658",
    ("W5", 1, 0, "auto"): "e0e0e1fec377c7bfe2ffb8e63a86613d2e742e1c5298b463798704d0cb7c943e",
    ("W5", 1, 1, "A"): "a705ec3241fded1aef04d0243aaba78d68c8877009fcf3ba2791e8467157d829",
    ("W5", 1, 1, "B"): "057581bb23b40fef58763bfd4c1c41ae6cb05baf90712ad52c7fbc3db4353f8a",
    ("W5", 2, 2, "A"): "eb433563dc4106357330b8fa3f464848ac9a5d8e26bfbc07f8425573e4f2e6e3",
    ("W5", 2, 2, "B"): "236320435357eec62da0cbde46feb492a3fb59badd54a29971951a0b4b155619",
    ("W5", 2, 3, "auto"): "106ed53c75da814bfb683283035b21fbcb9a39a03d816abca3893ab10902c40b",
    ("prism", 1, 0, "auto"): "c703d20822fb917514d9870edda41ad7d4cd6e91a3e3aea97fd67ba4659cbdc8",
    ("prism", 1, 1, "A"): "ab8d298bbc2d45a82894f4f45b1cb1238cd5df55a066eede745ba4a0a95f38f9",
    ("prism", 1, 1, "B"): "66d11b34abfbe20d7ee37421f69380248ae0a568601301fdde71d5e73a288752",
    ("prism", 2, 3, "auto"): "04c8e09e16afb4115f77765066184aa53fe13d74a5ab4a28c99d3aa208818c4f",
    ("W6", 2, 3, "auto"): "5e3ee4edf39fa276e10807285067545b7d30de1c29067191a91e1df588caf05f",
    ("K6", 3, 5, "auto"): "0c7ebd2e63ae326fe98fe2b8561cd0d01c9a6a494ba9cf9e3e1a2d3a59c42156",
}


def test_bob_orientations_are_pinned(corpus_cells):
    """U.csv bytes on every non-empty corpus cell, W6 (2,3) and K6 (3,5); both variants at k = l."""
    cells = [(name, g, p) for name, g, p, _ in corpus_cells]
    cells += [("W6", wheel_graph(6), P23), ("K6", complete_graph(6), SparsityParams(3, 5))]
    digests = {}
    for name, g, p in cells:
        for variant in ("A", "B") if p.k == p.ell else ("auto",):
            u_csv = "".join(factor_csvs(build_factorization(g, p, variant))[1])
            digests[name, p.k, p.ell, variant] = hashlib.sha256(u_csv.encode()).hexdigest()
    assert digests == BOB_U_CSV
