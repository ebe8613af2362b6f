import hashlib
import random
import re
from fractions import Fraction

import pytest

from sparsity_ef import factorization
from sparsity_ef.factorization import Factorization, build_factorization, enumerate_rows, factor_csvs
from sparsity_ef.graphs import SparsityParams, make_graph
from sparsity_ef.protocol import resolve_variant, transcript_count
from sparsity_ef.lifted import (
    EmptyPolytopeError,
    InfeasibleLiftedPointError,
    format_ine,
    ine_size,
    verify_extension,
)
from sparsity_ef.sparsity import enumerate_bases, require_basis

from conftest import b_matrix, b_rule, complete_graph, path_graph
from lift_reference import LiftedPoint, assert_in_lifted, check_projection, equality_residuals, lift_vertex

K3 = complete_graph(3)
K4 = complete_graph(4)
P11 = SparsityParams(1, 1)
P23 = SparsityParams(2, 3)


def lift(g, p, variant="auto"):
    """The lifted system alone: the factorization over no bases."""
    return build_factorization(g, p, variant, bases=())


def test_build_counts_k3():
    fac = lift(K3, P11, "A")
    assert (K3.edge_count, transcript_count(K3, "A")) == (3, 18)
    assert ine_size(K3, P11, "A") == (4, 21)
    assert fac.cols == () and [fac.B(i) for i in range(3)] == [[bytearray()] * 6] * 3


def test_build_counts_k4_variant_b():
    fac = lift(K4, P23, "B")
    assert (K4.edge_count, transcript_count(K4, "B"), len(b_matrix(fac))) == (6, 144, 144)
    assert ine_size(K4, P23, "B") == (11, 150)


def test_build_counts_single_edge():
    g = make_graph(2, [(0, 1)])
    fac = lift(g, P11, "A")
    assert (g.edge_count, transcript_count(g, "A")) == (1, 4)
    assert list(fac.a_rows()) == []
    assert fac.c == 1
    point = lift_vertex(fac, (0,))
    assert point.x == (1,)
    assert_in_lifted(fac, point)
    assert check_projection(fac, point)


def test_empty_polytope_refused():
    with pytest.raises(EmptyPolytopeError):
        require_basis(path_graph(3), P23)
    with pytest.raises(EmptyPolytopeError):
        verify_extension(build_factorization(path_graph(3), P23, "B"))


def test_verify_extension_refuses_no_bases():
    """A factorization without columns certifies nothing: refused, not passed with 0 bases."""
    with pytest.raises(ValueError, match="no bases"):
        verify_extension(lift(K4, P23, "B"))


def test_verify_extension_refuses_no_bases_of_empty_instance():
    with pytest.raises(EmptyPolytopeError):
        verify_extension(lift(path_graph(3), P23, "B"))


def test_lift_vertex_k3_example():
    fac = lift(K3, P11, "A")
    point = lift_vertex(fac, (1, 2))
    assert point.x == (0, 1, 1)
    assert sorted(point.y).count(Fraction(1, 2)) == 6
    assert sum(1 for v in point.y if v == 0) == 12
    assert_in_lifted(fac, point)


def test_all_lifts_feasible_with_zero_residuals():
    for g, p, variant in [(K3, P11, "A"), (K4, P23, "B"), (K4, P11, "A")]:
        fac = lift(g, p, variant)
        for basis in enumerate_bases(g, p):
            point = lift_vertex(fac, basis)
            assert all(r == 0 for _, r in equality_residuals(fac, point))
            assert check_projection(fac, point)


def test_convex_combination_projects_into_polytope():
    fac = lift(K4, P11, "A")
    bases = enumerate_bases(K4, P11)
    lifts = [lift_vertex(fac, b) for b in bases[:4]]
    weights = [Fraction(1, 8), Fraction(3, 8), Fraction(1, 4), Fraction(1, 4)]
    x = tuple(sum((w * l.x[i] for w, l in zip(weights, lifts)), Fraction(0)) for i in range(K4.edge_count))
    transcripts = transcript_count(K4, "A")
    y = tuple(sum((w * l.y[i] for w, l in zip(weights, lifts)), Fraction(0)) for i in range(transcripts))
    assert check_projection(fac, LiftedPoint(x, y))


def test_infeasible_point_is_distinct_diagnostic():
    fac = lift(K3, P11, "A")
    point = lift_vertex(fac, (1, 2))
    bad_y = list(point.y)
    bad_y[0] -= 1
    with pytest.raises(InfeasibleLiftedPointError, match="y\\[0\\]"):
        check_projection(fac, LiftedPoint(point.x, tuple(bad_y)))
    with pytest.raises(InfeasibleLiftedPointError, match="residual"):
        check_projection(fac, LiftedPoint(point.x, tuple(Fraction(0) for _ in point.y)))
    with pytest.raises(InfeasibleLiftedPointError, match="shape"):
        assert_in_lifted(fac, LiftedPoint((Fraction(0),), point.y))


def test_verify_extension_reports():
    rep = verify_extension(build_factorization(K3, P11, "A"))
    assert rep["pass"]
    assert rep["counts"]["inequality_count"] == 21
    assert rep["bounds"]["protocol_size_bound"] == 32
    assert rep["counts"]["ine_rows"] == 25

    rep = verify_extension(build_factorization(K4, P11, "A"))
    assert rep["pass"] and rep["counts"]["bases"] == 16

    rep = verify_extension(build_factorization(K4, P23, "B"))
    assert rep["pass"]
    assert rep["counts"]["inequality_count"] == 150
    assert rep["bounds"]["protocol_size_bound"] == 256


def test_format_ine_k3_structure():
    text = "".join(format_ine(lift(K3, P11, "A")))
    lines = text.splitlines()
    assert lines[0] == "H-representation"
    assert lines[1] == "linearity 4 1 2 3 4"
    assert lines[2] == "begin"
    assert lines[3] == "25 22 rational"
    assert lines[-1] == "end"
    assert len(lines) == 5 + 25
    # first row: X=(0,1) holds edge 0 and two entering transcripts at weight 2
    first = lines[4].split()
    assert first[0] == "1" and first[1] == "-1"
    assert first.count("-2") == 2
    # global equality row
    assert lines[7].split() == ["2", "-1", "-1", "-1"] + ["0"] * 18


def test_emit_is_byte_deterministic():
    a, b = "".join(format_ine(lift(K4, P23, "B"))), "".join(format_ine(build_factorization(K4, P23, "B")))
    assert a == b  # the T side alone: the bases do not change the text
    assert len(a.splitlines()) == 5 + 161


def test_single_edge_ine_vertices_project_correctly():
    """Tiny instance cross-check: the lifted system pins x to the lone basis."""
    g = make_graph(2, [(0, 1)])
    fac = lift(g, P11, "A")
    lines = "".join(format_ine(fac)).splitlines()
    assert lines[1] == "linearity 1 1"
    assert lines[3] == "6 6 rational"
    # the global equality forces x0 = 1 for any feasible point
    point = lift_vertex(fac, (0,))
    assert point.x == (1,)


def test_ine_is_pinned_on_sixteen_vertices():
    """C16 (1,1), the 16-cycle with the chords 0-8 and 1-9: 65,518 equality rows, hashed as they stream."""
    g = make_graph(16, [(i, (i + 1) % 16) for i in range(16)] + [(0, 8), (1, 9)])
    fac = lift(g, P11)
    digest, size = hashlib.sha256(), 0
    for line in format_ine(fac):
        data = line.encode()
        digest.update(data)
        size += len(data)
    assert (ine_size(g, P11, fac.variant)[0], size) == (65518 + 1, 80537913)
    assert digest.hexdigest() == "7b799af141760803cd3be2993fa7ec7aa7f4c8f957388b320716ffc0aeb01a34"


def test_t_csv_rows_are_the_negated_y_blocks_of_the_ine(corpus_cells):
    """Each row of T.csv is minus the y-block of its .ine equality row, in both variants where both exist."""
    for name, g, p, _ in corpus_cells:
        for variant in ("A", "B") if p.k == p.ell else ("auto",):
            fac = lift(g, p, variant)
            rows = 2**g.n - g.n - 2
            equalities = list(format_ine(fac))[4:4 + rows]
            t_rows = list(factor_csvs(fac)[0])[1:]
            assert len(equalities) == len(t_rows) == rows, (name, p, variant)
            for line, t_row in zip(equalities, t_rows):
                y_block = line.split()[1 + g.edge_count:]
                assert [-int(v) for v in y_block] == [int(v) for v in t_row.split(",")[1:]], (name, p, variant)


def test_sizes_are_the_written_headers_and_rows(corpus_cells):
    """ine_size and transcript_count equal the .ine and T.csv as written, on every corpus cell in both variants.

    Each count is read twice: from the header, and from the rows and columns written.
    """
    for name, g, p, _ in corpus_cells:
        for variant in ("A", "B") if p.k == p.ell else (resolve_variant(p),):
            fac = lift(g, p, variant)
            (eq, ineq), w = ine_size(g, p, variant), transcript_count(g, variant)
            lines = "".join(format_ine(fac)).splitlines()
            assert lines[1] == " ".join(["linearity", str(eq), *map(str, range(1, eq + 1))]), (name, p, variant)
            assert lines[3] == f"{eq + ineq} {1 + g.edge_count + w} rational", (name, p, variant)
            assert len(lines) == 5 + eq + ineq, (name, p, variant)
            assert {len(line.split()) for line in lines[4:-1]} == {1 + g.edge_count + w}, (name, p, variant)
            assert [line.split()[0] for line in lines[4:4 + eq]] == [
                str(p.k * len(x) - p.ell) for x in enumerate_rows(g, p)] + [str(fac.c)], (name, p, variant)
            t_csv, u_csv = (list(csv) for csv in factor_csvs(fac))
            assert len(t_csv[0].split(",")) == 1 + w and len(t_csv) == eq, (name, p, variant)
            assert {len(row.split(",")) for row in t_csv[1:]} == {1 + w}, (name, p, variant)
            assert len(u_csv) == 1 + w, (name, p, variant)


def _first_failures(monkeypatch, fac, edges, column):
    """The error messages of verify_extension and of the Fraction reference for one lift.

    Both lift the edge set with the given B-column: ``factorization.build_factorization``
    hands out Bob's rule for that column, to the factorization and to ``lift_vertex``
    alike.  None means no error.
    """
    build = factorization.build_factorization
    rows = [bytearray([v]) for v in column]
    monkeypatch.setattr(factorization, "build_factorization",
                        lambda *args, **kwargs: build(*args, **kwargs)._replace(B=b_rule(rows, fac.graph.edge_count)))
    found = []
    for run in (
        lambda: verify_extension(factorization.build_factorization(fac.graph, fac.params, fac.variant, bases=[edges])),
        lambda: assert_in_lifted(fac, lift_vertex(fac, edges)),
    ):
        try:
            run()
        except (InfeasibleLiftedPointError, TypeError) as exc:
            found.append(str(exc))
        else:
            found.append(None)
    new, reference = found
    return new, None if reference is None else f"basis {edges}: {reference}"


def _perturbed_inputs(fac, bases, rng):
    """Every basis with its own B-column, then a few corrupted (edge set, column) pairs.

    A corrupted column holds a flipped entry or a 2; B is bytes, so no entry can be negative.
    """
    g = fac.graph
    columns = b_matrix(build_factorization(g, fac.params, fac.variant, bases=bases))
    inputs = [(basis, [row[j] for row in columns]) for j, basis in enumerate(bases)]
    for _ in range(3):
        j = rng.randrange(len(bases))
        basis, column = bases[j], [row[j] for row in columns]
        flipped, doubled = column.copy(), column.copy()
        w = rng.randrange(len(columns))
        flipped[w] = 1 - flipped[w]
        doubled[w] = 2
        inputs += [(basis, flipped), (basis, doubled), (basis[:-1], column)]
        outside = [e for e in range(g.edge_count) if e not in basis]
        if outside:
            swapped = set(basis) - {rng.choice(basis)} | {rng.choice(outside)}
            inputs += [(tuple(sorted(swapped)), column), (tuple(sorted(basis + (outside[0],))), column)]
    return inputs


def test_batched_checks_match_fraction_reference(corpus_cells, monkeypatch):
    """verify_extension fails exactly where the reference lift_vertex + assert_in_lifted does, at the same row.

    Covers every basis of the K3/K4/W5/prism cells, bases with a flipped
    B entry or an entry of 2, with one edge swapped and of the wrong size, and
    the single-edge graph, which has no counting rows, so only |F| = c
    can reject its empty edge set.  B is 0/1 by rule: a column with a 2 is
    refused as a malformed block wherever a row reads that block, and
    passes, as in the reference, where no row does.
    """
    rng = random.Random(7)
    single = make_graph(2, [(0, 1)])
    cells = [(name, g, p, bases) for name, g, p, bases in corpus_cells
             if name in ("K3", "K4", "W5", "prism")]
    cells.append(("K2", single, P11, [(0,)]))
    outcomes = set()
    for name, g, p, bases in cells:
        fac = lift(g, p)
        block = 2 * g.edge_count
        read = {w // block for _, support in fac.a_rows() for w in support}  # the blocks a row charges
        for edges, column in _perturbed_inputs(fac, bases, rng):
            new, reference = _first_failures(monkeypatch, fac, edges, column)
            if 2 in column and column.index(2) // block in read:
                i = column.index(2) // block
                assert new == f"B({i}) must be {block} rows of 0/1 bytes, each 1 long", (name, p, edges)
                outcomes.add("malformed")
                continue
            assert new == reference, (name, p, edges)
            failure = new and re.search(r": (equality row X=|equality row global)", new)
            outcomes.add(failure.group(1) if failure else new)
    assert outcomes == {None, "equality row X=", "equality row global", "malformed"}


def test_verify_extension_catches_flipped_u_entry():
    # the first transcript a row charges
    w = min(min(support) for _, support in lift(K4, P23, "B").a_rows() if support)
    fac = build_factorization(K4, P23, "B")
    b = b_matrix(fac)
    b[w][0] = 1 - b[w][0]
    basis = enumerate_bases(K4, P23)[0]
    with pytest.raises(InfeasibleLiftedPointError, match=re.escape(f"basis {basis}: equality row X=")):
        verify_extension(fac._replace(B=b_rule(b, K4.edge_count)))


def test_verify_extension_catches_corrupted_t_entry(monkeypatch):
    """Row 3 of A charges one more transcript, one that the first basis's U-column uses."""
    bases = enumerate_bases(K4, P23)
    fac = lift(K4, P23, "B")
    x, support = list(fac.a_rows())[3]
    column = b_matrix(build_factorization(K4, P23, "B", bases=bases[:1]))
    w = next(i for i, row in enumerate(column) if row[0] and i not in support)
    real_a_rows = Factorization.a_rows

    def corrupted(self):
        for i, (x, row) in enumerate(real_a_rows(self)):
            yield x, sorted([*row, w]) if i == 3 else row

    monkeypatch.setattr(Factorization, "a_rows", corrupted)
    expected = f"basis {bases[0]}: equality row X={x} has residual"
    with pytest.raises(InfeasibleLiftedPointError, match=re.escape(expected)):
        verify_extension(build_factorization(K4, P23, "B"))


def test_verify_extension_catches_negative_t_entry(monkeypatch):
    """T = c * A cannot hold a negative entry: a support with a negative index is refused."""
    real_a_rows = Factorization.a_rows

    def negative(self):
        a = list(real_a_rows(self))
        x, support = a[0]
        a[0] = x, [-1, *support[1:]]
        return iter(a)

    monkeypatch.setattr(Factorization, "a_rows", negative)
    with pytest.raises(TypeError, match=re.escape("A row X=(0, 1) must be ascending transcript indices in [0, 144)")):
        verify_extension(build_factorization(K4, P23, "B"))
