"""Acceptance suite: one test per shipped guarantee, one PASS line each.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The corpus is {K3, K4, K5, W5, prism} x {(1,0), (1,1), (2,1),
(2,2), (2,3), (3,3), (3,5)}, with empty-basis-family cells skipped; all
checks are exact (integer/rational, zero tolerance) except the Monte
Carlo criterion, which has its stated 4-sigma / 19-of-20 budget.
"""

import itertools
import json
import random

from sparsity_ef import cli
from sparsity_ef.graphs import SparsityParams
from sparsity_ef.factorization import (
    build_factorization,
    enumerate_rows,
    slack_value,
    verify_factorization,
)
from sparsity_ef.orientation import InfeasibleOrientationError, orient_with_targets
from sparsity_ef.protocol import (
    announcements,
    bit_complexity,
    exact_expectation,
    monte_carlo,
    protocol_targets,
    resolve_variant,
    transcript_count,
)
from sparsity_ef.lifted import verify_extension
from sparsity_ef.sparsity import (
    enumerate_bases,
    is_sparse_bruteforce,
    is_sparse_pebble,
)

from conftest import (
    PARAM_GRID,
    b_matrix,
    complete_graph,
    hakimi_violation,
    oriented,
    random_graph,
    spanning_tree_count,
)


def _ok(num, label, detail):
    print(f"ACCEPTANCE {num:>2}/11 {label}: PASS ({detail})")


def test_c01_unbiasedness_suite(corpus_cells):
    """Exact expectation equals the slack for every admissible (X, F)."""
    cells = 0
    for name, g, p, bases in corpus_cells:
        variant = resolve_variant(p, "auto")
        for x in enumerate_rows(g, p):
            for basis in bases:
                expectation = exact_expectation(g, p, variant, x, basis)
                slack = slack_value(g, p, x, basis)
                assert expectation == slack, (name, p, x, basis)
                cells += 1
    _ok(1, "unbiasedness", f"{cells} (X,F) cells, zero tolerance")


def test_c02_factorization_exactness(corpus_cells):
    checked = 0
    for name, g, p, bases in corpus_cells:
        variant = resolve_variant(p, "auto")
        fac = build_factorization(g, p, variant)
        expected_w = (
            2 * g.n * g.edge_count
            if variant == "A"
            else 2 * g.n * (g.n - 1) * g.edge_count
        )
        assert transcript_count(g, variant) == len(b_matrix(fac)) == expected_w, (name, p)
        verify_factorization(fac)  # raises on the first lift that fails a row
        checked += 1
    _ok(2, "factorization exactness", f"{checked} instances, T@U = S exactly")


def test_c03_orientation_lemmas(corpus_cells):
    constructed = 0
    for name, g, p, bases in corpus_cells:
        variants = [v for v, legal in (("A", p.k >= p.ell), ("B", p.k <= p.ell)) if legal]
        for basis in bases:
            edges = [g.edges[i] for i in basis]
            for variant in variants:
                for alice in announcements(g.n, variant):
                    targets = protocol_targets(g.n, p, alice)
                    heads = orient_with_targets(g.n, edges, targets)
                    assert oriented(g.n, edges, heads)[0] == targets, (name, p, basis, alice)
                    constructed += 1
    _ok(3, "orientation lemmas", f"{constructed} prescribed orientations, zero failures")


def test_c04_hakimi_equivalence():
    rng = random.Random(4202)
    graphs = [random_graph(rng, rng.randint(2, 6)) for _ in range(200)]
    disagreements = 0
    cells = 0
    for g in graphs:
        edges = list(g.edges)
        for trial in range(50):
            if trial % 2 == 0 and edges:
                targets = [0] * g.n
                for _ in range(len(edges)):
                    targets[rng.randrange(g.n)] += 1
            else:
                targets = [rng.randint(0, 3) for _ in range(g.n)]
            by_enum = (
                sum(targets) == len(edges)
                and hakimi_violation(g.n, edges, targets) is None
            )
            try:
                heads = orient_with_targets(g.n, edges, targets)
                constructive = True
                assert oriented(g.n, edges, heads)[0] == tuple(targets)
            except InfeasibleOrientationError:
                constructive = False
            if constructive != by_enum:
                disagreements += 1
            cells += 1
    assert disagreements == 0
    _ok(4, "hakimi equivalence", f"{cells} (graph,target) cells, zero disagreements")


def test_c05_sparsity_oracle_equivalence():
    checks = 0
    for n in range(2, 6):
        g = complete_graph(n)
        pool = range(g.edge_count)
        for r in range(g.edge_count + 1):
            for subset in itertools.combinations(pool, r):
                for k, ell in PARAM_GRID:
                    p = SparsityParams(k, ell)
                    assert is_sparse_pebble(g, p, subset) == is_sparse_bruteforce(
                        g, p, subset
                    ), (n, p, subset)
                    checks += 1
    rng = random.Random(5001)
    for _ in range(10**4):
        g = random_graph(rng, rng.randint(2, 7))
        subset = [i for i in range(g.edge_count) if rng.random() < 0.6]
        p = SparsityParams(*rng.choice(PARAM_GRID))
        assert is_sparse_pebble(g, p, subset) == is_sparse_bruteforce(g, p, subset), (
            g,
            p,
            subset,
        )
        checks += 1
    _ok(5, "sparsity oracle equivalence", f"{checks} dual checks, zero disagreements")


def test_c06_known_counts():
    k3, k4 = complete_graph(3), complete_graph(4)
    assert len(enumerate_bases(k3, SparsityParams(1, 1))) == 3
    trees = len(enumerate_bases(k4, SparsityParams(1, 1)))
    assert trees == 16 == spanning_tree_count(k4)
    laman = enumerate_bases(k4, SparsityParams(2, 3))
    by_literal_oracle = [
        f
        for f in itertools.combinations(range(6), 5)
        if is_sparse_bruteforce(k4, SparsityParams(2, 3), f)
    ]
    assert len(laman) == 6 and laman == by_literal_oracle
    _ok(6, "known counts", "K3/(1,1)=3, K4/(1,1)=16 (matrix-tree), K4/(2,3)=6")


def test_c07_extension_verification(corpus_cells):
    verified = 0
    for name, g, p, bases in corpus_cells:
        variant = resolve_variant(p, "auto")
        report = verify_extension(build_factorization(g, p, variant, bases=bases))
        assert report["pass"], (name, p)
        n, m = g.n, g.edge_count
        upper = m if 2 * p.k - p.ell >= 2 else 0  # the x_e <= 1 rows
        expected_ineq = m + upper + (2 * n * m if variant == "A" else 2 * n * (n - 1) * m)
        assert report["counts"]["inequality_count"] == expected_ineq, (name, p)
        bits = bit_complexity(g, variant)
        assert report["bounds"]["bit_complexity"] == bits
        assert report["counts"]["y_vars"] <= 2**bits, (name, p)
        counts, bounds = report["counts"], report["bounds"]
        assert counts["equality_rows"] == 2**n - n - 1, (name, p)
        assert counts["ine_rows"] == counts["equality_rows"] + counts["inequality_count"], (name, p)
        assert counts["inequality_count"] <= bounds["size_bound"], (name, p)
        verified += 1
    _ok(7, "extension verification", f"{verified} instances, all lifts exact")


def test_c08_size_theorems_at_desk_scale(corpus_cells):
    for name, g, p, bases in corpus_cells:
        variant = resolve_variant(p, "auto")
        n, m = g.n, g.edge_count
        inequality_count = m + (
            2 * n * m if variant == "A" else 2 * n * (n - 1) * m
        )
        bound = 3 * n * m if variant == "A" else 3 * n * n * m
        assert inequality_count <= bound, (name, p)
    _ok(8, "size theorems", "inequalities <= 3n|E| (A) / 3n^2|E| (B) on all instances")


def test_c09_monte_carlo_sanity(corpus_cells):
    candidates = []
    for name, g, p, bases in corpus_cells:
        variant = resolve_variant(p, "auto")
        for x in enumerate_rows(g, p):
            for basis in bases:
                if slack_value(g, p, x, basis) > 0:
                    candidates.append((name, g, p, variant, x, basis))
    rng = random.Random(20250809)
    chosen = rng.sample(candidates, 20)
    failures = []
    for i, (name, g, p, variant, x, basis) in enumerate(chosen):
        exact = exact_expectation(g, p, variant, x, basis)
        result = monte_carlo(g, p, variant, x, basis, samples=10**5, seed=1000 + i)
        if result.stderr == 0.0 or abs(float(result.mean - exact)) > 4 * result.stderr:
            failures.append((name, p, x, basis))
    assert len(failures) <= 1, failures
    _ok(9, "monte carlo sanity", f"{20 - len(failures)}/20 cells within 4 sigma")


def test_c10_matroid_exchange(corpus_cells):
    pairs = 0
    for name, g, p, bases in corpus_cells:
        family = set(bases)
        for f1 in bases:
            set1 = set(f1)
            for f2 in bases:
                if f1 == f2:
                    continue
                set2 = set(f2)
                for e in set1 - set2:
                    base_minus = set1 - {e}
                    assert any(
                        tuple(sorted(base_minus | {f})) in family for f in set2 - set1
                    ), (name, p, f1, f2, e)
                pairs += 1
    _ok(10, "matroid exchange", f"{pairs} ordered basis pairs, zero violations")


def test_c11_emit_determinism(tmp_path, capsys):
    checked = []
    for graph, k, ell in [
        (complete_graph(3), 1, 1),
        (complete_graph(4), 2, 3),
        (complete_graph(4), 1, 0),
    ]:
        gpath = tmp_path / f"g{len(checked)}.json"
        gpath.write_text(json.dumps({"n": graph.n, "edges": graph.edges}))
        outputs = []
        for run in range(2):
            out = tmp_path / f"{gpath.stem}_{run}.ine"
            code = cli.main(
                ["emit", "--graph", str(gpath), "--k", str(k), "--l", str(ell), "--out", str(out)]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        checked.append((k, ell))
    capsys.readouterr()
    _ok(11, "emit determinism", f"{len(checked)} instances byte-identical across runs")
