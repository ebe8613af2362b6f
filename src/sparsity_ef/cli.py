"""Batch command-line front end.

Subcommands: check, bases, orient, protocol, slack, factorize, emit,
verify.  Exit codes form the CI contract:

    0  success (for `check`: oracles agree and the set is sparse; for
       `protocol --mode exact`: expectation matches the slack; for
       `emit --verify` / `verify`: full PASS)
    1  usage errors (argparse's, which would otherwise exit 2),
       parse/validation errors, inadmissible inputs, negative verdicts
    2  internal cross-check failure (sparsity oracle disagreement,
       expectation/slack mismatch, a failed lift check in `factorize`,
       `verify` or `emit --verify`, reported in the same `error:` line
       by all three, a refused orientation of a basis) — a bug trap,
       not a user error; also any exception outside this list
       ("error: internal failure: ...")
    3  enumeration, vertex or memory guard exceeded
    4  empty polytope (no basis exists)

All numeric output is exact except the Monte Carlo standard error: ints,
and p/q in lowest terms in U.csv and the Monte Carlo mean.  Every command
refuses more than 2^16 vertices (graphs.MAX_VERTICES, exit 3) when it
reads its instance, before any per-vertex state is built.  --max-enum
overrides the basis-enumeration guard, and a negative value is a usage
error (exit 1); `check`, `orient` and `protocol` enumerate no basis and
refuse it (exit 1).
`slack`, `factorize`, `verify` and `emit --verify` refuse a graph with
more than 16 vertices (exit 3), then an instance without a basis (exit 4,
decided by one pebble game), before they enumerate any basis; so
`slack` and `factorize` exit 4 on an empty polytope, as `verify` and
`emit` do, and an empty instance exits 4 whatever --max-enum says.

`factorize`, `verify` and `emit --verify` build one factorization over
every basis and make one check on it, `verify_factorization`: every
basis F lifts to (1_F, U-column of F) with zero residual on each row of
the `.ine`, as `Factorization.rows` gives both.  A counting row is then
S = A@B with 0/1 factors A = T/c and B = cU, so T@U = S with T, U >= 0;
the global row, X = V, is |F| = c = kn - l.  No
command holds S: `slack` and `factorize --out` write it row by row as
each row is computed, as `emit` writes the `.ine`.  The lifts certify
that the lifted polytope contains every basis and that its projection
satisfies the counting inequalities and x >= 0; x <= 1 is an emitted
bound row where 2k - l >= 2 and follows from the rows |X| = 2 elsewhere.
The `.ine` is the T side of the factorization.  No command holds T: each
reader builds its rows as it reaches them, so `emit --verify` builds T
twice, and checks before it writes.  The check holds one block of B at a
time; only `factorize --out` holds every block, built before the check
for U.csv.  `factorize` checks before its first line of output.  A
regular output file that fails mid-write is removed.  Plain `emit` needs
no certificate: it refuses an empty instance (exit 4, one pebble game),
then more than 16 vertices (exit 3), and writes the factorization over
no bases.  It enumerates no basis, so the enumeration guard does not
apply and `emit --max-enum 1` exits 0.
`verify --seed` is accepted for old command lines and has no effect.

No command imports numpy, nor `inspect` and what it loads; the package
has no runtime dependency.  Each command imports what it runs: loading
`factorization`, `lifted` and `protocol` up front would add about 2 ms
to every start, 10–13 ms where it compiles the source; `fractions` (2–3
ms) is loaded only for U.csv and the Monte Carlo mean (`python -X
importtime`, CPython 3.11).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (
    EmptyPolytopeError,
    EnumerationGuardError,
    GraphError,
    InfeasibleLiftedPointError,
    InfeasibleOrientationError,
    InstanceError,
)
from .graphs import Graph, SparsityParams, load_graph_file, validate_instance
from .sparsity import enumerate_bases, is_sparse_bruteforce, is_sparse_pebble, require_basis, tight_cardinality

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MISMATCH = 2
EXIT_GUARD = 3
EXIT_EMPTY = 4


def _parse_int_list(text: str, what: str) -> list[int]:
    if text.strip() == "":
        return []
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"could not parse {what} list {text!r}: expected comma-separated integers") from None


def _parse_edge_list(g: Graph, text: str) -> list[int]:
    """Edge subsets as comma-separated indices, or u-v endpoint pairs."""
    out = []
    if text.strip() == "":
        return out
    for tok in text.split(","):
        tok = tok.strip()
        try:
            ends = [int(end) for end in tok.split("-", 1)]
        except ValueError:
            raise ValueError(f"could not parse edge {tok!r}: expected an index or u-v pair") from None
        if len(ends) == 2:
            out.append(g.index_of(*ends))
        else:
            (idx,) = ends
            if not (0 <= idx < g.edge_count):
                raise ValueError(f"edge index {idx} outside 0..{g.edge_count - 1}")
            out.append(idx)
    return out


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(text)  # argparse reports it as a usage error
    return value


def _load_instance(args) -> tuple[Graph, SparsityParams]:
    g = load_graph_file(args.graph)
    p = SparsityParams(args.k, args.l)
    validate_instance(g, p)
    return g, p


def cmd_check(args) -> int:
    g, p = _load_instance(args)
    subset = _parse_edge_list(g, args.edges) if args.edges is not None else list(range(g.edge_count))
    pebble = is_sparse_pebble(g, p, subset)
    brute = is_sparse_bruteforce(g, p, subset)
    print(f"sparse[pebble]: {'yes' if pebble else 'no'}")
    print(f"sparse[bruteforce]: {'yes' if brute else 'no'}")
    if pebble != brute:
        print("ORACLE DISAGREEMENT")
        return EXIT_MISMATCH
    tight = pebble and len(set(subset)) == tight_cardinality(g, p)  # from the one game already played
    print(f"tight: {'yes' if tight else 'no'}")
    return EXIT_OK if pebble else EXIT_INVALID


def cmd_bases(args) -> int:
    g, p = _load_instance(args)
    bases = enumerate_bases(g, p, max_enum=args.max_enum)
    names = [str(i) for i in range(g.edge_count)]
    sys.stdout.writelines(",".join([names[i] for i in basis]) + "\n" for basis in bases)
    print(len(bases))
    return EXIT_OK


def cmd_orient(args) -> int:
    from .orientation import orient_with_targets
    from .protocol import protocol_targets

    g, p = _load_instance(args)
    subset = _parse_edge_list(g, args.edges) if args.edges is not None else list(range(g.edge_count))
    if args.targets is not None:
        targets = _parse_int_list(args.targets, "targets")
    elif args.x is not None:
        targets = protocol_targets(g.n, p, (args.x,) if args.y is None else (args.x, args.y))
    elif args.y is not None:
        raise ValueError("--y needs --x")
    else:
        raise ValueError("need --targets, or --x (variant A), or --x and --y (variant B)")
    edges = [g.edges[i] for i in sorted(set(subset))]
    heads = orient_with_targets(g.n, edges, targets)
    rho = [0] * g.n
    for (u, v), head in zip(edges, heads):
        print(f"{u + v - head}->{head}")
        rho[head] += 1
    print("rho: " + ",".join(map(str, rho)))
    return EXIT_OK


def cmd_protocol(args) -> int:
    from .factorization import slack_value
    from .protocol import exact_expectation, monte_carlo, resolve_variant

    g, p = _load_instance(args)
    variant = resolve_variant(p, args.variant)
    x_set = _parse_int_list(args.X, "vertex")
    basis = _parse_edge_list(g, args.F)
    if args.mode == "exact":
        expectation = exact_expectation(g, p, variant, x_set, basis)
        slack = slack_value(g, p, x_set, basis)
        match = expectation == slack
        print(f"expectation: {expectation}")
        print(f"slack: {slack}")
        print("MATCH" if match else "MISMATCH")
        return EXIT_OK if match else EXIT_MISMATCH
    result = monte_carlo(g, p, variant, x_set, basis, args.samples, args.seed)
    print(f"mean: {result.mean}")
    print(f"stderr: {result.stderr!r}")
    print(f"samples: {result.samples}")
    print(f"seed: {args.seed}")
    return EXIT_OK


def _write(path, lines) -> None:
    """Write an iterable of lines, each ending in a newline, as a UTF-8 file with LF line ends.

    If writing or closing raises, a regular file (not a symlink or a device) at ``path`` is removed.
    """
    fh = open(path, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.writelines(lines)
    except BaseException:
        if os.path.isfile(path) and not os.path.islink(path):
            os.unlink(path)
        raise


def _bases_for_rows(g: Graph, p: SparsityParams, args) -> list:
    """Every basis, for a command that also needs the rows.

    Refuses too many vertices (exit 3), then an empty polytope (exit 4), before enumerating.
    """
    from .factorization import check_row_count

    check_row_count(g)
    require_basis(g, p)
    return enumerate_bases(g, p, max_enum=args.max_enum)


def cmd_slack(args) -> int:
    from .factorization import slack_matrix_csv

    g, p = _load_instance(args)
    lines = slack_matrix_csv(g, p, _bases_for_rows(g, p, args))
    if args.out:
        _write(args.out, lines)
        print(f"wrote {args.out}")
    else:
        sys.stdout.writelines(lines)
    return EXIT_OK


def cmd_factorize(args) -> int:
    from .factorization import build_factorization, factor_csvs, row_count, slack_matrix_csv, verify_factorization
    from .protocol import announcements, resolve_variant, transcript_count

    g, p = _load_instance(args)
    variant = resolve_variant(p, args.variant)
    bases = _bases_for_rows(g, p, args)
    fac = build_factorization(g, p, variant, bases=bases)
    if args.out:  # every block of B, built before the check and held for U.csv, so a refused game writes nothing
        fac = fac._replace(B=[fac.B(i) for i in range(len(announcements(g.n, variant)))].__getitem__)
    verify_factorization(fac)  # before the first line of output, so a failed check or refused game prints nothing
    print(f"variant: {variant}")
    print(f"slack matrix: {row_count(g.n)}x{len(fac.cols)}")
    print(f"transcripts: {transcript_count(g, variant)}")
    print("verified: yes")
    if args.out:
        t_csv, u_csv = factor_csvs(fac)
        for suffix, lines in (("S.csv", slack_matrix_csv(g, p, bases)), ("T.csv", t_csv), ("U.csv", u_csv)):
            path = f"{args.out}.{suffix}"
            _write(path, lines)
            print(f"wrote {path}")
    return EXIT_OK


def cmd_emit(args) -> int:
    from .factorization import build_factorization
    from .lifted import format_ine, ine_size, verify_extension
    from .protocol import resolve_variant

    g, p = _load_instance(args)
    variant = resolve_variant(p, args.variant)
    if args.verify:
        bases = _bases_for_rows(g, p, args)
    else:  # the .ine is the T side alone: emptiness is one pebble game and no basis is enumerated
        require_basis(g, p)
        bases = ()
    fac = build_factorization(g, p, variant, bases=bases)
    # checked before the .ine is written, so a refused or failed --verify writes nothing
    report = verify_extension(fac) if args.verify else None
    _write(args.out, format_ine(fac))
    equalities, inequalities = ine_size(g, p, variant)
    print(f"wrote {args.out} ({equalities} equalities + {inequalities} inequalities)")
    if report is not None:
        print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_verify(args) -> int:
    from .factorization import build_factorization
    from .lifted import verify_extension
    from .protocol import resolve_variant

    g, p = _load_instance(args)
    variant = resolve_variant(p, args.variant)
    report = verify_extension(build_factorization(g, p, variant, bases=_bases_for_rows(g, p, args)))
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        _write(args.out, [text + "\n"])
        print(f"wrote {args.out}")
    print(text)
    return EXIT_OK


def _add_instance_args(sp, *, enumerates: bool = False) -> None:
    sp.add_argument("--graph", required=True, help="path to a graph JSON file")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)
    if enumerates:
        sp.add_argument("--max-enum", type=nonnegative_int, default=None, help="basis enumeration guard override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsity-ef",
        description="Sparsity-matroid base polytopes: oracles, protocols, factorizations, extended formulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="run both sparsity oracles on an edge subset")
    _add_instance_args(sp)
    sp.add_argument("--edges", default=None, help="edge subset (indices or u-v pairs); default: all edges")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("bases", help="enumerate all tight spanning edge sets")
    _add_instance_args(sp, enumerates=True)
    sp.set_defaults(func=cmd_bases)

    sp = sub.add_parser("orient", help="orient an edge subset to prescribed in-degrees")
    _add_instance_args(sp)
    sp.add_argument("--edges", default=None, help="edge subset; default: all edges")
    sp.add_argument("--x", type=int, default=None, help="announced vertex (variant A targets)")
    sp.add_argument("--y", type=int, default=None, help="second announced vertex (variant B targets)")
    sp.add_argument("--targets", default=None, help="explicit in-degree targets, comma-separated")
    sp.set_defaults(func=cmd_orient)

    sp = sub.add_parser("protocol", help="run one protocol cell exactly or by sampling")
    _add_instance_args(sp)
    sp.add_argument("--variant", choices=["auto", "A", "B"], default="auto")
    sp.add_argument("--X", required=True, help="Alice's vertex set, comma-separated")
    sp.add_argument("--F", required=True, help="Bob's basis (edge indices or u-v pairs)")
    sp.add_argument("--mode", choices=["exact", "mc"], default="exact")
    sp.add_argument("--samples", type=int, default=100000)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_protocol)

    sp = sub.add_parser("slack", help="print or save the slack matrix CSV")
    _add_instance_args(sp, enumerates=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_slack)

    sp = sub.add_parser("factorize", help="build and verify the slack factorization")
    _add_instance_args(sp, enumerates=True)
    sp.add_argument("--variant", choices=["auto", "A", "B"], default="auto")
    sp.add_argument("--out", default=None, help="prefix for S/T/U CSV dumps")
    sp.set_defaults(func=cmd_factorize)

    sp = sub.add_parser("emit", help="write the lifted polytope as an .ine file")
    _add_instance_args(sp, enumerates=True)
    sp.add_argument("--variant", choices=["auto", "A", "B"], default="auto")
    sp.add_argument("--out", required=True)
    sp.add_argument("--verify", action="store_true", help="also run the full verification report")
    sp.set_defaults(func=cmd_emit)

    sp = sub.add_parser("verify", help="run the extension verification report")
    _add_instance_args(sp, enumerates=True)
    sp.add_argument("--variant", choices=["auto", "A", "B"], default="auto")
    sp.add_argument("--seed", type=int, default=0, help="accepted for old command lines; no effect")
    sp.add_argument("--out", default=None, help="write the JSON report here as well")
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code == 2:  # argparse's usage error, already reported on stderr
            return EXIT_INVALID
        raise
    try:
        return args.func(args)
    except EnumerationGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except EmptyPolytopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except (AssertionError, RuntimeError, InfeasibleLiftedPointError) as exc:
        # a failed verification or internal consistency check, not a user error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except InfeasibleOrientationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.witness is not None:
            print(f"violating vertex set: {sorted(exc.witness)}", file=sys.stderr)
        return EXIT_INVALID
    except (GraphError, InstanceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:
        # any other exception is a bug in the package, never bad input
        print(f"error: internal failure: {exc!r}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
