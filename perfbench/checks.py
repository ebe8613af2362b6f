"""Output checks for each benchmarked command, independent of the package under test.

Nothing here imports ``sparsity_ef``.  Expected sizes come from the
closed-form counts of the construction, basis families are checked with
the numpy counting oracle below, and files whose bytes are pinned are
compared by sha256.  Each check returns a list of problems; an empty list
means the output is right.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

import numpy as np


def counting_rows(n: int) -> int:
    """Vertex sets X with 2 <= |X| <= n-1: the slack matrix's rows."""
    return (1 << n) - n - 2


def transcript_count(n: int, m: int, variant: str) -> int:
    return 2 * n * m if variant == "A" else 2 * n * (n - 1) * m


class SparsityOracle:
    """(k,l)-sparsity of many edge subsets at once, by the counting inequalities.

    A subset F is sparse when |F ∩ E(X)| <= max(k|X| - l, 0) for every
    vertex set X with |X| >= 2; all 2^n sets are checked with one integer
    matrix product per block of subsets.
    """

    BLOCK = 20000

    def __init__(self, n: int, edges, k: int, ell: int):
        sets = [x for x in range(1 << n) if x.bit_count() >= 2]
        self.inside = np.array(
            [[(x >> u) & (x >> v) & 1 for x in sets] for u, v in edges], dtype=np.int32
        )
        self.rhs = np.array([max(k * x.bit_count() - ell, 0) for x in sets], dtype=np.int32)

    def sparse(self, subsets: np.ndarray) -> np.ndarray:
        """One boolean per row of an (N, c) array of distinct edge indices."""
        out = np.empty(len(subsets), dtype=bool)
        for start in range(0, len(subsets), self.BLOCK):
            block = subsets[start:start + self.BLOCK]
            incidence = np.zeros((len(block), self.inside.shape[0]), dtype=np.int32)
            np.put_along_axis(incidence, block, 1, axis=1)
            out[start:start + len(block)] = ((incidence @ self.inside) <= self.rhs).all(axis=1)
        return out


def _lines(text: str) -> list[str]:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_bases(cmd, stdout: str) -> list[str]:
    """Sorted, unique, right-sized, all sparse, and as many as the pinned count.

    A set of distinct sparse c-subsets as large as the whole basis family
    is the basis family, so nothing is missing either.
    """
    lines = _lines(stdout)
    if not lines or not lines[-1].isdigit():
        return ["last line is not the basis count"]
    body = lines[:-1]
    problems = []
    if int(lines[-1]) != len(body):
        problems.append(f"count line says {lines[-1]}, {len(body)} bases printed")
    if len(body) != cmd.bases:
        problems.append(f"{len(body)} bases printed, expected {cmd.bases}")
    if not body:
        return problems
    c = cmd.k * cmd.n - cmd.ell
    if any(line.count(",") != c - 1 for line in body):
        return problems + [f"a basis does not have {c} edges"]
    try:
        arr = np.array(",".join(body).split(","), dtype=np.int64).reshape(len(body), c)
    except ValueError:
        return problems + ["a basis has a non-integer edge index"]
    if arr.min() < 0 or arr.max() >= len(cmd.edges):
        return problems + ["edge index out of range"]
    if c > 1 and not (arr[:, 1:] > arr[:, :-1]).all():
        problems.append("a basis is not strictly increasing")
    step = arr[1:] - arr[:-1]
    changed = step != 0
    first = changed.argmax(axis=1)
    if not (changed.any(axis=1) & (step[np.arange(len(step)), first] > 0)).all():
        problems.append("bases are not sorted and unique")
    dependent = int((~SparsityOracle(cmd.n, cmd.edges, cmd.k, cmd.ell).sparse(arr)).sum())
    if dependent:
        problems.append(f"{dependent} printed bases are not ({cmd.k},{cmd.ell})-sparse")
    return problems


def read_matrix(path: str):
    """(row labels, column labels, integer matrix, denominator) of a CSV of p or p/q."""
    with open(path, encoding="utf-8") as fh:
        lines = _lines(fh.read())
    header = lines[0].split(",")
    if header[0] != "":
        raise ValueError(f"{path}: header does not start with an empty cell")
    tokens = set()
    for line in lines[1:]:
        tokens.update(line.split(",")[1:])
    values = {t: Fraction(t) for t in tokens}
    den = math.lcm(*(v.denominator for v in values.values())) if values else 1
    scaled = {t: int(v * den) for t, v in values.items()}
    labels = []
    matrix = np.zeros((len(lines) - 1, len(header) - 1), dtype=np.int64)
    for i, line in enumerate(lines[1:]):
        parts = line.split(",")
        if len(parts) != len(header):
            raise ValueError(f"{path}: row {i} has {len(parts) - 1} entries, header has {len(header) - 1}")
        labels.append(parts[0])
        matrix[i] = [scaled[t] for t in parts[1:]]
    return labels, header[1:], matrix, den


def check_factorize(cmd, stdout: str) -> list[str]:
    """Printed verdict and sizes, pinned S.csv, and T@U = S recomputed from the CSVs."""
    rows = counting_rows(cmd.n)
    w = transcript_count(cmd.n, len(cmd.edges), cmd.variant)
    lines = set(_lines(stdout))
    problems = [
        f"missing line {want!r}"
        for want in (
            f"variant: {cmd.variant}",
            f"slack matrix: {rows}x{cmd.bases}",
            f"transcripts: {w}",
            "verified: yes",
        )
        if want not in lines
    ]
    try:
        if _sha256(cmd.out + ".S.csv") != cmd.sha256:
            problems.append("S.csv differs from the pinned sha256")
        s_rows, s_cols, s, s_den = read_matrix(cmd.out + ".S.csv")
        t_rows, t_cols, t, t_den = read_matrix(cmd.out + ".T.csv")
        u_rows, u_cols, u, u_den = read_matrix(cmd.out + ".U.csv")
    except (OSError, ValueError, ZeroDivisionError) as exc:
        return problems + [f"unreadable CSV: {exc}"]
    if s.shape != (rows, cmd.bases) or t.shape != (rows, w) or u.shape != (w, cmd.bases):
        return problems + [f"shapes S{s.shape} T{t.shape} U{u.shape}"]
    if t_rows != s_rows or u_cols != s_cols or t_cols != u_rows:
        problems.append("row and column labels of S, T and U do not line up")
    if (t < 0).any() or (u < 0).any():
        problems.append("a factor has a negative entry")
    # integers stay exact: |entries| * inner dimension must fit in int64
    if int(np.abs(t).max()) * int(np.abs(u).max()) * w >= 2**62:
        return problems + ["factor entries too large to check in int64"]
    if not np.array_equal((t @ u) * s_den, s * (t_den * u_den)):
        problems.append("T@U does not equal S")
    return problems


def check_verify(cmd, stdout: str) -> list[str]:
    """The JSON report passes, counts the pinned bases and names the instance."""
    if cmd.exit_code != 0:
        return ["empty-polytope cell printed a report"] if stdout.strip() else []
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return ["stdout is not a JSON report"]
    problems = []
    if report.get("pass") is not True:
        problems.append('report does not say "pass": true')
    if report.get("counts", {}).get("bases") != cmd.bases:
        problems.append(f"report counts {report.get('counts', {}).get('bases')} bases, expected {cmd.bases}")
    instance = {"n": cmd.n, "edge_count": len(cmd.edges), "k": cmd.k, "ell": cmd.ell}
    if report.get("instance") != instance:
        problems.append(f"report instance {report.get('instance')} is not {instance}")
    if report.get("variant") != cmd.variant:
        problems.append(f"report variant {report.get('variant')} is not {cmd.variant}")
    return problems


def check_emit(cmd, stdout: str) -> list[str]:
    """Printed sizes, pinned .ine bytes and the H-representation header."""
    m = len(cmd.edges)
    w = transcript_count(cmd.n, m, cmd.variant)
    eq, ineq = counting_rows(cmd.n) + 1, m + w
    problems = []
    if stdout.strip() != f"wrote {cmd.out} ({eq} equalities + {ineq} inequalities)":
        problems.append(f"unexpected stdout {stdout.strip()[:120]!r}")
    try:
        if _sha256(cmd.out) != cmd.sha256:
            problems.append(".ine differs from the pinned sha256")
        with open(cmd.out, encoding="utf-8") as fh:
            lines = _lines(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        return problems + [f"unreadable .ine: {exc}"]
    header = [
        "H-representation",
        " ".join(["linearity", str(eq), *(str(i) for i in range(1, eq + 1))]),
        "begin",
        f"{eq + ineq} {1 + m + w} rational",
    ]
    if lines[:4] != header or lines[-1:] != ["end"] or len(lines) != 5 + eq + ineq:
        problems.append(f"H-representation header or row count is not {eq}+{ineq} rows x {1 + m + w}")
    return problems


CHECKS = {
    "bases": check_bases,
    "factorize": check_factorize,
    "verify": check_verify,
    "emit": check_emit,
}


def check(cmd, exit_code: int, stdout: str) -> list[str]:
    """Every problem with one command's result; the exit code is checked first."""
    if exit_code != cmd.exit_code:
        return [f"exit code {exit_code}, expected {cmd.exit_code}"]
    return CHECKS[cmd.kind](cmd, stdout)
