"""Traced run: one interpreter runs a workload's commands with spans around public calls.

    python3 perfbench/traced.py COMMANDS.json SPANS.json [--plain]

COMMANDS.json is a list of ``{"argv": [...], "stdout": path, "stderr": path}``.
Each command goes through ``sparsity_ef.cli.main`` in this process.  Before
the first command the public functions below are replaced, in every
``sparsity_ef`` module that holds them, by wrappers that record a span:
``[name, parent span, command, start, end, work]``.  ``work`` is a count
read from the return value after the span has ended.  Calls to
``is_sparse_pebble`` are only counted, as the candidates an enumeration
tested.  Spans stay in memory and are written to SPANS.json at the end,
with each command's exit code and the size of the ``canonical_orientation``
cache when it finished.  That cache is cleared between commands, so each
command starts cold, as it does in its own process.

With ``--plain`` nothing is replaced and no spans are recorded: the same
interpreter-per-workload run without tracing, against which the tracing
overhead is measured.  ``layer_metrics`` turns SPANS.json into the
per-layer metrics.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import sys
import traceback
from collections import Counter, defaultdict
from time import perf_counter


def _nonzeros(matrix, _) -> list[int]:
    return [sum(map(bool, itertools.chain.from_iterable(matrix))), sum(len(row) for row in matrix)]


def _flipped(orientation, _) -> int:
    """Edges whose head is the lower endpoint, i.e. turned from the initial orientation."""
    return sum(head == min(edge) for edge, head in zip(orientation.edges, orientation.heads))


def _ine_size(text: str, _) -> list[int]:
    return [len(text.encode()), int(text.split("\n", 4)[3].split()[0])]


# (module, public function, work count from the result and the pebble-game calls made)
SPANNED = [
    ("sparsity", "enumerate_bases", lambda bases, tested: [len(bases), tested]),
    ("orientation", "orient_with_targets", _flipped),
    ("factorization", "slack_matrix", None),
    ("factorization", "build_T", _nonzeros),
    ("factorization", "build_U", _nonzeros),
    ("factorization", "verify_factorization", None),
    ("factorization", "factor_csvs", lambda csvs, _: sum(len(text.encode()) for text in csvs)),
    ("factorization", "slack_matrix_csv", lambda text, _: len(text.encode())),
    ("lifted", "build_lifted", None),
    ("lifted", "lift_vertex", None),
    ("lifted", "assert_in_lifted", None),
    ("lifted", "verify_extension", None),
    ("lifted", "format_ine", _ine_size),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.command = -1
        self.pebble_calls = 0

    def wrap(self, name, fn, work):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.command, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            calls = self.pebble_calls
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
            if work is not None:
                span[5] = work(result, self.pebble_calls - calls)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "sparsity_ef"]

        def replace(original, wrapper):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

        for module, name, work in SPANNED:
            original = getattr(importlib.import_module(f"sparsity_ef.{module}"), name, None)
            if original is not None:  # a function the program no longer has reads as zero
                replace(original, self.wrap(name, original, work))

        pebble = getattr(importlib.import_module("sparsity_ef.sparsity"), "is_sparse_pebble", None)

        def counted(*args, **kwargs):
            self.pebble_calls += 1
            return pebble(*args, **kwargs)

        if pebble is not None:
            replace(pebble, counted)


def _orientation_cache(protocol):
    """The lru_cache behind canonical_orientation, or None once the program drops it."""
    cached = getattr(protocol, "canonical_orientation", None)
    return cached if hasattr(cached, "cache_info") else None


def run(commands_path: str, spans_path: str, plain: bool) -> None:
    with open(commands_path, encoding="utf-8") as fh:
        commands = json.load(fh)
    from sparsity_ef import cli, protocol

    tracer = Tracer()
    if not plain:
        tracer.install()
    cache = _orientation_cache(protocol)
    records = []
    for i, command in enumerate(commands):
        tracer.command = i
        if cache is not None:
            cache.cache_clear()
        with contextlib.ExitStack() as stack:
            out = stack.enter_context(open(command["stdout"], "w", encoding="utf-8", newline="\n"))
            err = stack.enter_context(open(command["stderr"], "w", encoding="utf-8", newline="\n"))
            stack.enter_context(contextlib.redirect_stdout(out))
            stack.enter_context(contextlib.redirect_stderr(err))
            try:
                code = cli.main(command["argv"])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an uncaught error exits 1, as the console script would
                traceback.print_exc()
                code = 1
        records.append({"exit": code, "cached_orientations": cache.cache_info().currsize if cache is not None else 0})
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"commands": records, "spans": tracer.spans}, fh)


# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("sparsity.enumerate_s", "s", "lower"),
    ("sparsity.enumerate_calls", "count", "lower"),
    ("sparsity.enumerate_repeat_s", "s", "lower"),
    ("sparsity.candidates", "count", "lower"),
    ("sparsity.bases", "count", "lower"),
    ("sparsity.accept_ratio", "ratio", "higher"),
    ("orientation.orient_s", "s", "lower"),
    ("orientation.orientations", "count", "lower"),
    ("orientation.us_per_orientation", "us", "lower"),
    ("orientation.flipped_edges", "count", "lower"),
    ("protocol.cached_orientations", "count", "lower"),
    ("factorization.slack_s", "s", "lower"),
    ("factorization.T_s", "s", "lower"),
    ("factorization.U_s", "s", "lower"),
    ("factorization.check_s", "s", "lower"),
    ("factorization.csv_s", "s", "lower"),
    ("factorization.T_nnz", "count", "lower"),
    ("factorization.U_nnz", "count", "lower"),
    ("factorization.U_density", "ratio", "lower"),
    ("factorization.csv_bytes", "bytes", "lower"),
    ("lifted.build_s", "s", "lower"),
    ("lifted.lift_s", "s", "lower"),
    ("lifted.residual_s", "s", "lower"),
    ("lifted.audit_s", "s", "lower"),
    ("lifted.verify_s", "s", "lower"),
    ("lifted.format_s", "s", "lower"),
    ("lifted.ine_bytes", "bytes", "lower"),
    ("lifted.ine_rows", "count", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.nested_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.plain_wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.slowest_cmd_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def layer_metrics(record: dict, traced_wall_s: float, plain_wall_s: float, untraced: list[float]) -> dict:
    """Per-layer values from a SPANS.json record and the timings of the workload.

    ``traced_wall_s`` and ``plain_wall_s`` time one interpreter running every
    command with and without spans, ``untraced`` holds each command's wall
    time in a pass of one process per command; the overhead is traced over
    plain, since both save the same interpreter starts.

    Layer times are inclusive span totals, so a call nested in another
    traced call counts in both layers: ``trace.nested_s`` is the time so
    counted twice, and ``sparsity.enumerate_repeat_s`` the time spent
    enumerating the same instance again within one command.
    ``lifted.audit_s`` is the self time of ``verify_extension``: its span
    minus the traced calls made directly inside it.
    """
    spans = record["spans"]
    busy: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    work: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    child_s: dict[int, float] = defaultdict(float)
    seen_enumerate: set[int] = set()
    repeat_s = nested_s = 0.0
    for name, parent, command, start, end, count in spans:
        duration = end - start
        busy[name] += duration
        calls[name] += 1
        if parent >= 0:
            child_s[parent] += duration
            nested_s += duration
        if isinstance(count, int):
            count = [count, 0]
        if count is not None:
            work[name][0] += count[0]
            work[name][1] += count[1]
        if name == "enumerate_bases":
            if command in seen_enumerate:
                repeat_s += duration
            seen_enumerate.add(command)
    audit_s = sum(
        (end - start - child_s[i]
         for i, (name, _, _, start, end, _) in enumerate(spans)
         if name == "verify_extension"),
        0.0,
    )
    bases, candidates = work["enumerate_bases"]
    orientations = calls["orient_with_targets"]
    u_nnz, u_cells = work["build_U"]
    values = {
        "sparsity.enumerate_s": busy["enumerate_bases"],
        "sparsity.enumerate_calls": calls["enumerate_bases"],
        "sparsity.enumerate_repeat_s": repeat_s,
        "sparsity.candidates": candidates,
        "sparsity.bases": bases,
        "sparsity.accept_ratio": bases / candidates if candidates else 0.0,
        "orientation.orient_s": busy["orient_with_targets"],
        "orientation.orientations": orientations,
        "orientation.us_per_orientation": (
            1e6 * busy["orient_with_targets"] / orientations if orientations else 0.0
        ),
        "orientation.flipped_edges": work["orient_with_targets"][0],
        "protocol.cached_orientations": max(c["cached_orientations"] for c in record["commands"]),
        "factorization.slack_s": busy["slack_matrix"],
        "factorization.T_s": busy["build_T"],
        "factorization.U_s": busy["build_U"],
        "factorization.check_s": busy["verify_factorization"],
        "factorization.csv_s": busy["factor_csvs"] + busy["slack_matrix_csv"],
        "factorization.T_nnz": work["build_T"][0],
        "factorization.U_nnz": u_nnz,
        "factorization.U_density": u_nnz / u_cells if u_cells else 0.0,
        "factorization.csv_bytes": work["factor_csvs"][0] + work["slack_matrix_csv"][0],
        "lifted.build_s": busy["build_lifted"],
        "lifted.lift_s": busy["lift_vertex"],
        "lifted.residual_s": busy["assert_in_lifted"],
        "lifted.audit_s": audit_s,
        "lifted.verify_s": busy["verify_extension"],
        "lifted.format_s": busy["format_ine"],
        "lifted.ine_bytes": work["format_ine"][0],
        "lifted.ine_rows": work["format_ine"][1],
        "trace.spans": len(spans),
        "trace.nested_s": nested_s,
        "trace.traced_wall_s": traced_wall_s,
        "trace.plain_wall_s": plain_wall_s,
        "trace.untraced_wall_s": sum(untraced),
        "trace.slowest_cmd_s": max(untraced),
        "trace.overhead_ratio": traced_wall_s / plain_wall_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


if __name__ == "__main__":
    if len(sys.argv) not in (3, 4) or sys.argv[3:] not in ([], ["--plain"]):
        sys.exit("usage: traced.py COMMANDS.json SPANS.json [--plain]")
    run(sys.argv[1], sys.argv[2], plain=len(sys.argv) == 4)
