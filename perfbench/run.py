#!/usr/bin/env python3
"""Pipeline benchmark for the `sparsity-ef` command line.

Run from the root of a checkout (the package is taken from ``src/``):

    python3 perfbench/run.py --workload enumerate-emit --seed 1 --seconds 45 --trace 0

One client runs the workload's commands in a closed loop, each in a fresh
process, and checks every output with ``checks.py``.  Passes over the
command list repeat while another pass, as long as the last one, fits in
``--seconds`` of command time; there is always one pass, and none is cut.  Before the passes, ``sparsity-ef --help`` is timed
several times as the set-up cost (process start plus package import).

Each command's time is its best over the run's passes.  On a shared
machine the same command's wall time moves by a third from one call to
the next as neighbours load the cores; the best of several calls moves far
less, and it is the number a code change can move.

With ``--trace 0`` the end-to-end metrics are reported:

    wall_s         sum over the commands of each one's best wall time
    peak_rss_mb    largest peak RSS of any one command, from os.wait4
    setup_s        median wall time of `sparsity-ef --help`
    ok_frac        commands that exited as expected and passed their check,
                   over commands attempted

With ``--trace 1`` one untraced pass is followed by interpreter-per-workload
runs (``traced.py``) with and without spans, and the per-layer metrics are
reported.

The last line of stdout is the JSON result; progress and problems go to
stderr.  Outputs are written under ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import checks
import traced
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCH = "import sys; from sparsity_ef.cli import main; sys.exit(main())"
SETUP_REPEATS = 7
COMMAND_TIMEOUT_S = 170  # a command still running after this is killed and fails
RUN_LIMIT_S = 120  # no further pass is started when it could end past this
TRACE_REPEATS = 2  # plain and traced interpreter runs, alternated, in a traced run

END_TO_END = [
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("ok_frac", "ratio"),
]


class Runner:
    """Runs CLI commands as child processes of one client and tallies failures."""

    def __init__(self, root: str, workdir: str):
        self.root = root
        self.workdir = workdir
        # a fixed hash seed keeps set order, and so the work done, the same on every call
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAIL {label}: {problem}", file=sys.stderr)

    def spawn(self, argv, name: str):
        """(exit code, wall seconds, peak RSS in MB, stdout text) of one child process."""
        out_path = os.path.join(self.workdir, name + ".out")
        with open(out_path, "wb") as out, open(os.path.join(self.workdir, name + ".err"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not by Popen
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout

    def cli(self, argv, name: str):
        return self.spawn([sys.executable, "-c", LAUNCH, *argv], name)

    def setup(self) -> float:
        """Median wall time of `sparsity-ef --help`, after one untimed byte-compiling call."""
        times = []
        for i in range(SETUP_REPEATS + 1):
            code, wall, _, stdout = self.cli(["--help"], "help")
            ok = code == 0 and stdout.startswith("usage: sparsity-ef")
            self.record("--help", [] if ok else [f"exit code {code} or no usage text"])
            if i:
                times.append(wall)
        return statistics.median(times)

    def one_pass(self, commands) -> list[tuple[float, float]]:
        """(wall seconds, peak RSS in MB) of each command in one checked pass."""
        results = []
        for i, cmd in enumerate(commands):
            code, wall, peak, stdout = self.cli(cmd.argv, f"cmd{i:02d}")
            self.record(cmd.label, checks.check(cmd, code, stdout))
            print(f"  {wall:8.3f} s {peak:7.1f} MB  {cmd.label}", file=sys.stderr)
            results.append((wall, peak))
        return results


def timed_run(runner: Runner, commands, seconds: int) -> dict:
    setup_s = runner.setup()
    started = time.perf_counter()
    passes = []
    measured = 0.0
    while True:
        passes.append(runner.one_pass(commands))
        last = sum(wall for wall, _ in passes[-1])
        measured += last
        if measured + last > seconds or time.perf_counter() - started + last > RUN_LIMIT_S:
            break
    best = [min(p[i][0] for p in passes) for i in range(len(commands))]
    values = {
        "wall_s": sum(best),
        "peak_rss_mb": max(peak for p in passes for _, peak in p),
        "setup_s": setup_s,
        "ok_frac": (runner.attempted - runner.failed) / runner.attempted,
    }
    print(f"  {len(passes)} passes", file=sys.stderr)
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def traced_run(runner: Runner, commands) -> dict:
    """One untraced pass, then alternately plain and traced interpreter runs; best of each."""
    untraced = [wall for wall, _ in runner.one_pass(commands)]
    spec = [
        {
            "argv": list(cmd.argv),
            "stdout": os.path.join(runner.workdir, f"inprocess{i:02d}.out"),
            "stderr": os.path.join(runner.workdir, f"inprocess{i:02d}.err"),
        }
        for i, cmd in enumerate(commands)
    ]
    spec_path = os.path.join(runner.workdir, "inprocess_commands.json")
    spans_path = os.path.join(runner.workdir, "spans.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    walls = {"plain": [], "traced": []}
    for _ in range(TRACE_REPEATS):
        for mode in walls:
            argv = [sys.executable, os.path.join(HERE, "traced.py"), spec_path, spans_path]
            code, wall, _, _ = runner.spawn(argv + (["--plain"] if mode == "plain" else []), mode)
            if code != 0:
                runner.record(f"{mode} interpreter run", [f"exit code {code}"])
                return {}
            walls[mode].append(wall)
            with open(spans_path, encoding="utf-8") as fh:
                record = json.load(fh)
            if mode == "traced":
                spans = record
            for cmd, item, result in zip(commands, spec, record["commands"]):
                with open(item["stdout"], encoding="utf-8", errors="replace") as fh:
                    runner.record(f"{cmd.label} ({mode})", checks.check(cmd, result["exit"], fh.read()))
    print(f"  traced {walls['traced']}, plain {walls['plain']}, untraced {sum(untraced):.3f} s",
          file=sys.stderr)
    return traced.layer_metrics(spans, min(walls["traced"]), min(walls["plain"]), untraced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sparsity_ef", "cli.py")):
        print("error: src/sparsity_ef not found; run from the root of a sparsity-ef checkout",
              file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".perfbench_work")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    commands = workloads.build(args.workload, args.seed, os.path.relpath(workdir, root))
    runner = Runner(root, workdir)
    print(f"{args.workload} seed={args.seed} trace={args.trace}", file=sys.stderr)
    if args.trace:
        metrics = traced_run(runner, commands)
    else:
        metrics = timed_run(runner, commands, args.seconds)
    if not metrics:
        return 1
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
