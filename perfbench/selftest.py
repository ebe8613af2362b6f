#!/usr/bin/env python3
"""Shows that every output check can fail: each is fed corrupted program output.

Run from the root of a checkout, like run.py:

    python3 perfbench/selftest.py

It runs five small commands of the benchmark's workloads once, confirms
their real output passes, then corrupts the exit code, stdout or output
files one way at a time and confirms the check reports a problem.  Exits 1
if any corruption goes unnoticed or any real output fails.
"""

from __future__ import annotations

import os
import shutil
import sys

import checks
import workloads
from run import Runner

failures = 0


def expect(name: str, problems: list[str], should_fail: bool) -> None:
    global failures
    ok = bool(problems) == should_fail
    failures += not ok
    detail = problems[0] if problems else "no problem found"
    print(f"{'ok ' if ok else 'BAD'} {name}: {detail}")


def corrupted(cmd, code, stdout, name, files=None, new_code=None, new_stdout=None):
    """Check cmd against altered output; ``files`` maps path -> (old, new) bytes to swap in."""
    files = files or {}
    saved = {}
    for path, (old, new) in files.items():
        with open(path, "rb") as fh:
            saved[path] = fh.read()
        if old not in saved[path]:
            raise SystemExit(f"{path} does not contain {old!r}")
        with open(path, "wb") as fh:
            fh.write(saved[path].replace(old, new))
    try:
        problems = checks.check(
            cmd,
            code if new_code is None else new_code,
            stdout if new_stdout is None else new_stdout,
        )
    finally:
        for path, data in saved.items():
            with open(path, "wb") as fh:
                fh.write(data)
    expect(f"{cmd.label}: {name}", problems, True)


def main() -> int:
    root = os.getcwd()
    workdir = os.path.join(root, ".perfbench_work")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    rel = os.path.relpath(workdir, root)
    bases, _, _, emit = workloads.build("enumerate-emit", 0, rel)  # K7 (1,1) both
    commands = workloads.build("factorize-verify", 0, rel)
    factorize, verify, empty = commands[3], commands[5], commands[9]  # K5 (2,2), (1,1), (3,3)

    runner = Runner(root, workdir)
    results = {}
    for i, cmd in enumerate((bases, factorize, verify, empty, emit)):
        code, _, _, stdout = runner.cli(cmd.argv, f"self{i}")
        results[cmd.label] = (code, stdout)
        expect(f"{cmd.label}: real output", checks.check(cmd, code, stdout), False)

    code, out = results[bases.label]
    lines = out.split("\n")
    corrupted(bases, code, out, "exit code 1", new_code=1)
    corrupted(bases, code, out, "count line off by one",
              new_stdout=out.replace("\n16807\n", "\n16806\n"))
    corrupted(bases, code, out, "last basis dropped",
              new_stdout="\n".join(lines[:-3] + lines[-2:]))
    corrupted(bases, code, out, "two bases swapped",
              new_stdout="\n".join([lines[1], lines[0], *lines[2:]]))
    # edges 0, 1 and 6 of K7 are the triangle 0-1-2; the line order stays sorted
    corrupted(bases, code, out, "first basis made dependent",
              new_stdout=out.replace("0,1,2,3,4,5\n", "0,1,2,3,4,6\n", 1))

    code, out = results[factorize.label]
    u_csv, s_csv = factorize.out + ".U.csv", factorize.out + ".S.csv"
    corrupted(factorize, code, out, "exit code 2", new_code=2)
    corrupted(factorize, code, out, "verdict says no",
              new_stdout=out.replace("verified: yes", "verified: no"))
    corrupted(factorize, code, out, "S.csv byte changed", files={s_csv: (b",0,", b",1,")})
    corrupted(factorize, code, out, "U doubled", files={u_csv: (b"1/8", b"1/4")})
    corrupted(factorize, code, out, "U entry negative", files={u_csv: (b",1/8", b",-1/8")})

    code, out = results[verify.label]
    corrupted(verify, code, out, "exit code 2", new_code=2)
    corrupted(verify, code, out, "pass false",
              new_stdout=out.replace('"pass": true', '"pass": false'))
    corrupted(verify, code, out, "basis count off by one",
              new_stdout=out.replace('"bases": 125', '"bases": 124'))
    code, out = results[empty.label]
    corrupted(empty, code, out, "exit code 1 instead of 4", new_code=1)
    corrupted(empty, code, out, "exit code 0 instead of 4", new_code=0)

    code, out = results[emit.label]
    corrupted(emit, code, out, "exit code 1", new_code=1)
    corrupted(emit, code, out, "printed size wrong",
              new_stdout=out.replace("315 inequalities", "314 inequalities"))
    corrupted(emit, code, out, ".ine row changed", files={emit.out: (b"\n0 1 0", b"\n0 2 0")})
    corrupted(emit, code, out, ".ine header changed", files={emit.out: (b"435 316 rational", b"434 316 rational")})

    print(f"{failures} check(s) misbehaved")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
