#!/usr/bin/env python3
"""Run one workload of the perfbench benchmark, from the repository root.

    python3 perfbench/run.py --workload online-batch --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --self-test --seed 1

Builds perfbench/perfbench.exe with dune in its own build profile (the
first run in a checkout also builds the libraries it links), runs it in
.perfbench-work/<workload>/ and passes its standard output through. The
last line of standard output is the result JSON. Exits non-zero, printing
no result, when the build or the run fails or overruns its time limit.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

WORK = ".perfbench-work"
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
BUILD_LIMIT_S = 700
RUN_LIMIT_S = 170


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    return None


def run(cmd, limit_s, stdout):
    """Run cmd to completion within limit_s seconds; kill it otherwise."""
    proc = subprocess.Popen(cmd, stdout=stdout)
    try:
        out, _ = proc.communicate(timeout=limit_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} overran {limit_s}s", file=sys.stderr)
        return None, None
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    dune = dune_command()
    if dune is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    build = dune + ["build", "--root", ".", "--cache=disabled",
                    "--profile", "perfbench", "perfbench/perfbench.exe"]
    start = time.monotonic()
    code, _ = run(build, BUILD_LIMIT_S, sys.stderr)
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    print(f"perfbench: built in {time.monotonic() - start:.1f}s",
          file=sys.stderr)

    name = "self-test" if args.self_test else args.workload
    cmd = [EXE, "--seed", str(args.seed), "--dir", os.path.join(WORK, name)]
    if args.self_test:
        cmd.append("--self-test")
    else:
        cmd += ["--workload", args.workload, "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
    os.makedirs(WORK, exist_ok=True)
    code, out = run(cmd, RUN_LIMIT_S, subprocess.PIPE)
    if code is None:
        return 1
    text = out.decode()
    if code != 0:
        sys.stderr.write(text)
        print(f"perfbench: run exited with {code}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
