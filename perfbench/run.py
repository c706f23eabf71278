#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload cold-paper --seed 1 --seconds 30 --trace 0

It builds perfbench/main.exe with dune (shared dune cache off, so nothing is
written outside the checkout), then runs it with the given arguments plus
``--nproc`` set to the number of CPUs this process may use.  The last line
of standard output is the JSON result.  Exits non-zero without a result when
the checkout cannot be built.
"""

import os
import subprocess
import sys


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release", "./perfbench/main.exe"],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--nproc" not in args:
        args += ["--nproc", str(len(os.sched_getaffinity(0)))]
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    child = subprocess.Popen([exe] + args)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
