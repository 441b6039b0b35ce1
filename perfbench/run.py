#!/usr/bin/env python3
"""Build and run the wall-clock benchmark.

    python3 perfbench/run.py --workload bulk|online|deploy --seed N \
        --seconds S --trace 0|1

Run from anywhere: the checkout is the directory above this file. The
benchmark is built from source with dune (build output goes to standard
error), then run; its last line of standard output is the JSON result.
The exit code is the benchmark's, or non-zero if the checkout cannot be
built.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")


def main():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        print("perfbench: no dune-project in %s; nothing to build" % ROOT, file=sys.stderr)
        return 2
    # The shared dune cache lives outside the checkout; keep the build
    # inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    run = subprocess.run([EXE, "--root", ROOT] + sys.argv[1:], cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
