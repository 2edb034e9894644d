#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds bin/psc.exe and
perfbench/bench.exe with dune, then runs the benchmark, whose last line of
standard output is the JSON result.  Exits non-zero, without a result, when
the build fails (for example outside a checkout of this repository).
"""

import os
import shutil
import subprocess
import sys

TARGETS = ["./bin/psc.exe", "./perfbench/bench.exe"]


def main():
    dune = shutil.which("dune")
    if dune is None:
        sys.stderr.write("perfbench: dune not found on PATH\n")
        return 2
    if not os.path.isfile("dune-project"):
        sys.stderr.write("perfbench: run from the root of a checkout\n")
        return 2
    build = subprocess.run(
        [dune, "build", "--root", ".", "--display", "quiet"] + TARGETS,
        stdin=subprocess.DEVNULL,
        stdout=sys.stderr,
        stderr=sys.stderr,
        timeout=900,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1
    bench = os.path.join("_build", "default", "perfbench", "bench.exe")
    psc = os.path.join("_build", "default", "bin", "psc.exe")
    return subprocess.run(
        [bench, "--psc", psc] + sys.argv[1:], stdin=subprocess.DEVNULL, timeout=600
    ).returncode


if __name__ == "__main__":
    sys.exit(main())
