#!/usr/bin/env python3
"""Build the scheduler and its benchmark from source, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sim_layered, sim_wide_bigp, daemon_online.  `--trace 0` prints
the end-to-end metrics, `--trace 1` the per-layer metrics; the last line of
standard output is the JSON result.  Build output goes to standard error.
See perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGETS = ["./perfbench/main.exe", "./bin/moldable_cli.exe"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main(argv):
    for needed in ("dune-project", "lib", "bin", "perfbench/dune"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die("%s not found: run from a full checkout of the repository" % needed)
    dune = shutil.which("dune")
    if dune is None:
        die("dune not found on PATH")
    try:
        build = subprocess.run(
            # No shared cache: the build writes only under _build.
            [dune, "build", "--root", ROOT, "--profile", "release",
             "--cache=disabled"] + TARGETS,
            cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if build.returncode != 0:
        die("build failed")
    built = os.path.join(ROOT, "_build", "default")
    cmd = [os.path.join(built, "perfbench", "main.exe")] + argv + [
        "--serve", os.path.join(built, "bin", "moldable_cli.exe")]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die("run timed out")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
