#!/usr/bin/env python3
"""Build permbench from this checkout's sources and run one workload.

    python3 bench/e2e/run.py --workload wire-8k --seed 1 --seconds 15 --trace 0

Configures build/bench-e2e (Release) on first use, rebuilds it if a
source changed, then runs permbench with the given arguments. Build
output goes to stderr, so the last line of stdout is permbench's JSON
result. Exits non-zero when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build", "bench-e2e")


def build() -> bool:
    steps = []
    # Written only by a configure that generated the build system.
    if not os.path.exists(os.path.join(BUILD, "CMakeFiles", "TargetDirectories.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main() -> int:
    if not build():
        print("run.py: permbench build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([os.path.join(BUILD, "permbench")] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
