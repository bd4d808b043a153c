#!/usr/bin/env python3
"""Builds mbf_bench and mbf_cli from this source tree, then runs mbf_bench.

    python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Every argument is passed on to mbf_bench (see mbf_bench.cpp). The build
goes to .bench_build/e2e under the repository root; build output goes to
stderr, so stdout carries only mbf_bench's own output. Exits 2 without
running anything when the tree holds no sources to build.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(here))
    build = os.path.join(root, ".bench_build", "e2e")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("run.py: no sources to build under " + root, file=sys.stderr)
        return 2
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build, "--target", "mbf_bench",
                  "mbf_cli", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    bench = os.path.join(build, "mbf_bench")
    return subprocess.run([bench] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
