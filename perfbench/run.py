#!/usr/bin/env python3
"""Build the driftsync end-to-end benchmark and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <sim_mesh|sim_lossy|serve_fleet> \
        --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]

The benchmark is its own CMake project (perfbench/CMakeLists.txt) that
compiles the library sources under src/.  It is configured and built into
$CARGO_TARGET_DIR when that is set, else into .bench_build/, both relative
to the current directory; an up-to-date build costs well under a second.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result.  Exits non-zero without a result when the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
