#!/usr/bin/env python3
"""Build the serving benchmark from source and run one workload.

    python3 servebench/run.py --workload prefix_shared --seed 1 \
        --seconds 42 --trace 0

Run from the repository root. The first call configures and builds
the program's library and the servebench program under .bench_build/
(Release); later calls only re-check the build. Build output goes to
stderr, so the benchmark's last stdout line, a JSON object, stays last.
Exits nonzero, without a result, when the program's sources are
missing or the build fails; otherwise exits with the benchmark's code.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "server.hh")):
        sys.exit("servebench: no program sources under src/ to build")
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("servebench: build failed: %s" % e)
    binary = os.path.join(BUILD, "servebench")
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
