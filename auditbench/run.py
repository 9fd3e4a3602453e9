#!/usr/bin/env python3
"""Build bench_audit from source, then run it with the given arguments.

Run from the repository root, e.g.

    python3 auditbench/run.py --workload scale-basic --seed 1 --seconds 10 --trace 0

Every argument is passed to bench_audit (see README.md); its last line on
stdout is the result. The build goes to $CARGO_TARGET_DIR/auditbench
(default .bench_build/auditbench) and its output to stderr. Exits non-zero
without a result when the build fails, e.g. outside a full checkout.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                         "auditbench")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "bench_audit",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("auditbench: build failed: %s\n" % " ".join(cmd))
            return 1
    sys.stdout.flush()
    return subprocess.run([os.path.join(build, "bench_audit")]
                          + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
