#!/usr/bin/env python3
"""Build the kvbench driver from this checkout's sources and run one workload.

Usage (from the root of a checkout):

    python3 kvbench/run.py --workload cr-put --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/kvbench (default .bench_build/kvbench)
and is incremental: only the first run of a checkout compiles. Build output
goes to stderr, so the last line of stdout stays the driver's JSON result.
Exits non-zero, printing no result, when the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build = os.path.join(build_root, "kvbench")
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(build_root, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)

    def step(cmd):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"kvbench: {' '.join(cmd)} failed ({done.returncode})",
                  file=sys.stderr)
            sys.exit(2)

    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", build, "-j", str(min(4, os.cpu_count() or 1)),
          "--target", "kvbench"])

    sys.stdout.flush()
    done = subprocess.run([os.path.join(build, "kvbench")] + sys.argv[1:],
                          cwd=ROOT, env=env)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
