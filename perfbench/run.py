#!/usr/bin/env python3
"""Build the program from this checkout's src/ and run one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Every invocation configures (once) and builds (incrementally) the benchmark's
own CMake project in .bench_build/perfbench, which compiles the checkout's
src/ together with the benchmark's code in perfbench/cpp.  It runs the workload;
the last line of standard output is the result as one JSON object.  A traced
run (--trace 1) also writes its spans to .bench_build/trace/.

--selftest builds and runs the planted-fault tests of the correctness checks.

Exits non-zero, without a result line, when the program cannot be built (for
instance in a directory that holds only the benchmark's files).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "trace")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(target):
    """Configure on first use, then build `target`; build output goes to
    stderr so that standard output ends with the result line."""
    if not os.path.isfile(os.path.join(ROOT, "src", "shard", "sharded_cluster.hpp")):
        print("perfbench: no program sources under src/ in %s" % ROOT, file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target", target])
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, env=env)
        except (OSError, subprocess.TimeoutExpired) as e:
            print("perfbench: %s failed: %s" % (cmd[0], e), file=sys.stderr)
            return False
        if done.returncode != 0:
            print("perfbench: build step failed: %s" % " ".join(cmd), file=sys.stderr)
            return False
    return True


def flag(args, name, default=None):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def main():
    args = sys.argv[1:]
    if args == ["--selftest"]:
        if not build("perfbench_checks_test"):
            return 1
        return subprocess.run([os.path.join(BUILD, "perfbench_checks_test")],
                              timeout=RUN_TIMEOUT_S).returncode
    if flag(args, "--workload") is None:
        print(__doc__, file=sys.stderr)
        return 2
    if not build("perfbench"):
        return 1
    cmd = [os.path.join(BUILD, "perfbench")] + args
    if flag(args, "--trace", "0") == "1":
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            TRACE_DIR, "%s-seed%s.json" % (flag(args, "--workload"), flag(args, "--seed", "1")))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
