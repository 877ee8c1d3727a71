#!/usr/bin/env python3
"""Build and run the request-level benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe with dune, runs it, passes its output
through and checks that the last line is the result object. Exits non-zero
when the build fails, the benchmark fails a check or its result is
malformed.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, env, capture):
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE if capture else sys.stderr)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a Chronus checkout (dune-project and lib/ not found)")
    # The benchmark pins its own parallelism and never writes the
    # program's JSONL trace.
    env = {k: v for k, v in os.environ.items() if k not in ("CHRONUS_JOBS", "CHRONUS_TRACE")}
    code, _ = run(["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/perfbench.exe"],
                  BUILD_TIMEOUT_S, env, capture=False)
    if code != 0 or not os.path.isfile(EXE):
        fail("build failed")
    code, out = run([EXE, "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", args.trace],
                    RUN_TIMEOUT_S, env, capture=True)
    text = out.decode()
    sys.stdout.write(text)
    sys.stdout.flush()
    if code != 0:
        fail("benchmark exited with code %d" % code)
    lines = text.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"} or result["correct"] is not True:
        fail("malformed or incorrect result")


if __name__ == "__main__":
    main()
