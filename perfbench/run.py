#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/perfbench.exe with
dune, runs it, and passes its output through.  With --trace 0 it adds
peak_rss_mb, the benchmark process's high-water resident memory, to the
JSON object on the last line.  Exits nonzero, printing no result, when
the checkout cannot be built or the benchmark fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s is missing: run from a full checkout of the repository" % needed)
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled", "./perfbench/perfbench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail("build failed with exit code %d" % done.returncode)


def run(argv):
    """Run the benchmark; return its exit code, stdout lines and peak RSS in MB."""
    child = subprocess.Popen([EXE] + argv, cwd=ROOT, stdout=subprocess.PIPE)
    out = child.stdout.read().decode()
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return child.returncode, out.splitlines(), usage.ru_maxrss / 1024.0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--domains", type=int, default=0)
    args = parser.parse_args()
    build()
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.domains:
        argv += ["--domains", str(args.domains)]
    code, lines, peak_rss_mb = run(argv)
    if code != 0 or not lines:
        fail("benchmark exited with code %d" % code)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if args.trace == 0:
        result["metrics"]["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
