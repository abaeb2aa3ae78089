#!/usr/bin/env python3
"""Builds and runs the OLTP-path benchmark for one workload.

Usage (from the repository root):
  python3 oltpbench/run.py --workload point_read|durable_write|tpcc_txn \\
      --seed N --seconds S --trace 0|1

Configures and builds oltpbench/ (which builds the hwstar library from
src/) into .bench_build/oltpbench, runs the benchmark binary with a WAL
directory under .bench_build, and prints the binary's result as the last
line of standard output. Exits non-zero when the build fails, the run
fails, or the output check fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("point_read", "durable_write", "tpcc_txn")
RUN_TIMEOUT_S = 170


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build", "oltpbench")
    binary = os.path.join(build, "oltpbench")
    # Build output goes to stderr: stdout ends with the result line.
    configure = ["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", build, "-j", str(os.cpu_count() or 1)]
    for cmd in (configure, compile_):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("oltpbench: build failed", file=sys.stderr)
            return 1

    run_dir = os.path.join(root, ".bench_build", "run-%d" % os.getpid())
    out_dir = os.path.join(root, ".bench_build", "results")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--dir", run_dir, "--out", out_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("oltpbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    lines = stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("oltpbench: no result printed (exit %d)" % proc.returncode,
              file=sys.stderr)
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("oltpbench: malformed result", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
