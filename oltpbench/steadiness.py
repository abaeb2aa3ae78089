#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

Usage (from the repository root):
  python3 oltpbench/steadiness.py [--runs 10] [--seed0 1000]
      [--workloads point_read,durable_write,tpcc_txn] [--out FILE]

Runs `oltpbench/run.py` --runs times per workload, each with another seed
(seed0, seed0+1, ...), at BENCHMARK.json's run_seconds and --trace 0. For
every end-to-end metric it reports the median, the first and third
quartiles (statistics.quantiles(values, n=4)), the spread (Q3 - Q1) as a
share of the median, and that spread as a share of the metric's bound.
With --out the table is also written as Markdown.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(root, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(root, "oltpbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit("%s seed %d failed: %s" % (workload, seed, result))
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1000)
    p.add_argument("--workloads", default="")
    p.add_argument("--out", default="")
    args = p.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in bench["workloads"]])
    rows = []
    for w in workloads:
        runs = []
        for i in range(args.runs):
            runs.append(run_once(root, w, args.seed0 + i, bench["run_seconds"]))
            print("%s seed %d: %s" % (w, args.seed0 + i, json.dumps(runs[-1])),
                  flush=True)
        for m in bench["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            rows.append((w, m["name"], m["unit"], med, q1, q3, spread,
                         m["bound"], spread / m["bound"]))

    host = ""
    last = os.path.join(root, ".bench_build", "results",
                        "%s-seed%d-trace0.json" % (workloads[-1],
                                                   args.seed0 + args.runs - 1))
    if os.path.exists(last):
        with open(last) as f:
            h = json.load(f)["host"]
        host = "Host: nproc %s, ISA %s, %s, WAL on %s.\n\n" % (
            h["nproc"], h["isa"], h["caches"], h["wal_fs"])
    intro = ("%d runs per workload, seeds %d..%d, %s s per run, --trace 0, "
             "made with `python3 oltpbench/steadiness.py --runs %d "
             "--seed0 %d`. Spread is (Q3 - Q1) / median.\n\n" % (
                 args.runs, args.seed0, args.seed0 + args.runs - 1,
                 bench["run_seconds"], args.runs, args.seed0))
    header = ("| workload | metric | unit | median | Q1 | Q3 | spread | bound "
              "| spread/bound |\n|---|---|---|---|---|---|---|---|---|\n")
    table = header + "".join(
        "| %s | %s | %s | %.6g | %.6g | %.6g | %.4f | %.2f | %.2f |\n" % r
        for r in rows)
    print(table)
    if args.out:
        with open(args.out, "w") as f:
            f.write("# Steadiness of the end-to-end metrics\n\n" + intro +
                    host + table)


if __name__ == "__main__":
    main()
