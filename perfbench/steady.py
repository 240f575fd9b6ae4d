#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs two interleaved sets of runs of the same build (A1 B1 A2 B2 ...),
every run a fresh process with its own seed, and reports for each
end-to-end metric of each workload: the median, the quartiles, the
relative spread (inter-quartile distance over the median) against the
metric's bound, and how far set B's median moved from set A's. It also
flags by name the noise sources that a benchmark of this repository has
failed on before:

  ms-setup        setup_s in milliseconds reported from fewer than 5 set-ups
  sub-second-iter iter_s below one second
  single-sample-latency  a latency percentile with fewer than 10 samples
                  beyond it (the notes print each one's sample count)

Run from the repository root:

  python3 perfbench/steady.py --runs 10 [--workloads a,b] [--seconds S]

Exit status is 1 when any metric's spread or set-to-set drift exceeds
its bound, or a flag is raised.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run reported correct=false")
    return result, lines[:-1]


def flags(workload, metrics, notes):
    found = []
    setups = [int(m.group(1)) for line in notes
              for m in [re.match(r"passes \d+ setups (\d+)", line)] if m]
    if metrics["setup_s"] < 0.01 and (not setups or min(setups) < 5):
        found.append("ms-setup")
    if metrics["iter_s"] < 1.0:
        found.append("sub-second-iter")
    for line in notes:
        m = re.search(r"_p99_us .*\(n=(\d+)\)", line)
        if m and int(m.group(1)) < 1000:
            found.append("single-sample-latency")
    return found


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else float("inf")


SETS = 2


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0)
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    command = bench["command"]
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")

    bad = False
    seed = 1
    for w in names:
        sets = [[] for _ in range(SETS)]
        raised = set()
        for _ in range(args.runs):
            for runs in sets:
                result, notes = run_once(command, w, seed, seconds)
                values = {k: v["value"] for k, v in result["metrics"].items()}
                runs.append(values)
                raised.update(flags(w, values, notes))
                print(f"  {w} seed {seed}: " + " ".join(
                    f"{k}={v:.6g}" for k, v in values.items()), flush=True)
                seed += 1
        print(f"{w}: {args.runs} runs x {SETS} sets")
        for m in metrics:
            metric, bound = m["name"], m["bound"]
            med, q1, q3, spread = summary([r[metric] for runs in sets for r in runs])
            a, b = (summary([r[metric] for r in runs])[0] for runs in sets)
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            ok = spread <= bound and worse <= bound
            bad |= not ok
            print(f"  {metric:12} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f} ({spread / bound:.2f} of bound {bound}) "
                  f"| A {a:.6g} B {b:.6g} B-worse-by {worse:+.4f} "
                  f"{'ok' if ok else 'OVER BOUND'}")
        for f in sorted(raised):
            print(f"  FLAG {f}")
            bad = True
    sys.exit(1 if bad else 0)

if __name__ == "__main__":
    main()
