#!/usr/bin/env python3
"""Run-to-run spread of the Saga benchmark, the basis of its bounds.

    python3 sagabench/spread.py --runs 10 [--first-seed 101] [--seconds 15] \
        [--workloads train,serve_fp32,serve_int8,stream]
    python3 sagabench/spread.py --compare FIRST.json SECOND.json

Runs run.py --trace 0 once per seed (seeds first-seed, first-seed+1, ...) on
each workload and prints, per end-to-end metric, the median, the quartiles
and the spread (Q3 - Q1) / median, with the failed share of operations and
the share of benchmark processes that aborted. The summary is also written to
.bench_runs/spread-<first-seed>.json. --compare reads two such summaries and
prints, per workload and metric, both medians and how much worse the second
is than the first, against the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def one_run(workload, seed, seconds):
    out = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"],
                         cwd=run.ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed: %s" % (workload, seed, out.stderr[-2000:]))
    fingerprint = next(json.loads(line[len("FINGERPRINT "):]) for line in lines
                       if line.startswith("FINGERPRINT "))
    return json.loads(lines[-1]), fingerprint


def compare(first_path, second_path):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = {m["name"]: m for m in json.load(handle)["end_to_end"]}
    with open(first_path) as handle:
        first = json.load(handle)
    with open(second_path) as handle:
        second = json.load(handle)
    within = True
    for workload, entry in first.items():
        if workload not in second:
            continue
        print("%s: failed share %.6f vs %.6f" % (
            workload, entry["failed_share"], second[workload]["failed_share"]))
        within = within and entry["failed_share"] == second[workload]["failed_share"]
        for name, metric in entry["metrics"].items():
            a, b = metric["median"], second[workload]["metrics"][name]["median"]
            worse = (b - a) / a if spec[name]["better"] == "lower" else (a - b) / a
            ok = worse <= spec[name]["bound"]
            within = within and ok
            print("  %-14s %12.4f %12.4f  worse by %+.3f (bound %.2f) %s" % (
                name, a, b, worse, spec[name]["bound"], "ok" if ok else "OVER"))
    return 0 if within else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, metavar="SUMMARY")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    summary = {}
    for workload in args.workloads.split(","):
        values, failed, attempted, processes, aborted = {}, 0, 0, 0, 0
        broken = []
        started = time.monotonic()
        for i in range(args.runs):
            try:
                result, fingerprint = one_run(workload, args.first_seed + i, args.seconds)
            except RuntimeError as error:
                print(error)
                broken.append(args.first_seed + i)
                continue
            failed += result["failed"]
            attempted += result["attempted"]
            processes += fingerprint["processes"]
            aborted += fingerprint["aborted_processes"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        entry = {"runs": args.runs, "runs_without_result": broken,
                 "wall_s": time.monotonic() - started,
                 "failed_share": failed / attempted,
                 "aborted_processes": aborted, "processes": processes,
                 "metrics": {}}
        print("%s: %d runs in %.0f s, failed %d of %d operations, %d of %d processes "
              "aborted" % (workload, args.runs, entry["wall_s"], failed, attempted,
                           aborted, processes))
        for name, series in values.items():
            q1, q2, q3 = run.statistics.quantiles(series, n=4)
            entry["metrics"][name] = {"median": q2, "q1": q1, "q3": q3,
                                      "spread": run.quartile_spread(series),
                                      "values": series}
            print("  %-14s median %12.4f  Q1 %12.4f  Q3 %12.4f  spread %.3f" % (
                name, q2, q1, q3, entry["metrics"][name]["spread"]))
        summary[workload] = entry
    os.makedirs(run.RUNS_DIR, exist_ok=True)
    path = os.path.join(run.RUNS_DIR, "spread-%d.json" % args.first_seed)
    with open(path, "w") as handle:
        json.dump(summary, handle, indent=1)
    print("written to %s" % os.path.relpath(path, run.ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
