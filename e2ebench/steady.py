#!/usr/bin/env python3
"""Steadiness check for the benchmark described by BENCHMARK.json.

Runs the benchmark command once per seed on each workload, the way a
benchmark driver does, and reports for every metric the median, the
quartiles and the spread (third minus first quartile over the median, from
statistics.quantiles(values, n=4)) beside the metric's bound.

Run from the repository root:

    python3 e2ebench/steady.py --runs 10 [--workloads a,b] [--seed-base 100]
                               [--trace] [--out record.json]

Exits non-zero if any run fails or any spread reaches its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    started = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    notes = [l[2:] for l in lines if l.startswith("# ")]
    return json.loads(lines[-1]), notes, elapsed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed-base", type=int, default=100)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")

    record = {"trace": args.trace, "runs": args.runs, "workloads": {}}
    worst_ok = True
    for workload in names:
        values = {m["name"]: [] for m in metrics}
        host, walls = None, []
        for k in range(args.runs):
            seed = args.seed_base + k
            result, notes, wall = run_once(bench["command"], workload, seed,
                                           bench["run_seconds"], args.trace)
            walls.append(wall)
            host = host or next((n for n in notes if n.startswith("host ")), None)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s", flush=True)
        rows = {}
        print(f"== {workload}  ({host}; run wall {min(walls):.1f}-{max(walls):.1f} s)")
        for m in metrics:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                ok = spread < bound
                worst_ok &= ok
                flag = "ok" if spread < bound / 3 else ("within bound" if ok else "TOO NOISY")
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                               "bound": bound, "values": v}
            print(f"  {m['name']:28s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}"
                  f"  spread {spread:7.4f}  bound {bound}  {flag}")
        record["workloads"][workload] = {"host": host, "metrics": rows,
                                         "run_wall_s": walls}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
