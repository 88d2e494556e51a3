#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

Runs every named workload once per seed (interleaving workloads, so slow
drift of the host spreads over all of them), then prints, for each
end-to-end metric, the median, quartiles, min/max and the interquartile
spread as a share of the median, next to the bound BENCHMARK.json fixes.

    python3 perfbench/spread.py --seeds 1-10 --out perfbench/steadiness.json

Run from the repository root. Each run goes through perfbench/run.sh, so
the first one builds.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_arg(s):
    if "-" in s:
        lo, hi = s.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in s.split(",")]


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.time() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    return json.loads(lines[-1]), wall


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {w: {m: [] for m in bounds} for w in workloads}
    walls = {w: [] for w in workloads}
    for seed in args.seeds:
        for w in workloads:
            res, wall = run_once(w, seed, bench["run_seconds"])
            if not res["correct"] or res["failed"]:
                raise SystemExit(f"{w} seed {seed}: incorrect result {res}")
            walls[w].append(round(wall, 1))
            for m in bounds:
                values[w][m].append(res["metrics"][m]["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{m}={res['metrics'][m]['value']:.6g}" for m in bounds) + f" wall={wall:.1f}s", flush=True)

    report = {"run_seconds": bench["run_seconds"], "seeds": args.seeds, "workloads": {}}
    worst = 0.0
    for w in workloads:
        rows = {}
        for m, vs in values[w].items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            rows[m] = {"median": med, "q1": q1, "q3": q3, "min": min(vs), "max": max(vs),
                       "iqr_share": round(spread, 4), "bound": bounds[m],
                       "within_third_of_bound": m == "setup_s" or spread < bounds[m] / 3,
                       "values": vs}
            if m != "setup_s":
                worst = max(worst, spread / bounds[m])
            print(f"{w:12s} {m:12s} median {med:12.6g}  IQR/median {spread:7.4f}  bound {bounds[m]}")
        report["workloads"][w] = {"metrics": rows, "wall_s": walls[w]}
    report["worst_spread_over_bound"] = round(worst, 3)
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
