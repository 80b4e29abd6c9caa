"""Measure a baseline: two sets of ten runs of every workload, one seed
per run (seeds 1-10 for the first set, 11-20 for the second).

    python3 perfbench/baseline.py --out perfbench/baseline.json

Each run is `run.py --workload W --seed S --seconds <run_seconds> --trace 0`,
each in its own process.  The sets alternate in time (per workload,
seed 1, then 11, then 2, then 12, ...), so that a slow stretch of the
machine lands on both sets alike.  For each set, metric and workload the
output gives the median and quartiles over the seeds and the spread
(interquartile distance over median); for the second set, also how far
the median moved from the first set's, as a share of it.  Both are
checked against the bounds in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED_SETS = (range(1, 11), range(11, 21))


def one_run(workload, seed, seconds):
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit("run failed: %s seed %d: %s" % (workload, seed, proc.stderr[-500:]))
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["run_wall_s"] = time.perf_counter() - t0
    return res


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--out", required=True)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower_better = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    sets = [{} for _ in SEED_SETS]
    for w in workloads:
        runs = [[] for _ in SEED_SETS]
        for seeds in zip(*SEED_SETS):
            for k, seed in enumerate(seeds):
                runs[k].append(one_run(w, seed, bench["run_seconds"]))
        for k, set_runs in enumerate(runs):
            if not all(r["correct"] for r in set_runs):
                raise SystemExit("wrong outputs in %s" % w)
            per = sets[k][w] = {m: summary([r["metrics"][m]["value"] for r in set_runs])
                                for m in bounds}
            per["attempted"] = [r["attempted"] for r in set_runs]
            per["run_wall_s"] = [r["run_wall_s"] for r in set_runs]
            for m in bounds:
                s = per[m]
                line = "set %d %-13s %-12s median %.5g  q1 %.5g  q3 %.5g  spread %.3f" % (
                    k + 1, w, m, s["median"], s["q1"], s["q3"], s["spread"])
                if s["spread"] > bounds[m]:
                    line += "  SPREAD OVER BOUND %.2f" % bounds[m]
                if k:
                    first = sets[0][w][m]["median"]
                    s["moved"] = (s["median"] - first) / first
                    line += "  moved %+.3f" % s["moved"]
                    worse = s["moved"] if lower_better[m] else -s["moved"]
                    if worse > bounds[m]:
                        line += "  WORSE BY MORE THAN BOUND %.2f" % bounds[m]
                print(line, flush=True)
    out = {"seeds": ["%d-%d" % (s[0], s[-1]) for s in SEED_SETS],
           "run_seconds": bench["run_seconds"], "sets": sets}
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
