"""Benchmark of the hhi command: end-to-end metrics per workload, and a
traced run for per-layer metrics.

    python3 perfbench/run.py --workload direct_sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the root of a checkout.  Each workload runs in a fresh Python
process (perfbench/worker.py), one at a time, single-threaded.  With
--trace 0 the last line of stdout is a JSON object holding every
end-to-end metric; with --trace 1 it holds every per-layer metric.
Earlier lines give the stamps (Python, rational backend, CPU count, git
sha, seed, task count), the tail percentile used, the input properties
and any failed task.  Exit code 0 unless the benchmark itself could not
run; wrong outputs are reported in "correct" and "failed".
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("direct_sweep", "comb_mixed", "series_c3z3", "cli_cache")

SETUP_LAUNCHES = 11  # setup_s is the median over this many process launches
TRACE_SHARE = 1 / 3  # share of --seconds the untraced half of a traced run takes
WORKER_TIMEOUT = 170

class BenchError(Exception):
    pass


def tail(times):
    """(percentile, value) at the highest percentile that still has ten
    tasks beyond it: the 11th-slowest task, the 100 (N - 10) / N-th
    percentile by nearest rank.  With 10 tasks or fewer, the slowest."""
    s = sorted(times)
    if len(s) <= 10:
        return 100.0, s[-1]
    return 100.0 * (len(s) - 10) / len(s), s[-11]


def launch(args):
    """Start a worker; return (process, seconds until it printed READY)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + args, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        finish(proc)
        raise BenchError("worker did not start (%r)" % line[:200])
    return proc, ready


def finish(proc, timeout=WORKER_TIMEOUT):
    """Wait for a worker and return its last stdout line, parsed (None
    if it printed nothing more)."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out")
    if proc.returncode != 0:
        raise BenchError("worker exited with %d" % proc.returncode)
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def result_of(proc):
    res = finish(proc)
    if res is None:
        raise BenchError("worker printed no result")
    return res


def worker_args(workload, seed, extra=()):
    return ["--workload", workload, "--seed", str(seed), "--workdir", OUT] + list(extra)


def prepare(workload, seed):
    """cli_cache starts from a template cache file, written here once per
    run and outside every timed or set-up span."""
    if workload != "cli_cache":
        return
    try:
        proc = subprocess.run([sys.executable, WORKER] + worker_args(workload, seed, ["--prepare"]),
                              cwd=ROOT, timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError("preparing %s timed out" % workload)
    if proc.returncode != 0:
        raise BenchError("preparing %s failed with %d" % (workload, proc.returncode))


def run_plain(workload, seed, seconds):
    """setup_s is sampled on both sides of the timed run, so that one
    slow stretch of the machine does not set it."""

    def setup_only():
        proc, ready = launch(worker_args(workload, seed, ["--setup-only"]))
        finish(proc)
        return ready

    setups = [setup_only() for _ in range(SETUP_LAUNCHES // 2)]
    proc, ready = launch(worker_args(workload, seed, ["--seconds", repr(seconds)]))
    setups.append(ready)
    res = result_of(proc)
    setups += [setup_only() for _ in range(SETUP_LAUNCHES - len(setups))]
    times = res["times"]
    p, tail_s = tail(times)
    res["tail_percentile"] = p
    res["metrics"] = {
        "tasks_per_s": len(times) / res["wall_s"],
        "task_p50_s": statistics.median(times),
        "task_tail_s": tail_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    res["setup_samples_s"] = setups
    return res


def run_traced(workload, seed, seconds):
    """The untraced worker runs for a share of --seconds; a fresh traced
    worker then runs exactly the same tasks."""
    proc, _ = launch(worker_args(workload, seed, ["--seconds", repr(seconds * TRACE_SHARE)]))
    plain = result_of(proc)
    spans = os.path.join(OUT, "spans-%s-%d.tsv" % (workload, seed))
    proc, _ = launch(worker_args(workload, seed,
                                 ["--limit", str(plain["attempted"]), "--trace",
                                  "--spans", spans]))
    traced = result_of(proc)
    traced["metrics"] = dict(traced.pop("trace"))
    traced["metrics"]["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    traced["failures"] = plain["failures"] + traced["failures"]
    traced["attempted"] += plain["attempted"]
    traced["spans_file"] = os.path.relpath(spans, ROOT)
    return traced


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def stamps(seed):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from hhi.exactnum import HAVE_GMPY2
    return {
        "python": platform.python_version(),
        "rational_backend": "gmpy2" if HAVE_GMPY2 else "fractions.Fraction",
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "seed": seed,
    }


def metric_units(names):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    return {n: units[n] for n in names}


def report(workload, res, trace):
    print("== %s: %d tasks timed in %.2f s; %d checked, %d failed" % (
        workload, len(res["times"]), res["wall_s"], res["attempted"], len(res["failures"])))
    if not trace:
        print("   tail: p%.2f over %d tasks" % (res["tail_percentile"], len(res["times"])))
    else:
        print("   spans stored %d, dropped %d, written to %s; Euler classes built %d" % (
            res["spans_stored"], res["spans_dropped"], res["spans_file"],
            res["euler_classes"]))
    print("   input properties: %s" % json.dumps(res["properties"], sort_keys=True))
    for f in res["failures"][:20]:
        print("   FAILED %s: %s" % (" ".join(f["argv"]), f["reason"]))
    units = metric_units(res["metrics"])
    for name, value in res["metrics"].items():
        print("   %-44s %14.6g %s" % (name, value, units[name]))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not os.path.exists(os.path.join(ROOT, "src", "hhi", "cli.py")):
        sys.stderr.write("error: no hhi sources under %s\n" % os.path.join(ROOT, "src"))
        return 2
    os.makedirs(OUT, exist_ok=True)
    print("stamps: %s" % json.dumps(stamps(args.seed), sort_keys=True))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for w in names:
            prepare(w, args.seed)
            res = (run_traced if args.trace else run_plain)(w, args.seed, args.seconds)
            report(w, res, args.trace)
            results[w] = res
    except BenchError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    units = metric_units(next(iter(results.values()))["metrics"])
    metrics = {}
    for w, res in results.items():
        for name, value in res["metrics"].items():
            key = name if len(results) == 1 else "%s.%s" % (w, name)
            metrics[key] = {"value": value, "unit": units[name]}
    failed = sum(len(r["failures"]) for r in results.values())
    summary = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
