"""One workload in one fresh Python process.

Started by run.py.  Imports hhi from the checkout's src/, builds the
seeded task stream, prints READY, then calls hhi.cli.main(argv) once
per task with stdout and stderr captured, until --seconds have passed
or --limit tasks are done.  The outputs are checked after the timed
loop, and one JSON object with the records' times, verdicts and (when
traced) the span aggregates is printed as the last line.

With --prepare it only writes cli_cache's template cache file and
prepared values (see workloads.prepare_cache) for the seed, untimed.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import hhi.cli  # noqa: E402
import hhi.mzeron  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def call(argv):
    """hhi.cli.main(argv) with its output captured: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = hhi.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed task, not a failed run
            rc = "exception %s: %s" % (type(exc).__name__, exc)
    return rc, out.getvalue()


def trace_metrics(rec, workload, memo_before, task_s):
    C = rec.counters

    def calls(name):
        return rec.stat(name)[0]

    def total(name):
        return rec.stat(name)[1]

    def self_(name):
        return rec.stat(name)[2]

    lookups = C["mzeron.integral_monomial.lookups"]
    inserted = hhi.mzeron.memo_size() - memo_before
    hits, misses = C["invariants.cache.hits"], C["invariants.cache.misses"]
    admissible_calls = calls("recursion.tooth_admissible")
    m = {
        "exactnum.LaurentPoly.mul.calls": calls("exactnum.LaurentPoly.mul"),
        "exactnum.LaurentPoly.mul.self_s": self_("exactnum.LaurentPoly.mul"),
        "exactnum.LaurentPoly.mul.pairs": C["exactnum.LaurentPoly.mul.pairs"],
        "exactnum.frac_factorial.calls": calls("exactnum.frac_factorial"),
        "exactnum.frac_factorial.total_s": total("exactnum.frac_factorial"),
        "euler.euler_class_compact.calls": calls("euler.euler_class_compact"),
        "euler.euler_class_compact.total_s": total("euler.euler_class_compact"),
        "euler.euler_class_compact.self_s": self_("euler.euler_class_compact"),
        "euler.class_terms": C["euler.class_terms"],
        "euler.class_coeff_terms": C["euler.class_coeff_terms"],
        "mzeron.CohClass.mul.calls": calls("mzeron.CohClass.mul"),
        "mzeron.CohClass.mul.self_s": self_("mzeron.CohClass.mul"),
        "mzeron.CohClass.mul.pairs": C["mzeron.CohClass.mul.pairs"],
        "mzeron.CohClass.mul.out_terms": C["mzeron.CohClass.mul.out_terms"],
        "mzeron.integrate.calls": calls("mzeron.integrate"),
        "mzeron.integrate.total_s": total("mzeron.integrate"),
        "mzeron.integral_monomial.calls": calls("mzeron.integral_monomial"),
        "mzeron.integral_memo.size": hhi.mzeron.memo_size(),
        "mzeron.integral_memo.hit_ratio": (lookups - inserted) / lookups if lookups else 0.0,
        "orbifold.OrbifoldData.age_sum.calls": calls("orbifold.OrbifoldData.age_sum"),
        "orbifold.OrbifoldData.age_sum.total_s": total("orbifold.OrbifoldData.age_sum"),
        "recursion.comb_recursion.total_s": total("recursion.comb_recursion"),
        "recursion.set_partitions.yielded": C["recursion.set_partitions.yielded"],
        "recursion.tooth_admissible.calls": admissible_calls,
        "recursion.tooth_admissible.total_s": total("recursion.tooth_admissible"),
        "recursion.tooth_admissible.admit_ratio":
            C["recursion.tooth_admissible.admitted"] / admissible_calls
            if admissible_calls else 0.0,
        "recursion.comb.heads": C["recursion.comb.heads"],
        "recursion.c3z3_series.total_s": total("recursion.c3z3_series"),
        "recursion.c3z3_direct.total_s": total("recursion.c3z3_direct"),
        "recursion.c3z3_mirror.total_s": total("recursion.c3z3_mirror"),
        "recursion.c3z3_c_coeff.calls": calls("recursion.c3z3_c_coeff"),
        "recursion.Series.compose.total_s": total("recursion.Series.compose"),
        "invariants.cache.load_s": total("invariants.cache.load"),
        "invariants.cache.save_s": total("invariants.cache.save"),
        "invariants.cache.bytes_read": C["invariants.cache.bytes_read"],
        "invariants.cache.bytes_written": C["invariants.cache.bytes_written"],
        "invariants.cache.hits": hits,
        "invariants.cache.misses": misses,
        "invariants.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "invariants.invariant_weighted.calls": calls("invariants.invariant_weighted"),
        "invariants.invariant_weighted.total_s": total("invariants.invariant_weighted"),
        "cli.main.self_s": self_("cli.main"),
    }
    layers = rec.layer_self_s()
    for layer in ("exactnum", "orbifold", "mzeron", "euler", "invariants",
                  "invariants.cache", "recursion.comb", "recursion.series", "cli"):
        m["layer.%s.self_s" % layer] = layers.get(layer, 0.0)
    intended = sum(layers.get(layer, 0.0) for layer in workloads.INTENDED_LAYERS[workload])
    m["trace.intended_share"] = intended / task_s if task_s else 0.0
    return m


def discard(path):
    if os.path.exists(path):
        os.unlink(path)


def cache_files(workdir, seed):
    """cli_cache's template cache file and prepared values for a seed."""
    return (os.path.join(workdir, "cache-template-%d.json" % seed),
            os.path.join(workdir, "cache-values-%d.json" % seed))


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--limit", type=int, default=0, help="stop after this many tasks")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--prepare", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", default=None, help="write the stored spans here")
    p.add_argument("--workdir", required=True)
    args = p.parse_args(argv)

    template, values_path = cache_files(args.workdir, args.seed)
    if args.prepare:
        workloads.prepare_cache(args.seed, template, values_path)
        return 0
    cache_path = os.path.join(args.workdir, "cache-%d.json" % os.getpid())
    stream = workloads.make_stream(args.workload, args.seed, (cache_path, template))
    first = next(stream)
    check = workloads.CHECKS[args.workload]
    if args.workload == "comb_mixed":
        expected = workloads.load_comb_expected()
        check = lambda records: workloads.check_comb(records, expected)  # noqa: E731
    elif args.workload == "cli_cache":
        values = workloads.load_cache_values(values_path)
        check = lambda records: workloads.check_cache(records, values)  # noqa: E731
    rec = undo = None
    if args.trace:
        rec = tracing.Recorder()
        undo = tracing.install(rec)
    print("READY", flush=True)
    if args.setup_only:
        discard(cache_path)
        return 0

    memo_before = hhi.mzeron.memo_size()
    records, times = [], []
    paused = 0.0  # time spent in the tasks' untimed after-steps
    task = first
    t_start = time.perf_counter()
    try:
        while True:
            if rec is not None:
                rec.task = len(records)
            t0 = time.perf_counter()
            rc, out = call(task.argv)
            t1 = time.perf_counter()
            records.append((task, rc, out))
            times.append(t1 - t0)
            if task.after is not None:
                task.after()
                paused += time.perf_counter() - t1
            if args.limit and len(records) >= args.limit:
                break
            if not args.limit and t1 - t_start - paused >= args.seconds:
                break
            task = next(stream, None)
            if task is None:
                break
        wall = time.perf_counter() - t_start - paused
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        discard(cache_path)

    properties = workloads.input_properties(args.workload, [r[0] for r in records])
    if args.workload == "cli_cache":
        properties["cache_records_at_segment_start"] = workloads.CACHE_STOCK
        properties["cache_file_bytes_at_segment_start"] = os.path.getsize(template)
    result = {
        "wall_s": wall,
        "times": times,
        "peak_rss_mb": peak_rss_mb,
        "properties": properties,
    }
    if rec is not None:
        result["trace"] = trace_metrics(rec, args.workload, memo_before, sum(times))
        result["spans_stored"] = len(rec.s_name)
        result["spans_dropped"] = rec.dropped
        result["euler_classes"] = rec.counters["euler.classes"]
        if args.spans:
            rec.write(args.spans)
        # the checks run unwrapped: the trace covers the tasks only
        tracing.uninstall(undo)
    verdicts = check(records)
    result["failures"] = [
        {"argv": task.argv, "reason": why}
        for (task, rc, out), why in zip(records, verdicts) if why is not None
    ]
    result["attempted"] = len(records)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
