"""Tests of the benchmark itself (not of hhi):

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import call  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_child_coverage():
    # root [0, 100] has children a [10, 40] and b [50, 70]; a has a
    # child c [20, 30]
    clock = FakeClock()
    rec = tracing.Recorder(clock=clock)
    ids = {name: rec.name_id(name, "layer") for name in "rabc"}
    script = [(0, "r", True), (10, "a", True), (20, "c", True), (30, "c", False),
              (40, "a", False), (50, "b", True), (70, "b", False), (100, "r", False)]
    for t, name, opening in script:
        clock.now = t
        if opening:
            rec.enter(ids[name])
        else:
            rec.exit()
    assert [rec.self_ns[ids[n]] for n in "rabc"] == [50, 20, 20, 10]
    assert [rec.total_ns[ids[n]] for n in "rabc"] == [100, 30, 20, 10]
    parents = list(rec.s_parent)
    assert parents == [-1, 0, 1, 0]
    assert list(rec.s_end) == [100, 40, 30, 70]


def test_recursive_span_total_counts_the_outermost_call_once():
    clock = FakeClock()
    rec = tracing.Recorder(clock=clock)
    f = rec.name_id("f", "layer")
    for t, opening in [(0, True), (5, True), (15, False), (20, False)]:
        clock.now = t
        rec.enter(f) if opening else rec.exit()
    assert rec.total_ns[f] == 20
    assert rec.self_ns[f] == 20
    assert rec.calls[f] == 2


def test_span_cap_keeps_aggregates():
    clock = FakeClock()
    rec = tracing.Recorder(clock=clock, span_cap=1)
    f = rec.name_id("f", "layer")
    for _ in range(3):
        rec.enter(f)
        clock.now += 7
        rec.exit()
    assert len(rec.s_name) == 1 and rec.dropped == 2
    assert rec.self_ns[f] == 21


def test_generator_wrapper_counts_outermost_walks_only():
    from hhi import recursion
    rec = tracing.Recorder()
    wrapped = tracing.counting_generator(rec, "yielded", recursion.set_partitions)
    undo = []
    tracing.rebind([recursion], recursion.set_partitions, wrapped, undo)
    try:
        assert len(list(recursion.set_partitions([1, 2, 3, 4]))) == 15  # Bell(4)
    finally:
        tracing.uninstall(undo)
    assert rec.counters["yielded"] == 15
    assert recursion.set_partitions is wrapped.__wrapped__


def test_install_and_uninstall_restore_every_binding():
    import hhi.cli
    import hhi.exactnum
    before = (hhi.cli.main, hhi.exactnum.LaurentPoly.__mul__, hhi.exactnum.LaurentPoly.__rmul__)
    rec = tracing.Recorder()
    undo = tracing.install(rec)
    try:
        assert hhi.exactnum.LaurentPoly.__rmul__ is hhi.exactnum.LaurentPoly.__mul__
        assert hhi.exactnum.LaurentPoly.__mul__ is not before[1]
        rc, out = call(["series", "--lmax", "3", "--method", "all"])
        assert rc == 0 and out.rstrip().endswith("MATCH")
    finally:
        tracing.uninstall(undo)
    assert (hhi.cli.main, hhi.exactnum.LaurentPoly.__mul__,
            hhi.exactnum.LaurentPoly.__rmul__) == before
    assert rec.stat("cli.main")[0] == 1
    assert rec.stat("recursion.c3z3_mirror")[0] == 1


def _first(name, seed, files, k=60):
    return [t.argv for t in itertools.islice(workloads.make_stream(name, seed, files), k)]


def test_inputs_are_deterministic_per_seed(tmp_path):
    # the stream only copies the template, so any file will do here
    files = (str(tmp_path / "c.json"), str(tmp_path / "template.json"))
    open(files[1], "w").close()
    for name in workloads.WORKLOADS:
        assert _first(name, 7, files) == _first(name, 7, files), name
        assert _first(name, 7, files) != _first(name, 8, files), name


def test_round_composition_is_fixed():
    stream = workloads.make_stream("comb_mixed", 3)
    size = sum(c for _, c in workloads.COMB_ROUND)
    for _ in range(3):
        strata = sorted(t.stratum for t in itertools.islice(stream, size))
        want = sorted(s for s, c in workloads.COMB_ROUND for _ in range(c))
        assert strata == want


def _corrupt(text):
    """Change the first digit run's last digit."""
    for i in range(len(text) - 1, -1, -1):
        if text[i].isdigit():
            return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]
    raise AssertionError("no digit")


def _records(name, seed, k):
    tasks = list(itertools.islice(workloads.make_stream(name, seed), k))
    return [(t,) + call(t.argv) for t in tasks]


def test_direct_check_flags_a_corrupted_output():
    records = _records("direct_sweep", 1, 12)
    records = [r for r in records if r[0].n <= 6][:4]
    assert workloads.check_direct(records) == [None] * len(records)
    task, rc, out = next(r for r in records if any(ch.isdigit() for ch in r[2]))
    bad = workloads.check_direct([(task, rc, _corrupt(out))])
    assert bad[0] is not None
    assert workloads.check_direct([(task, 1, out)])[0] is not None


def test_comb_check_flags_a_corrupted_output():
    task = workloads.Task(None, "generic8", 8, (4, (1, 1, 2), (1, 1, 1, 1, 1, 2, 2, 3)))
    argv = (["invariant", "--method", "comb", "--json", "--no-cache"]
            + workloads.data_args(*task.key))
    rc, out = call(argv)
    expected = workloads.load_comb_expected()
    assert workloads.check_comb([(task, rc, out)], expected) == [None]
    assert workloads.check_comb([(task, rc, _corrupt(out))], expected)[0] is not None


def test_series_check_flags_a_corrupted_route():
    tasks = [workloads.Task(["series", "--lmax", "5", "--method", m], m, 5, (m, 5))
             for m in ("series", "mirror", "direct")]
    records = [(t,) + call(t.argv) for t in tasks]
    assert workloads.check_series(records) == [None, None, None]
    lines = records[1][2].splitlines()
    lines[3] = _corrupt(lines[3])
    records[1] = (records[1][0], 0, "\n".join(lines) + "\n")
    verdicts = workloads.check_series(records)
    assert verdicts[0] is None and verdicts[2] is None and verdicts[1] is not None


def _cache_run(tmp_path, seed, k):
    """k cli_cache tasks run as the worker runs them, with the record
    count of the cache file after each."""
    from hhi.invariants import InvariantCache
    cache, template, values = (str(tmp_path / n) for n in ("c.json", "t.json", "v.json"))
    workloads.prepare_cache(seed, template, values)
    records, sizes = [], []
    for t in itertools.islice(workloads.make_stream("cli_cache", seed, (cache, template)), k):
        records.append((t,) + call(t.argv))
        if t.after is not None:
            t.after()
        sizes.append(len(InvariantCache(cache)))
    return records, sizes, workloads.load_cache_values(values)


def test_cache_check_flags_a_hit_that_differs(tmp_path):
    records, _, values = _cache_run(tmp_path, 2, 8)
    assert workloads.check_cache(records, values) == [None] * 8
    for kind in ("hit", "miss"):
        bad = list(records)
        i = next(i for i, r in enumerate(bad) if r[0].stratum == kind)
        task, rc, out = bad[i]
        bad[i] = (task, rc, _corrupt(out))
        assert workloads.check_cache(bad, values)[i] is not None
        bad[i] = (task, 1, out)
        assert workloads.check_cache(bad, values)[i] is not None


def test_cache_file_size_does_not_grow_with_the_task_count(tmp_path):
    seg = 1 + workloads.CACHE_REPEATS
    _, sizes, _ = _cache_run(tmp_path, 3, 3 * seg)
    stock = workloads.CACHE_STOCK
    assert sizes == ([stock + 1] * (seg - 1) + [stock]) * 3


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail(list(range(1, 101))) == (90.0, 90)
    assert run.tail(list(range(200, 0, -1))) == (95.0, 190)
    assert run.tail([3, 1, 2]) == (100.0, 3)


def test_expected_values_cover_the_comb_population():
    expected = workloads.load_comb_expected()
    generic, grouped = workloads.comb_population()
    for r, w, e in [x for pool in generic.values() for x in pool] + grouped:
        assert workloads.comb_key_string(r, w, e) in expected
    json.dumps(expected)
