"""The four workloads: their input populations, the seeded task streams
drawn from them, and the checks of each task's output.

A task is one argv list for hhi.cli.main.  A workload's stream is an
endless sequence of rounds; every round has the same composition (so
many tasks from each stratum of the population) and the seed picks the
members and their order.  A run is cut wherever its time ends, so a
fixed composition per round keeps the mix, and with it the metrics,
the same from seed to seed.

Where a relabeling leaves the cost alone, the seed draws it as well:
the order of the body markings, and the member of an input's orbit under
the units of Z/r (multiplying the weights by u and the elements by 1/u
leaves every age unchanged).
"""

import itertools
import json
import math
import os
import random
import re
import shutil

HERE = os.path.dirname(os.path.abspath(__file__))
COMB_EXPECTED = os.path.join(HERE, "comb_expected.json")


def age_one_elements(r, weights):
    return [k for k in range(r) if sum((w * k) % r for w in weights) == r]


def age_one_inputs(r, ns, rank=3):
    """Admissible inputs whose body markings carry age-one elements on
    a rank-three space: (weights, elements) with sorted bodies."""
    for w in itertools.combinations_with_replacement(range(1, r), rank):
        good = age_one_elements(r, w)
        for n in ns:
            for body in itertools.combinations_with_replacement(good, n - 1):
                yield w, body + ((-sum(body)) % r,)


def relabel(rng, r, w, elements):
    """A seeded member of the input's unit orbit, with the body markings
    in seeded order.  Every age is unchanged."""
    u = rng.choice([v for v in range(1, r) if math.gcd(v, r) == 1])
    uinv = pow(u, -1, r)
    body = [(uinv * k) % r for k in elements[:-1]]
    rng.shuffle(body)
    return [(u * x) % r for x in w], body + [(uinv * elements[-1]) % r]


def _join(v):
    return ",".join(str(x) for x in v)


def data_args(r, w, elements):
    return ["-r", str(r), "-w", _join(w), "-k", _join(elements)]


class Task:
    """One argv for hhi.cli.main, and what the checker needs to know."""

    __slots__ = ("argv", "stratum", "n", "key", "meta", "after")

    def __init__(self, argv, stratum, n, key, meta=None):
        self.argv = argv
        self.stratum = stratum
        self.n = n
        self.key = key
        self.meta = meta
        self.after = None  # called, untimed, once the task has run


def rounds(rng, strata, composition):
    """Endless tasks: each round takes composition[s] draws from each
    stratum s (a function rng -> list of tasks), shuffled together."""
    while True:
        batch = []
        for name, count in composition:
            for _ in range(count):
                batch.extend(strata[name](rng))
        rng.shuffle(batch)
        yield from batch


def cycle_draw(pool):
    """Draw from pool in a seeded cyclic order, so each member recurs
    equally often and a run's mix hardly depends on the seed."""
    state = {}

    def draw(rng):
        if "order" not in state:
            state["order"] = rng.sample(range(len(pool)), len(pool))
            state["i"] = 0
        item = pool[state["order"][state["i"] % len(pool)]]
        state["i"] += 1
        return item

    return draw


# ---------------------------------------------------------------------------
# direct_sweep: the Euler class build.

# No direct_sweep input is relabeled: the order of the markings and of the
# weights moves the cost of a class build by up to 40%, so relabeling
# would move the metrics from seed to seed.  The seed orders each
# stratum's population (cyclically) and the tasks within each round.
# The tail is the 11th-slowest task, so the slowest stratum must give well
# over ten tasks of one cost per run: one n=7 age profile, r=4 with
# weights 1,1,2, as either of its two unit-orbit members (about 1 s per
# task for every psi).  The n=7 profiles of r=3 and r=5 (0.4 s and
# 1.0-1.5 s per task) would split the tail and are left out.
DIRECT_HEAVY = [
    (4, (1, 1, 2), (1, 1, 1, 1, 1, 1, 2)),
    (4, (2, 3, 3), (3, 3, 3, 3, 3, 3, 2)),
]
DIRECT_ROUND = [("n7", 1), ("n6", 2), ("n5", 5), ("n4", 2)]


def _direct_tasks(rng, r, w, elements):
    """One orbifold datum with psi 0, 1, 2 at the distinguished marking:
    the class is rebuilt for each."""
    n = len(elements)
    out = []
    for nu in range(3):
        psi = [0] * (n - 1) + [nu]
        argv = (["invariant", "--method", "direct", "--json", "--no-cache"]
                + data_args(r, w, elements) + ["--psi", _join(psi)])
        out.append(Task(argv, "n%d" % n, n, (r, tuple(w), tuple(elements), tuple(psi)),
                        meta=(r, tuple(w), tuple(elements))))
    return out


def direct_sweep(rng):
    pools = {"n%d" % n: [(r, w, e) for r in (3, 4, 5) for w, e in age_one_inputs(r, [n])]
             for n in (4, 5, 6)}
    strata = {name: (lambda rng, draw=cycle_draw(pool): _direct_tasks(rng, *draw(rng)))
              for name, pool in pools.items()}
    heavy = cycle_draw(DIRECT_HEAVY)
    strata["n7"] = lambda rng: _direct_tasks(rng, *heavy(rng))
    return rounds(rng, strata, DIRECT_ROUND)


# ---------------------------------------------------------------------------
# comb_mixed: the set-partition walk and the age sums.

# The slowest stratum: one generic n=10 profile (about 1 s), as either of
# its two unit-orbit members, twice per round, so that a run holds well
# over ten tasks of that cost.  Generic n=10 profiles range over 1.0-2.4 s.
COMB_HEAVY = [
    (4, (1, 1, 2), (1, 1, 1, 1, 1, 1, 2, 2, 2, 0)),
    (4, (2, 3, 3), (2, 2, 2, 3, 3, 3, 3, 3, 3, 0)),
]
COMB_ROUND = [("generic10", 2), ("generic9", 2), ("generic8", 4), ("grouped", 4)]


def comb_population():
    """r in {4, 5}: bodies with at least two distinct age-one elements at
    n = 8..10 (the generic path), and single-element bodies at n = 8..10
    (the grouped path).  n = 11 is left out: a generic task costs 5-13 s
    there, and so do two of the grouped r=5 profiles."""
    generic, grouped = {8: [], 9: [], 10: []}, []
    for r in (4, 5):
        for w, e in age_one_inputs(r, range(8, 11)):
            if len(set(e[:-1])) == 1:
                grouped.append((r, w, e))
            else:
                generic[len(e)].append((r, w, e))
    return generic, grouped


def _comb_task(rng, r, w, elements, stratum, relabeled=True):
    """The task's key is the population member: a unit-orbit member has
    the same ages in the same directions, hence the same value."""
    w2, e2 = relabel(rng, r, w, elements) if relabeled else (w, elements)
    argv = (["invariant", "--method", "comb", "--json", "--no-cache"]
            + data_args(r, w2, e2))
    return [Task(argv, stratum, len(elements), (r, tuple(w), tuple(elements)))]


def comb_mixed(rng):
    generic, grouped = comb_population()
    strata = {"generic%d" % n: (lambda rng, draw=cycle_draw(pool), s="generic%d" % n:
                                _comb_task(rng, *draw(rng), s))
              for n, pool in generic.items() if n < 10}
    heavy, light = cycle_draw(COMB_HEAVY), cycle_draw(grouped)
    strata["generic10"] = lambda rng: _comb_task(rng, *heavy(rng), "generic10", relabeled=False)
    strata["grouped"] = lambda rng: _comb_task(rng, *light(rng), "grouped")
    return rounds(rng, strata, COMB_ROUND)


# ---------------------------------------------------------------------------
# series_c3z3: scalar rational arithmetic, three routes.

# Each round runs every (route, L) below once, in seeded order.  The
# direct route sums over 2^l subsets, so it stops lower; its top L, the
# slowest task, runs twice per round so that a run holds well over ten.
SERIES_LMAX = {
    "series": list(range(8, 16)),
    "mirror": list(range(4, 10)),
    "direct": list(range(4, 10)) + [9],
}


def series_c3z3(rng):
    pool = [(m, L) for m, Ls in SERIES_LMAX.items() for L in Ls]
    while True:
        batch = [Task(["series", "--lmax", str(L), "--method", m], m, L, (m, L))
                 for m, L in pool]
        rng.shuffle(batch)
        yield from batch


# ---------------------------------------------------------------------------
# cli_cache: whole-file JSON cache reads and rewrites.

# Every call loads and rewrites the whole file, so its cost follows the
# file's size.  That size must not follow the program's speed: each run
# starts from a template file of CACHE_STOCK records (made before the
# timed runs by prepare_cache), and the stream is a sequence of segments
# of one first-time key and CACHE_REPEATS hits, after each of which the
# file is put back to the template.  The file thus holds CACHE_STOCK or
# CACHE_STOCK + 1 records at every call, however many tasks a run does.
CACHE_STOCK = 400  # records in the file at the start of each segment
CACHE_FRESH = 100  # first-time keys, taken in turn
CACHE_REPEATS = 3  # hits per segment: one on its first-time key, the rest on the stock


def cache_population():
    """Cheap direct inputs: n = 4..5 on rank-three spaces, r = 3..6, with
    psi at the distinguished marking and at the first body marking."""
    out = []
    for r in (3, 4, 5, 6):
        for w, e in age_one_inputs(r, (4, 5)):
            n = len(e)
            for psi in itertools.product(range(n - 2), repeat=2):
                vec = [0] * n
                vec[-1] = psi[0]
                vec[0] = psi[1]
                if sum(vec) <= n - 3:
                    out.append((r, w, e, tuple(vec)))
    return out


def cache_inputs(seed):
    """(stock, fresh): the seeded inputs whose records fill the template,
    and the first-time keys."""
    pool = cache_population()
    random.Random("cli_cache-inputs:%d" % seed).shuffle(pool)
    return pool[:CACHE_STOCK], pool[CACHE_STOCK:CACHE_STOCK + CACHE_FRESH]


def _cache_key(item):
    return repr(item)


def prepare_cache(seed, template, values_path):
    """Write the template cache file, holding the stock records, and the
    value of every stock and first-time input (JSON, keyed by
    _cache_key), which the check compares the outputs against."""
    from hhi.invariants import InvariantCache, InvariantKey, invariant_direct
    from hhi.orbifold import OrbifoldData
    stock, fresh = cache_inputs(seed)
    if os.path.exists(template):
        os.unlink(template)
    cache, values = InvariantCache(template), {}
    for items, into in ((stock, cache), (fresh, None)):
        for item in items:
            r, w, e, psi = item
            key = InvariantKey(OrbifoldData(r, w, e), list(psi))
            values[_cache_key(item)] = invariant_direct(key, cache=into).to_obj()
    cache.save()
    with open(values_path, "w") as fh:
        json.dump(values, fh)


def load_cache_values(path):
    with open(path) as fh:
        return json.load(fh)


def cli_cache(rng, seed, cache_path, template):
    stock, fresh = cache_inputs(seed)
    fresh = cycle_draw(fresh)

    def restore():
        shutil.copyfile(template, cache_path)

    def task(r, w, e, psi, kind):
        # only the body order (with its psi exponents) is relabeled: the
        # cache keys on the canonical body, so a repeat finds the record
        body = list(zip(e[:-1], psi[:-1]))
        rng.shuffle(body)
        elements = [k for k, _ in body] + [e[-1]]
        psis = [p for _, p in body] + [psi[-1]]
        argv = (["invariant", "--method", "direct", "--json", "--cache", cache_path]
                + data_args(r, w, elements) + ["--psi", _join(psis)])
        return Task(argv, kind, len(e), (r, w, e, psi))

    restore()
    while True:
        item = fresh(rng)
        hits = [item] + [rng.choice(stock) for _ in range(CACHE_REPEATS - 1)]
        rng.shuffle(hits)
        # the first-time key comes first, and the segment ends with the
        # file put back
        segment = [task(*item, "miss")] + [task(*x, "hit") for x in hits]
        segment[-1].after = restore
        yield from segment


WORKLOADS = {
    "direct_sweep": direct_sweep,
    "comb_mixed": comb_mixed,
    "series_c3z3": series_c3z3,
    "cli_cache": cli_cache,
}

# The layers each workload is meant to exercise, by span layer tag.
INTENDED_LAYERS = {
    "direct_sweep": ("euler", "mzeron", "exactnum"),
    "comb_mixed": ("recursion.comb", "orbifold", "invariants"),
    "series_c3z3": ("recursion.series", "exactnum"),
    "cli_cache": ("invariants.cache", "cli"),
}


def make_stream(name, seed, cache=None):
    """The seeded task stream; cli_cache needs cache = (the cache file's
    path, the template file's path)."""
    rng = random.Random("%s:%d" % (name, seed))
    if name == "cli_cache":
        return WORKLOADS[name](rng, seed, *cache)
    return WORKLOADS[name](rng)


# ---------------------------------------------------------------------------
# Checks, run after the timed loop.  Each returns one verdict per record:
# None when the output is right, else the reason it is wrong.  A record
# is (task, exit code, stdout text).


def _json_value(nvars, out, label):
    from hhi.exactnum import LaurentPoly
    return LaurentPoly.from_obj(nvars, json.loads(out)[label])


def check_direct(records):
    from hhi.invariants import InvariantKey
    from hhi.orbifold import OrbifoldData
    from hhi.recursion import comb_recursion
    memo, verdicts = {}, []
    for task, rc, out in records:
        if rc != 0:
            verdicts.append("exit code %r" % (rc,))
            continue
        r, w, e, psi = task.key
        key = InvariantKey(OrbifoldData(r, w, e), psi)
        try:
            got = _json_value(len(w), out, "direct")
        except (ValueError, KeyError, TypeError):
            verdicts.append("unparsable output")
            continue
        ck = key.cache_string()
        want = memo.get(ck)
        if want is None:
            want = memo[ck] = comb_recursion(key)
        verdicts.append(None if got == want else "differs from comb_recursion")
    return verdicts


def load_comb_expected(path=COMB_EXPECTED):
    with open(path) as fh:
        return json.load(fh)["values"]


def comb_key_string(r, w, elements):
    from hhi.invariants import InvariantKey
    from hhi.orbifold import OrbifoldData
    return InvariantKey(OrbifoldData(r, w, elements), [0] * len(elements)).cache_string()


def check_comb(records, expected=None):
    from hhi.exactnum import LaurentPoly
    expected = load_comb_expected() if expected is None else expected
    verdicts = []
    for task, rc, out in records:
        if rc != 0:
            verdicts.append("exit code %r" % (rc,))
            continue
        r, w, e = task.key
        want = expected.get(comb_key_string(r, w, e))
        if want is None:
            verdicts.append("no recorded value")
            continue
        try:
            got = _json_value(len(w), out, "comb")
        except (ValueError, KeyError, TypeError):
            verdicts.append("unparsable output")
            continue
        verdicts.append(None if got == LaurentPoly.from_obj(len(w), want)
                        else "differs from the recorded value")
    return verdicts


_SERIES_LINE = re.compile(r"^(series|direct|mirror) I_(\d+) = (-?\d+(?:/\d+)?)$")


def check_series(records):
    """The routes must print the same I_l wherever they share l.  Per l,
    the value printed by the most routes wins; a task that printed
    another value, or an l where no value wins, fails."""
    parsed, votes = [], {}
    for task, rc, out in records:
        vals = {}
        for line in out.splitlines():
            m = _SERIES_LINE.match(line)
            if not m or m.group(1) != task.stratum:
                vals = None
                break
            vals[int(m.group(2))] = m.group(3)
        if rc != 0 or vals is None or sorted(vals) != list(range(task.n + 1)):
            vals = None
        parsed.append(vals)
        for ell, v in (vals or {}).items():
            votes.setdefault(ell, {}).setdefault(v, set()).add(task.stratum)
    winner = {}
    for ell, by_value in votes.items():
        counts = sorted((len(routes) for routes in by_value.values()), reverse=True)
        if len(counts) == 1 or counts[0] > counts[1]:
            winner[ell] = max(by_value, key=lambda v: len(by_value[v]))
    verdicts = []
    for (task, rc, out), vals in zip(records, parsed):
        if vals is None:
            verdicts.append("exit code %r or malformed output" % (rc,))
            continue
        wrong = [ell for ell, v in vals.items() if winner.get(ell) != v]
        verdicts.append("routes disagree at l=%d" % wrong[0] if wrong else None)
    return verdicts


def check_cache(records, values):
    """Every exit code must be 0, every output must give the input's
    value from prepare_cache, and each hit must print exactly what its
    segment's first-time key printed."""
    from hhi.exactnum import LaurentPoly
    first, verdicts = {}, []
    for task, rc, out in records:
        if rc != 0:
            verdicts.append("exit code %r" % (rc,))
            continue
        k = task.key
        try:
            got = _json_value(len(k[1]), out, "direct")
        except (ValueError, KeyError, TypeError):
            verdicts.append("unparsable output")
            continue
        if got != LaurentPoly.from_obj(len(k[1]), values[_cache_key(k)]):
            verdicts.append("differs from the prepared value")
        elif task.stratum == "miss":
            first[k] = out
            verdicts.append(None)
        elif k in first and out != first[k]:
            verdicts.append("hit differs from its miss")
        else:
            verdicts.append(None)
    return verdicts


CHECKS = {
    "direct_sweep": check_direct,
    "comb_mixed": check_comb,
    "series_c3z3": check_series,
    "cli_cache": check_cache,
}


# ---------------------------------------------------------------------------
# Input properties, so that claims about a subset of inputs can cite
# their measured share.


def input_properties(name, tasks):
    hist = {}
    for t in tasks:
        hist[str(t.n)] = hist.get(str(t.n), 0) + 1
    props = {"n_histogram" if name != "series_c3z3" else "lmax_histogram": hist,
             "strata": {}}
    for t in tasks:
        props["strata"][t.stratum] = props["strata"].get(t.stratum, 0) + 1
    if name == "direct_sweep":
        by_datum = {}
        for t in tasks:
            by_datum.setdefault(t.meta, set()).add(t.key[3])
        reuse = sum(1 for t in tasks if len(by_datum[t.meta]) > 1)
        props["orbifold_reuse_share"] = reuse / len(tasks) if tasks else 0.0
    if name == "cli_cache":
        props["cache_hit_share"] = (sum(1 for t in tasks if t.stratum == "hit") / len(tasks)
                                    if tasks else 0.0)
    return props
