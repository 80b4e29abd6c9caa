"""Span recorder and the wrappers that put spans around calls into hhi.

Spans are recorded from the benchmark's side only: each traced function
is replaced, in every hhi module or class that binds it, by a wrapper
that opens a span, calls the original and closes the span.  Nothing
inside src/hhi is edited.

A span has a name, a start, an end, a parent span and a task id.  Spans
are kept in memory (up to SPAN_CAP of them) and written out when the run
ends.  Per-name aggregates are kept for every span, stored or not:
calls, inclusive time of the outermost calls (so recursion is not counted
twice), and self time, which is the span's duration minus the part of it
that its child spans cover.
"""

import os
import sys
import time
from array import array
from collections import Counter

SPAN_CAP = 200_000


class Recorder:
    """In-memory span store with per-name aggregates.

    clock returns integer nanoseconds; tests pass a fake clock.
    """

    def __init__(self, clock=time.perf_counter_ns, span_cap=SPAN_CAP):
        self.clock = clock
        self.span_cap = span_cap
        self.names = []
        self.layers = []
        self._ids = {}
        self.calls = []
        self.total_ns = []
        self.self_ns = []
        self._active = []
        self.counters = Counter()
        self.task = -1
        self.stack = []
        self.dropped = 0
        # span columns: name id, start, end, parent span index, task id
        self.s_name = array("q")
        self.s_start = array("q")
        self.s_end = array("q")
        self.s_parent = array("q")
        self.s_task = array("q")

    def name_id(self, name, layer):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
            self._active.append(0)
        return nid

    def enter(self, nid):
        start = self.clock()
        idx = len(self.s_name)
        if idx < self.span_cap:
            self.s_name.append(nid)
            self.s_start.append(start)
            self.s_end.append(start)
            self.s_parent.append(self.stack[-1][2] if self.stack else -1)
            self.s_task.append(self.task)
        else:
            idx = -1
            self.dropped += 1
        self._active[nid] += 1
        # frame: name id, start, span index, time covered by children
        self.stack.append([nid, start, idx, 0])

    def exit(self):
        end = self.clock()
        nid, start, idx, child = self.stack.pop()
        dur = end - start
        if idx >= 0:
            self.s_end[idx] = end
        self.calls[nid] += 1
        self.self_ns[nid] += dur - child
        self._active[nid] -= 1
        if not self._active[nid]:
            self.total_ns[nid] += dur
        if self.stack:
            self.stack[-1][3] += dur

    def stat(self, name):
        """(calls, inclusive seconds, self seconds) for a span name."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.total_ns[nid] / 1e9, self.self_ns[nid] / 1e9

    def layer_self_s(self):
        out = Counter()
        for nid, layer in enumerate(self.layers):
            out[layer] += self.self_ns[nid] / 1e9
        return out

    def write(self, path):
        """Write the stored spans as tab-separated text."""
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\ttask\n")
            for i in range(len(self.s_name)):
                fh.write("%d\t%s\t%d\t%d\t%d\t%d\n" % (
                    i, self.names[self.s_name[i]], self.s_start[i],
                    self.s_end[i], self.s_parent[i], self.s_task[i]))


def span_wrapper(rec, name, layer, fn, after=None):
    """fn wrapped in a span; after(args, result) may update counters."""
    nid = rec.name_id(name, layer)
    enter, exit_ = rec.enter, rec.exit

    def wrapper(*args, **kwargs):
        enter(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            exit_()
        if after is not None:
            after(args, out)
        return out

    wrapper.__wrapped__ = fn
    return wrapper


def counting_generator(rec, counter, fn):
    """fn (a recursive generator function) wrapped so that the items of
    each outermost walk are counted; calls fn makes on itself pass
    through unwrapped."""
    code = fn.__code__

    def wrapper(*args, **kwargs):
        if sys._getframe(1).f_code is code:
            return fn(*args, **kwargs)
        return _counted(fn(*args, **kwargs))

    def _counted(gen):
        for item in gen:
            rec.counters[counter] += 1
            yield item

    wrapper.__wrapped__ = fn
    return wrapper


def rebind(owners, old, new, undo):
    """Replace every binding of the object old, in the namespaces of the
    given modules or classes, by new (so a class's aliases such as
    __rmul__ = __mul__ are replaced too).  undo collects what to put back."""
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if value is old:
                undo.append((owner, attr, old))
                setattr(owner, attr, new)
    if not any(entry[2] is old for entry in undo):
        raise LookupError("nothing binds %r" % (old,))


def uninstall(undo):
    for owner, attr, old in reversed(undo):
        setattr(owner, attr, old)


def install(rec):
    """Wrap the traced hhi functions where their callers look them up.
    Returns the list that uninstall() takes to put the originals back."""
    import hhi.cli
    import hhi.euler
    import hhi.exactnum
    import hhi.invariants
    import hhi.mzeron
    import hhi.orbifold
    import hhi.recursion
    mods = [hhi.exactnum, hhi.orbifold, hhi.mzeron, hhi.euler,
            hhi.invariants, hhi.recursion, hhi.cli]
    C = rec.counters
    undo = []

    def fn(mod, attr, name, layer, after=None):
        old = getattr(mod, attr)
        rebind(mods, old, span_wrapper(rec, name, layer, old, after), undo)

    def meth(cls, attr, name, layer, after=None):
        old = cls.__dict__[attr]
        rebind([cls], old, span_wrapper(rec, name, layer, old, after), undo)

    # exactnum
    def lp_mul(args, out):
        a, b = args
        if isinstance(b, hhi.exactnum.LaurentPoly):
            C["exactnum.LaurentPoly.mul.pairs"] += len(a.terms) * len(b.terms)
        else:
            C["exactnum.LaurentPoly.mul.pairs"] += len(a.terms)

    meth(hhi.exactnum.LaurentPoly, "__mul__", "exactnum.LaurentPoly.mul", "exactnum", lp_mul)
    fn(hhi.exactnum, "frac_factorial", "exactnum.frac_factorial", "exactnum")

    # orbifold
    meth(hhi.orbifold.OrbifoldData, "age_sum", "orbifold.OrbifoldData.age_sum", "orbifold")

    # mzeron
    def coh_mul(args, out):
        a, b = args
        if isinstance(b, hhi.mzeron.CohClass):
            C["mzeron.CohClass.mul.pairs"] += len(a.terms) * len(b.terms)
        else:
            C["mzeron.CohClass.mul.pairs"] += len(a.terms)
        C["mzeron.CohClass.mul.out_terms"] += len(out.terms)

    meth(hhi.mzeron.CohClass, "__mul__", "mzeron.CohClass.mul", "mzeron", coh_mul)
    fn(hhi.mzeron, "integrate", "mzeron.integrate", "mzeron")
    mono_degree = hhi.mzeron.mono_degree

    def integral_probe(args, out):
        n, mono = args
        if mono_degree(mono) == n - 3:
            C["mzeron.integral_monomial.lookups"] += 1

    fn(hhi.mzeron, "integral_monomial", "mzeron.integral_monomial", "mzeron", integral_probe)

    # euler
    def class_built(args, out):
        C["euler.class_terms"] += len(out.terms)
        C["euler.class_coeff_terms"] += sum(len(c.terms) for c in out.terms.values())
        C["euler.classes"] += 1

    fn(hhi.euler, "euler_class_compact", "euler.euler_class_compact", "euler", class_built)

    # invariants: values, and the on-disk cache
    fn(hhi.invariants, "invariant_direct", "invariants.invariant_direct", "invariants")
    old_weighted = hhi.invariants.invariant_weighted
    weighted = span_wrapper(rec, "invariants.invariant_weighted", "invariants", old_weighted)

    def head(*args, **kwargs):
        C["recursion.comb.heads"] += 1
        return weighted(*args, **kwargs)

    # the comb recursion looks invariant_weighted up in its own module
    rebind([hhi.recursion], old_weighted, head, undo)
    rebind([m for m in mods if m is not hhi.recursion], old_weighted, weighted, undo)
    cache_cls = hhi.invariants.InvariantCache

    def loaded(args, out):
        C["invariants.cache.bytes_read"] += os.path.getsize(args[1])

    def saved(args, out):
        self = args[0]
        C["invariants.cache.bytes_written"] += os.path.getsize(
            args[1] if len(args) > 1 and args[1] else self.path)

    def looked_up(args, out):
        C["invariants.cache.misses" if out is None else "invariants.cache.hits"] += 1

    meth(cache_cls, "load", "invariants.cache.load", "invariants.cache", loaded)
    meth(cache_cls, "save", "invariants.cache.save", "invariants.cache", saved)
    meth(cache_cls, "get", "invariants.cache.get", "invariants.cache", looked_up)
    meth(cache_cls, "put", "invariants.cache.put", "invariants.cache")

    # recursion: the comb
    fn(hhi.recursion, "comb_recursion", "recursion.comb_recursion", "recursion.comb")
    rebind(mods, hhi.recursion.set_partitions,
           counting_generator(rec, "recursion.set_partitions.yielded",
                              hhi.recursion.set_partitions), undo)

    def admitted(args, out):
        C["recursion.tooth_admissible.admitted"] += bool(out)

    fn(hhi.recursion, "tooth_admissible", "recursion.tooth_admissible", "recursion.comb",
       admitted)

    # recursion: the series
    for attr in ("c3z3_series", "c3z3_direct", "c3z3_mirror", "c3z3_c_coeff"):
        fn(hhi.recursion, attr, "recursion." + attr, "recursion.series")
    meth(hhi.recursion.Series, "compose", "recursion.Series.compose", "recursion.series")

    # cli: main's self time is argument parsing, formatting and printing
    fn(hhi.cli, "main", "cli.main", "cli")
    return undo
