"""Command-line front end.

Exit codes: 0 success, 1 bad usage or bad input, 2 a cross-check failed
(two methods that must agree disagreed).  Values are always printed as
exact rationals; --float adds a floating-point rendering but never
replaces the exact one.
"""

import argparse
import functools
import json
import os
import re
import sys

from .exactnum import LaurentPoly, rat_to_float_str, rat_to_str, rational
from .orbifold import OrbifoldData
from .euler import euler_class_mainthm, euler_class_compact, weighted_class
from .invariants import (CACHE_FORMAT, InvariantKey, InvariantCache, invariant_direct,
                         invariant_weighted)
from .recursion import comb_recursion, c3z3_series, c3z3_direct, c3z3_mirror

DEFAULT_CACHE = "hhi-cache.json"


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a comma list starting with a negative entry ("-2,1,1") is a value,
        # as a lone negative number already is, not an option name
        self._negative_number_matcher = re.compile(r"^-\d+(,-?\d*)*$|^-\d*\.\d+$")

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        sys.exit(1)


def _int_list(text):
    try:
        return [int(v) for v in text.split(",")] if text else []
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma-separated integer list")


@functools.cache
def build_parser():
    """The hhi parser, built on the first call and shared by every later
    one: parse_args leaves it unchanged, and building it costs ten times
    what a parse does."""
    p = _Parser(prog="hhi", description=__doc__.splitlines()[0] if __doc__ else None)
    sub = p.add_subparsers(dest="command", required=True)

    def add_data_args(sp, psi=True):
        sp.add_argument("-r", "--order", type=int, required=True,
                        help="order of the cyclic group")
        sp.add_argument("-w", "--weights", type=_int_list, required=True,
                        help="action weights, comma separated")
        sp.add_argument("-k", "--elements", type=_int_list, required=True,
                        help="marked-point monodromies, comma separated; the last is distinguished")
        if psi:
            sp.add_argument("--psi", type=_int_list, default=None,
                            help="psi exponents per marking (default all zero)")

    sp = sub.add_parser("invariant", help="one invariant, by one or several methods")
    add_data_args(sp)
    sp.add_argument("--method", choices=["direct", "weighted", "comb", "all"],
                    default="direct")
    sp.add_argument("--coarse", action="store_true",
                    help="omit the 1/r normalization")
    sp.add_argument("--float", action="store_true", dest="as_float")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--cache", default=None)
    sp.add_argument("--no-cache", action="store_true")

    sp = sub.add_parser("euler", help="the Euler class, by one or both forms")
    add_data_args(sp, psi=False)
    sp.add_argument("--form", choices=["compact", "mainthm", "both"], default="compact")

    sp = sub.add_parser("weighted", help="the weighted-space total class")
    add_data_args(sp, psi=False)

    sp = sub.add_parser("series", help="the [C^3/mu_3] series, by one or several methods")
    sp.add_argument("--lmax", type=int, required=True)
    sp.add_argument("--method", choices=["series", "direct", "mirror", "all"],
                    default="series")
    sp.add_argument("--float", action="store_true", dest="as_float")

    sp = sub.add_parser("check", help="run built-in cross-validation checks")
    sp.add_argument("--lmax", type=int, default=3)
    sp.add_argument("--nmax", type=int, default=6)

    sp = sub.add_parser("cache-info", help="describe the invariant cache")
    sp.add_argument("--cache", default=None)
    return p


def _cache_path(args):
    if args.cache == "":
        raise ValueError("--cache needs a nonempty path")
    if getattr(args, "no_cache", False):
        return None
    if args.cache:
        return args.cache
    path = os.environ.get("HHI_CACHE", DEFAULT_CACHE)
    if not path:
        raise ValueError("HHI_CACHE needs a nonempty path")
    return path


def _make_data(args):
    return OrbifoldData(args.order, args.weights, args.elements)


def _make_key(args):
    data = _make_data(args)
    return InvariantKey(data, [0] * data.n if args.psi is None else args.psi)


def _print_poly(label, val, as_float=False, as_json=False):
    if as_json:
        print(json.dumps({label: val.to_obj()}, sort_keys=True))
        return
    print("%s = %s" % (label, val))
    if as_float:
        print("%s ~ %s" % (label, val.render(rat_to_float_str)))


def _report_agreement(results):
    """Print MATCH or MISMATCH when several methods ran; the exit code."""
    if len(results) < 2:
        return 0
    vals = list(results.values())
    if all(v == vals[0] for v in vals):
        print("MATCH")
        return 0
    print("MISMATCH")
    return 2


def cmd_invariant(args):
    key = _make_key(args)
    path = _cache_path(args)
    if not key.data.admissible():
        if args.json:
            methods = ("comb", "direct") if args.method == "all" else (args.method,)
            for name in methods:
                _print_poly(name, LaurentPoly.zero(key.data.N), as_json=True)
        else:
            print("0")
        sys.stderr.write("note: inadmissible monodromy data; the moduli space is empty\n")
        return 0
    cache = InvariantCache(path) if path else None
    cached = len(cache) if cache is not None else 0
    results = {}
    if args.method in ("direct", "all"):
        results["direct"] = invariant_direct(key, cache=cache)
    if args.method in ("weighted",):
        results["weighted"] = invariant_weighted(key, cache=cache)
    if args.method in ("comb", "all"):
        try:
            results["comb"] = comb_recursion(key)
        except ValueError as exc:
            if args.method == "comb":
                raise
            sys.stderr.write("note: comb recursion not applicable: %s\n" % exc)
    if args.coarse:
        results = {name: v * key.data.r for name, v in results.items()}
    for name in sorted(results):
        _print_poly(name, results[name], args.as_float, args.json)
    rc = _report_agreement(results)
    # a call that added no record leaves the file alone; a save merges
    # with the file, so it keeps records other processes saved meanwhile
    if cache is not None and len(cache) > cached:
        try:
            cache.save()
        except (OSError, ValueError) as exc:
            sys.stderr.write("warning: cache not saved to %s: %s\n"
                             % (path, getattr(exc, "strerror", None) or exc))
    return rc


def cmd_euler(args):
    data = _make_data(args)
    classes = {}
    if args.form in ("compact", "both"):
        classes["compact"] = euler_class_compact(data)
    if args.form in ("mainthm", "both"):
        classes["mainthm"] = euler_class_mainthm(data)
    for name in sorted(classes):
        print(json.dumps({name: classes[name].to_obj()}, sort_keys=True))
    return _report_agreement(classes)


def cmd_weighted(args):
    w = weighted_class(_make_data(args))
    obj = {str(j): c.to_obj() for j, c in sorted(w.items())}
    print(json.dumps(obj, sort_keys=True))
    return 0


def _check_lmax(args):
    if args.lmax < 0:
        raise ValueError("--lmax must be nonnegative")


def cmd_series(args):
    _check_lmax(args)
    results = {}
    if args.method in ("series", "all"):
        results["series"] = c3z3_series(args.lmax)
    if args.method in ("direct", "all"):
        results["direct"] = [c3z3_direct(ell) for ell in range(args.lmax + 1)]
    if args.method in ("mirror", "all"):
        results["mirror"] = c3z3_mirror(args.lmax)
    for name in sorted(results):
        for ell, v in enumerate(results[name]):
            line = "%s I_%d = %s" % (name, ell, rat_to_str(v))
            if args.as_float:
                line += " ~ " + rat_to_float_str(v)
            print(line)
    return _report_agreement(results)


def cmd_check(args):
    _check_lmax(args)
    if args.nmax < 3:
        raise ValueError("--nmax must be at least 3")
    failures = 0

    def report(name, ok):
        nonlocal failures
        print("%s %s" % ("ok  " if ok else "FAIL", name))
        if not ok:
            failures += 1

    base = InvariantKey(OrbifoldData(3, (1, 1, 1), (1, 1, 1)), (0, 0, 0))
    report("base invariant 1/3",
           invariant_direct(base) == LaurentPoly.const(3, rational(1, 3)))
    vals = c3z3_series(args.lmax)
    report("series vs closed form (lmax=%d)" % args.lmax,
           vals == [c3z3_direct(ell) for ell in range(args.lmax + 1)])
    report("series vs mirror map (lmax=%d)" % args.lmax,
           vals == c3z3_mirror(args.lmax))
    for n in range(4, args.nmax + 1):
        if n % 3:
            continue
        key = InvariantKey(OrbifoldData(3, (1, 1, 1), (1,) * n), (0,) * n)
        report("comb vs direct, n=%d" % n,
               comb_recursion(key) == invariant_direct(key))
    for elems in [(1, 1, 1, 1, 1, 1), (1, 1, 2, 2, 0)]:
        data = OrbifoldData(3, (1, 1, 1), elems)
        if not data.admissible() or data.n > args.nmax:
            continue
        report("euler forms agree, elements=%s" % (elems,),
               euler_class_compact(data) == euler_class_mainthm(data))
    print("%d failure(s)" % failures)
    return 2 if failures else 0


def cmd_cache_info(args):
    path = _cache_path(args)
    print("path: %s" % path)
    if not os.path.exists(path):
        print("records: 0 (no file)")
        return 0
    cache = InvariantCache(path)
    methods = {"direct": 0, "weighted": 0}
    for rec in cache.records.values():
        method = str(rec.get("method"))
        methods[method] = methods.get(method, 0) + 1
    print("format: %s" % CACHE_FORMAT)
    print("bytes: %d" % os.path.getsize(path))
    print("records: %d" % len(cache))
    print("methods: %s" % " ".join("%s=%d" % kv for kv in sorted(methods.items())))
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    handler = {
        "invariant": cmd_invariant,
        "euler": cmd_euler,
        "weighted": cmd_weighted,
        "series": cmd_series,
        "check": cmd_check,
        "cache-info": cmd_cache_info,
    }[args.command]
    try:
        rc = handler(args)
    except ValueError as exc:
        sys.stderr.write("error: %s\n" % exc)
        rc = 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
