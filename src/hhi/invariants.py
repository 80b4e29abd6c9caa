"""Genus-zero invariants of [C^N / mu_r] and an exact on-disk cache.

invariant_direct integrates the compact-form Euler class against psi
insertions over M0n and divides by the group order (the stack has a
global mu_r automorphism group); invariant_weighted does the same for
the weighted-space model, where only a polynomial in the distinguished
psi class survives and integration is a multinomial coefficient.
Monodromies that do not multiply to one give zero for both (the moduli
space is empty); OrbifoldData already refuses fewer than three markings.

Cached values are exact strings in a versioned JSON file, one record per
line.  A save merges the records on disk with its own, then writes
through a temporary file and an atomic rename.
"""

import json
import os
import stat
import tempfile

from .exactnum import LaurentPoly
from .orbifold import OrbifoldData
from .mzeron import CohClass, integrate, psi_marking, psi_integral
from .euler import scaled_compact_class, weighted_class

CACHE_FORMAT = "hhi/1"


class InvariantKey:
    """An invariant's input data: the orbifold, the monodromies, and the
    psi exponent at each marking.  The n-th marking is distinguished.
    Invariants are symmetric in the first n-1 (element, psi exponent)
    pairs, so they are stored sorted: relabelings give equal keys."""

    __slots__ = ("data", "psi")

    def __init__(self, data, psi):
        psi = tuple(int(v) for v in psi)
        if len(psi) != data.n:
            raise ValueError("need one psi exponent per marking")
        if any(v < 0 for v in psi):
            raise ValueError("psi exponents must be nonnegative")
        *body, last = zip(data.elements, psi)
        elements, self.psi = zip(*sorted(body), last)
        self.data = OrbifoldData(data.r, data.weights, elements)

    def __eq__(self, other):
        if not isinstance(other, InvariantKey):
            return NotImplemented
        return (self.data, self.psi) == (other.data, other.psi)

    def __hash__(self):
        return hash((self.data, self.psi))

    def cache_string(self):
        return "r=%d;w=%s;k=%s;v=%s" % (
            self.data.r,
            ",".join(map(str, self.data.weights)),
            ",".join(map(str, self.data.elements)),
            ",".join(map(str, self.psi)),
        )

    def to_obj(self):
        return {
            "r": self.data.r,
            "weights": list(self.data.weights),
            "elements": list(self.data.elements),
            "psi": list(self.psi),
        }

    def __repr__(self):
        return "InvariantKey(%r, psi=%s)" % (self.data, self.psi)


def invariant_direct(key, cache=None):
    """Invariant by exact integration of the compact-form Euler class.

    The class is built starting from the psi insertions (see
    scaled_compact_product): every term then has degree at least
    |nu| = sum of the psi exponents, and the product's truncation above
    degree n-3 keeps of the Euler class only its degree <= n-3-|nu| part,
    the only part the integral reads; with no insertions the start is
    one.  When |nu| > n-3 the integrand has no part in degree n-3 and the
    value is zero by dimension, so nothing is built.
    """
    data = key.data
    if not data.admissible():
        return LaurentPoly.zero(data.N)
    if cache is not None:
        hit = cache.get(key, "direct")
        if hit is not None:
            return hit
    n = data.n
    if sum(key.psi) > n - 3:
        val = LaurentPoly.zero(data.N)
    else:
        start = CohClass.one(n, data.N)
        for i, v in enumerate(key.psi, 1):
            if v:
                start = start * psi_marking(n, data.N, i) ** v
        # The integer class carries its degree-d coefficients (the start's
        # included) times s^d, so one division undoes the scale.
        cls, s = scaled_compact_class(data, start)
        val = integrate(cls).scale_div(s ** (n - 3) * data.r)
    if cache is not None:
        cache.put(key, "direct", val)
    return val


def invariant_weighted(key, cache=None):
    """Invariant for the weighted-space model: only the distinguished
    psi class appears in the total class, so the integral reduces to
    multinomial coefficients."""
    data = key.data
    if not data.admissible():
        return LaurentPoly.zero(data.N)
    if cache is not None:
        hit = cache.get(key, "weighted")
        if hit is not None:
            return hit
    n = data.n
    val = LaurentPoly.zero(data.N)
    for j, c in weighted_class(data).items():
        w = psi_integral(n, key.psi[:-1] + (key.psi[-1] + j,))
        if w:
            val = val + c * w
    val = val.scale_div(data.r)
    if cache is not None:
        cache.put(key, "weighted", val)
    return val


class InvariantCache:
    """Exact invariant values keyed by input data and method."""

    def __init__(self, path=None):
        self.path = path
        self.records = {}
        if path and os.path.exists(path):
            self.load(path)

    @staticmethod
    def _record_key(key, method):
        # "coarse=0": records of normalized values, as older files wrote them
        return "%s;method=%s;coarse=0" % (key.cache_string(), method)

    def get(self, key, method):
        rec = self.records.get(self._record_key(key, method))
        if rec is None:
            return None
        try:
            return LaurentPoly.from_obj(key.data.N, rec["value"])
        except ValueError as exc:
            raise ValueError("cache %s has a malformed record: %s" % (self.path, exc)) from None

    def put(self, key, method, value):
        self.records[self._record_key(key, method)] = {
            "key": key.to_obj(),
            "method": method,
            "coarse": False,
            "value": value.to_obj(),
        }

    def load(self, path):
        """Read the records of a cache file; ValueError if the file is not
        a cache.  Only types are checked: every record must be an object
        carrying a "value" list."""
        try:
            with open(path) as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise ValueError("cannot read cache %s: %s" % (path, exc.strerror))
        except ValueError as exc:
            raise ValueError("cache %s is not valid JSON: %s" % (path, exc)) from None
        if not isinstance(obj, dict):
            raise ValueError("cache %s is not a JSON object" % path)
        if obj.get("format") != CACHE_FORMAT:
            raise ValueError("unrecognized cache format: %r" % obj.get("format"))
        records = obj.get("records", {})
        if not isinstance(records, dict) or not all(
                isinstance(rec, dict) and isinstance(rec.get("value"), list)
                for rec in records.values()):
            raise ValueError("cache %s has a malformed record" % path)
        self.records.update(records)

    def save(self, path=None):
        """Write every record to the file: those on disk now, so records
        another writer saved since this cache was loaded are kept, and this
        cache's own, which win.  The file is plain JSON, one record per
        line in key order; an existing file keeps its mode, a new one gets
        0o666 less the umask.  ValueError if the file on disk is no longer
        a cache; it is then left alone."""
        path = path or self.path
        if not path:
            raise ValueError("no cache path configured")
        try:
            mode = stat.S_IMODE(os.stat(path).st_mode)
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        else:
            ours = dict(self.records)
            self.load(path)
            self.records.update(ours)
        encode = json.JSONEncoder(sort_keys=True).encode
        lines = ["%s: %s" % (encode(k), encode(self.records[k])) for k in sorted(self.records)]
        d = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".hhi-cache-")
        try:
            with os.fdopen(fd, "w") as fh:
                os.fchmod(fd, mode)
                fh.write('{"format": %s, "records": {\n' % encode(CACHE_FORMAT))
                fh.write(",\n".join(lines))
                fh.write("\n}}\n" if lines else "}}\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def __len__(self):
        return len(self.records)
