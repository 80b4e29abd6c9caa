"""Genus-zero invariants of [C^N / mu_r] and an exact on-disk cache.

invariant_direct integrates the compact-form Euler class against psi
insertions over M0n and divides by the group order (the stack has a
global mu_r automorphism group); invariant_weighted does the same for
the weighted-space model, where only a polynomial in the distinguished
psi class survives and integration is a multinomial coefficient.
Inadmissible monodromy data gives zero for both (the moduli space is
empty).

Cached values are exact strings in a versioned JSON file; writes go
through a temporary file and an atomic rename.
"""

import json
import os
import tempfile

from .exactnum import LaurentPoly
from .orbifold import OrbifoldData
from .mzeron import CohClass, integrate, psi_marking, psi_integral
from .euler import scaled_compact_class, weighted_class

CACHE_FORMAT = "hhi/1"


class InvariantKey:
    """An invariant's input data: the orbifold, the monodromies, and the
    psi exponent at each marking.  The n-th marking is distinguished."""

    __slots__ = ("data", "psi")

    def __init__(self, data, psi):
        self.data = data
        self.psi = tuple(int(v) for v in psi)
        if len(self.psi) != data.n:
            raise ValueError("need one psi exponent per marking")
        if any(v < 0 for v in self.psi):
            raise ValueError("psi exponents must be nonnegative")

    def canonical(self):
        """Sort the first n-1 (element, psi-exponent) pairs; the
        distinguished marking keeps its place.  Invariants are symmetric
        under this relabeling."""
        pairs = sorted(zip(self.data.elements[:-1], self.psi[:-1]))
        elements = [k for k, _ in pairs] + [self.data.elements[-1]]
        psi = [v for _, v in pairs] + [self.psi[-1]]
        return InvariantKey(OrbifoldData(self.data.r, self.data.weights, elements), psi)

    def __eq__(self, other):
        if not isinstance(other, InvariantKey):
            return NotImplemented
        return (self.data, self.psi) == (other.data, other.psi)

    def __hash__(self):
        return hash((self.data, self.psi))

    def cache_string(self):
        c = self.canonical()
        return "r=%d;w=%s;k=%s;v=%s" % (
            c.data.r,
            ",".join(map(str, c.data.weights)),
            ",".join(map(str, c.data.elements)),
            ",".join(map(str, c.psi)),
        )

    def to_obj(self):
        return {
            "r": self.data.r,
            "weights": list(self.data.weights),
            "elements": list(self.data.elements),
            "psi": list(self.psi),
        }

    @classmethod
    def from_obj(cls, obj):
        return cls(OrbifoldData(obj["r"], obj["weights"], obj["elements"]), obj["psi"])

    def __repr__(self):
        return "InvariantKey(%r, psi=%s)" % (self.data, self.psi)


def invariant_direct(key, cache=None):
    """Invariant by exact integration of the compact-form Euler class.

    The class is built starting from the psi insertions (see
    scaled_compact_product): every term then has degree at least
    |nu| = sum of the psi exponents, and the product's truncation above
    degree n-3 keeps of the Euler class only its degree <= n-3-|nu| part,
    the only part the integral reads.  With no insertions the class
    starts from one, which saves a product.  When |nu| > n-3 the
    integrand has no part in degree n-3 and the value is zero by
    dimension, so nothing is built.
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
        start = None
        if any(key.psi):
            start = CohClass.one(n, data.N)
            for i, v in enumerate(key.psi, 1):
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
    for j, c in weighted_class(data).coeffs.items():
        w = psi_integral(n, key.psi[:-1] + (key.psi[-1] + j,))
        if w:
            val = val + c * w
    val = val.scale_div(data.r)
    if cache is not None:
        cache.put(key, "weighted", val)
    return val


class InvariantCache:
    """Exact invariant values keyed by canonical input data and method."""

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
            "key": key.canonical().to_obj(),
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
        path = path or self.path
        if not path:
            raise ValueError("no cache path configured")
        obj = {"format": CACHE_FORMAT,
               "records": {k: self.records[k] for k in sorted(self.records)}}
        d = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".hhi-cache-")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(obj, fh, indent=1, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def __len__(self):
        return len(self.records)
