"""Helpers shared by the ring tests: the upper fractional part, bitmasks
of marking sets, the laminar monomials of a degree, a class's part of
one degree, the ring product by its definition, the check that a class
vanishes in cohomology, the weighted-space class as a ring class, and
the compact-form product unscaled."""

import functools
import math

from hhi.euler import scaled_compact_product, unscale
from hhi.exactnum import LaurentPoly
from hhi.mzeron import (CohClass, full_mask, integrate, merge_monomials, mono_degree,
                        psi_marking)


def frac_unit(x):
    """Fractional part in (0, 1]: x - ceil(x) + 1.  Equals 1 on integers."""
    return x - math.ceil(x) + 1


def mask_of(markings):
    """Bitmask of an iterable of 1-based marking indices."""
    m = 0
    for i in markings:
        m |= 1 << (i - 1)
    return m


@functools.lru_cache(maxsize=None)
def laminar_monomials(n, degree):
    """All nonzero monomials of the given degree on the n-marked space,
    sorted (exhaustive; small n only)."""
    masks = range(1, full_mask(n) + 1)
    out = []

    def grow(mono, start, depth):
        if depth == degree:
            out.append(tuple(sorted(mono.items())))
            return
        for idx in range(start, len(masks)):
            m = masks[idx]
            if all((m & s == m) or (m & s == s) or not (m & s) for s in mono):
                grown = dict(mono)
                grown[m] = grown.get(m, 0) + 1
                grow(grown, idx, depth + 1)

    grow({}, 0, 0)
    return tuple(sorted(out))


def degree_part(cls, d):
    """The terms of cls of degree d."""
    return CohClass(cls.n, cls.nvars,
                    {m: c for m, c in cls.terms.items() if mono_degree(m) == d})


def naive_product(x, y):
    """The ring product by its definition: every pair of monomials,
    merged by merge_monomials and truncated above degree n-3."""
    out = {}
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            if mono_degree(m1) + mono_degree(m2) > x.n - 3:
                continue
            m = merge_monomials(m1, m2)
            if m is not None:
                out[m] = out[m] + c1 * c2 if m in out else c1 * c2
    return CohClass(x.n, x.nvars, out)


def cohomologically_zero(cls):
    """A class vanishes in cohomology iff it pairs to zero with every
    laminar monomial of complementary degree."""
    n, nvars = cls.n, cls.nvars
    one = LaurentPoly.one(nvars)
    for deg in range(n - 2):
        # a product keeps its monomials' degrees, so times one the part's
        # degrees are computed once, not once per probe
        part = degree_part(cls, deg) * CohClass.one(n, nvars)
        if part.is_zero():
            continue
        for mono in laminar_monomials(n, n - 3 - deg):
            if not integrate(part * CohClass(n, nvars, {mono: one})).is_zero():
                return False
    return True


def weighted_as_coh_class(w, n, nvars):
    """Substitute H -> psi_n in weighted_class's {j: coefficient of H^j}."""
    psi_n = psi_marking(n, nvars, n)
    return sum((CohClass.scalar(n, nvars, c) * psi_n ** j for j, c in w.items()),
               CohClass.zero(n, nvars))


def compact_product(n, nvars, deltas, prefactor_exps):
    """The compact-form product of scaled_compact_product, unscaled."""
    return unscale(*scaled_compact_product(n, nvars, deltas, prefactor_exps,
                                           CohClass.one(n, nvars)))
