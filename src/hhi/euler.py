"""Equivariant Euler classes of the obstruction bundles on M0n.

Two independent evaluators are provided for the same class:

* euler_class_mainthm assembles, direction by direction, a head factor
  built from the psi class of the distinguished marking and one wall
  factor per proper boundary subset;
* euler_class_compact evaluates a single product over all nonempty
  subsets of the non-distinguished markings, against a Laurent monomial
  prefactor.

Both use the signed-index-set convention for product ranges: indices run
in unit steps from the upper fractional part, and ranges that would run
backwards contribute reciprocal factors.  Denominators are expanded by
geometric series, which terminate because psi classes are nilpotent.

Every factor (t_a + p X)^(+-1), X nilpotent, except the head's is
multiplied in a tiny commutative algebra on two nilpotent symbols
x = D(T) and y = psi_T, and only the resulting polynomial is expanded
into boundary monomials; every monomial of a power of psi_T strictly
contains T, so that expansion never needs a laminarity check against
D(T) itself.  A wall factor and a compact-form subset are the same
index product (_biv_mul_index_product); weighted_class is the
one-symbol case, with x standing for H.  The compact form is built on
integers: with s the lcm of the age denominators, it feeds the indices
as p*s and so carries each degree-d coefficient times s^d
(scaled_compact_product).  The head-and-walls form stays on rational
indices, an independent route to compare with, and its head is a
product of ring classes (_linear, inv_linear) so that comparing it with
weighted_class checks the algebra against the ring.

weighted_class is the analogous total class for the target with all
markings generic: a polynomial in a single nilpotent variable H standing
for the psi class at the distinguished marking.
"""

import math

from .exactnum import LaurentPoly, rational, signed_index_set
from .mzeron import CohClass, full_mask, markings_of, mono_degree, psi_subset


def _require_admissible(data):
    if not data.admissible():
        raise ValueError("inadmissible data: %r" % (data,))


def inv_linear(n, nvars, a, nilp):
    """(t_a + nilp)^(-1) as a CohClass, for nilp of positive degree."""
    tinv = LaurentPoly.var_power(nvars, a, -1)
    out = CohClass.scalar(n, nvars, tinv)
    power = CohClass.scalar(n, nvars, tinv)
    for _ in range(n - 3):
        power = power * nilp * (-tinv)
        if power.is_zero():
            break
        out = out + power
    return out


def _linear(n, nvars, a, p, nilp):
    """t_a + p * nilp as a CohClass."""
    return CohClass.scalar(n, nvars, LaurentPoly.var_power(nvars, a, 1)) + nilp * p


# ---------------------------------------------------------------------------
# The two-symbol working algebra: dicts (j, k) -> LaurentPoly standing for
# sum of c_{jk} x^j y^k with x, y nilpotent and terms of total degree
# beyond maxdeg discarded.


def _biv_one(nvars):
    return {(0, 0): LaurentPoly.one(nvars)}


def _biv_mul_linear(biv, nvars, a, cx, cy, maxdeg):
    """Multiply by t_a + cx*x + cy*y."""
    t = LaurentPoly.var_power(nvars, a, 1)
    out = {}

    def bump(j, k, c):
        if j + k <= maxdeg and c:
            s = out.get((j, k))
            s = c if s is None else s + c
            if s:
                out[(j, k)] = s
            else:
                out.pop((j, k), None)

    for (j, k), c in biv.items():
        bump(j, k, c * t)
        if cx:
            bump(j + 1, k, c * cx)
        if cy:
            bump(j, k + 1, c * cy)
    return out


def _biv_mul_inv(biv, nvars, a, cx, cy, maxdeg):
    """Multiply by (t_a + cx*x + cy*y)^(-1), expanded geometrically."""
    tinv = LaurentPoly.var_power(nvars, a, -1)
    tpows = [tinv]  # tpows[d] = t_a^-(d+1)
    for _ in range(maxdeg):
        tpows.append(tpows[-1] * tinv)
    out = {}
    for (j, k), c in biv.items():
        for d in range(maxdeg - j - k + 1):
            # coefficient of (-(cx*x + cy*y)/t)^d, times c/t
            cd = c * tpows[d]
            for i in range(d + 1):
                if (cx or i == 0) and (cy or i == d):
                    jj, kk = j + i, k + d - i
                    w = cd * ((-1) ** d * math.comb(d, i) * cx ** i * cy ** (d - i))
                    if w:
                        s = out.get((jj, kk))
                        s = w if s is None else s + w
                        if s:
                            out[(jj, kk)] = s
                        else:
                            out.pop((jj, kk), None)
    return out


def _biv_mul_index_product(biv, nvars, a, positives, negatives, maxdeg):
    """Multiply by (t_a + p*(x+y)) / (t_a + p*y) for each positive index
    p and by the reciprocal for each negative one."""
    for p in positives:
        biv = _biv_mul_linear(biv, nvars, a, p, p, maxdeg)
        biv = _biv_mul_inv(biv, nvars, a, 0, p, maxdeg)
    for p in negatives:
        biv = _biv_mul_linear(biv, nvars, a, 0, p, maxdeg)
        biv = _biv_mul_inv(biv, nvars, a, p, p, maxdeg)
    return biv


def _psi_powers(n, nvars, tmask, maxdeg):
    """[psi_T^0, psi_T^1, ...] up to degree maxdeg (or nilpotency)."""
    pows = [CohClass.one(n, nvars)]
    psi = psi_subset(n, nvars, tmask)
    for _ in range(maxdeg):
        nxt = pows[-1] * psi
        if nxt.is_zero():
            break
        pows.append(nxt)
    return pows


def _expand_bivariate(n, nvars, tmask, biv, maxdeg):
    """Substitute x -> D(tmask), y -> psi_tmask in a two-symbol polynomial
    truncated above degree maxdeg (psi_T^k is homogeneous of degree k)."""
    psi_pows = _psi_powers(n, nvars, tmask, maxdeg)
    terms = {}
    for (j, k), c in sorted(biv.items()):
        if k >= len(psi_pows):
            continue
        for mono, pc in psi_pows[k].terms.items():
            m = tuple(sorted(mono + ((tmask, j),))) if j else mono
            v = pc * c
            s = terms.get(m)
            terms[m] = v if s is None else s + v
    return CohClass(n, nvars, {m: c for m, c in terms.items() if not c.is_zero()})


# ---------------------------------------------------------------------------
# The two Euler class forms.


def wall_factor(n, nvars, tmask, delta_t, a):
    """Product over p in the signed index set of delta_t - 1 of
    (1 + p D(T) / (t_a + p psi_T)), as a CohClass."""
    s = signed_index_set(delta_t - 1)
    if s.is_empty():
        return CohClass.one(n, nvars)
    biv = _biv_mul_index_product(_biv_one(nvars), nvars, a, s.positives, s.negatives, n - 3)
    return _expand_bivariate(n, nvars, tmask, biv, n - 3)


def euler_class_mainthm(data):
    """Euler class via the head-times-walls product form."""
    _require_admissible(data)
    n, nvars = data.n, data.N
    fm = full_mask(n)
    psi_n = -CohClass.generator(n, nvars, fm)
    out = CohClass.one(n, nvars)
    body = list(range(1, n))
    for a in range(1, nvars + 1):
        s = signed_index_set(data.age_sum(body, a) - 1)
        for p in s.positives:
            out = out * _linear(n, nvars, a, -p, psi_n)
        for p in s.negatives:
            out = out * inv_linear(n, nvars, a, -psi_n * p)
    for tmask in range(1, fm + 1):
        if not 2 <= tmask.bit_count() <= n - 2:
            continue
        markings = markings_of(tmask)
        factor = None
        for a in range(1, nvars + 1):
            f = wall_factor(n, nvars, tmask, data.age_sum(markings, a), a)
            factor = f if factor is None else factor * f
        if factor.terms != {(): LaurentPoly.one(nvars)}:
            out = out * factor
    return out


def scaled_compact_product(n, nvars, deltas, prefactor_exps, start=None):
    """The compact-form evaluator on raw age data, built on integers.

    deltas[a-1][i-1] is the age-type exponent of marking i (1..n-1) in
    direction a; it need not lie in [0,1).  prefactor_exps[a-1] is the
    integer exponent of t_a multiplying the whole product.  For each
    direction and each nonempty subset T of the non-distinguished
    markings, the product over the signed index set of delta_T - 1 of
    (t_a + p psi_T + p D(T)) / (t_a + p psi_T) is included.

    Returns (cls, s), where s is the lcm of the denominators of the
    deltas and cls is the product with each degree-d coefficient
    multiplied by s^d.  Every index p lies in (1/s)Z, so feeding the
    integer p*s to the two-symbol algebra scales the coefficient of
    x^j y^k by s^(j+k); the geometric-series inverses divide only by
    t_a, so every coefficient of cls is an integer Laurent polynomial.

    start, if given, is a class the product starts from, scaled the same
    way on entry, so cls is start times the product.  Like every CohClass
    product this is truncated above degree n-3, so when every term of
    start has degree at least k, the factors' terms above degree n-3-k
    vanish against it and are never built.  invariant_direct starts from
    its psi insertions (degree |nu|), which makes the whole build produce
    only the degrees <= n-3-|nu| of the class that its integral reads.
    The subset factors are multiplied in descending order of |T|, which
    measured faster than ascending on the benchmark's n=7 classes.
    """
    s = math.lcm(*(d.denominator for row in deltas for d in row))
    fm = full_mask(n)
    pref = LaurentPoly(nvars, {tuple(prefactor_exps): 1})
    if start is None:
        out = CohClass.scalar(n, nvars, pref)
        maxdeg = n - 3
    else:
        out = CohClass(n, nvars, {m: c * (pref * s ** mono_degree(m))
                                  for m, c in start.terms.items()})
        maxdeg = n - 3 - min(map(mono_degree, start.terms), default=0)
    for tmask in sorted(range(1, fm + 1), key=lambda m: -m.bit_count()):
        biv = None
        for a in range(1, nvars + 1):
            delta_t = sum(deltas[a - 1][b] for b in range(n - 1) if tmask >> b & 1)
            idx = signed_index_set(delta_t - 1)
            if idx.is_empty():
                continue
            if biv is None:
                biv = _biv_one(nvars)
            biv = _biv_mul_index_product(biv, nvars, a, [int(p * s) for p in idx.positives],
                                         [int(p * s) for p in idx.negatives], maxdeg)
        if biv is not None:
            out = out * _expand_bivariate(n, nvars, tmask, biv, maxdeg)
    return out, s


def unscale(cls, s):
    """Divide each degree-d coefficient of cls by s^d."""
    if s == 1:
        return cls
    return CohClass(cls.n, cls.nvars, {m: c.scale_div(s ** mono_degree(m))
                                       for m, c in cls.terms.items()})


def compact_product(n, nvars, deltas, prefactor_exps):
    """The compact-form product of scaled_compact_product, unscaled."""
    return unscale(*scaled_compact_product(n, nvars, deltas, prefactor_exps))


def scaled_compact_class(data, start=None):
    """The compact-form Euler class as (cls, s), scaled as in
    scaled_compact_product (s divides the group order), times start if
    given."""
    _require_admissible(data)
    n, nvars = data.n, data.N
    deltas = [[data.age(i, a) for i in range(1, n)] for a in range(1, nvars + 1)]
    prefactor = []
    for a in range(1, nvars + 1):
        total = data.age_sum(range(1, n + 1), a)
        if total.denominator != 1:
            raise ValueError("per-direction age sum must be an integer")
        prefactor.append(int(total) - 1)
    return scaled_compact_product(n, nvars, deltas, prefactor, start)


def euler_class_compact(data):
    """Euler class via the all-subsets product against a t-monomial prefactor."""
    return unscale(*scaled_compact_class(data))


class WeightedClass:
    """Total class for the weighted-space target, as a polynomial in a
    nilpotent variable H (the psi class at the distinguished marking)
    with Laurent coefficients, truncated above H^(n-3)."""

    __slots__ = ("n", "nvars", "coeffs")

    def __init__(self, n, nvars, coeffs=None):
        self.n = n
        self.nvars = nvars
        self.coeffs = {}
        if coeffs:
            for j, c in coeffs.items():
                if c and j <= n - 3:
                    self.coeffs[j] = c

    def coefficient(self, j):
        return self.coeffs.get(j, LaurentPoly.zero(self.nvars))

    def __eq__(self, other):
        return (isinstance(other, WeightedClass)
                and (self.n, self.nvars) == (other.n, other.nvars)
                and self.coeffs == other.coeffs)

    def as_coh_class(self):
        """Substitute H -> psi_n, yielding a CohClass."""
        fm = full_mask(self.n)
        terms = {}
        for j, c in self.coeffs.items():
            mono = () if j == 0 else ((fm, j),)
            terms[mono] = c * rational((-1) ** j)
        return CohClass(self.n, self.nvars, terms)

    def __repr__(self):
        return "WeightedClass[n=%d] %s" % (
            self.n, {j: str(c) for j, c in sorted(self.coeffs.items())})


def weighted_class(data):
    """Product over directions a and the signed index set of the total
    age of markings 1..n-1 minus one, of (t_a - p H)."""
    _require_admissible(data)
    n, nvars = data.n, data.N
    # the two-symbol algebra with y unused and x standing for H
    biv = _biv_one(nvars)
    body = list(range(1, n))
    for a in range(1, nvars + 1):
        s = signed_index_set(data.age_sum(body, a) - 1)
        for p in s.positives:
            biv = _biv_mul_linear(biv, nvars, a, -p, 0, n - 3)
        for p in s.negatives:
            biv = _biv_mul_inv(biv, nvars, a, -p, 0, n - 3)
    return WeightedClass(n, nvars, {j: c for (j, _), c in biv.items()})
