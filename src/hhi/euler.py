"""Equivariant Euler classes of the obstruction bundles on M0n.

Two independent evaluators are provided for the same class:

* euler_class_mainthm multiplies a head factor, built direction by
  direction from the psi class of the distinguished marking, by one
  factor per proper boundary subset (a wall);
* euler_class_compact evaluates a single product over all nonempty
  subsets of the non-distinguished markings, against a Laurent monomial
  prefactor.

Both use the signed-index-set convention for product ranges: indices run
in unit steps from the upper fractional part, and ranges that would run
backwards contribute reciprocal factors.  Denominators are expanded by
geometric series, which terminate because psi classes are nilpotent.

Both forms build the factor of a subset T, across every direction, with
one function (_subset_factor) in a tiny commutative algebra on two
nilpotent symbols x = D(T) and y = psi_T, with one truncated product
(_biv_mul).  An index factor (t_a + p(x+y)) / (t_a + p y) is homogeneous
of degree 0 in (t_a, x, y), so in u = x/t_a, v = y/t_a it is a
polynomial with plain number coefficients (_index_product); one lift
(_lift) attaches t_a^(-j-k) to the coefficient of x^j y^k, the
directions are multiplied with the same product, and x -> D(T),
y -> psi_T is substituted once per subset.  Every monomial of a power
of psi_T strictly contains T, so that substitution never needs a
laminarity check against D(T) itself.  weighted_class is the one-symbol
case, with x standing for H.  The forms differ in the subsets they run
over, in head against prefactor, and in their indices: the compact form
is built on integers (with s the lcm of the age denominators, it feeds
the indices as p*s and so carries each degree-d coefficient times s^d;
scaled_compact_product), while the head-and-walls form stays on
rational indices, and its head is a product of ring classes (_linear,
inv_linear) so that comparing it with weighted_class checks the algebra
against the ring.  wall_factor is the factor of one direction alone, so
multiplying wall factors in the ring checks the algebra's product of
directions.

weighted_class is the analogous total class for the target with all
markings generic: a polynomial in a single nilpotent variable H standing
for the psi class at the distinguished marking, as a dict {j: coefficient
of H^j}.
"""

import math

from .exactnum import LaurentPoly, signed_index_set
from .mzeron import CohClass, full_mask, markings_of, mono_degree, psi_marking, psi_subset


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
# The two-symbol working algebra: dicts {(j, k): c} standing for the sum of
# c x^j y^k with x, y nilpotent and terms of total degree beyond maxdeg
# discarded.  The coefficients are ints, Fractions or LaurentPolys.


def _biv_mul(f, g, maxdeg):
    """f * g, dropping terms above degree maxdeg and zero coefficients."""
    out = {}
    for (j1, k1), c1 in f.items():
        room = maxdeg - j1 - k1
        for (j2, k2), c2 in g.items():
            if j2 + k2 <= room:
                jk = (j1 + j2, k1 + k2)
                s = out.get(jk)
                out[jk] = c1 * c2 if s is None else s + c1 * c2
    return {jk: c for jk, c in out.items() if c}


def _index_product(positives, negatives, maxdeg):
    """The index factors (t_a + p(x+y)) / (t_a + p y) for p in positives
    and their reciprocals for p in negatives, in u = x/t_a, v = y/t_a:
    1 + pu/(1 + pv) and 1 - pu/(1 + p(u+v)), plain number coefficients."""
    out = {(0, 0): 1}
    for p in positives:
        factor = {(1, d): p * (-p) ** d for d in range(maxdeg)}
        out = _biv_mul(out, {(0, 0): 1, **factor}, maxdeg)
    for p in negatives:
        factor = {(1 + i, d - i): (-p) ** (d + 1) * math.comb(d, i)
                  for d in range(maxdeg) for i in range(d + 1)}
        out = _biv_mul(out, {(0, 0): 1, **factor}, maxdeg)
    return out


def _lift(f, nvars, a, shift):
    """Back from u = x/t_a, v = y/t_a: the coefficient of x^j y^k gains
    the factor t_a^(shift - j - k)."""
    return {(j, k): LaurentPoly.var_power(nvars, a, shift - j - k, c)
            for (j, k), c in f.items()}


def _subset_factor(n, nvars, tmask, index_sets, maxdeg):
    """The factor of the subset T = tmask across every direction: the
    index products of index_sets[a-1] = (positives, negatives), lifted in
    direction a and multiplied in the two-symbol algebra, then x -> D(T),
    y -> psi_T substituted once, all truncated above degree maxdeg (psi_T^k
    is homogeneous of degree k).  None when every index set is empty."""
    biv = None
    for a, (positives, negatives) in enumerate(index_sets, 1):
        if positives or negatives:
            f = _lift(_index_product(positives, negatives, maxdeg), nvars, a, 0)
            biv = f if biv is None else _biv_mul(biv, f, maxdeg)
    if biv is None:
        return None
    psi = psi_subset(n, nvars, tmask)
    psi_pows = [CohClass.one(n, nvars)]
    for _ in range(max((k for _, k in biv), default=0)):
        psi_pows.append(psi_pows[-1] * psi)
    terms = {}
    for (j, k), c in sorted(biv.items()):
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
    index_sets = [([], [])] * nvars
    index_sets[a - 1] = signed_index_set(delta_t - 1)
    factor = _subset_factor(n, nvars, tmask, index_sets, n - 3)
    return CohClass.one(n, nvars) if factor is None else factor


def euler_class_mainthm(data):
    """Euler class via the head-times-walls product form."""
    _require_admissible(data)
    n, nvars = data.n, data.N
    fm = full_mask(n)
    psi_n = psi_marking(n, nvars, n)
    out = CohClass.one(n, nvars)
    body = list(range(1, n))
    for a in range(1, nvars + 1):
        positives, negatives = signed_index_set(data.age_sum(body, a) - 1)
        for p in positives:
            out = out * _linear(n, nvars, a, -p, psi_n)
        for p in negatives:
            out = out * inv_linear(n, nvars, a, -psi_n * p)
    for tmask in range(1, fm + 1):
        if not 2 <= tmask.bit_count() <= n - 2:
            continue
        markings = markings_of(tmask)
        factor = _subset_factor(n, nvars, tmask, [
            signed_index_set(data.age_sum(markings, a) - 1) for a in range(1, nvars + 1)], n - 3)
        if factor is not None:
            out = out * factor
    return out


def scaled_compact_product(n, nvars, deltas, prefactor_exps, start):
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

    start is the class the product starts from (one for the bare
    product), scaled the same way on entry, so cls is start times the
    product.  Like every CohClass product this is truncated above degree
    n-3, so when every term of start has degree at least k, the factors'
    terms above degree n-3-k vanish against it and are never built.  invariant_direct starts from
    its psi insertions (degree |nu|), which makes the whole build produce
    only the degrees <= n-3-|nu| of the class that its integral reads.
    The subset factors are multiplied in descending order of |T|, which
    measured faster than ascending on the benchmark's n=7 classes.
    """
    s = math.lcm(*(d.denominator for row in deltas for d in row))
    fm = full_mask(n)
    pref = LaurentPoly(nvars, {tuple(prefactor_exps): 1})
    out = CohClass(n, nvars, {m: c * (pref * s ** mono_degree(m))
                              for m, c in start.terms.items()})
    maxdeg = n - 3 - min(map(mono_degree, start.terms), default=0)
    for tmask in sorted(range(1, fm + 1), key=lambda m: -m.bit_count()):
        bits = [b for b in range(n - 1) if tmask >> b & 1]
        factor = _subset_factor(n, nvars, tmask, [
            [[int(p * s) for p in ps] for ps in signed_index_set(sum(row[b] for b in bits) - 1)]
            for row in deltas], maxdeg)
        if factor is not None:
            out = out * factor
    return out, s


def unscale(cls, s):
    """Divide each degree-d coefficient of cls by s^d."""
    if s == 1:
        return cls
    return CohClass(cls.n, cls.nvars, {m: c.scale_div(s ** mono_degree(m))
                                       for m, c in cls.terms.items()})


def scaled_compact_class(data, start):
    """The compact-form Euler class as (cls, s), scaled as in
    scaled_compact_product (s divides the group order), times start."""
    _require_admissible(data)
    n, nvars = data.n, data.N
    deltas = [[data.age(i, a) for i in range(1, n)] for a in range(1, nvars + 1)]
    # admissible data have an integer age sum in every direction
    prefactor = [int(data.age_sum(range(1, n + 1), a)) - 1 for a in range(1, nvars + 1)]
    return scaled_compact_product(n, nvars, deltas, prefactor, start)


def euler_class_compact(data):
    """Euler class via the all-subsets product against a t-monomial prefactor."""
    return unscale(*scaled_compact_class(data, CohClass.one(data.n, data.N)))


def weighted_class(data):
    """Product over directions a and the signed index set of the total
    age of markings 1..n-1 minus one, of (t_a - p H)^(+-1), H the psi
    class at the distinguished marking, as {j: Laurent coefficient of
    H^j} with zero coefficients and terms above H^(n-3) left out."""
    _require_admissible(data)
    n, nvars = data.n, data.N
    # the two-symbol algebra with y unused and x standing for H:
    # (t_a - pH)^(+-1) = t_a^(+-1) (1 - pu)^(+-1), u = H/t_a
    out = {(0, 0): LaurentPoly.one(nvars)}
    body = list(range(1, n))
    for a in range(1, nvars + 1):
        positives, negatives = signed_index_set(data.age_sum(body, a) - 1)
        f = {(0, 0): 1}
        for p in positives:
            f = _biv_mul(f, {(0, 0): 1, (1, 0): -p}, n - 3)
        for p in negatives:
            f = _biv_mul(f, {(d, 0): p ** d for d in range(n - 2)}, n - 3)
        out = _biv_mul(out, _lift(f, nvars, a, len(positives) - len(negatives)), n - 3)
    return {j: c for (j, _), c in out.items()}
