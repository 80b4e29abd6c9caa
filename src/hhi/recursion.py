"""Comb recursions for the invariants, and the genus-zero series of
[C^3 / mu_3] computed three independent ways.

The recursion expresses an invariant with age-one insertions at markings
1..n-1 as its weighted-space value plus a sum over set partitions of
those markings.  Each block of size >= 2 is a "tooth": the invariant of
a comb-shaped degeneration where the block's markings split onto a side
component.  A tooth T contributes only when, in every coordinate
direction, the fractional part of its age sum is positive and these
fractional parts sum to one; its factor is the product over directions
of (age sum - 1) descending-factorial, and the partition carries the
sign (-1)^(1 + sum over teeth of (|T|-1)).  Merging each tooth to a
single marking yields a smaller invariant of the same kind.

Set partitions whose teeth carry the same multiset of marking labels
(element, psi exponent) give the same term, so the sum runs over
multiset partitions of the labels instead, each weighted by the number
of set partitions it stands for (tooth_placements).  set_partitions is
the brute-force enumeration those counts are checked against.

equivariant_comb_expand is the descendant/equivariant refinement: teeth
may carry psi insertions and need not satisfy the fractional-part
condition, the tooth factors become elementary symmetric Laurent
polynomials in the numbers p / t_a, and the merged marking inherits a
psi exponent.  The identity
    direct(key) = weighted(key) + sum of weight * direct(head)
then holds term by term against the boundary-divisor integration.
"""

import itertools
import math

from .exactnum import LaurentPoly, rational, frac_factorial, signed_index_set
from .orbifold import OrbifoldData
from .invariants import InvariantKey, invariant_weighted

_RATIONAL = type(rational(0))


def set_partitions(items):
    """All partitions of a list, as lists of blocks (lists)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def partitions_of_int(total, minpart=1, maxpart=None):
    """Partitions of a nonnegative integer into parts >= minpart (and
    <= maxpart, if given), weakly decreasing."""
    if total == 0:
        yield ()
        return
    top = total if maxpart is None else min(total, maxpart)
    for first in range(top, minpart - 1, -1):
        for rest in partitions_of_int(total - first, minpart, first):
            yield (first,) + rest


def _aut_order(parts):
    """Order of the automorphism group of a multiset of parts."""
    out = 1
    for v in set(parts):
        out *= math.factorial(list(parts).count(v))
    return out


def tooth_admissible(data, markings):
    """Whether a block of markings can appear as a tooth in the
    unrefined recursion: the fractional parts of the directional age
    sums add up to one, and no direction has a positive integer age sum
    (an age sum of exactly zero is allowed; its only index is p = 0,
    a trivial factor)."""
    total = rational(0)
    for a in range(1, data.N + 1):
        delta = data.age_sum(markings, a)
        f = delta - math.floor(delta)
        if f == 0 and delta != 0:
            return False
        total = total + f
    return total == 1


def tooth_factor_plain(data, markings):
    """The t-free tooth factor of the unrefined recursion: the product,
    over directions, of the positive indices of the age sum minus one
    (an empty product for a direction with age sum in [0, 1))."""
    out = rational(1)
    for a in range(1, data.N + 1):
        for p in signed_index_set(data.age_sum(markings, a) - 1).positives:
            out = out * p
    return out


def _check_comb_input(key):
    data = key.data
    if not data.admissible():
        raise ValueError("inadmissible data")
    if any(v != 0 for v in key.psi[:-1]):
        raise ValueError("the unrefined recursion allows psi only at the last marking")
    for i in range(1, data.n):
        total = rational(0)
        for a in range(1, data.N + 1):
            total = total + data.age(i, a)
        if total != 1:
            raise ValueError("markings 1..n-1 must carry age-one elements")


def _head_key(key, teeth, node_psis=None):
    """The invariant obtained by merging each tooth to one marking."""
    data = key.data
    in_tooth = set()
    for t in teeth:
        in_tooth.update(t)
    elements, psi = [], []
    for i in range(1, data.n):
        if i not in in_tooth:
            elements.append(data.elements[i - 1])
            psi.append(key.psi[i - 1])
    for j, t in enumerate(teeth):
        elements.append(data.merged_element(t))
        psi.append(0 if node_psis is None else node_psis[j])
    elements.append(data.elements[-1])
    psi.append(key.psi[-1])
    return InvariantKey(OrbifoldData(data.r, data.weights, elements), psi)


def tooth_placements(key):
    """The tooth sets of a canonical key, one per multiset of tooth labels.

    Markings 1..n-1 are labeled by (element, psi exponent), and in a
    canonical key equal labels sit next to each other.  A tooth's shape
    is the number of markings it takes from each label; its size lies in
    2..n-2.  For every nonempty multiset of shapes that fits in the body,
    yields (teeth, count): teeth built from the first unused markings of
    each label, and the number of set partitions of 1..n-1 whose blocks
    of size >= 2 carry those labels,
        prod m! / (prod c!  *  prod mult!  *  prod (m - used)!)
    over label multiplicities m, shape entries c, and the multiplicity
    mult of each distinct shape in the multiset.
    """
    n = key.data.n
    labels = zip(key.data.elements[:-1], key.psi[:-1])
    mults = [len(list(run)) for _, run in itertools.groupby(labels)]
    starts = list(itertools.accumulate(mults, initial=1))
    shapes = [c for c in itertools.product(*(range(m + 1) for m in mults))
              if 2 <= sum(c) <= n - 2]
    top = math.prod(math.factorial(m) for m in mults)

    def fill(first, left, chosen):
        if chosen:
            yield chosen, left
        for j in range(first, len(shapes)):
            c = shapes[j]
            if all(x <= y for x, y in zip(c, left)):
                yield from fill(j, tuple(y - x for x, y in zip(c, left)), chosen + [c])

    for chosen, left in fill(0, tuple(mults), []):
        den = math.prod(math.factorial(x) for c in chosen + [left] for x in c)
        for c in set(chosen):
            den *= math.factorial(chosen.count(c))
        at = list(starts)
        teeth = []
        for c in chosen:
            tooth = []
            for i, x in enumerate(c):
                tooth.extend(range(at[i], at[i] + x))
                at[i] += x
            teeth.append(tooth)
        yield teeth, top // den


def comb_recursion(key, memo=None):
    """Invariant with age-one insertions at markings 1..n-1, by the comb
    recursion.  Bottoms out in weighted-space values at n = 3."""
    _check_comb_input(key)
    if memo is None:
        memo = {}
    return _comb_value(key.canonical(), memo, {})


def _tooth_weight(data, tooth, teeth_seen):
    """tooth_factor_plain of an admissible tooth, else None.  Both depend
    only on the tooth's elements, so teeth_seen keeps them by the sorted
    element tuple (the group and weights are fixed within a recursion)."""
    elems = tuple(sorted(data.elements[i - 1] for i in tooth))
    if elems not in teeth_seen:
        teeth_seen[elems] = (tooth_factor_plain(data, tooth)
                             if tooth_admissible(data, tooth) else None)
    return teeth_seen[elems]


def _comb_value(key, memo, teeth_seen):
    ck = key.cache_string()
    hit = memo.get(ck)
    if hit is not None:
        return hit
    data = key.data
    val = invariant_weighted(key)
    for teeth, count in tooth_placements(key):
        factors = [_tooth_weight(data, t, teeth_seen) for t in teeth]
        if None in factors:
            continue
        w = rational((-1) ** (1 + sum(len(t) - 1 for t in teeth)) * count)
        for f in factors:
            w = w * f
        val = val + _comb_value(_head_key(key, teeth).canonical(), memo, teeth_seen) * w
    memo[ck] = val
    return val


def equivariant_comb_expand(key):
    """Expand an invariant into weighted plus head terms with descendant
    and equivariant refinements.

    Returns a list of (head InvariantKey, weight LaurentPoly), one entry
    per canonical head with a nonzero weight, such that
        direct(key) = weighted(key) + sum of weight * direct(head).
    Teeth may carry psi insertions; a tooth T with psi exponents nu_i
    and l0 = |T| - 2 - sum(nu_i) >= 0 contributes, for each k > l0 up to
    the number of available indices, the weight
        (-1)^l0 * multinomial(|T|-2; nu..., l0) * e_k({p / t_a})
          * prod_a t_a^floor(age sum)
    where p runs over the positive signed indices of (age sum in
    direction a) - 1, and the merged marking gets psi exponent k-1-l0.
    """
    key = key.canonical()
    data = key.data
    if not data.admissible():
        raise ValueError("inadmissible data")
    nvars = data.N
    heads = {}
    for teeth, count in tooth_placements(key):
        per_tooth = [_tooth_options(key, t) for t in teeth]
        if not all(per_tooth):
            continue
        sign = (-1) ** (len(teeth) + 1)
        combos = [([], LaurentPoly.const(nvars, rational(sign * count)))]
        for opts in per_tooth:
            combos = [(exps + [e], w * ow) for exps, w in combos for e, ow in opts]
        for node_psis, w in combos:
            head = _head_key(key, teeth, node_psis).canonical()
            heads[head] = heads[head] + w if head in heads else w
    return [(head, w) for head, w in heads.items() if w]


def _tooth_options(key, markings):
    """Per-tooth choices: list of (merged-marking psi exponent, weight)."""
    data = key.data
    nvars = data.N
    nu = sum(key.psi[i - 1] for i in markings)
    l0 = len(markings) - 2 - nu
    if l0 < 0:
        return []
    mult = math.factorial(len(markings) - 2) // math.factorial(l0)
    for i in markings:
        mult //= math.factorial(key.psi[i - 1])
    values = []
    shift = [0] * nvars
    for a in range(1, nvars + 1):
        delta = data.age_sum(markings, a)
        shift[a - 1] = math.floor(delta)
        for p in signed_index_set(delta - 1).positives:
            values.append(LaurentPoly.var_power(nvars, a, -1, p))
    if len(values) <= l0:
        return []
    # elementary symmetric polynomials e_0..e_len in the values
    e = [LaurentPoly.one(nvars)]
    for v in values:
        nxt = [e[0]]
        for k in range(1, len(e) + 1):
            term = e[k] if k < len(e) else LaurentPoly.zero(nvars)
            nxt.append(term + (e[k - 1] * v))
        e = nxt
    tshift = LaurentPoly(nvars, {tuple(shift): rational(1)})
    scale = rational((-1) ** l0 * mult)
    out = []
    for k in range(l0 + 1, len(values) + 1):
        out.append((k - 1 - l0, e[k] * tshift * scale))
    return out


# ---------------------------------------------------------------------------
# The [C^3 / mu_3] series, three ways.


def _cube_facs(top):
    """[((m - 2/3)!)^3 for m = 0..top] as exact rationals, by the running
    product x_m = x_(m-1) ((3m - 2)/3)^3 from x_0 = ((-2/3)!)^3 = 1."""
    facs = [rational(1)]
    for m in range(1, top + 1):
        facs.append(facs[-1] * rational(3 * m - 2, 3) ** 3)
    return facs


def c3z3_weighted(n):
    """The weighted-space value feeding the series: zero unless n is a
    multiple of 3, else (-1)^(n+1) ((n-4)/3)!^3 / 3."""
    if n < 3 or n % 3:
        return rational(0)
    return rational((-1) ** (n + 1)) * frac_factorial(rational(n - 4, 3)) ** 3 / 3


def c3z3_series(lmax):
    """I_0..I_lmax by the grouped comb recursion: the invariant with
    3l+3 age-one insertions, teeth of size 3m+1.  A tooth multiset's
    sign, automorphisms and cube factorials depend on its partition of p
    alone, so they are multiplied out once; only the placement count
    depends on l."""
    facs = _cube_facs(lmax)
    teeth = [[(parts, rational((-1) ** (p + 1), _aut_order(parts))
               * math.prod(facs[m] for m in parts))
              for parts in partitions_of_int(p, 1)]
             for p in range(lmax + 1)]
    vals = []
    for ell in range(lmax + 1):
        n = 3 * ell + 3
        v = c3z3_weighted(n)
        for p in range(1, ell + 1):
            for parts, w in teeth[p]:
                rest = n - 1
                count = 1
                for m in parts:
                    if rest < 3 * m + 1:
                        count = 0
                        break
                    count *= math.comb(rest, 3 * m + 1)
                    rest -= 3 * m + 1
                if count:
                    v = v + w * count * vals[ell - p]
        vals.append(v)
    return vals


def c3z3_c_coeff(p, ell):
    """C_{p,l}: tooth data grouped over partitions of p, against the
    multinomial count of placements among 3l+2 markings."""
    if p == 0:
        return rational(1)
    facs = _cube_facs(p)
    total = rational(0)
    for parts in partitions_of_int(p, 1):
        w = rational(1, _aut_order(parts))
        rest = 3 * ell + 2
        for m in parts:
            if rest < 3 * m + 1:
                w = rational(0)
                break
            w = w * math.comb(rest, 3 * m + 1) * facs[m]
            rest -= 3 * m + 1
        total = total + w
    return total


def c3z3_direct(ell):
    """I_l in closed form.  Inverting the triangular recursion gives an
    alternating sum over chains 0 <= x_0 < x_1 < ... < x_k = l of
    (-1)^k F(x_0) prod_i C_{x_(i+1) - x_i, x_(i+1)}, with
    F(x) = ((3x-1)/3)!^3, times (-1)^l / 3.  Summing the chains by their
    first endpoint gives a DP over endpoints: G(l) = 1,
    G(x) = -sum_{x < y <= l} C_{y-x, y} G(y), and
    I_l = (-1)^l / 3 * sum_x F(x) G(x), in O(l^2) C coefficients."""
    chains = [rational(0)] * ell + [rational(1)]
    for x in range(ell - 1, -1, -1):
        g = rational(0)
        for y in range(x + 1, ell + 1):
            g = g + c3z3_c_coeff(y - x, y) * chains[y]
        chains[x] = -g
    total = rational(0)
    start = rational(1)  # F(0) = ((-1/3)!)^3
    for x in range(ell + 1):
        if x:
            start = start * rational(3 * x - 1, 3) ** 3
        total = total + start * chains[x]
    return total * rational((-1) ** ell, 3)


# ---------------------------------------------------------------------------
# Formal one-variable power series and the mirror map.


class Series:
    """Truncated power series with exact rational coefficients;
    coeffs[k] is the coefficient of t^k, up to and including t^order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs=None):
        self.order = order
        self.coeffs = [rational(0)] * (order + 1)
        if coeffs is not None:
            for k, c in enumerate(coeffs[:order + 1]):
                self.coeffs[k] = c if type(c) is _RATIONAL else rational(c)

    def __eq__(self, other):
        return (isinstance(other, Series) and self.order == other.order
                and self.coeffs == other.coeffs)

    def __add__(self, other):
        if self.order != other.order:
            raise ValueError("mixed truncation orders")
        return Series(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if isinstance(other, Series):
            nonzero = [(j, b) for j, b in enumerate(other.coeffs) if b]
            out = [rational(0)] * (self.order + 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in nonzero:
                    if i + j > self.order:
                        break
                    out[i + j] = out[i + j] + a * b
            return Series(self.order, out)
        return Series(self.order, [c * other for c in self.coeffs])

    __rmul__ = __mul__

    def compose(self, inner):
        """self(inner(t)); inner must have zero constant term."""
        if inner.coeffs[0]:
            raise ValueError("can only compose into a series with no constant term")
        out = Series(self.order, [self.coeffs[0]])
        power = Series(self.order, [rational(1)])
        for k in range(1, self.order + 1):
            power = power * inner
            if self.coeffs[k]:
                out = out + power * self.coeffs[k]
        return out

    def reverse(self):
        """Compositional inverse; requires coeff 0 zero and coeff 1 nonzero.
        Coefficient k of the inverse fixes coefficient k of the
        composition, which the terms above t^k do not touch, so each step
        composes at order k only."""
        if self.coeffs[0] or not self.coeffs[1]:
            raise ValueError("reversion needs the form c1*t + O(t^2), c1 != 0")
        inv = Series(self.order, [rational(0), 1 / self.coeffs[1]])
        for k in range(2, self.order + 1):
            err = Series(k, self.coeffs).compose(Series(k, inv.coeffs)).coeffs[k]
            inv.coeffs[k] = inv.coeffs[k] - err / self.coeffs[1]
        return inv

    def coefficient(self, k):
        return self.coeffs[k]

    def __repr__(self):
        from .exactnum import rat_to_str
        bits = ["%s*t^%d" % (rat_to_str(c), k) for k, c in enumerate(self.coeffs) if c]
        return " + ".join(bits) if bits else "0"


def mirror_tau(order):
    """The mirror-map coordinate change: t plus corrections in every
    degree 3k+1, with coefficient (-1)^k ((k-2/3)!)^3 / (3k+1)!."""
    tau = Series(order, [0, 1])
    facs = _cube_facs((order - 1) // 3)
    for k in range(1, len(facs)):
        tau.coeffs[3 * k + 1] = rational((-1) ** k) * facs[k] / math.factorial(3 * k + 1)
    return tau


def c3z3_mirror(lmax):
    """I_0..I_lmax via the mirror map: the weighted-space generating
    series in the n-1 undistinguished markings, composed with the
    inverse mirror map, has the invariants as its coefficients."""
    order = 3 * lmax + 2
    a = Series(order)
    n = 3
    while n - 1 <= order:
        a.coeffs[n - 1] = c3z3_weighted(n) / math.factorial(n - 1)
        n += 3
    b = a.compose(mirror_tau(order).reverse())
    out = []
    for ell in range(lmax + 1):
        out.append(b.coefficient(3 * ell + 2) * math.factorial(3 * ell + 2))
    return out
