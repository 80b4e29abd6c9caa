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
of set partitions it stands for (tooth_placements).  The unit of work is
the tooth's shape, the number of markings it takes from each label:
what a tooth contributes depends on its shape alone, so the caller's
tooth data is computed once per shape, shapes without data are dropped,
and placements are built only from the shapes that remain.
set_partitions is the brute-force enumeration those counts are checked
against.

equivariant_comb_expand is the descendant/equivariant refinement: teeth
may carry psi insertions and need not satisfy the fractional-part
condition, the tooth factors become elementary symmetric Laurent
polynomials in the numbers p / t_a, and the merged marking inherits a
psi exponent.  The identity
    direct(key) = weighted(key) + sum of weight * direct(head)
then holds term by term against the boundary-divisor integration.

The [C^3 / mu_3] series I_l (3l+3 age-one insertions) is computed by
three routes that share no code beyond the cube-factorial table:
c3z3_series runs the comb recursion with its teeth summed from the
powers of one power series S(y) of tooth weights; c3z3_direct inverts
that recursion in closed form, with coefficients summed over the
partitions of p (c3z3_c_coeff); c3z3_mirror reads the values off the
weighted-space generating series composed with the inverse mirror map.
It reads each coefficient by the Lagrange-Buermann formula
[w^n] a(tau^-1(w)) = (1/n) [t^(n-1)] a'(t) (t/tau(t))^n, and since
tau(t)/t is a series in u = t^3, that is one power of a series in u to
order l per I_l, with no reversion or composition.
"""

import functools
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
        for p in signed_index_set(data.age_sum(markings, a) - 1)[0]:
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


def tooth_placements(key, tooth_data):
    """The tooth sets of a key whose every tooth has data, one per
    multiset of tooth labels.

    Markings 1..n-1 are labeled by (element, psi exponent), and a key
    stores them sorted, so equal labels sit next to each other.  A tooth's
    shape is the number of markings it takes from each label; its size lies
    in 2..n-2, and whatever the caller reads off a tooth depends on its
    shape alone.  So tooth_data(tooth) is called once per shape, on the
    tooth of the first markings of each label, and a shape whose data is
    None is dropped.  For every nonempty multiset of the remaining
    shapes that fits in the body, yields (teeth, count, data): teeth built
    from the first unused markings of each label, their shapes' data in
    the same order, and the number of set partitions of 1..n-1 whose
    blocks of size >= 2 carry those labels,
        prod m! / (prod c!  *  prod mult!  *  prod (m - used)!)
    over label multiplicities m, shape entries c, and the multiplicity
    mult of each distinct shape in the multiset.
    """
    n = key.data.n
    labels = zip(key.data.elements[:-1], key.psi[:-1])
    mults = [len(list(run)) for _, run in itertools.groupby(labels)]
    ends = [1 + s for s in itertools.accumulate(mults)]
    fac = [math.factorial(x) for x in range(max(mults) + 1)]

    def place(c, left):
        """The tooth of shape c on the first of the left unused markings."""
        return [i for e, x, y in zip(ends, c, left) for i in range(e - y, e - y + x)]

    shapes = []  # (shape, data, prod c!)
    for c in itertools.product(*(range(m + 1) for m in mults)):
        if 2 <= sum(c) <= n - 2:
            d = tooth_data(place(c, mults))
            if d is not None:
                shapes.append((c, d, math.prod(fac[x] for x in c)))
    top = math.prod(fac[m] for m in mults)

    def fill(first, left, run, den, teeth, data):
        # run: copies of shapes[first] already chosen; den: prod c! * prod mult!
        if teeth:
            yield teeth, top // (den * math.prod(fac[y] for y in left)), data
        for j in range(first, len(shapes)):
            c, d, cden = shapes[j]
            if all(x <= y for x, y in zip(c, left)):
                k = run + 1 if j == first else 1
                yield from fill(j, tuple(y - x for x, y in zip(c, left)), k, den * cden * k,
                                teeth + [place(c, left)], data + [d])

    yield from fill(0, tuple(mults), 0, 1, [], [])


def comb_recursion(key, memo=None):
    """Invariant with age-one insertions at markings 1..n-1, by the comb
    recursion.  Bottoms out in weighted-space values at n = 3."""
    _check_comb_input(key)
    if memo is None:
        memo = {}
    return _comb_value(key, memo, {})


def _comb_value(key, memo, tooth_weights):
    hit = memo.get(key)
    if hit is not None:
        return hit
    data = key.data

    def weight(tooth):
        """tooth_factor_plain of an admissible tooth, else None.  Both
        depend only on the tooth's elements, and the group and weights are
        fixed within a recursion, so tooth_weights keeps them by the element
        tuple for every key; a tooth of first markings lists them sorted."""
        elems = tuple(data.elements[i - 1] for i in tooth)
        if elems not in tooth_weights:
            tooth_weights[elems] = (tooth_factor_plain(data, tooth)
                                    if tooth_admissible(data, tooth) else None)
        return tooth_weights[elems]

    val = invariant_weighted(key)
    for teeth, count, factors in tooth_placements(key, weight):
        w = rational((-1) ** (1 + sum(len(t) - 1 for t in teeth)) * count)
        for f in factors:
            w = w * f
        val = val + _comb_value(_head_key(key, teeth), memo, tooth_weights) * w
    memo[key] = val
    return val


def equivariant_comb_expand(key):
    """Expand an invariant into weighted plus head terms with descendant
    and equivariant refinements.

    Returns a list of (head InvariantKey, weight LaurentPoly), one entry
    per head with a nonzero weight, such that
        direct(key) = weighted(key) + sum of weight * direct(head).
    Teeth may carry psi insertions; a tooth T with psi exponents nu_i
    and l0 = |T| - 2 - sum(nu_i) >= 0 contributes, for each k > l0 up to
    the number of available indices, the weight
        (-1)^l0 * multinomial(|T|-2; nu..., l0) * e_k({p / t_a})
          * prod_a t_a^floor(age sum)
    where p runs over the positive signed indices of (age sum in
    direction a) - 1, and the merged marking gets psi exponent k-1-l0.
    """
    data = key.data
    if not data.admissible():
        raise ValueError("inadmissible data")
    nvars = data.N
    heads = {}
    for teeth, count, per_tooth in tooth_placements(key, functools.partial(_tooth_options, key)):
        sign = (-1) ** (len(teeth) + 1)
        combos = [([], LaurentPoly.const(nvars, rational(sign * count)))]
        for opts in per_tooth:
            combos = [(exps + [e], w * ow) for exps, w in combos for e, ow in opts]
        for node_psis, w in combos:
            head = _head_key(key, teeth, node_psis)
            heads[head] = heads[head] + w if head in heads else w
    return [(head, w) for head, w in heads.items() if w]


def _tooth_options(key, markings):
    """Per-tooth choices: list of (merged-marking psi exponent, weight),
    or None when there is none."""
    data = key.data
    nvars = data.N
    nu = sum(key.psi[i - 1] for i in markings)
    l0 = len(markings) - 2 - nu
    if l0 < 0:
        return None
    mult = math.factorial(len(markings) - 2) // math.factorial(l0)
    for i in markings:
        mult //= math.factorial(key.psi[i - 1])
    values = []
    shift = [0] * nvars
    for a in range(1, nvars + 1):
        delta = data.age_sum(markings, a)
        shift[a - 1] = math.floor(delta)
        for p in signed_index_set(delta - 1)[0]:
            values.append(LaurentPoly.var_power(nvars, a, -1, p))
    if len(values) <= l0:
        return None
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
    """I_0..I_lmax by the comb recursion: the invariant with 3l+3
    age-one insertions, teeth of size 3m+1.  Placed one after another
    among the 3l+2 undistinguished markings, the teeth of a partition of
    p into k parts take (3l+2)! / (3l+2-3p-k)! times prod 1/(3m+1)! of
    the placements, up to the automorphisms of the partition.  So with
    S(y) = sum_(m>=1) ((m-2/3)!)^3 y^m / (3m+1)!, their sum over the
    partitions of p into k parts is [y^p] S^k / k! times that falling
    factorial, with sign (-1)^(p+1), and the powers of one series stand
    in for the partitions."""
    facs = _cube_facs(lmax)
    s = Series(lmax, [0] + [facs[m] / math.factorial(3 * m + 1) for m in range(1, lmax + 1)])
    powers = [Series(lmax, [1])]  # powers[k] = S^k / k!
    for k in range(1, lmax + 1):
        powers.append(powers[-1] * s * rational(1, k))
    vals = []
    for ell in range(lmax + 1):
        v = c3z3_weighted(3 * ell + 3)
        for p in range(1, ell + 1):
            # [y^p] S^k = 0 for k > p
            w = sum(powers[k].coeffs[p] * math.perm(3 * ell + 2, 3 * p + k)
                    for k in range(1, p + 1))
            v = v + (-1) ** (p + 1) * w * vals[ell - p]
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

    def power(self, alpha):
        """self ** alpha for a rational alpha; needs constant term 1.  By
        J.C.P. Miller's recurrence: P_0 = 1 and
        P_k = (1/k) sum_(i=1..k) ((alpha+1) i - k) c_i P_(k-i)."""
        if self.coeffs[0] != 1:
            raise ValueError("power needs constant term 1")
        c = self.coeffs
        p = [rational(1)]
        for k in range(1, self.order + 1):
            p.append(sum((((alpha + 1) * i - k) * c[i] * p[k - i]
                          for i in range(1, k + 1) if c[i]), rational(0)) / k)
        return Series(self.order, p)

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
    series a(t) = sum_j A_j t^(3j+2), A_j = c3z3_weighted(3j+3)/(3j+2)!,
    composed with the inverse mirror map, has I_l / (3l+2)! as its
    coefficient at 3l+2.  By Lagrange-Buermann, with n = 3l+2,
        [w^n] a(tau^-1(w)) = (1/n) [t^(n-1)] a'(t) (t/tau(t))^n,
    and tau(t)/t = psi(u) is a series in u = t^3, so
        I_l = (3l+1)! sum_(j=0..l) (3j+2) A_j [u^(l-j)] psi(u)^-(3l+2),
    one power of psi to order l per l: O(lmax^3) rational operations."""
    psi = Series(lmax, mirror_tau(3 * lmax + 1).coeffs[1::3])
    # (3j+2) A_j
    da = [c3z3_weighted(3 * j + 3) / math.factorial(3 * j + 1) for j in range(lmax + 1)]
    out = []
    for ell in range(lmax + 1):
        inv = Series(ell, psi.coeffs).power(-(3 * ell + 2)).coeffs
        out.append(math.factorial(3 * ell + 1)
                   * sum((da[j] * inv[ell - j] for j in range(ell + 1)), rational(0)))
    return out
