"""The boundary-divisor model of H*(M0n) and exact integration over it.

Markings are 1..n with the n-th one distinguished.  For each nonempty
T inside {1,...,n-1} there is a degree-one symbol D(T); for 2 <= |T| <= n-2
it is the boundary divisor of curves where T splits off with the node,
D({i}) is -psi_i, and D({1..n-1}) is -psi_n.  Subsets are stored as
bitmasks over bits 0..n-2 (bit i-1 <-> marking i).

A product of symbols is nonzero only when the participating subsets form
a laminar family (pairwise nested or disjoint), so classes are sparse
dictionaries keyed by sorted (mask, exponent) tuples with Laurent
polynomial coefficients.  Products are truncated above the socle degree
n-3, where integration happens.

Integration works by repeatedly restricting to a boundary divisor: one
factor D(T) is consumed, the remaining symbols are pushed to the two
sides of the node per the restriction rules, and the two smaller
integrals are multiplied.  Once only psi symbols remain, the string
equation / multinomial formula finishes the job.  Results are memoized
on the shape of the laminar forest, which is a complete invariant of the
integral under relabeling of the non-distinguished markings.
"""

import math
from operator import add

from .exactnum import LaurentPoly, rational


def full_mask(n):
    return (1 << (n - 1)) - 1


def mask_of(markings):
    """Bitmask of an iterable of 1-based marking indices."""
    m = 0
    for i in markings:
        m |= 1 << (i - 1)
    return m


def markings_of(mask):
    """Sorted 1-based marking indices of a bitmask."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def mono_degree(mono):
    return sum(e for _, e in mono)


def merge_monomials(m1, m2):
    """Product of two laminar monomials, or None if it vanishes.

    The product is zero exactly when some pair of subsets overlaps
    without being nested.  Both inputs are assumed laminar already, so
    only cross pairs need checking.
    """
    for a, _ in m1:
        for b, _ in m2:
            inter = a & b
            if inter and inter != a and inter != b:
                return None
    d = dict(m1)
    for mask, e in m2:
        d[mask] = d.get(mask, 0) + e
    return tuple(sorted(d.items()))


class CohClass:
    """Element of the divisor ring of M0n, truncated above degree n-3.

    terms maps monomials (sorted tuples of (mask, exp)) to LaurentPoly
    coefficients in the nvars equivariant parameters.
    """

    __slots__ = ("n", "nvars", "terms")

    def __init__(self, n, nvars, terms=None):
        if n < 3:
            raise ValueError("need at least three markings")
        self.n = n
        self.nvars = nvars
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                if c:
                    self.terms[mono] = c

    @classmethod
    def zero(cls, n, nvars):
        return cls(n, nvars)

    @classmethod
    def scalar(cls, n, nvars, coeff):
        """coeff * 1 where coeff is a LaurentPoly, int or rational."""
        if not isinstance(coeff, LaurentPoly):
            coeff = LaurentPoly.const(nvars, coeff)
        if coeff.is_zero():
            return cls(n, nvars)
        return cls(n, nvars, {(): coeff})

    @classmethod
    def one(cls, n, nvars):
        return cls.scalar(n, nvars, 1)

    @classmethod
    def generator(cls, n, nvars, mask):
        """The symbol D(T) for a nonzero mask inside the non-distinguished set."""
        if not (0 < mask <= full_mask(n)):
            raise ValueError("bad subset mask %s for n=%d" % (bin(mask), n))
        if n == 3:
            # socle degree is zero: every generator is truncated away
            return cls(n, nvars)
        return cls(n, nvars, {((mask, 1),): LaurentPoly.one(nvars)})

    def _check(self, other):
        if self.n != other.n or self.nvars != other.nvars:
            raise ValueError("mixed contexts")

    def __eq__(self, other):
        if not isinstance(other, CohClass):
            return NotImplemented
        return (self.n, self.nvars) == (other.n, other.nvars) and self.terms == other.terms

    def __add__(self, other):
        if isinstance(other, (int,)) or isinstance(other, LaurentPoly):
            other = CohClass.scalar(self.n, self.nvars, other)
        self._check(other)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            s = terms.get(mono)
            s = c if s is None else s + c
            if s.is_zero():
                terms.pop(mono, None)
            else:
                terms[mono] = s
        return CohClass(self.n, self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return CohClass(self.n, self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int,)) or isinstance(other, LaurentPoly):
            other = CohClass.scalar(self.n, self.nvars, other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, CohClass):
            if not isinstance(other, LaurentPoly):
                other = LaurentPoly.const(self.nvars, other)
            if other.is_zero():
                return CohClass(self.n, self.nvars)
            return CohClass(self.n, self.nvars,
                            {m: c * other for m, c in self.terms.items()})
        self._check(other)
        # The right factor's monomials are bucketed by degree once, so each
        # left monomial visits only those that fit under the socle degree;
        # the empty monomial needs no laminarity check, and a unit
        # coefficient (None in a bucket, as for the constant term of every
        # Euler-class factor) no products.  Coefficient products are summed
        # straight into one {exp: coeff} dict per output monomial, which
        # becomes a LaurentPoly once.  A first product is stored as is:
        # adding it to 0 would cost a Fraction operation on the rational
        # routes.
        maxdeg = self.n - 3
        unit = LaurentPoly.one(self.nvars).terms
        buckets = [[] for _ in range(maxdeg + 1)]
        for m, c in other.terms.items():
            d = mono_degree(m)
            if d <= maxdeg:
                buckets[d].append((m, None if c.terms == unit else c.terms.items()))
        acc = {}
        for m1, c1 in self.terms.items():
            room = maxdeg - mono_degree(m1)
            if room < 0:
                continue
            left = c1.terms.items()
            for bucket in buckets[:room + 1]:
                for m2, t2 in bucket:
                    m = merge_monomials(m1, m2) if m2 else m1
                    if m is None:
                        continue
                    sums = acc.get(m)
                    if t2 is None:
                        if sums is None:
                            acc[m] = dict(left)
                        else:
                            for e, a in left:
                                prev = sums.get(e)
                                sums[e] = a if prev is None else prev + a
                        continue
                    if sums is None:
                        sums = acc[m] = {}
                    for e1, a in left:
                        for e2, b in t2:
                            e = tuple(map(add, e1, e2))
                            prev = sums.get(e)
                            sums[e] = a * b if prev is None else prev + a * b
        terms = {}
        for m, sums in acc.items():
            if not all(sums.values()):
                sums = {e: c for e, c in sums.items() if c}
                if not sums:
                    continue
            poly = LaurentPoly(self.nvars)
            poly.terms = sums
            terms[m] = poly
        out = CohClass(self.n, self.nvars)
        out.terms = terms
        return out

    __rmul__ = __mul__

    def __pow__(self, k):
        out = CohClass.one(self.n, self.nvars)
        for _ in range(k):
            out = out * self
        return out

    def is_zero(self):
        return not self.terms

    def degree_part(self, d):
        return CohClass(self.n, self.nvars,
                        {m: c for m, c in self.terms.items() if mono_degree(m) == d})

    def to_obj(self):
        out = []
        for mono in sorted(self.terms):
            out.append({
                "monomial": [{"T": markings_of(mask), "exp": e} for mask, e in mono],
                "coeff": self.terms[mono].to_obj(),
            })
        return out

    def __repr__(self):
        if not self.terms:
            return "CohClass(0; n=%d)" % self.n
        bits = []
        for mono in sorted(self.terms):
            s = "*".join("D%s^%d" % (markings_of(m), e) if e != 1 else "D%s" % markings_of(m)
                         for m, e in mono) or "1"
            bits.append("(%s)*%s" % (self.terms[mono], s))
        return "CohClass[n=%d] " % self.n + "  +  ".join(bits)


def psi_subset(n, nvars, mask, complement=False):
    """psi_T = sum of D(S) over S strictly containing T (zero for the full set).

    With complement=True, return psi of the complementary side instead:
    -D(T) - psi_T, which restricts to the node's psi class on the
    T-component of the divisor D(T).
    """
    fm = full_mask(n)
    if not (0 < mask <= fm):
        raise ValueError("bad subset mask")
    terms = {}
    comp = fm & ~mask
    one = LaurentPoly.one(nvars)
    if n > 3:
        u = comp
        while u:
            terms[(((mask | u), 1),)] = one
            u = (u - 1) & comp
    psi = CohClass(n, nvars, terms)
    if complement:
        return -CohClass.generator(n, nvars, mask) - psi
    return psi


def psi_marking(n, nvars, i):
    """The class psi_i for i in 1..n, as a CohClass."""
    if i == n:
        return -CohClass.generator(n, nvars, full_mask(n))
    return -CohClass.generator(n, nvars, 1 << (i - 1))


def psi_integral(n, exps):
    """Integral of psi_1^e1 ... psi_n^en over M0n: the multinomial
    (n-3)! / prod(e_i!) when the exponents sum to n-3, else zero."""
    exps = list(exps)
    if len(exps) != n or any(e < 0 for e in exps):
        raise ValueError("need n nonnegative exponents")
    if sum(exps) != n - 3:
        return rational(0)
    val = math.factorial(n - 3)
    for e in exps:
        val //= math.factorial(e)
    return rational(val)


def _remap(mask, positions):
    """Compress the bits of mask through the sorted bit-position list."""
    out = 0
    for newbit, oldbit in enumerate(positions):
        if mask >> oldbit & 1:
            out |= 1 << newbit
    return out


def restrict_monomial(n, mono, tmask):
    """Restrict a laminar monomial containing D(tmask) to that divisor.

    Returns a list of (integer coefficient, n_left, mono_left, n_right,
    mono_right).  The left factor is the moduli of the T-component (the
    node is its distinguished marking); on the right the original n-th
    marking stays distinguished and the node becomes the last ordinary
    marking.  One factor of D(tmask) is consumed; its remaining powers
    split binomially into the two node psi classes.
    """
    m = tmask.bit_count()
    if not 2 <= m <= n - 2:
        raise ValueError("can only restrict to a proper boundary divisor")
    d = dict(mono)
    if tmask not in d:
        raise ValueError("monomial has no D(T) factor")
    e_t = d.pop(tmask)
    tbits = [b for b in range(n - 1) if tmask >> b & 1]
    obits = [b for b in range(n - 1) if not tmask >> b & 1]
    n_l = m + 1  # T (re-labeled 1..m) plus the node; node distinguished
    n_r = n - m + 1  # survivors, node (last ordinary), original marking n
    full_l = full_mask(n_l)
    node_r = 1 << (n_r - 2)
    left, right = {}, {}
    for mask, e in d.items():
        inter = mask & tmask
        if inter == mask:  # S strictly inside T
            left[_remap(mask, tbits)] = left.get(_remap(mask, tbits), 0) + e
        elif not inter:  # S disjoint from T
            right[_remap(mask, obits)] = right.get(_remap(mask, obits), 0) + e
        elif inter == tmask:  # S strictly contains T: collapse T to the node
            rm = _remap(mask & ~tmask, obits) | node_r
            right[rm] = right.get(rm, 0) + e
        else:
            return []  # incomparable overlap: the product was zero anyway
    out = []
    for j in range(e_t):
        c = math.comb(e_t - 1, j)
        lm = dict(left)
        if j:
            lm[full_l] = lm.get(full_l, 0) + j  # (-psi_node)^j on the T side
        rm = dict(right)
        if e_t - 1 - j:
            rm[node_r] = rm.get(node_r, 0) + (e_t - 1 - j)
        out.append((c, n_l, tuple(sorted(lm.items())), n_r, tuple(sorted(rm.items()))))
    return out


def _forest_key(n, mono):
    """Shape of the laminar forest of a monomial: a complete invariant of
    its integral under relabeling of markings 1..n-1."""
    items = sorted(mono, key=lambda it: (it[0].bit_count(), it[0]))
    fm = full_mask(n)
    root_exp = 0
    nodes = []
    for mask, e in items:
        if mask == fm:
            root_exp = e
        else:
            nodes.append((mask, e))
    children = {i: [] for i in range(len(nodes))}
    top = []
    for i, (mask, e) in enumerate(nodes):
        parent = None
        for j in range(i + 1, len(nodes)):
            if mask & nodes[j][0] == mask:
                parent = j
                break
        if parent is None:
            top.append(i)
        else:
            children[parent].append(i)

    def key(i):
        mask, e = nodes[i]
        free = mask.bit_count() - sum(nodes[j][0].bit_count() for j in children[i])
        return (free, e, tuple(sorted(key(j) for j in children[i])))

    root_free = (n - 1) - sum(nodes[i][0].bit_count() for i in top)
    return (root_free, root_exp, tuple(sorted(key(i) for i in top)))


_integral_memo = {}


def integral_monomial(n, mono):
    """Exact integral of a laminar monomial over M0n (a rational number)."""
    if mono_degree(mono) != n - 3:
        return rational(0)
    key = _forest_key(n, mono)
    hit = _integral_memo.get(key)
    if hit is not None:
        return hit
    walls = [mask for mask, _ in mono if 2 <= mask.bit_count() <= n - 2]
    if not walls:
        exps = [0] * n
        for mask, e in mono:
            if mask == full_mask(n):
                exps[n - 1] += e
            else:
                exps[mask.bit_length() - 1] += e
        val = psi_integral(n, exps) * (-1) ** (n - 3)
    else:
        tmask = min(walls, key=lambda m: (m.bit_count(), m))
        val = rational(0)
        for c, n_l, ml, n_r, mr in restrict_monomial(n, mono, tmask):
            if c:
                left = integral_monomial(n_l, ml)
                if left:
                    val = val + rational(c) * left * integral_monomial(n_r, mr)
    _integral_memo[key] = val
    return val


def integrate(c):
    """Integrate a CohClass over M0n; the result is a LaurentPoly in the
    equivariant parameters."""
    total = LaurentPoly.zero(c.nvars)
    for mono, coeff in c.terms.items():
        v = integral_monomial(c.n, mono)
        if v:
            total = total + coeff * v
    return total


def memo_size():
    return len(_integral_memo)
