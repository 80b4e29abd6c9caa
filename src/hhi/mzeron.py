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
n-3, where integration happens.  A product copies the left class for the
right factor's constant term (1 in every Euler-class factor) and adds
only what the factor's other terms contribute, and it keeps the degree
of each monomial it outputs, so the next product in a chain reads the
degrees instead of recomputing them.

Integration works on the shape of a monomial's laminar forest
(_forest_key): a tree of nodes (free markings, exponent, children) under
the full set, which is a complete invariant of the integral under
relabeling of markings 1..n-1 and the key of the memo.  The memo also
holds each monomial integrated under (n, mono), so a monomial met again
is one lookup and builds no forest key.  Restricting to a
boundary divisor D(T) splits the tree: T's subtree becomes the T-side
component, the rest keeps T as one marking (the node), and the powers
of D(T) left over go binomially to the node psi classes on either side.
Once only psi symbols remain, the multinomial formula finishes the job.
"""

import math
from operator import add

from .exactnum import RATIONAL_TYPES, LaurentPoly, rational


def full_mask(n):
    return (1 << (n - 1)) - 1


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
    coefficients in the nvars equivariant parameters.  Instances are
    treated as immutable.  _degrees maps the monomials of a product's
    result to their degrees; it is None on a class built any other way.
    """

    __slots__ = ("n", "nvars", "terms", "_degrees")

    def __init__(self, n, nvars, terms=None):
        if n < 3:
            raise ValueError("need at least three markings")
        self.n = n
        self.nvars = nvars
        self._degrees = None
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
        elif coeff.nvars != nvars:
            raise ValueError("mixed variable counts: %d vs %d" % (coeff.nvars, nvars))
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
        if isinstance(other, RATIONAL_TYPES + (LaurentPoly,)):
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
        if isinstance(other, RATIONAL_TYPES + (LaurentPoly,)):
            other = CohClass.scalar(self.n, self.nvars, other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, CohClass):
            other = CohClass.scalar(self.n, self.nvars, other)
        self._check(other)
        # The right factor is c0 + rest, c0 its constant term (a number or
        # LaurentPoly factor is taken as a constant class: all c0).  c0 alone
        # gives a copy of the left terms (sharing their coefficients when c0
        # is the unit, as in every Euler-class factor), and only left
        # monomials with room under the socle degree n-3 meet rest, which is
        # bucketed by degree.  A unit coefficient in rest (None in a bucket)
        # needs no products.  The sums a left monomial adds to one output
        # monomial go straight into one {exp: coeff} dict, started from the
        # copy's coefficient, which becomes a LaurentPoly once; a first
        # product is stored as is, since adding it to 0 would cost a
        # Fraction operation on the rational routes.  The output degree of
        # each monomial is d1 + d2, kept in _degrees for the next product.
        maxdeg = self.n - 3
        unit = LaurentPoly.one(self.nvars).terms
        left, degrees = self.terms, self._degrees
        if degrees is None:
            degrees = {m: mono_degree(m) for m in left}
            if max(degrees.values(), default=0) > maxdeg:
                # terms above the socle degree vanish in every product
                degrees = {m: d for m, d in degrees.items() if d <= maxdeg}
                left = {m: left[m] for m in degrees}
        other_degrees = other._degrees
        c0 = None
        buckets = [[] for _ in range(maxdeg + 1)]
        for m, c in other.terms.items():
            if not m:
                c0 = c
                continue
            d = mono_degree(m) if other_degrees is None else other_degrees[m]
            if d <= maxdeg:
                buckets[d].append((m, None if c.terms == unit else c.terms.items()))
        if c0 is None:
            terms, out_degrees = {}, {}
        else:
            terms = dict(left) if c0.terms == unit else {m: c * c0 for m, c in left.items()}
            out_degrees = dict(degrees)
        low = next((d for d, bucket in enumerate(buckets) if bucket), maxdeg + 1)
        acc = {}
        for m1, c1 in left.items():
            d1 = degrees[m1]
            if d1 + low > maxdeg:
                continue
            pairs = c1.terms.items()
            for d2 in range(low, maxdeg - d1 + 1):
                for m2, t2 in buckets[d2]:
                    m = merge_monomials(m1, m2)
                    if m is None:
                        continue
                    sums = acc.get(m)
                    if sums is None:
                        base = terms.get(m)
                        if base is None:
                            out_degrees[m] = d1 + d2
                            sums = acc[m] = {}
                        else:
                            sums = acc[m] = dict(base.terms)
                    if t2 is None:
                        for e, a in pairs:
                            prev = sums.get(e)
                            sums[e] = a if prev is None else prev + a
                        continue
                    for e1, a in pairs:
                        for e2, b in t2:
                            e = tuple(map(add, e1, e2))
                            prev = sums.get(e)
                            sums[e] = a * b if prev is None else prev + a * b
        for m, sums in acc.items():
            if not all(sums.values()):
                sums = {e: c for e, c in sums.items() if c}
                if not sums:
                    terms.pop(m, None)
                    del out_degrees[m]
                    continue
            terms[m] = LaurentPoly._of(self.nvars, sums)
        out = CohClass(self.n, self.nvars)
        out.terms = terms
        out._degrees = out_degrees
        return out

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative exponent %d" % k)
        out = CohClass.one(self.n, self.nvars)
        for _ in range(k):
            out = out * self
        return out

    def is_zero(self):
        return not self.terms

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


def psi_subset(n, nvars, mask):
    """psi_T = sum of D(S) over S strictly containing T (zero for the full set)."""
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
    return CohClass(n, nvars, terms)


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


_integral_memo = {}  # forest keys and (n, mono) pairs -> integrals


def _span(node):
    """(markings, degree) of a forest node: the markings under it and the
    total exponent of its symbols and of those nested inside it."""
    free, e, kids = node
    for kid in kids:
        m, d = _span(kid)
        free += m
        e += d
    return free, e


def _integral_forest(root):
    """Integral over M0n of the monomial with forest key root, n being
    the markings under root plus one and the degree n-3.

    With no wall (a child of two or more markings) the symbols are psi
    classes.  Otherwise the first wall W = (f, e, kids) is split off: the
    W side is (f, j, kids), its root exponent j being the node psi there,
    and the rest keeps W as the node, a singleton of exponent e-1-j, with
    weight C(e-1, j).  Only one j gives the W side its dimension.
    """
    hit = _integral_memo.get(root)
    if hit is not None:
        return hit
    free, exp, kids = root
    wall = next((kid for kid in kids if kid[0] > 1 or kid[2]), None)
    if wall is None:
        n = free + len(kids) + 1
        exps = [e for _, e, _ in kids] + [0] * free + [exp]
        val = psi_integral(n, exps) * (-1) ** (n - 3)
    else:
        f, e, sub = wall
        m, d = _span(wall)
        j = m - 2 - (d - e)
        val = rational(0)
        if 0 <= j < e:
            left = _integral_forest((f, j, sub))
            if left:
                rest = list(kids)
                rest.remove(wall)
                if j < e - 1:
                    right = (free, exp, tuple(sorted(rest + [(1, e - 1 - j, ())])))
                else:
                    right = (free + 1, exp, tuple(rest))
                val = math.comb(e - 1, j) * left * _integral_forest(right)
    _integral_memo[root] = val
    return val


def integral_monomial(n, mono):
    """Exact integral of a laminar monomial over M0n (a rational number).
    The memo holds it under (n, mono) too, so a monomial met again needs
    no forest key."""
    if mono_degree(mono) != n - 3:
        return rational(0)
    hit = _integral_memo.get((n, mono))
    if hit is None:
        hit = _integral_memo[(n, mono)] = _integral_forest(_forest_key(n, mono))
    return hit


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
