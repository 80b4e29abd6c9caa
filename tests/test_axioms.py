"""The genus-zero axioms as a route-free oracle: the WDVV equation and
the topological recursion relation (TRR) of orbifold Gromov-Witten
theory (Abramovich-Graber-Vistoli, arXiv:math/0603151).

Both checks read invariants only through a value(key) function, so they
test whichever route computes it.  The state space has one class 1_k per
group element k, and <tau_v1 1_k1, ..., tau_vn 1_kn> is value on the
key with elements k_i and psi exponents v_i.  Invariants are symmetric
in all n markings, so each multiset of (element, psi) pairs is read once.

The metric is the three-point invariant g(k, l) = <1_k, 1_l, 1_0>.  It
is nonzero only at l = -k mod r, where it is a Laurent monomial, so its
inverse g^(k,l) = 1 / g(k, l) is exact.  An invariant is zero unless its
elements sum to 0 mod r, so in every sum over a node below the sector
e on one side is fixed, and f = -e mod r on the other.
"""

import functools
import itertools
import math

import pytest

from hhi.exactnum import LaurentPoly, rational
from hhi.invariants import InvariantKey, invariant_direct
from hhi.orbifold import OrbifoldData


def _reader(value, r, w):
    """The invariant of a list of (element, psi) pairs."""
    @functools.lru_cache(maxsize=None)
    def read(pairs):
        elements, psi = zip(*pairs)
        return value(InvariantKey(OrbifoldData(r, w, elements), psi))
    return lambda pairs: read(tuple(sorted(pairs)))


def _inverse_metric(read, r, nvars):
    """{e: g^(e,f)} with f = -e mod r."""
    out = {}
    for e in range(r):
        (exps, c), = read([(e, 0), (-e % r, 0), (0, 0)]).terms.items()
        out[e] = LaurentPoly(nvars, {tuple(-x for x in exps): rational(1) / c})
    return out


def wdvv_defects(value, r, w, nmax):
    """The failing coefficients of WDVV, as (a, b, c, d, m).

    F is the genus-zero potential in the twisted-sector variables x_1 ..
    x_(r-1), the untwisted one set to zero, and F_abe its third
    derivative, whose coefficient at x^m is <1_a, 1_b, 1_e, 1_1^m_1, ...>
    over prod m_k!.  For all sectors a, b, c, d, WDVV says
        sum_e F_abe g^(e,f) F_fcd = sum_e F_ace g^(e,f) F_fbd,
    and its coefficient at x^m reads invariants of at most 3 + |m|
    markings, so it is checked for |m| <= nmax - 3.
    """
    read = _reader(value, r, w)
    ginv = _inverse_metric(read, r, len(w))
    zero = LaurentPoly.zero(len(w))
    twisted = range(1, r)

    @functools.lru_cache(maxsize=None)
    def f3(a, b, e, m):
        """[x^m] F_abe."""
        body = [(k, 0) for k, mk in zip(twisted, m) for _ in range(mk)]
        val = read([(a, 0), (b, 0), (e, 0)] + body)
        return val * rational(1, math.prod(map(math.factorial, m))) if val else zero

    def side(a, b, c, d, m):
        total = zero
        for m1 in itertools.product(*(range(mk + 1) for mk in m)):
            e = -(a + b + sum(k * x for k, x in zip(twisted, m1))) % r
            left = f3(a, b, e, m1)
            if left:
                m2 = tuple(x - y for x, y in zip(m, m1))
                total = total + left * ginv[e] * f3(-e % r, c, d, m2)
        return total

    defects = []
    for size in range(nmax - 2):
        for combo in itertools.combinations_with_replacement(twisted, size):
            m = tuple(combo.count(k) for k in twisted)
            for a, b, c, d in itertools.product(range(r), repeat=4):
                if (a + b + c + d + sum(combo)) % r == 0 and \
                        side(a, b, c, d, m) != side(a, c, b, d, m):
                    defects.append((a, b, c, d, m))
    return defects


def trr_defects(value, r, w, nmax):
    """The failing cases of TRR, as (a, k, b, c, S), for n <= nmax.

    psi at marking a is the boundary divisor separating a from b and c,
    so with S the other markings (psi-free)
        <tau_(k+1) 1_a, 1_b, 1_c, S>
          = sum over S = S1 + S2, S1 nonempty, of
            <tau_k 1_a, S1, 1_e> g^(e,f) <1_f, 1_b, 1_c, S2>,
    summed over the ways to split the markings of S.
    """
    read = _reader(value, r, w)
    ginv = _inverse_metric(read, r, len(w))
    defects = []
    for n in range(4, nmax + 1):
        for a in range(r):
            for b, c in itertools.combinations_with_replacement(range(r), 2):
                for rest in itertools.combinations_with_replacement(range(r), n - 3):
                    if (a + b + c + sum(rest)) % r:
                        continue
                    for k in range(n - 3):
                        lhs = read([(a, k + 1), (b, 0), (c, 0)] + [(s, 0) for s in rest])
                        rhs = LaurentPoly.zero(len(w))
                        for size in range(1, n - 2):
                            for idx in itertools.combinations(range(n - 3), size):
                                s1 = [rest[i] for i in idx]
                                s2 = [s for i, s in enumerate(rest) if i not in idx]
                                e = -(a + sum(s1)) % r
                                left = read([(a, k)] + [(s, 0) for s in s1] + [(e, 0)])
                                if left:
                                    right = read([(-e % r, 0), (b, 0), (c, 0)]
                                                 + [(s, 0) for s in s2])
                                    rhs = rhs + left * ginv[e] * right
                        if lhs != rhs:
                            defects.append((a, k, b, c, rest))
    return defects


@pytest.mark.parametrize("r,w,nmax", [(3, (1, 1, 1), 7), (2, (1, 1), 7), (4, (1, 1, 2), 6)])
def test_direct_satisfies_wdvv(r, w, nmax):
    assert wdvv_defects(invariant_direct, r, w, nmax) == []


@pytest.mark.parametrize("r,w,nmax", [(3, (1, 1, 1), 6), (2, (1, 1), 6)])
def test_direct_satisfies_trr(r, w, nmax):
    assert trr_defects(invariant_direct, r, w, nmax) == []


def test_wdvv_flags_a_wrong_four_point_value():
    """Doubling <1_1, 1_1, 1_2, 1_2> on [C^3/mu_3] breaks WDVV."""
    def doubled(key):
        val = invariant_direct(key)
        return val * 2 if sorted(key.data.elements) == [1, 1, 2, 2] and not any(key.psi) else val

    assert wdvv_defects(doubled, 3, (1, 1, 1), 5) != []


def test_trr_flags_wrong_descendants():
    """Doubling every invariant with a psi insertion breaks TRR."""
    def doubled(key):
        return invariant_direct(key) * (2 if any(key.psi) else 1)

    assert trr_defects(doubled, 3, (1, 1, 1), 5) != []
