import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hhi.exactnum import LaurentPoly, rational
from hhi.mzeron import (CohClass, full_mask, integral_monomial, integrate,
                        markings_of, merge_monomials, psi_integral, psi_marking,
                        psi_subset)
from ring_helpers import cohomologically_zero, laminar_monomials, mask_of, naive_product


def D(n, *markings):
    return CohClass.generator(n, 1, mask_of(markings))


def const(n, c):
    return CohClass.scalar(n, 1, rational(c))


def test_masks():
    assert mask_of([1, 3]) == 0b101
    assert markings_of(0b101) == [1, 3]
    assert full_mask(5) == 0b1111


def test_merge_monomials_laminar():
    a = ((mask_of([1, 2]), 1),)
    b = ((mask_of([2, 3]), 1),)
    c = ((mask_of([1, 2, 3]), 2),)
    assert merge_monomials(a, b) is None
    assert merge_monomials(a, c) == ((mask_of([1, 2]), 1), (mask_of([1, 2, 3]), 2))
    assert merge_monomials(a, a) == ((mask_of([1, 2]), 2),)


def test_incomparable_products_vanish():
    n = 6
    assert (D(n, 1, 2) * D(n, 2, 3)).is_zero()
    assert (D(n, 1, 2) * D(n, 2, 3, 4)).is_zero()
    assert not (D(n, 1, 2) * D(n, 3, 4)).is_zero()
    assert not (D(n, 1, 2) * D(n, 1, 2, 3)).is_zero()


def test_truncation_above_socle_degree():
    n = 5
    assert (D(n, 1, 2) ** 3).is_zero()
    assert CohClass.generator(3, 1, 0b1).is_zero()


def test_psi_subset_n4():
    n = 4
    p1 = psi_subset(n, 1, mask_of([1]))
    expected = D(n, 1, 2) + D(n, 1, 3) + D(n, 1, 2, 3)
    assert p1 == expected
    assert psi_subset(n, 1, full_mask(n)).is_zero()


def test_psi_integral_values():
    assert psi_integral(3, [0, 0, 0]) == 1
    assert psi_integral(4, [1, 0, 0, 0]) == 1
    assert psi_integral(6, [1, 1, 1, 0, 0, 0]) == 6
    assert psi_integral(6, [3, 0, 0, 0, 0, 0]) == 1
    assert psi_integral(6, [1, 1, 0, 0, 0, 0]) == 0
    with pytest.raises(ValueError):
        psi_integral(4, [1, 0, 0])


def test_basic_integrals():
    assert integral_monomial(3, ()) == 1
    assert integral_monomial(4, ((mask_of([1, 2]), 1),)) == 1
    assert integral_monomial(5, ((mask_of([1, 2]), 2),)) == -1
    assert integral_monomial(5, ((mask_of([1, 2, 3]), 2),)) == -1
    # wrong degree
    assert integral_monomial(5, ((mask_of([1, 2]), 1),)) == 0


def test_psi_power_integrals_through_divisor_symbols():
    for n in (4, 5, 6):
        for i in (1, n - 1, n):
            assert integrate(psi_marking(n, 1, i) ** (n - 3)) == LaurentPoly.one(1)


def test_integrate_returns_laurent():
    n = 4
    t = LaurentPoly.var_power(2, 1, 1)
    c = CohClass.generator(n, 2, mask_of([1, 2])) * t
    assert integrate(c) == t


def _remap(mask, positions):
    """Compress the bits of mask through the sorted bit-position list."""
    out = 0
    for newbit, oldbit in enumerate(positions):
        if mask >> oldbit & 1:
            out |= 1 << newbit
    return out


def restrict_monomial(n, mono, tmask):
    """Restrict a laminar monomial containing D(tmask) to that divisor, on
    bitmasks: the oracle for the integration's split of the forest tree.

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


def test_restrict_monomial_simple():
    n = 5
    mono = ((mask_of([1, 2]), 1), (mask_of([4]), 1))
    [(c, n_l, ml, n_r, mr)] = restrict_monomial(n, mono, mask_of([1, 2]))
    assert (c, n_l, n_r) == (1, 3, 4)
    assert ml == ()
    # marking 4 is the second survivor on the right component
    assert mr == ((mask_of([2]), 1),)


def test_restrict_monomial_superset_collapses_to_node():
    n = 6
    tmask = mask_of([1, 2])
    mono = ((tmask, 1), (mask_of([1, 2, 4]), 1))
    [(c, n_l, ml, n_r, mr)] = restrict_monomial(n, mono, tmask)
    # survivors 3,4,5 -> 1,2,3 and the node is marking 4 on the right
    assert mr == ((mask_of([2, 4]), 1),)
    assert n_l == 3 and n_r == 5 and ml == ()


def test_restrict_monomial_self_power_splits_binomially():
    n = 6
    tmask = mask_of([1, 2, 3])
    mono = ((tmask, 3),)
    pieces = restrict_monomial(n, mono, tmask)
    assert len(pieces) == 3
    coeffs = sorted(c for c, *_ in pieces)
    assert coeffs == [1, 1, 2]
    total = sum(rational(c) * integral_monomial(n_l, ml) * integral_monomial(n_r, mr)
                for c, n_l, ml, n_r, mr in pieces)
    assert total == integral_monomial(n, mono)


def test_restrict_to_boundary_excess_is_sum_of_node_psis():
    """Pulling D(T) back to its own divisor gives -psi' - psi'': D(T)^2
    restricts to one node psi on either side of the node."""
    n = 6
    tmask = mask_of([1, 2, 3])
    pieces = restrict_monomial(n, ((tmask, 2),), tmask)
    assert sorted(pieces) == sorted([
        (1, 4, ((full_mask(4), 1),), 4, ()),
        (1, 4, (), 4, ((1 << 2, 1),)),
    ])


@pytest.mark.parametrize("n", [4, 5, 6])
def test_keel_relation(n):
    """For any i < j < n, the sum of D(T) over subsets T containing both
    i and j vanishes in cohomology (the full set, standing for -psi_n,
    participates)."""
    pairs = list(itertools.combinations(range(1, n), 2))
    sums = []
    for i, j in pairs:
        total = CohClass.zero(n, 1)
        for mask in range(1, full_mask(n) + 1):
            if mask >> (i - 1) & 1 and mask >> (j - 1) & 1:
                total = total + CohClass.generator(n, 1, mask)
        sums.append(total)
    for s in sums:
        assert cohomologically_zero(s)
    for s in sums[1:]:
        assert cohomologically_zero(s - sums[0])


@pytest.mark.parametrize("n", [5, 6])
def test_annihilation_relation(n):
    """D(T) kills the sum of D(S) over S containing T and a fixed
    outside marking."""
    rng = random.Random(n)
    for _ in range(6):
        size = rng.randint(2, n - 2)
        t = rng.sample(range(1, n), size)
        tmask = mask_of(t)
        outside = [i for i in range(1, n) if not tmask >> (i - 1) & 1]
        if not outside:
            continue
        i = rng.choice(outside)
        total = CohClass.zero(n, 1)
        for mask in range(1, full_mask(n) + 1):
            if mask & tmask == tmask and mask >> (i - 1) & 1:
                total = total + CohClass.generator(n, 1, mask)
        assert cohomologically_zero(CohClass.generator(n, 1, tmask) * total)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_node_psi_split_integral(n):
    """On D(T) the complementary psi combination becomes the tooth
    node's psi class and psi_T the head node's, so the top integral of
    D(T) * psi_complement^(|T|-2) * psi_T^(n-|T|-2) is one."""
    for size in range(2, n - 2):
        tmask = mask_of(range(1, size + 1))
        d = CohClass.generator(n, 1, tmask)
        psi_t = psi_subset(n, 1, tmask)
        # -D(T) - psi_T restricts to the node's psi class on the T-component
        assert integrate(d * (-d - psi_t) ** (size - 2)
                         * psi_t ** (n - size - 2)) == LaurentPoly.one(1)


def test_integral_pick_order_invariance():
    """Restricting bitmask monomials to their walls in random order, the
    oracle, gives the integral that the forest recursion computes: on
    every monomial of degree n-3 for n <= 6, and on a seeded sample at
    n = 7."""
    rng = random.Random(11)

    def integrate_random_order(n, mono):
        if sum(e for _, e in mono) != n - 3:
            return rational(0)
        walls = [m for m, _ in mono if 2 <= m.bit_count() <= n - 2]
        if not walls:
            exps = [0] * n
            for mask, e in mono:
                if mask == full_mask(n):
                    exps[n - 1] += e
                else:
                    exps[mask.bit_length() - 1] += e
            return psi_integral(n, exps) * (-1) ** (n - 3)
        tmask = rng.choice(walls)
        total = rational(0)
        for c, n_l, ml, n_r, mr in restrict_monomial(n, mono, tmask):
            total += rational(c) * integrate_random_order(n_l, ml) * integrate_random_order(n_r, mr)
        return total

    cases = [(n, mono) for n in range(3, 7) for mono in laminar_monomials(n, n - 3)]
    cases += [(7, mono) for mono in rng.sample(laminar_monomials(7, 4), 1000)]
    for n, mono in cases:
        for _ in range(3):
            assert integrate_random_order(n, mono) == integral_monomial(n, mono)


@pytest.mark.parametrize("n", [5, 6])
def test_integral_relabeling_invariance(n):
    rng = random.Random(n * 7)
    for mono in laminar_monomials(n, n - 3)[::5]:
        perm = list(range(1, n))
        rng.shuffle(perm)
        remapped = {}
        for mask, e in mono:
            m2 = mask_of(perm[i - 1] for i in markings_of(mask))
            remapped[m2] = remapped.get(m2, 0) + e
        mono2 = tuple(sorted(remapped.items()))
        assert integral_monomial(n, mono) == integral_monomial(n, mono2)


def test_serialization_round_trip():
    """to_obj lists the monomials in sorted order, markings 1-based, with
    exact coefficient strings."""
    n = 5
    c = (D(n, 1, 2) * D(n, 1, 2, 3)) + D(n, 4) * D(n, 4) * rational(3, 7)
    assert c.to_obj() == [
        {"monomial": [{"T": [1, 2], "exp": 1}, {"T": [1, 2, 3], "exp": 1}],
         "coeff": [{"t_exp": [0], "coeff": "1"}]},
        {"monomial": [{"T": [4], "exp": 2}],
         "coeff": [{"t_exp": [0], "coeff": "3/7"}]},
    ]


def laurent_terms(nvars, min_size=0):
    """Up to three {exp: coeff} entries, int or Fraction coefficients."""
    entry = st.one_of(st.integers(-3, 3),
                      st.builds(rational, st.integers(-3, 3), st.integers(1, 4)))
    return st.dictionaries(st.tuples(*[st.integers(-1, 2)] * nvars), entry,
                           min_size=min_size, max_size=3)


@st.composite
def ring_classes(draw, n, nvars):
    """A sum of a few terms, each a Laurent coefficient (one, or int or
    Fraction entries) times a product of generators and psi classes,
    built with naive_product.  Sometimes a monomial above degree n-3 is
    added raw, as the constructor allows."""
    fm = full_mask(n)
    factor = st.one_of(
        st.integers(1, fm).map(lambda m: CohClass.generator(n, nvars, m)),
        st.integers(1, n).map(lambda i: psi_marking(n, nvars, i)),
        st.integers(1, fm).map(lambda m: psi_subset(n, nvars, m)))
    coeff = st.one_of(st.just({(0,) * nvars: 1}), laurent_terms(nvars))
    total = CohClass.zero(n, nvars)
    for _ in range(draw(st.integers(1, 3))):
        term = CohClass.scalar(n, nvars, LaurentPoly(nvars, draw(coeff)))
        for f in draw(st.lists(factor, max_size=n - 2)):
            term = naive_product(term, f)
        total = total + term
    if draw(st.booleans()):
        high = ((draw(st.integers(1, fm)), draw(st.integers(n - 2, n))),)
        total = total + CohClass(n, nvars, {high: LaurentPoly.one(nvars)})
    return total


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 7), st.integers(1, 2), st.data())
def test_product_matches_naive_product(n, nvars, data):
    """CohClass.__mul__ (the constant term split off, the rest in degree
    buckets, no products for a unit coefficient) equals the product by
    definition."""
    x = data.draw(ring_classes(n, nvars))
    y = data.draw(ring_classes(n, nvars))
    assert x * y == naive_product(x, y)
    assert y * x == naive_product(y, x)


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 7), st.integers(1, 2), st.data())
def test_scalar_product_is_product_with_scalar_class(n, nvars, data):
    """A class times a number (on either side) or a LaurentPoly is its
    product with the constant class of that factor."""
    x = data.draw(ring_classes(n, nvars))
    poly = LaurentPoly(nvars, data.draw(laurent_terms(nvars)))
    for factor in (Fraction(-3, 4), 5, poly, 0):
        scalar = CohClass.scalar(n, nvars, factor)
        assert x * factor == x * scalar == naive_product(x, scalar)
        if not isinstance(factor, LaurentPoly):
            assert factor * x == x * scalar


@st.composite
def right_factors(draw, n, nvars):
    """A ring class whose constant term is the unit, another Laurent
    coefficient or missing: the three starts of CohClass.__mul__."""
    x = draw(ring_classes(n, nvars))
    x = x - x.terms.get((), 0)
    kind = draw(st.sampled_from(["unit", "other", "missing"]))
    if kind == "unit":
        return x + 1
    if kind == "other":
        c = LaurentPoly(nvars, draw(laurent_terms(nvars, min_size=1)))
        return x + (c if c and c != LaurentPoly.one(nvars) else LaurentPoly.const(nvars, 2))
    return x


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 7), st.integers(1, 2), st.data())
def test_chained_products_match_naive_product(n, nvars, data):
    """A product keeps its output degrees for the next product: products
    of products, and of sums with a product, equal the product by
    definition, whatever the right factors' constant terms."""
    x = data.draw(ring_classes(n, nvars))
    y, z, w = (data.draw(right_factors(n, nvars)) for _ in range(3))
    xy = naive_product(x, y)
    assert x * y == xy
    assert (x * y) * z == naive_product(xy, z)
    assert (x * y + z) * w == naive_product(xy + z, w)
    assert (z + x * y) * w == naive_product(xy + z, w)
    assert x * (y * z) == naive_product(x, naive_product(y, z))
    assert (x * y) * (z * w) == naive_product(xy, naive_product(z, w))


def test_product_drops_cancelled_terms():
    """(1 + D)(1 - D) = 1 - D^2: the D term cancels and leaves the
    result, and the next product starts from what is left."""
    n = 6
    one = CohClass.one(n, 1)
    d = CohClass.generator(n, 1, mask_of([1, 2]))
    p = (one + d) * (one - d)
    assert p == one - d * d
    assert ((mask_of([1, 2]), 1),) not in p.terms
    assert p * (one + d) == naive_product(one - d * d, one + d)
    assert (p * d) * d == d * d


def test_rational_scalars_add_and_subtract():
    one = CohClass.one(5, 1)
    half = Fraction(1, 2)
    assert one + half == CohClass.scalar(5, 1, Fraction(3, 2))
    assert half + one == CohClass.scalar(5, 1, Fraction(3, 2))
    assert one - half == CohClass.scalar(5, 1, half)
    assert one - half == one * half
    psi = psi_marking(5, 1, 1)
    assert (psi + half) - half == psi


def test_negative_power_is_an_error():
    with pytest.raises(ValueError):
        psi_marking(5, 1, 5) ** -1
    assert psi_marking(5, 1, 5) ** 0 == CohClass.one(5, 1)


def test_product_adds_unit_coefficient_terms():
    """Output monomials reached both through a unit coefficient and
    otherwise: (1 + D) * (D + 1) has 2 D, and psi_subset products sum
    many unit-coefficient terms into one monomial."""
    n = 6
    one = CohClass.one(n, 2)
    for mask in (1, mask_of([1, 2]), full_mask(n)):
        d = CohClass.generator(n, 2, mask)
        assert (one + d) * (d + one) == naive_product(one + d, d + one)
        assert ((one + d) * (d + one)).terms[((mask, 1),)] == LaurentPoly.const(2, 2)
    psi = psi_subset(n, 2, mask_of([1]))
    assert (psi + one) * (psi + one) == naive_product(psi + one, psi + one)
