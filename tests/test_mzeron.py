import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from hhi.exactnum import LaurentPoly, rational
from hhi.mzeron import (CohClass, full_mask, integral_monomial, integrate,
                        mask_of, markings_of, merge_monomials, mono_degree,
                        psi_integral, psi_marking, psi_subset,
                        restrict_monomial)


def D(n, *markings):
    return CohClass.generator(n, 1, mask_of(markings))


def const(n, c):
    return CohClass.scalar(n, 1, rational(c))


def integral(c):
    return integrate(c).as_rational()


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
            assert integral(psi_marking(n, 1, i) ** (n - 3)) == 1


def test_integrate_returns_laurent():
    n = 4
    t = LaurentPoly.var_power(2, 1, 1)
    c = CohClass.generator(n, 2, mask_of([1, 2])) * t
    assert integrate(c) == t


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


def laminar_monomials(n, degree):
    """All nonzero monomials of the given degree (exhaustive; small n only)."""
    masks = [m for m in range(1, full_mask(n) + 1)]
    out = set()

    def grow(mono, start):
        d = sum(mono.values())
        if d == degree:
            out.add(tuple(sorted(mono.items())))
            return
        for m in masks[start:]:
            if all((m & s == m) or (m & s == s) or not (m & s) for s in mono):
                mono2 = dict(mono)
                mono2[m] = mono2.get(m, 0) + 1
                grow(mono2, masks.index(m))

    grow({}, 0)
    return sorted(out)


def _check_relation_integrates_to_zero(n, relation):
    """A class is zero in cohomology iff it integrates to zero against
    every monomial of complementary degree."""
    for deg in range(n - 3 + 1):
        part = relation.degree_part(deg)
        if part.is_zero():
            continue
        for mono in laminar_monomials(n, n - 3 - deg):
            probe = CohClass(n, 1, {mono: LaurentPoly.one(1)})
            assert integral(part * probe) == 0


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
        _check_relation_integrates_to_zero(n, s)
    for s in sums[1:]:
        _check_relation_integrates_to_zero(n, s - sums[0])


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
        _check_relation_integrates_to_zero(n, CohClass.generator(n, 1, tmask) * total)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_node_psi_split_integral(n):
    """On D(T) the complementary psi combination becomes the tooth
    node's psi class and psi_T the head node's, so the top integral of
    D(T) * psi_complement^(|T|-2) * psi_T^(n-|T|-2) is one."""
    for size in range(2, n - 2):
        tmask = mask_of(range(1, size + 1))
        c = CohClass.generator(n, 1, tmask)
        c = c * psi_subset(n, 1, tmask, complement=True) ** (size - 2)
        c = c * psi_subset(n, 1, tmask) ** (n - size - 2)
        assert integral(c) == 1


def test_integral_pick_order_invariance():
    """The recursive integration may consume boundary symbols in any
    order; spot-check by comparing against brute-force restriction in
    randomized order."""
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

    for n in (5, 6):
        for mono in laminar_monomials(n, n - 3)[:60]:
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
    entry = st.one_of(st.integers(-3, 3),
                      st.builds(rational, st.integers(-3, 3), st.integers(1, 4)))
    coeff = st.one_of(st.just({(0,) * nvars: 1}),
                      st.dictionaries(st.tuples(*[st.integers(-1, 2)] * nvars), entry,
                                      max_size=3))
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
    """CohClass.__mul__ (degree buckets, no merge for the empty
    monomial, no products for a unit coefficient) equals the product by
    definition."""
    x = data.draw(ring_classes(n, nvars))
    y = data.draw(ring_classes(n, nvars))
    assert x * y == naive_product(x, y)
    assert y * x == naive_product(y, x)


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
