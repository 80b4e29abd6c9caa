import itertools

import pytest
from hypothesis import given, settings, strategies as st

from hhi.exactnum import LaurentPoly, rational, signed_index_set
from hhi.euler import (_biv_mul, _index_product, euler_class_compact, euler_class_mainthm,
                       inv_linear, scaled_compact_product, unscale, wall_factor,
                       weighted_class)
from hhi.invariants import InvariantKey, invariant_direct
from hhi.mzeron import CohClass, full_mask, integrate, psi_marking, psi_subset
from hhi.orbifold import OrbifoldData
from ring_helpers import (cohomologically_zero, compact_product, mask_of, naive_product,
                          weighted_as_coh_class)


def test_inv_linear_times_linear_is_one():
    n, nvars = 6, 2
    for tmask in (mask_of([1, 2]), mask_of([1, 2, 3])):
        psi = psi_subset(n, nvars, tmask)
        p = rational(5, 3)
        lin = CohClass.scalar(n, nvars, LaurentPoly.var_power(nvars, 1, 1)) + psi * p
        assert lin * inv_linear(n, nvars, 1, psi * p) == CohClass.one(n, nvars)


def test_wall_factor_trivial_ranges():
    n, nvars = 5, 1
    tmask = mask_of([1, 2])
    for delta in (rational(1, 3), rational(1), rational(0)):
        assert wall_factor(n, nvars, tmask, delta, 1) == CohClass.one(n, nvars)


def test_wall_factor_single_index():
    """delta_T = 5/3 contributes the single index p = 2/3 (the range ends
    at 2/3) in a product that also starts there."""
    n, nvars = 5, 1
    tmask = mask_of([1, 2])
    psi = psi_subset(n, nvars, tmask)
    d = CohClass.generator(n, nvars, tmask)
    p = rational(2, 3)
    expected = CohClass.one(n, nvars) + d * p * inv_linear(n, nvars, 1, psi * p)
    assert wall_factor(n, nvars, tmask, rational(5, 3), 1) == expected


def test_wall_factor_two_indices():
    n, nvars = 6, 1
    tmask = mask_of([1, 2, 3])
    psi = psi_subset(n, nvars, tmask)
    d = CohClass.generator(n, nvars, tmask)
    f = CohClass.one(n, nvars)
    for p in (rational(1), rational(2)):
        f = f * (CohClass.one(n, nvars) + d * p * inv_linear(n, nvars, 1, psi * p))
    assert wall_factor(n, nvars, tmask, rational(3), 1) == f


def _ring_index_product(n, nvars, tmask, a, delta):
    """(t_a + p psi_T + p D(T)) (t_a + p psi_T)^(-1) for each positive
    index p of delta - 1, the reciprocal for each negative one, taken
    factor by factor in the ring with Fraction indices."""
    psi = psi_subset(n, nvars, tmask)
    both = psi + CohClass.generator(n, nvars, tmask)
    t = CohClass.scalar(n, nvars, LaurentPoly.var_power(nvars, a, 1))
    positives, negatives = signed_index_set(delta - 1)
    out = CohClass.one(n, nvars)
    for p in positives:
        out = out * (t + both * p) * inv_linear(n, nvars, a, psi * p)
    for p in negatives:
        out = out * (t + psi * p) * inv_linear(n, nvars, a, both * p)
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 6), st.integers(1, 2), st.data())
def test_wall_factor_matches_ring_product(n, nvars, data):
    """wall_factor on raw delta_T in [-3, 4] with denominators up to 6, so
    that negative indices occur, against the product taken in the ring."""
    den = data.draw(st.integers(1, 6))
    delta = rational(data.draw(st.integers(-3 * den, 4 * den)), den)
    a = data.draw(st.integers(1, nvars))
    body = data.draw(st.lists(st.integers(1, n - 1), min_size=2, max_size=n - 2,
                              unique=True))
    tmask = mask_of(body)
    assert wall_factor(n, nvars, tmask, delta, a) == _ring_index_product(
        n, nvars, tmask, a, delta)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.data())
def test_index_product_times_swapped_is_one(maxdeg, data):
    """The factor of a positive index is the reciprocal of that of the
    same negative index, so the index product of (P, N) times that of
    (N, P) is 1 at every truncation degree, on int and Fraction indices."""
    index = data.draw(st.sampled_from([
        st.integers(-6, 6), st.builds(rational, st.integers(-12, 12), st.integers(1, 6))]))
    pos = data.draw(st.lists(index, max_size=3))
    neg = data.draw(st.lists(index, max_size=3))
    assert _biv_mul(_index_product(pos, neg, maxdeg), _index_product(neg, pos, maxdeg),
                    maxdeg) == {(0, 0): 1}


def test_euler_class_point():
    d = OrbifoldData(3, (1, 1, 1), (1, 1, 1))
    one = CohClass.one(3, 3)
    assert euler_class_mainthm(d) == one
    assert euler_class_compact(d) == one


def test_euler_class_single_direction_n5():
    """Five markings, one direction, ages k/3: only the distinguished
    psi class survives, with index 1/3."""
    d = OrbifoldData(3, (1,), (1, 1, 1, 1, 2))
    n = 5
    expected = (CohClass.scalar(n, 1, LaurentPoly.var_power(1, 1, 1))
                + CohClass.generator(n, 1, full_mask(n)) * rational(1, 3))
    assert euler_class_mainthm(d) == expected
    assert euler_class_compact(d) == expected


def test_euler_class_all_trivial_elements():
    """Untwisted markings: every direction contributes 1/t_a."""
    for n in (4, 5):
        d = OrbifoldData(3, (1, 2), (0,) * n)
        expected = CohClass.scalar(
            n, 2, LaurentPoly(2, {(-1, -1): rational(1)}))
        assert euler_class_mainthm(d) == expected
        assert euler_class_compact(d) == expected


def test_euler_class_inadmissible_rejected():
    d = OrbifoldData(3, (1, 1, 1), (1, 1, 1, 1))
    with pytest.raises(ValueError):
        euler_class_mainthm(d)
    with pytest.raises(ValueError):
        euler_class_compact(d)
    with pytest.raises(ValueError):
        weighted_class(d)


def _all_admissible(r, weights, n):
    for elems in itertools.combinations_with_replacement(range(r), n - 1):
        last = (-sum(elems)) % r
        yield OrbifoldData(r, weights, elems + (last,))


@pytest.mark.parametrize("r,weights", [(2, (1,)), (3, (1, 2)), (4, (1, 1)), (5, (2, 3))])
def test_forms_agree_small_sweep(r, weights):
    for n in (4, 5):
        for d in _all_admissible(r, weights, n):
            assert euler_class_compact(d) == euler_class_mainthm(d), d


def test_compact_product_periodicity():
    """Shifting a single age exponent by one (keeping the prefactor
    fixed) does not change the compact-form product in cohomology.  The
    raw dict representations differ, so equality is checked by pairing
    against all complementary probe monomials."""
    cases = [
        OrbifoldData(3, (1, 1, 1), (1, 1, 1, 1, 1)),
        OrbifoldData(4, (1, 1, 2), (1, 2, 3, 1, 1)),
        OrbifoldData(5, (1, 2), (1, 4, 2, 3, 0)),
    ]
    for data in cases:
        n, nvars = data.n, data.N
        deltas = [[data.age(i, a) for i in range(1, n)]
                  for a in range(1, nvars + 1)]
        pref = [0] * nvars
        base = compact_product(n, nvars, deltas, pref)
        for a in range(nvars):
            for i in range(n - 1):
                shifted = [row[:] for row in deltas]
                shifted[a][i] = shifted[a][i] + 1
                up = compact_product(n, nvars, shifted, pref)
                assert cohomologically_zero(up - base), (data, a, i)
                shifted[a][i] = shifted[a][i] - 2
                down = compact_product(n, nvars, shifted, pref)
                assert cohomologically_zero(down - base), (data, a, i)


def test_weighted_class_example():
    """Six omega insertions on [C^3/mu_3]: the class is the product of
    (t_a - (2/3) H) over the three directions."""
    d = OrbifoldData(3, (1, 1, 1), (1,) * 6)
    w = weighted_class(d)
    e1 = LaurentPoly(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    e2 = LaurentPoly(3, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1})
    assert w == {0: LaurentPoly(3, {(1, 1, 1): 1}),
                 1: e2 * rational(-2, 3),
                 2: e1 * rational(4, 9),
                 3: LaurentPoly.const(3, rational(-8, 27))}


def test_weighted_class_reciprocal_factor():
    """Untwisted body markings give the index p = 0, a reciprocal 1/t_a."""
    d = OrbifoldData(2, (1,), (0, 0, 0, 0))
    assert weighted_class(d) == {0: LaurentPoly.var_power(1, 1, -1)}


def test_wall_crossing_reconstruction():
    """The head-and-walls form is the weighted-space class (H -> psi_n)
    times all wall factors."""
    for data in (OrbifoldData(3, (1, 1, 1), (1,) * 6),
                 OrbifoldData(4, (1, 3), (1, 2, 3, 1, 1)),
                 OrbifoldData(5, (1, 2, 2), (1, 1, 1, 1, 1))):
        n, nvars = data.n, data.N
        cls = weighted_as_coh_class(weighted_class(data), n, nvars)
        for tmask in range(1, full_mask(n) + 1):
            if not 2 <= tmask.bit_count() <= n - 2:
                continue
            markings = [i for i in range(1, n) if tmask >> (i - 1) & 1]
            for a in range(1, nvars + 1):
                cls = cls * wall_factor(n, nvars, tmask,
                                        data.age_sum(markings, a), a)
        assert cls == euler_class_mainthm(data)


def test_signed_ranges_in_weighted_class_match_head_factor():
    """The H-polynomial coefficients are elementary symmetric functions
    of the indices, direction by direction."""
    d = OrbifoldData(3, (1,), (1, 1, 1, 1, 2))
    w = weighted_class(d)
    assert signed_index_set(d.age_sum([1, 2, 3, 4], 1) - 1)[0] == [rational(1, 3)]
    assert w[0] == LaurentPoly.var_power(1, 1, 1)
    assert w[1] == LaurentPoly.const(1, rational(-1, 3))


def _ring_compact_product(n, nvars, deltas, prefactor_exps):
    """compact_product's product taken in the ring: the prefactor times
    _ring_index_product of every subset T and direction a."""
    out = CohClass.scalar(n, nvars, LaurentPoly(nvars, {tuple(prefactor_exps): 1}))
    for tmask in range(1, full_mask(n) + 1):
        for a in range(1, nvars + 1):
            delta = sum(deltas[a - 1][b] for b in range(n - 1) if tmask >> b & 1)
            out = out * _ring_index_product(n, nvars, tmask, a, delta)
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 5), st.integers(1, 2), st.data())
def test_compact_product_matches_fraction_ring_product(n, nvars, data):
    """The integer-scaled build of compact_product equals the ring
    product in Fraction arithmetic, on raw deltas whose denominators
    differ from entry to entry (so the scale is their lcm) and may lie
    outside [0, 1)."""
    entry = st.builds(rational, st.integers(-4, 8), st.integers(1, 6))
    deltas = [data.draw(st.lists(entry, min_size=n - 1, max_size=n - 1))
              for _ in range(nvars)]
    pref = data.draw(st.lists(st.integers(-2, 2), min_size=nvars, max_size=nvars))
    assert compact_product(n, nvars, deltas, pref) == _ring_compact_product(
        n, nvars, deltas, pref)


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 6), st.integers(1, 2), st.data())
def test_compact_product_from_start_is_start_times_product(n, nvars, data):
    """Starting the build from a class of degree >= k, which builds the
    factors only up to degree n-3-k, gives that class times the whole
    product."""
    entry = st.builds(rational, st.integers(-4, 8), st.integers(1, 6))
    deltas = [data.draw(st.lists(entry, min_size=n - 1, max_size=n - 1))
              for _ in range(nvars)]
    pref = data.draw(st.lists(st.integers(-2, 2), min_size=nvars, max_size=nvars))
    start = CohClass.zero(n, nvars)
    k = data.draw(st.integers(0, n - 3))
    for _ in range(data.draw(st.integers(1, 3))):
        term = CohClass.scalar(n, nvars, data.draw(st.integers(1, 5)))
        for _ in range(k + data.draw(st.integers(0, 1))):
            mask = data.draw(st.integers(1, full_mask(n)))
            term = term * data.draw(st.sampled_from([
                CohClass.generator(n, nvars, mask), psi_subset(n, nvars, mask)]))
        start = start + term
    assert unscale(*scaled_compact_product(n, nvars, deltas, pref, start)) == (
        start * compact_product(n, nvars, deltas, pref))


def test_compact_class_matches_build_with_naive_product(monkeypatch):
    """An n=7 compact class, 1615 terms, equals the same build with every
    ring product taken by its definition."""
    data = OrbifoldData(4, (1, 1, 2), (1, 1, 1, 1, 1, 1, 2))
    cls = euler_class_compact(data)
    assert len(cls.terms) == 1615
    product = CohClass.__mul__
    naive = []

    def by_definition(x, y):
        if not isinstance(y, CohClass):
            return product(x, y)
        naive.append(y)
        return naive_product(x, y)

    monkeypatch.setattr(CohClass, "__mul__", by_definition)
    assert euler_class_compact(data) == cls
    assert naive


def test_compact_product_mixed_denominators_fixed_case():
    """Denominators 2, 3 and 5 in one direction (scale 30), integers and
    a negative entry in the other."""
    n, nvars = 5, 2
    deltas = [[rational(1, 2), rational(2, 3), rational(4, 5), rational(3, 2)],
              [rational(1), rational(-1, 2), rational(7, 3), rational(2)]]
    pref = [1, -1]
    got = compact_product(n, nvars, deltas, pref)
    assert got == _ring_compact_product(n, nvars, deltas, pref)
    assert any(getattr(v, "denominator", 1) % 5 == 0
               for c in got.terms.values() for v in c.terms.values())


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.data())
def test_direct_invariant_matches_mainthm_integral(r, data):
    """invariant_direct (integer-scaled compact class built from the psi
    insertions, one division) against the head-and-walls class in
    Fraction arithmetic times the insertions, integrated and divided by
    r.  Psi may sit at any marking, up to n-1 of them in all: beyond
    n-3 the value is zero by dimension."""
    nvars = data.draw(st.integers(1, 3))
    weights = data.draw(st.lists(st.integers(1, r - 1), min_size=nvars, max_size=nvars))
    n = data.draw(st.integers(3, 6))
    body = data.draw(st.lists(st.integers(0, r - 1), min_size=n - 1, max_size=n - 1))
    d = OrbifoldData(r, weights, body + [(-sum(body)) % r])
    total = data.draw(st.integers(0, n - 1))
    psi = [0] * n
    for i in data.draw(st.lists(st.integers(0, n - 1), min_size=total, max_size=total)):
        psi[i] += 1
    insertions = CohClass.one(n, nvars)
    for i, v in enumerate(psi, 1):
        insertions = insertions * psi_marking(n, nvars, i) ** v
    expected = integrate(euler_class_mainthm(d) * insertions).scale_div(r)
    if total > n - 3:
        assert expected.is_zero()
    assert invariant_direct(InvariantKey(d, psi)) == expected


@pytest.mark.parametrize("psi,expected", [
    ((1, 0, 0, 0, 0, 0, 1), {(0, 0, 2): rational(1, 4), (0, 1, 1): rational(7, 8),
                             (1, 0, 1): rational(7, 8), (1, 1, 0): rational(3, 4)}),
    ((2, 2, 0, 0, 0, 0, 1), {}),
])
def test_direct_invariant_frozen_psi_at_two_markings(psi, expected):
    """Seven markings on [C^3/mu_4] with weights (1,1,2) and psi at a body
    marking as well as the distinguished one: values recorded from the
    build that multiplied the insertions into the whole class."""
    d = OrbifoldData(4, (1, 1, 2), (1, 1, 1, 1, 1, 1, 2))
    assert invariant_direct(InvariantKey(d, psi)) == LaurentPoly(3, expected)
