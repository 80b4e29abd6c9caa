import functools
import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from hhi.exactnum import LaurentPoly, frac_factorial, rat_to_str, rational
from hhi.invariants import InvariantKey, invariant_direct, invariant_weighted
from hhi.orbifold import OrbifoldData
from hhi.recursion import (Series, _aut_order, _cube_facs, _head_key,
                           _tooth_options, c3z3_c_coeff, c3z3_direct,
                           c3z3_mirror, c3z3_series, c3z3_weighted,
                           comb_recursion, equivariant_comb_expand,
                           mirror_tau, partitions_of_int, set_partitions,
                           tooth_admissible, tooth_factor_plain,
                           tooth_placements)


def key(r, weights, elements, psi=None):
    data = OrbifoldData(r, weights, elements)
    return InvariantKey(data, psi or (0,) * data.n)


def test_set_partitions_bell_numbers():
    for n, bell in [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]:
        parts = list(set_partitions(range(n)))
        assert len(parts) == bell
        for p in parts:
            assert sorted(x for b in p for x in b) == list(range(n))


def test_partitions_of_int():
    assert sorted(partitions_of_int(5)) == sorted(
        [(5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1),
         (1, 1, 1, 1, 1)])
    assert list(partitions_of_int(5, 2)) == [(5,), (3, 2)]
    assert list(partitions_of_int(0)) == [()]


PARTITION_NUMBERS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135,
                     176, 231, 297, 385, 490, 627]


def test_partitions_of_int_counts_and_shape():
    for total, count in enumerate(PARTITION_NUMBERS):
        parts = list(partitions_of_int(total))
        assert len(parts) == count == len(set(parts)), total
        for minpart in (1, 2, 3):
            for p in partitions_of_int(total, minpart):
                assert sum(p) == total
                assert list(p) == sorted(p, reverse=True)
                assert all(m >= minpart for m in p)


def test_aut_order():
    assert _aut_order((3, 2, 1)) == 1
    assert _aut_order((2, 2, 2)) == 6
    assert _aut_order((4, 4, 1, 1, 1)) == 12


def test_tooth_admissible_cubic():
    """All-omega markings on [C^3/mu_3]: each direction contributes a
    fractional age sum of |T|/3 mod 1, so only |T| = 1 mod 3 works."""
    d = OrbifoldData(3, (1, 1, 1), (1,) * 7)
    assert [tooth_admissible(d, range(1, s + 1)) for s in (2, 3, 4, 5)] == \
        [False, False, True, False]


def test_tooth_admissible_mixed_weights():
    d = OrbifoldData(5, (1, 2, 2), (1, 2, 2, 1, 2, 2, 2))
    assert tooth_admissible(d, [1, 2])       # elements (1, 2)
    assert not tooth_admissible(d, [1, 2, 3])  # integer age sum in a direction
    assert not tooth_admissible(d, [2, 3])
    assert not tooth_admissible(d, [1, 4])


def test_tooth_admissible_zero_age_direction():
    """A direction with age sum exactly zero is not an obstruction: its
    only index is p = 0, a trivial factor.  Three elements 2 under
    weights (1,1,2) mod 4 have fractional parts 1/2 + 1/2 + 0 = 1."""
    d = OrbifoldData(4, (1, 1, 2), (1, 2, 2, 2, 1))
    assert tooth_admissible(d, [2, 3, 4])
    assert tooth_factor_plain(d, [2, 3, 4]) == rational(1, 4)
    assert not tooth_admissible(d, [1, 2])


def test_tooth_never_admissible_in_one_direction():
    """A single direction would need fractional part exactly one."""
    d = OrbifoldData(4, (1,), (1, 1, 1, 1))
    for s in (2, 3):
        assert not tooth_admissible(d, range(1, s + 1))


def test_tooth_factor_cubic_size_four():
    d = OrbifoldData(3, (1, 1, 1), (1,) * 7)
    assert tooth_factor_plain(d, range(1, 5)) == rational(1, 27)


def test_comb_input_validation():
    with pytest.raises(ValueError):
        comb_recursion(key(3, (1, 1, 1), (1, 1, 2)))  # inadmissible
    with pytest.raises(ValueError):
        comb_recursion(key(3, (1, 1, 1), (1, 1, 1), (1, 0, 0)))  # body psi
    with pytest.raises(ValueError):
        comb_recursion(key(4, (1, 1), (1, 1, 2)))  # body ages not one


def test_comb_equals_direct_small_sweep():
    cases = [
        key(3, (1, 1, 1), (1,) * 6),
        key(3, (1, 1, 1), (1,) * 6, (0,) * 5 + (1,)),
        key(4, (1, 1, 2), (1, 1, 1, 2, 3)),
        key(5, (1, 2, 2), (1, 1, 3, 3, 2)),
        key(5, (2, 3), (1, 1, 1, 1, 1)),
        key(6, (1, 2, 3), (1, 1, 1, 1, 2)),
    ]
    for k in cases:
        assert comb_recursion(k) == invariant_direct(k), k


def tooth_label(k, tooth):
    return tuple(sorted((k.data.elements[i - 1], k.psi[i - 1]) for i in tooth))


def labels(k, teeth):
    return tuple(sorted(tooth_label(k, t) for t in teeth))


def admit_all(tooth):
    return True


PLACEMENT_BODIES = [key(3, (1, 1, 1), (1,) * 7),
                    key(4, (1, 1, 2), (1, 1, 1, 2, 2, 2, 3)),
                    key(4, (1, 1), (1, 1, 3, 3, 2, 2), (1, 0, 0, 0, 0, 0))]


def test_tooth_placements_count_set_partitions():
    """Grouping the set partitions of 1..n-1 by the multiset of their
    teeth's labels gives exactly the placement counts."""
    for k in PLACEMENT_BODIES:
        n = k.data.n
        oracle = Counter()
        for part in set_partitions(range(1, n)):
            teeth = [b for b in part if len(b) >= 2]
            if teeth and all(len(t) <= n - 2 for t in teeth):
                oracle[labels(k, teeth)] += 1
        counts = {}
        for teeth, count, data in tooth_placements(k, admit_all):
            assert labels(k, teeth) not in counts
            assert data == [True] * len(teeth)
            counts[labels(k, teeth)] = count
        assert counts == oracle, k


def comb_weight(k):
    def weight(tooth):
        if tooth_admissible(k.data, tooth):
            return tooth_factor_plain(k.data, tooth)
        return None
    return weight


def assert_filtered_placements(k, tooth_data):
    """Placements filtered by tooth_data are the unfiltered placements
    whose every tooth has data, with the same counts, and each tooth is
    handed the data tooth_data gives that very tooth."""
    expected = {}
    for teeth, count, _ in tooth_placements(k, admit_all):
        data = [tooth_data(t) for t in teeth]
        if None not in data:
            pairs = sorted(zip((tooth_label(k, t) for t in teeth), data), key=lambda p: p[0])
            expected[labels(k, teeth)] = (count, pairs)
    got = {}
    for teeth, count, data in tooth_placements(k, tooth_data):
        assert labels(k, teeth) not in got
        pairs = sorted(zip((tooth_label(k, t) for t in teeth), data), key=lambda p: p[0])
        got[labels(k, teeth)] = (count, pairs)
    assert got == expected, k


def test_tooth_placements_filter_equals_unfiltered():
    for k in PLACEMENT_BODIES:
        assert_filtered_placements(k, comb_weight(k))
        assert_filtered_placements(k, functools.partial(_tooth_options, k))
        assert_filtered_placements(k, lambda tooth: None)


@st.composite
def body_keys(draw, nmax):
    """Keys with r <= 6, N <= 3, n <= nmax, psi anywhere, and the last
    element chosen to make the data admissible."""
    r = draw(st.integers(2, 6))
    weights = draw(st.lists(st.integers(1, r - 1), min_size=1, max_size=3))
    n = draw(st.integers(3, nmax))
    body = draw(st.lists(st.integers(0, r - 1), min_size=n - 1, max_size=n - 1))
    psi = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return key(r, weights, body + [(-sum(body)) % r], psi)


@settings(max_examples=40, deadline=None)
@given(body_keys(8))
def test_tooth_placements_filter_sweep(k):
    assert_filtered_placements(k, comb_weight(k))
    assert_filtered_placements(k, functools.partial(_tooth_options, k))


def expand_by_set_partitions(k):
    """equivariant_comb_expand by its definition: every set partition of
    1..n-1 with teeth of size 2..n-2, every choice of tooth options."""
    n, nvars = k.data.n, k.data.N
    heads = {}
    for part in set_partitions(range(1, n)):
        teeth = [b for b in part if len(b) >= 2]
        if not teeth or any(len(t) > n - 2 for t in teeth):
            continue
        options = [_tooth_options(k, t) for t in teeth]
        if None in options:
            continue
        for choice in itertools.product(*options):
            w = LaurentPoly.const(nvars, rational((-1) ** (len(teeth) + 1)))
            for _, ow in choice:
                w = w * ow
            head = _head_key(k, teeth, [e for e, _ in choice])
            heads[head] = heads[head] + w if head in heads else w
    return {head: w for head, w in heads.items() if w}


def test_equivariant_expand_equals_set_partition_walk():
    cases = [
        key(3, (1, 1, 1), (1,) * 6 + (0,), (0, 1, 0, 2, 0, 0, 1)),
        key(4, (1, 1), (1, 1, 3, 3, 2, 2), (1, 0, 0, 0, 0, 0)),
        key(5, (1, 2, 2), (1, 2, 3, 4, 1, 2, 2), (0, 0, 1, 0, 0, 1, 0)),
        key(6, (1, 2, 3), (1, 1, 5, 2, 4, 3, 2), (2, 0, 1, 1, 0, 0, 1)),
    ]
    for k in cases:
        assert dict(equivariant_comb_expand(k)) == expand_by_set_partitions(k), k


@settings(max_examples=25, deadline=None)
@given(body_keys(7))
def test_equivariant_expand_set_partition_sweep(k):
    assert dict(equivariant_comb_expand(k)) == expand_by_set_partitions(k)


def test_comb_frozen_mixed_n11():
    """A two-element body at n = 11; the value is the one a walk over
    all set partitions of the body gives."""
    k = key(4, (1, 1, 2), (1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 1))
    assert comb_recursion(k) == LaurentPoly.const(3, rational(47, 128))


def test_comb_frozen_n14():
    """Recorded from the build that checked each placement's teeth one by
    one against a per-recursion table of tooth elements."""
    k = key(4, (1, 1, 2), (1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 1))
    assert comb_recursion(k) == LaurentPoly.const(3, rational(-157221, 16384))


def test_equivariant_expand_identity():
    """direct(key) = weighted(key) + sum of weight * direct(head), with
    psi insertions and non-Calabi-Yau monodromy allowed."""
    cases = [
        key(3, (1, 1, 1), (1,) * 6),
        key(3, (1, 2), (1, 2, 1, 2)),
        key(4, (1, 1), (1, 1, 3, 3, 2, 2), (1, 0, 0, 0, 0, 0)),
        key(5, (1, 2, 2), (1, 2, 2, 3, 2)),
    ]
    for k in cases:
        total = invariant_weighted(k)
        for head, w in equivariant_comb_expand(k):
            total = total + invariant_direct(head) * w
        assert total == invariant_direct(k), k


def test_series_frozen_values():
    expected = [rational(1, 3), rational(-1, 27), rational(1, 9),
                rational(-1093, 729)]
    assert c3z3_series(3) == expected


def test_series_frozen_values_17_to_24():
    """I_17..I_24, recorded from the build that summed the teeth over the
    partitions of p; the three-way CLI test stops at l = 16."""
    expected = [
        "-481587699665027628555609077299916159651538862765555/282429536481",
        "509535039052018078186467844497377071893170746801679277595/68630377364883",
        "-23571400839394106740953526723628867316825203309775501369992495/617673396283947",
        "141791190182973558401533830435988524107919263089985406657085302505/617673396283947",
        "-26740387391263390597700302385358330376786063255515537850991205777560155"
        "/16677181699666569",
        "646031490860348099458666057991571328662142250741423723252943165679920150235"
        "/50031545098999707",
        "-5959737307887228987986523582297921374373845456582049634281035173666980655746575"
        "/50031545098999707",
        "1690498013441878296477717610479237598995548995910863510246912287641121759485871506075"
        "/1350851717672992089",
    ]
    assert [rat_to_str(v) for v in c3z3_series(24)[17:]] == expected


def test_cube_facs_table():
    assert _cube_facs(12) == [frac_factorial(rational(3 * m - 2, 3)) ** 3
                              for m in range(13)]
    assert _cube_facs(0) == [1]


def subset_chain_sum(ell):
    """I_l by the closed form's alternating sum over all 2^l subsets of
    {0, ..., l-1}, each the start of a chain of C coefficients ending at l."""
    total = frac_factorial(rational(3 * ell - 1, 3)) ** 3  # empty subset
    for size in range(1, ell + 1):
        for subset in itertools.combinations(range(ell), size):
            term = rational((-1) ** size) * frac_factorial(
                rational(3 * subset[0] - 1, 3)) ** 3
            chain = list(subset) + [ell]
            for x, y in zip(chain, chain[1:]):
                term = term * c3z3_c_coeff(y - x, y)
            total = total + term
    return total * rational((-1) ** ell, 3)


def test_direct_endpoint_dp_equals_subset_sum():
    for ell in range(9):
        assert c3z3_direct(ell) == subset_chain_sum(ell), ell


def test_series_three_ways_agree():
    lmax = 6
    by_recursion = c3z3_series(lmax)
    assert [c3z3_direct(ell) for ell in range(lmax + 1)] == by_recursion
    assert c3z3_mirror(lmax) == by_recursion


def test_series_head_matches_weighted_invariant():
    """The closed-form head value is the weighted invariant with all
    markings of age one, out to large n."""
    for n in range(3, 31):
        if n % 3:
            continue
        k = key(3, (1, 1, 1), (1,) * n)
        expected = LaurentPoly.const(3, c3z3_weighted(n))
        assert invariant_weighted(k) == expected, n
    assert c3z3_weighted(4) == 0
    assert c3z3_weighted(5) == 0


def test_series_recursion_bottom_matches_direct_invariant():
    k = key(3, (1, 1, 1), (1,) * 6)
    assert invariant_direct(k) == LaurentPoly.const(3, c3z3_series(1)[1])


def test_series_matches_generic_comb():
    """I_l is the invariant with 3l+3 age-one markings on [C^3/mu_3]:
    the series route against the generic comb recursion, for l <= 10."""
    for ell, value in enumerate(c3z3_series(10)):
        k = key(3, (1, 1, 1), (1,) * (3 * ell + 3))
        assert comb_recursion(k) == LaurentPoly.const(3, value), ell


def test_mirror_map_leading_correction():
    tau = mirror_tau(8)
    assert tau.coeffs[0] == 0
    assert tau.coeffs[1] == 1
    assert tau.coeffs[4] == rational(-1, 648)
    assert tau.coeffs[2] == 0 and tau.coeffs[3] == 0


def test_series_arithmetic():
    a = Series(4, [0, 1, 2])
    b = Series(4, [1, 0, 0, 1])
    assert (a + b).coeffs == [rational(v) for v in (1, 1, 2, 1, 0)]
    assert (a * b).coeffs == [rational(v) for v in (0, 1, 2, 0, 1)]
    assert (a * 3).coeffs == [rational(v) for v in (0, 3, 6, 0, 0)]
    with pytest.raises(ValueError):
        a + Series(5)


def reverse(f):
    """Compositional inverse of f = c1*t + O(t^2), c1 != 0, order by order:
    coefficient k of the inverse fixes coefficient k of the composition,
    which the terms above t^k do not touch, so each step composes at
    order k only.  The mirror route's reference."""
    if f.coeffs[0] or not f.coeffs[1]:
        raise ValueError("reversion needs the form c1*t + O(t^2), c1 != 0")
    inv = Series(f.order, [rational(0), 1 / f.coeffs[1]])
    for k in range(2, f.order + 1):
        err = Series(k, f.coeffs).compose(Series(k, inv.coeffs)).coeffs[k]
        inv.coeffs[k] = inv.coeffs[k] - err / f.coeffs[1]
    return inv


def test_series_compose_and_reverse():
    # geometric series composed with t + t^2
    g = Series(5, [1, 1, 1, 1, 1, 1])
    inner = Series(5, [0, 1, 1])
    comp = g.compose(inner)
    # 1/(1 - t - t^2): Fibonacci coefficients
    assert comp.coeffs == [rational(v) for v in (1, 1, 2, 3, 5, 8)]
    f = Series(6, [0, 1, -1, 2, 5, -7, 3])
    inv = reverse(f)
    round_trip = f.compose(inv)
    assert round_trip.coeffs == [rational(0), rational(1)] + [rational(0)] * 5
    with pytest.raises(ValueError):
        Series(3, [1, 1]).compose(Series(3, [1, 1]))


def test_series_reverse_dense_order_12():
    f = Series(12, [0, rational(-3, 2)] + [rational((-1) ** k * (2 * k + 1), k + 3)
                                           for k in range(2, 13)])
    assert all(f.coeffs[1:])
    identity = Series(12, [0, 1])
    assert f.compose(reverse(f)) == identity
    assert reverse(f).compose(f) == identity
    with pytest.raises(ValueError):
        reverse(Series(3, [0, 0, 1]))


def test_mirror_equals_composition_with_reversed_mirror_map():
    """The Lagrange-Buermann route against the definition: the
    weighted-space series composed with the reversed mirror map."""
    for lmax in range(11):
        order = 3 * lmax + 2
        a = Series(order)
        for n in range(3, order + 2, 3):
            a.coeffs[n - 1] = c3z3_weighted(n) / math.factorial(n - 1)
        b = a.compose(reverse(mirror_tau(order)))
        assert c3z3_mirror(lmax) == [b.coeffs[3 * ell + 2] * math.factorial(3 * ell + 2)
                                     for ell in range(lmax + 1)], lmax


def test_mirror_equals_series_at_lmax_60():
    """The mirror route is cubic in lmax, so lmax 60 takes about a second;
    the reversion and composition it replaced would take minutes."""
    assert c3z3_mirror(60) == c3z3_series(60)


unit_series = st.lists(st.builds(rational, st.integers(-9, 9), st.integers(1, 6)),
                       min_size=0, max_size=7).map(lambda cs: Series(7, [1] + cs))
exponents = st.builds(rational, st.integers(-7, 7), st.integers(1, 4))


@settings(max_examples=40, deadline=None)
@given(unit_series, exponents, exponents)
def test_series_power_laws(psi, alpha, beta):
    assert psi.power(alpha) * psi.power(beta) == psi.power(alpha + beta)
    assert psi.power(-1) * psi == Series(7, [1])
    assert psi.power(0) == Series(7, [1])
    assert psi.power(3) == psi * psi * psi


def test_series_power_needs_constant_term_one():
    with pytest.raises(ValueError):
        Series(3, [2, 1]).power(rational(1, 2))
