from collections import Counter

import pytest

from hhi.exactnum import LaurentPoly, rational
from hhi.invariants import InvariantKey, invariant_direct, invariant_weighted
from hhi.orbifold import OrbifoldData
from hhi.recursion import (Series, _aut_order, c3z3_direct, c3z3_mirror,
                           c3z3_series, c3z3_weighted, comb_recursion,
                           equivariant_comb_expand, mirror_tau,
                           partitions_of_int, set_partitions, tooth_admissible,
                           tooth_factor_plain, tooth_placements)


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


def test_tooth_placements_count_set_partitions():
    """Grouping the set partitions of 1..n-1 by the multiset of their
    teeth's labels gives exactly the placement counts."""
    def labels(k, teeth):
        return tuple(sorted(tuple(sorted((k.data.elements[i - 1], k.psi[i - 1]) for i in t))
                            for t in teeth))

    for k in [key(3, (1, 1, 1), (1,) * 7),
              key(4, (1, 1, 2), (1, 1, 1, 2, 2, 2, 3)),
              key(4, (1, 1), (1, 1, 3, 3, 2, 2), (1, 0, 0, 0, 0, 0))]:
        k = k.canonical()
        n = k.data.n
        oracle = Counter()
        for part in set_partitions(range(1, n)):
            teeth = [b for b in part if len(b) >= 2]
            if teeth and all(len(t) <= n - 2 for t in teeth):
                oracle[labels(k, teeth)] += 1
        counts = {}
        for teeth, count in tooth_placements(k):
            assert labels(k, teeth) not in counts
            counts[labels(k, teeth)] = count
        assert counts == oracle, k


def test_comb_frozen_mixed_n11():
    """A two-element body at n = 11; the value is the one a walk over
    all set partitions of the body gives."""
    k = key(4, (1, 1, 2), (1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 1))
    assert comb_recursion(k) == LaurentPoly.const(3, rational(47, 128))


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


def test_mirror_map_leading_correction():
    tau = mirror_tau(8)
    assert tau.coefficient(0) == 0
    assert tau.coefficient(1) == 1
    assert tau.coefficient(4) == rational(-1, 648)
    assert tau.coefficient(2) == 0 and tau.coefficient(3) == 0


def test_series_arithmetic():
    a = Series(4, [0, 1, 2])
    b = Series(4, [1, 0, 0, 1])
    assert (a + b).coeffs == [rational(v) for v in (1, 1, 2, 1, 0)]
    assert (a * b).coeffs == [rational(v) for v in (0, 1, 2, 0, 1)]
    assert (a * 3).coeffs == [rational(v) for v in (0, 3, 6, 0, 0)]
    with pytest.raises(ValueError):
        a + Series(5)


def test_series_compose_and_reverse():
    # geometric series composed with t + t^2
    g = Series(5, [1, 1, 1, 1, 1, 1])
    inner = Series(5, [0, 1, 1])
    comp = g.compose(inner)
    # 1/(1 - t - t^2): Fibonacci coefficients
    assert comp.coeffs == [rational(v) for v in (1, 1, 2, 3, 5, 8)]
    f = Series(6, [0, 1, -1, 2, 5, -7, 3])
    inv = f.reverse()
    round_trip = f.compose(inv)
    assert round_trip.coeffs == [rational(0), rational(1)] + [rational(0)] * 5
    with pytest.raises(ValueError):
        Series(3, [1, 1]).compose(Series(3, [1, 1]))
    with pytest.raises(ValueError):
        Series(3, [0, 0, 1]).reverse()
