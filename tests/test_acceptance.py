"""End-to-end acceptance checks, one test per criterion.

Every equality below is exact rational equality; there are no
tolerances anywhere.  Each test prints one summary line.
"""

import itertools
import random
import time

from hhi.exactnum import LaurentPoly, frac_factorial, rational
from hhi.euler import euler_class_compact, euler_class_mainthm, wall_factor, \
    weighted_class
from hhi.invariants import InvariantKey, invariant_direct, invariant_weighted
from hhi.mzeron import CohClass, full_mask, integrate, psi_marking, psi_subset
from hhi.orbifold import OrbifoldData
from hhi.recursion import c3z3_direct, c3z3_mirror, c3z3_series, \
    c3z3_weighted, comb_recursion
from ring_helpers import cohomologically_zero, compact_product, weighted_as_coh_class


def _report(name, t0):
    print("%s: PASS (%.1fs)" % (name, time.time() - t0))


def _age_one_elements(r, weights):
    return [k for k in range(r)
            if sum((w * k) % r for w in weights) == r]


def _age_one_inputs(r, nmax):
    """All admissible inputs with age-one body markings on a rank-three
    space: (weights, elements) per marking count 4..nmax."""
    for w in itertools.combinations_with_replacement(range(1, r), 3):
        good = _age_one_elements(r, w)
        if not good:
            continue
        for n in range(4, nmax + 1):
            for body in itertools.combinations_with_replacement(good, n - 1):
                yield w, body + ((-sum(body)) % r,)


def test_criterion_1_base_case():
    t0 = time.time()
    key = InvariantKey(OrbifoldData(3, (1, 1, 1), (1, 1, 1)), (0, 0, 0))
    third = LaurentPoly.const(3, rational(1, 3))
    assert invariant_direct(key) == third
    assert comb_recursion(key) == third
    _report("criterion 1 (base case 1/3, direct and comb)", t0)


def test_criterion_2_first_series_value():
    t0 = time.time()
    key = InvariantKey(OrbifoldData(3, (1, 1, 1), (1,) * 6), (0,) * 6)
    target = rational(-1, 27)
    assert invariant_direct(key) == LaurentPoly.const(3, target)
    assert c3z3_series(1)[1] == target
    assert c3z3_direct(1) == target
    # the recursion's head term alone is -8/81; the tooth term makes up
    # the difference
    assert invariant_weighted(key) == LaurentPoly.const(3, rational(-8, 81))
    _report("criterion 2 (I_1 = -1/27 three ways)", t0)


def test_criterion_3_series_three_ways():
    t0 = time.time()
    lmax = 8
    by_recursion = c3z3_series(lmax)
    assert [c3z3_direct(ell) for ell in range(lmax + 1)] == by_recursion
    assert c3z3_mirror(lmax) == by_recursion
    _report("criterion 3 (series consistency, l <= %d)" % lmax, t0)


def test_criterion_4_comb_equals_direct():
    """comb = direct on admissible rank-three inputs with age-one body
    markings, r in {3,4,5}, psi exponent <= 2 at the distinguished
    marking: every input for n <= 7, and one representative eight-point
    input per group order (single-core runtime bound; see the class
    build cost)."""
    t0 = time.time()
    checked = 0
    memo = {}

    def check(r, w, elements):
        nonlocal checked
        data = OrbifoldData(r, w, elements)
        cls = euler_class_compact(data)
        for nu in range(3):
            key = InvariantKey(data, (0,) * (data.n - 1) + (nu,))
            direct = integrate(cls * psi_marking(data.n, data.N, data.n) ** nu)
            direct = direct.scale_div(r)
            assert comb_recursion(key, memo) == direct, key
            checked += 1

    for r in (3, 4, 5):
        for w, elements in _age_one_inputs(r, 7):
            check(r, w, elements)
    for r, w, body in ((3, (1, 1, 1), (1,) * 7),
                       (4, (1, 1, 2), (1, 1, 1, 1, 2, 2, 2)),
                       (5, (1, 2, 2), (1, 1, 1, 3, 3, 3, 3))):
        check(r, w, body + ((-sum(body)) % r,))
    _report("criterion 4 (comb = direct, %d checks)" % checked, t0)


def test_criterion_5_two_forms_agree():
    """The two Euler-class forms agree as raw dicts.  Exhaustive in the
    elements for one direction, r <= 6, n <= 6; for two and three
    directions every weight vector is covered with a deterministic
    spread of element vectors."""
    t0 = time.time()
    checked = 0

    def check(data):
        nonlocal checked
        assert euler_class_compact(data) == euler_class_mainthm(data), data
        checked += 1

    for r in range(2, 7):
        for n in range(4, 7):
            for body in itertools.combinations_with_replacement(range(r), n - 1):
                elements = body + ((-sum(body)) % r,)
                check(OrbifoldData(r, (1,), elements))
    for r in range(2, 7):
        for nvars in (2, 3):
            for w in itertools.combinations_with_replacement(range(1, r), nvars):
                for n in range(4, 7):
                    pool = list(itertools.combinations_with_replacement(range(r), n - 1))
                    stride = max(1, len(pool) // 3)
                    for body in pool[::stride]:
                        elements = body + ((-sum(body)) % r,)
                        check(OrbifoldData(r, w, elements))
    _report("criterion 5 (compact = mainthm, %d classes)" % checked, t0)


def test_criterion_6_wall_reconstruction():
    """Weighted-space class times all wall factors equals the
    head-and-walls form, up to seven markings."""
    t0 = time.time()
    cases = (OrbifoldData(3, (1, 1, 1), (1,) * 4 + (2,)),
             OrbifoldData(4, (1, 3), (1, 2, 3, 1, 1)),
             OrbifoldData(5, (1, 2, 2), (1, 1, 1, 1, 1)),
             OrbifoldData(3, (1, 1, 1), (1,) * 6),
             OrbifoldData(4, (1, 1, 2), (1, 1, 2, 2, 3, 3, 0)),
             OrbifoldData(3, (1, 1, 1), (1,) * 6 + (0,)))
    for data in cases:
        n, nvars = data.n, data.N
        cls = weighted_as_coh_class(weighted_class(data), n, nvars)
        for tmask in range(1, full_mask(n) + 1):
            if not 2 <= tmask.bit_count() <= n - 2:
                continue
            markings = [i for i in range(1, n) if tmask >> (i - 1) & 1]
            for a in range(1, nvars + 1):
                cls = cls * wall_factor(n, nvars, tmask,
                                        data.age_sum(markings, a), a)
        assert cls == euler_class_mainthm(data), data
    _report("criterion 6 (wall-crossing reconstruction, n <= 7)", t0)


def test_criterion_7_ring_relation_suite():
    t0 = time.time()
    # (a) the four-point relation: for any two markings i, j the sum of
    # boundary generators separating them from the rest pairs to zero
    # with everything, as does D^T times the psi-difference sum.
    for n in range(4, 8):
        for i, j in itertools.combinations(range(1, n), 2):
            rel = CohClass.zero(n, 1)
            for m in range(1, full_mask(n) + 1):
                if (m >> (i - 1) & 1) and (m >> (j - 1) & 1):
                    rel = rel + CohClass.generator(n, 1, m)
            assert cohomologically_zero(rel), (n, i, j)
    for n in range(4, 8):
        tmasks = [m for m in range(1, full_mask(n))
                  if 1 <= m.bit_count() <= n - 2]
        if n == 7:
            tmasks = tmasks[::5]
        for tmask in tmasks:
            i = next(v for v in range(1, n) if not (tmask >> (v - 1) & 1))
            total = CohClass.zero(n, 1)
            for m in range(1, full_mask(n) + 1):
                if (m & tmask) == tmask and m != tmask and (m >> (i - 1) & 1):
                    total = total + CohClass.generator(n, 1, m)
            rel = CohClass.generator(n, 1, tmask) * total
            assert cohomologically_zero(rel), (n, tmask, i)

    # (b) the subset-product identity: for nonnegative rational deltas,
    # prod over T containing marking 1 of
    # (1 + delta_T (D^T + psi_T)) / (1 + delta_T psi_T) is 1 in
    # cohomology.  100 seeded random vectors across n = 4..7.
    rng = random.Random(20260826)
    plan = [(4, 40), (5, 30), (6, 20), (7, 10)]
    for n, count in plan:
        for _ in range(count):
            deltas = {i: rational(rng.randint(0, 12), rng.randint(1, 7))
                      for i in range(1, n)}
            prod = CohClass.one(n, 1)
            for tmask in range(1, full_mask(n) + 1):
                if not (tmask & 1):
                    continue
                d = sum((deltas[i] for i in range(1, n)
                         if tmask >> (i - 1) & 1), rational(0))
                psi = psi_subset(n, 1, tmask)
                num = CohClass.one(n, 1) + \
                    (CohClass.generator(n, 1, tmask) + psi) * d
                inv = CohClass.one(n, 1)
                term = CohClass.one(n, 1)
                for _k in range(n - 3):
                    term = term * psi * (-d)
                    inv = inv + term
                prod = prod * (num * inv)
            assert cohomologically_zero(prod - CohClass.one(n, 1)), \
                (n, deltas)

    # (c) anchored integrals
    m12 = 1 | 2
    assert integrate(CohClass.generator(4, 1, m12)) == LaurentPoly.one(1)
    assert integrate(CohClass.generator(5, 1, m12) ** 2) == \
        LaurentPoly.const(1, rational(-1))

    # (d) periodicity of the compact form under a unit shift of one age
    # exponent, in cohomology, for seeded random data at n <= 6
    for data in (OrbifoldData(3, (1, 1, 1), (1, 1, 1, 1, 1)),
                 OrbifoldData(4, (1, 1, 2), (1, 2, 3, 1, 1)),
                 OrbifoldData(5, (1, 2), (1, 4, 2, 3, 0)),
                 OrbifoldData(6, (1, 2, 3), (1, 5, 2, 4, 0, 0))):
        n, nvars = data.n, data.N
        deltas = [[data.age(i, a) for i in range(1, n)]
                  for a in range(1, nvars + 1)]
        pref = [0] * nvars
        base = compact_product(n, nvars, deltas, pref)
        shifts = [(a, i) for a in range(nvars) for i in range(n - 1)]
        for a, i in shifts[:: max(1, len(shifts) // 6)]:
            for step in (1, -1):
                shifted = [row[:] for row in deltas]
                shifted[a][i] = shifted[a][i] + step
                moved = compact_product(n, nvars, shifted, pref)
                assert cohomologically_zero(moved - base), \
                    (data, a, i, step)
    _report("criterion 7 (ring relation suite)", t0)


def test_criterion_8_weighted_closed_form():
    t0 = time.time()
    for n in range(3, 31):
        key = InvariantKey(OrbifoldData(3, (1, 1, 1), (1,) * n), (0,) * n)
        value = invariant_weighted(key)
        if n % 3:
            assert c3z3_weighted(n) == 0
            continue
        target = rational((-1) ** (n + 1)) * \
            frac_factorial(rational(n - 4, 3)) ** 3 / 3
        assert value == LaurentPoly.const(3, target), n
        assert c3z3_weighted(n) == target
    _report("criterion 8 (weighted closed form, n <= 30)", t0)
