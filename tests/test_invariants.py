import json
import os
import random

import pytest

from hhi.exactnum import LaurentPoly, rational
from hhi.invariants import (InvariantCache, InvariantKey, invariant_direct,
                            invariant_weighted)
from hhi.orbifold import OrbifoldData


def key(r, weights, elements, psi=None):
    data = OrbifoldData(r, weights, elements)
    return InvariantKey(data, psi or (0,) * data.n)


def test_key_canonicalization_sorts_body_markings():
    k = key(3, (1, 1), (2, 1, 2, 1), (1, 0, 0, 2))
    c = k.canonical()
    assert c.data.elements == (1, 2, 2, 1)
    assert c.psi == (0, 0, 1, 2)
    # the distinguished last marking never moves
    assert c.data.elements[-1] == k.data.elements[-1]
    assert c.psi[-1] == k.psi[-1]


def test_key_cache_string_is_relabeling_invariant():
    k1 = key(4, (1, 3), (1, 2, 3, 2), (0, 1, 2, 0))
    k2 = key(4, (1, 3), (3, 2, 1, 2), (2, 1, 0, 0))
    assert k1.cache_string() == k2.cache_string()
    k3 = key(4, (1, 3), (1, 2, 3, 2), (0, 1, 2, 1))
    assert k1.cache_string() != k3.cache_string()


def test_key_validation():
    data = OrbifoldData(3, (1,), (1, 1, 1))
    with pytest.raises(ValueError):
        InvariantKey(data, (0, 0))
    with pytest.raises(ValueError):
        InvariantKey(data, (0, -1, 0))


def test_key_serialization_round_trip():
    k = key(5, (1, 2, 3), (1, 4, 2, 3, 0), (1, 0, 0, 0, 1))
    assert InvariantKey.from_obj(k.to_obj()) == k


def test_cubic_point_value():
    """Three age-one markings on [C^3/mu_3] integrate over a point."""
    k = key(3, (1, 1, 1), (1, 1, 1))
    third = LaurentPoly.const(3, rational(1, 3))
    assert invariant_direct(k) == third
    assert invariant_weighted(k) == third


def test_cubic_six_point_values():
    """Six omega markings on [C^3/mu_3].  The two models genuinely
    differ here: a comb tooth of size four contributes to the orbifold
    invariant but not to the weighted-space one."""
    k = key(3, (1, 1, 1), (1, 1, 1, 1, 1, 1))
    assert invariant_direct(k) == LaurentPoly.const(3, rational(-1, 27))
    assert invariant_weighted(k) == LaurentPoly.const(3, rational(-8, 81))


def test_psi_insertion_value():
    """Six omega markings with one extra psi at the distinguished
    point: one step below the top dimension, where the two models still
    agree."""
    k = key(3, (1, 1, 1), (1,) * 6, (0, 0, 0, 0, 0, 1))
    expected = LaurentPoly(3, {
        (1, 0, 0): rational(4, 27),
        (0, 1, 0): rational(4, 27),
        (0, 0, 1): rational(4, 27),
    })
    assert invariant_weighted(k) == expected
    assert invariant_direct(k) == expected


@pytest.mark.parametrize("nu,expected", [
    (0, {(0, 0, 0): rational(7, 128)}),
    (1, {(1, 0, 0): rational(-1, 4), (0, 1, 0): rational(-1, 4),
         (0, 0, 1): rational(-3, 16)}),
    (2, {(0, 0, 2): rational(1, 16), (0, 1, 1): rational(3, 8),
         (1, 0, 1): rational(3, 8), (1, 1, 0): rational(1, 2)}),
])
def test_frozen_seven_point_values(nu, expected):
    """Seven markings on [C^3/mu_4] with weights (1,1,2), psi^nu at the
    distinguished marking: values recorded from the Fraction build."""
    k = key(4, (1, 1, 2), (1, 1, 1, 1, 1, 1, 2), (0,) * 6 + (nu,))
    assert invariant_direct(k) == LaurentPoly(3, expected)


def test_single_direction_values():
    """[C/mu_r] with all markings of age 1/r: n of them need n-3 psi's
    at the distinguished marking to hit the dimension."""
    for r, n in [(3, 3), (4, 4), (5, 5)]:
        k = key(r, (1,), (1,) * n, (0,) * (n - 1) + (n - 3,))
        v = invariant_weighted(k)
        assert v == invariant_direct(k)
        assert not v.is_zero()


def test_inadmissible_is_zero():
    # monodromies do not sum to zero mod r
    k = key(3, (1, 1, 1), (1, 1, 2))
    assert invariant_direct(k) == LaurentPoly.zero(3)
    assert invariant_weighted(k) == LaurentPoly.zero(3)


def test_dimension_mismatch_vanishes():
    """Total degree of the class plus psi's must be n-3 for a nonzero
    answer; excess psi power kills the integral."""
    k = key(3, (1, 1, 1), (1, 1, 1), (1, 0, 0))
    assert invariant_direct(k).is_zero()
    assert invariant_weighted(k).is_zero()


def test_relabeling_symmetry():
    rng = random.Random(7)
    base = key(4, (1, 2, 3), (1, 2, 3, 1, 1), (1, 0, 0, 0, 0))
    v = invariant_direct(base)
    assert not v.is_zero()
    for _ in range(3):
        order = list(range(4))
        rng.shuffle(order)
        elements = [base.data.elements[i] for i in order] + [base.data.elements[-1]]
        psi = [base.psi[i] for i in order] + [base.psi[-1]]
        k = key(4, (1, 2, 3), elements, psi)
        assert invariant_direct(k) == v
        assert invariant_weighted(k) == invariant_weighted(base)


def test_weighted_matches_polynomial_class_pairing():
    """invariant_weighted expands the same product as weighted_class;
    pairing the latter's coefficients with psi integrals must give the
    same value."""
    from hhi.euler import weighted_class
    from hhi.mzeron import psi_integral

    cases = [
        key(2, (1,), (1, 1, 1, 1)),
        key(3, (1, 2), (1, 2, 1, 2)),
        key(4, (1, 1), (1, 1, 3, 3, 2, 2), (1, 0, 0, 0, 0, 1)),
        key(5, (1, 2, 2), (1, 2, 2, 3, 2)),
        key(6, (1, 5), (1, 2, 3, 4, 2), (0, 0, 0, 0, 1)),
    ]
    for k in cases:
        data = k.data
        n = data.n
        cls = weighted_class(data)
        val = LaurentPoly.zero(data.N)
        for j in range(n - 2):
            w = psi_integral(n, list(k.psi[:-1]) + [k.psi[-1] + j])
            if w:
                val = val + cls.coefficient(j) * w
        val = val.scale_div(data.r)
        assert invariant_weighted(k) == val, k


def test_cache_round_trip(tmp_path):
    path = str(tmp_path / "cache.json")
    cache = InvariantCache(path)
    k = key(3, (1, 1, 1), (1, 1, 1))
    assert cache.get(k, "direct") is None
    v = invariant_direct(k, cache=cache)
    assert cache.get(k, "direct") == v
    cache.save()
    fresh = InvariantCache(path)
    assert len(fresh) == 1
    assert fresh.get(k, "direct") == v
    # a relabeled key hits the same record
    k2 = key(3, (1, 1, 1), (1, 1, 1), (0, 0, 0))
    assert fresh.get(k2.canonical(), "direct") == v


def test_cache_separates_method_and_coarse():
    """Records are per method and hold normalized values under the
    "coarse=0" key older files used; an unnormalized "coarse=1" record
    from such a file is never returned."""
    cache = InvariantCache()
    k = key(3, (1, 1, 1), (1, 1, 1))
    cache.put(k, "direct", LaurentPoly.const(3, rational(1, 3)))
    assert cache.get(k, "weighted") is None
    assert cache.get(k, "direct") == LaurentPoly.const(3, rational(1, 3))
    stem = "r=3;w=1,1,1;k=1,1,1;v=0,0,0;method=direct;coarse="
    assert list(cache.records) == [stem + "0"]
    assert cache.records[stem + "0"]["coarse"] is False
    old = InvariantCache()
    old.records[stem + "1"] = dict(cache.records[stem + "0"], coarse=True,
                                   value=LaurentPoly.one(3).to_obj())
    assert old.get(k, "direct") is None


def test_cache_rejects_unknown_format(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        json.dump({"format": "other/9", "records": {}}, fh)
    with pytest.raises(ValueError):
        InvariantCache(path)


def test_cache_save_is_atomic(tmp_path):
    path = str(tmp_path / "cache.json")
    cache = InvariantCache(path)
    k = key(3, (1, 1, 1), (1, 1, 1))
    cache.put(k, "direct", LaurentPoly.const(3, rational(1, 3)))
    cache.save()
    # no stray temporary files remain next to the cache
    leftovers = [f for f in os.listdir(tmp_path) if f != "cache.json"]
    assert leftovers == []
    with open(path) as fh:
        obj = json.load(fh)
    assert obj["format"] == "hhi/1"
    assert len(obj["records"]) == 1


def test_cache_requires_path_to_save():
    with pytest.raises(ValueError):
        InvariantCache().save()
