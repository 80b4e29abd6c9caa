import itertools
import json
import os
import stat

import pytest
from hypothesis import given, settings, strategies as st

from hhi.euler import euler_class_compact, weighted_class
from hhi.exactnum import LaurentPoly, rational
from hhi.invariants import (InvariantCache, InvariantKey, invariant_direct,
                            invariant_weighted)
from hhi.mzeron import CohClass, integrate, psi_integral, psi_marking
from hhi.orbifold import OrbifoldData
from hhi.recursion import comb_recursion


def key(r, weights, elements, psi=None):
    data = OrbifoldData(r, weights, elements)
    return InvariantKey(data, psi or (0,) * data.n)


# An InvariantKey sorts its body, so the two helpers below take the data
# and psi exponents as given: they reach the class builds in the caller's
# marking order.

def direct_in_order(data, psi):
    """invariant_direct's integral: the compact Euler class times the psi
    insertions, integrated over M0n and divided by r."""
    n = data.n
    insertions = CohClass.one(n, data.N)
    for i, v in enumerate(psi, 1):
        insertions = insertions * psi_marking(n, data.N, i) ** v
    return integrate(euler_class_compact(data) * insertions).scale_div(data.r)


def weighted_in_order(data, psi):
    """invariant_weighted's value: weighted_class's coefficients paired
    with psi integrals, divided by r."""
    n = data.n
    cls = weighted_class(data)
    val = LaurentPoly.zero(data.N)
    for j in range(n - 2):
        w = psi_integral(n, list(psi[:-1]) + [psi[-1] + j])
        if w:
            val = val + cls.get(j, 0) * w
    return val.scale_div(data.r)


def test_key_canonicalization_sorts_body_markings():
    k = key(3, (1, 1), (2, 1, 2, 1), (1, 0, 0, 2))
    assert k.data.elements == (1, 2, 2, 1)
    assert k.psi == (0, 0, 1, 2)
    # the distinguished last marking never moves
    assert (k.data.elements[-1], k.psi[-1]) == (1, 2)


def test_key_cache_string_is_relabeling_invariant():
    k1 = key(4, (1, 3), (1, 2, 3, 2), (0, 1, 2, 0))
    k2 = key(4, (1, 3), (3, 2, 1, 2), (2, 1, 0, 0))
    assert k1.cache_string() == k2.cache_string()
    k3 = key(4, (1, 3), (1, 2, 3, 2), (0, 1, 2, 1))
    assert k1.cache_string() != k3.cache_string()


# (r, weights, the elements of age one) for r <= 6 and N = 2, 3
AGE_ONE_DATA = [(r, w, ones) for r in range(2, 7) for n_dirs in (2, 3)
                for w in itertools.combinations_with_replacement(range(r), n_dirs)
                if (ones := [k for k in range(r) if sum(x * k % r for x in w) == r])]


@st.composite
def relabeled_markings(draw, age_one=False):
    """(r, weights, markings, relabeled): two lists of (element, psi)
    pairs whose first n-1 entries are permutations of each other, r <= 6,
    N <= 3, n <= 6, monodromies closing up to the identity.  With age_one,
    every body element has age one and the body carries no psi (the comb
    recursion's inputs)."""
    if age_one:
        r, weights, ones = draw(st.sampled_from(AGE_ONE_DATA))
        body = [(k, 0) for k in draw(st.lists(st.sampled_from(ones), min_size=2, max_size=5))]
    else:
        r = draw(st.integers(1, 6))
        weights = draw(st.lists(st.integers(0, r - 1), min_size=1, max_size=3))
        body = draw(st.lists(st.tuples(st.integers(0, r - 1), st.integers(0, 2)),
                             min_size=2, max_size=5))
    last = (-sum(k for k, _ in body) % r, draw(st.integers(0, 2)))
    return r, weights, body + [last], draw(st.permutations(body)) + [last]


def data_and_psi(r, weights, markings):
    return OrbifoldData(r, weights, [k for k, _ in markings]), [v for _, v in markings]


@settings(max_examples=60, deadline=None)
@given(relabeled_markings())
def test_relabeled_keys_are_one_key(case):
    """Relabeling the body gives one key, and the class builds, run in
    either marking order, give that key's invariants."""
    r, weights, markings, relabeled = case
    orders = [data_and_psi(r, weights, markings), data_and_psi(r, weights, relabeled)]
    k1, k2 = (InvariantKey(d, psi) for d, psi in orders)
    assert k1 == k2 and hash(k1) == hash(k2)
    assert k1.cache_string() == k2.cache_string()
    assert k1.to_obj() == k2.to_obj()
    weighted = invariant_weighted(k1)
    direct = invariant_direct(k1) if k1.data.n <= 5 else None
    for d, psi in orders:
        assert weighted_in_order(d, psi) == weighted
        if direct is not None:
            assert direct_in_order(d, psi) == direct


@settings(max_examples=40, deadline=None)
@given(relabeled_markings(age_one=True))
def test_relabeled_keys_give_one_comb_value(case):
    """The comb runs on the key as built; its value is the direct
    integral in either marking order."""
    r, weights, markings, relabeled = case
    orders = [data_and_psi(r, weights, markings), data_and_psi(r, weights, relabeled)]
    k1, k2 = (InvariantKey(d, psi) for d, psi in orders)
    assert k1 == k2
    value = comb_recursion(k1)
    if k1.data.n <= 5:
        for d, psi in orders:
            assert direct_in_order(d, psi) == value


def test_key_validation():
    data = OrbifoldData(3, (1,), (1, 1, 1))
    with pytest.raises(ValueError):
        InvariantKey(data, (0, 0))
    with pytest.raises(ValueError):
        InvariantKey(data, (0, -1, 0))


def test_key_serialization_round_trip():
    k = key(5, (1, 2, 3), (1, 4, 2, 3, 0), (1, 0, 0, 0, 1))
    assert k.to_obj() == {"r": 5, "weights": [1, 2, 3], "elements": [1, 2, 3, 4, 0],
                          "psi": [1, 0, 0, 0, 1]}
    obj = k.to_obj()
    assert InvariantKey(OrbifoldData(obj["r"], obj["weights"], obj["elements"]), obj["psi"]) == k


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
    """The class builds are symmetric in the body markings: every order
    of the body, sent past the key to the builds, gives the key's value."""
    elements, psi = (1, 2, 3, 1, 1), (1, 0, 0, 0, 0)
    base = key(4, (1, 2, 3), elements, psi)
    v = invariant_direct(base)
    assert not v.is_zero()
    for order in itertools.permutations(range(4)):
        data = OrbifoldData(4, (1, 2, 3), [elements[i] for i in order] + [elements[-1]])
        order_psi = [psi[i] for i in order] + [psi[-1]]
        assert direct_in_order(data, order_psi) == v
        assert weighted_in_order(data, order_psi) == invariant_weighted(base)


def test_weighted_matches_polynomial_class_pairing():
    """invariant_weighted expands the same product as weighted_class;
    pairing the latter's coefficients with psi integrals must give the
    same value."""
    cases = [
        key(2, (1,), (1, 1, 1, 1)),
        key(3, (1, 2), (1, 2, 1, 2)),
        key(4, (1, 1), (1, 1, 3, 3, 2, 2), (1, 0, 0, 0, 0, 1)),
        key(5, (1, 2, 2), (1, 2, 2, 3, 2)),
        key(6, (1, 5), (1, 2, 3, 4, 2), (0, 0, 0, 0, 1)),
    ]
    for k in cases:
        assert invariant_weighted(k) == weighted_in_order(k.data, k.psi), k


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
    assert fresh.get(k2, "direct") == v


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


THIRD = LaurentPoly.const(3, rational(1, 3))


def test_cache_save_merges_records_saved_since_the_load(tmp_path):
    """Two caches opened on one snapshot each add a record; the second
    save keeps the record the first one saved."""
    path = str(tmp_path / "cache.json")
    k0, k1, k2 = (key(3, (1, 1, 1), e) for e in [(1, 1, 1), (1, 1, 1, 0), (1, 1, 2, 2)])
    base = InvariantCache(path)
    base.put(k0, "direct", THIRD)
    base.save()
    first, second = InvariantCache(path), InvariantCache(path)
    first.put(k1, "direct", LaurentPoly.zero(3))
    first.save()
    second.put(k2, "weighted", LaurentPoly.one(3))
    second.save()
    merged = InvariantCache(path)
    assert len(merged) == 3
    assert merged.get(k0, "direct") == THIRD
    assert merged.get(k1, "direct") == LaurentPoly.zero(3)
    assert merged.get(k2, "weighted") == LaurentPoly.one(3)


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
def test_cache_new_file_mode_follows_umask(tmp_path, umask, mode):
    path = str(tmp_path / "cache.json")
    cache = InvariantCache(path)
    cache.put(key(3, (1, 1, 1), (1, 1, 1)), "direct", THIRD)
    old = os.umask(umask)
    try:
        cache.save()
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(path).st_mode) == mode


def test_cache_existing_file_keeps_its_mode(tmp_path):
    path = str(tmp_path / "cache.json")
    InvariantCache(path).save()
    os.chmod(path, 0o604)
    cache = InvariantCache(path)
    cache.put(key(3, (1, 1, 1), (1, 1, 1)), "direct", THIRD)
    old = os.umask(0o022)
    try:
        cache.save()
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o604
    assert len(InvariantCache(path)) == 1


def test_cache_file_is_one_record_per_line_in_key_order(tmp_path):
    path = tmp_path / "cache.json"
    cache = InvariantCache(str(path))
    for elems in [(1, 1, 2, 2), (1, 1, 1), (2, 2, 2), (1, 1, 1, 0)]:
        k = key(3, (1, 1, 1), elems)
        cache.put(k, "direct", invariant_direct(k))
    cache.save()
    lines = path.read_text().split("\n")
    assert lines[0] == '{"format": "hhi/1", "records": {'
    assert lines[-2:] == ["}}", ""]
    body = lines[1:-2]
    assert all(line.endswith(",") for line in body[:-1]) and not body[-1].endswith(",")
    parsed = [json.loads("{%s}" % line.rstrip(",")) for line in body]
    assert all(len(rec) == 1 for rec in parsed)
    assert [k for rec in parsed for k in rec] == sorted(cache.records)
    assert {k: v for rec in parsed for k, v in rec.items()} == cache.records
    assert json.loads(path.read_text()) == {"format": "hhi/1", "records": cache.records}


def test_cache_saves_are_byte_identical(tmp_path):
    path, copy = tmp_path / "cache.json", tmp_path / "copy.json"
    cache = InvariantCache(str(path))
    for elems in [(1, 1, 1), (1, 1, 2, 2)]:
        k = key(3, (1, 1, 1), elems)
        cache.put(k, "direct", invariant_direct(k))
    cache.save()
    first = path.read_bytes()
    cache.save()
    assert path.read_bytes() == first
    InvariantCache(str(path)).save(str(copy))
    assert copy.read_bytes() == first


def test_cache_save_without_records_is_valid_json(tmp_path):
    path = tmp_path / "cache.json"
    InvariantCache(str(path)).save()
    assert json.loads(path.read_text()) == {"format": "hhi/1", "records": {}}
    assert len(InvariantCache(str(path))) == 0

