import pytest
from hypothesis import given, strategies as st

from hhi.exactnum import rational
from hhi.orbifold import OrbifoldData


def test_basic_fields_and_normalization():
    d = OrbifoldData(3, (1, 4, -1), (1, 1, 7))
    assert d.weights == (1, 1, 2)
    assert d.elements == (1, 1, 1)
    assert d.n == 3 and d.N == 3


def test_validation():
    with pytest.raises(ValueError):
        OrbifoldData(0, (1,), (0, 0, 0))
    with pytest.raises(ValueError):
        OrbifoldData(3, (), (1, 1, 1))


def test_ages():
    d = OrbifoldData(3, (1, 1, 1), (1, 2, 0))
    assert d.age(1, 1) == rational(1, 3)
    assert d.age(2, 1) == rational(2, 3)
    assert d.age(3, 1) == 0
    d = OrbifoldData(4, (1, 1, 2), (1, 3, 2, 2))
    assert d.age(1, 3) == rational(1, 2)
    assert d.age(2, 3) == rational(1, 2)
    assert d.age(3, 3) == 0
    assert d.age_sum([1, 2, 3], 1) == rational(3, 2)


def test_trivial_group():
    d = OrbifoldData(1, (0, 0), (0, 0, 0, 0))
    assert d.admissible()
    assert d.age(1, 1) == 0


def test_subset_order_and_merge():
    d = OrbifoldData(6, (1, 5), (2, 3, 4, 3))
    assert d.merged_element([1, 3]) == 0
    assert d.merged_element([1, 2]) == 5
    assert d.merged_element([2, 4]) == 0
    assert d.merged_element([1]) == 2


def test_admissible():
    assert OrbifoldData(3, (1, 1, 1), (1, 1, 1)).admissible()
    assert not OrbifoldData(3, (1, 1, 1), (1, 1, 2)).admissible()
    assert not OrbifoldData(3, (1, 1, 1), (1, 2)).admissible()  # too few markings
    assert OrbifoldData(5, (1, 2, 2), (1, 1, 1, 1, 1)).admissible()


@given(st.integers(1, 12), st.lists(st.integers(0, 30), min_size=1, max_size=4),
       st.lists(st.integers(0, 30), min_size=3, max_size=7))
def test_age_properties(r, weights, elements):
    d = OrbifoldData(r, weights, elements)
    for i in range(1, d.n + 1):
        for a in range(1, d.N + 1):
            age = d.age(i, a)
            assert 0 <= age < 1
            assert (age * r).denominator == 1
    if d.admissible():
        for a in range(1, d.N + 1):
            total = d.age_sum(range(1, d.n + 1), a)
            assert total.denominator == 1
