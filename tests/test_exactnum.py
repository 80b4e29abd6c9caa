import pytest
from hypothesis import given, strategies as st

from hhi.exactnum import (LaurentPoly, frac_factorial, frac_unit, rat_from_str,
                          rat_to_str, rational, signed_index_set)


rationals = st.builds(rational, st.integers(-60, 60), st.integers(1, 12))


def test_rational_backend_basics():
    assert rational(1, 3) + rational(1, 6) == rational(1, 2)
    assert rational(4, 2) == 2
    assert rat_to_str(rational(-5, 3)) == "-5/3"
    assert rat_to_str(rational(7)) == "7"
    assert rat_from_str("-5/3") == rational(-5, 3)
    assert rat_from_str(" 4 ") == 4


def test_frac_unit_values():
    assert frac_unit(rational(5, 3)) == rational(2, 3)
    assert frac_unit(rational(2)) == 1
    assert frac_unit(rational(-1, 3)) == rational(2, 3)
    assert frac_unit(rational(0)) == 1


@given(rationals)
def test_frac_unit_range_and_periodicity(x):
    f = frac_unit(x)
    assert 0 < f <= 1
    assert frac_unit(x + 1) == f
    assert (x - f).denominator == 1


def test_signed_index_set_examples():
    s = signed_index_set(rational(5, 3))
    assert s.positives == [rational(2, 3), rational(5, 3)]
    assert s.negatives == []
    s = signed_index_set(rational(-1))
    assert s.positives == [] and s.negatives == [rational(0)]
    s = signed_index_set(rational(-2, 3))
    assert s.is_empty()
    s = signed_index_set(rational(1, 2))
    assert s.positives == [rational(1, 2)] and s.negatives == []
    s = signed_index_set(rational(-7, 3))
    assert s.positives == []
    assert s.negatives == [rational(-4, 3), rational(-1, 3)]


@given(rationals)
def test_signed_index_set_structure(x):
    s = signed_index_set(x)
    for p in s.positives:
        assert 0 < p <= x and frac_unit(p) == frac_unit(x)
    for p in s.negatives:
        assert x < p <= 0 and frac_unit(p) == frac_unit(x)
    if -1 < x <= 0:
        assert s.is_empty()


@given(rationals)
def test_signed_index_set_shift_by_one(x):
    """Moving the endpoint up by one adds one index (or removes a
    denominator index)."""
    s0 = signed_index_set(x)
    s1 = signed_index_set(x + 1)
    n0 = len(s0.positives) - len(s0.negatives)
    n1 = len(s1.positives) - len(s1.negatives)
    assert n1 == n0 + 1


def test_frac_factorial_values():
    assert frac_factorial(rational(1, 3)) == rational(1, 3)
    assert frac_factorial(rational(4, 3)) == rational(4, 9)
    assert frac_factorial(rational(-1, 3)) == 1
    assert frac_factorial(rational(0)) == 1
    assert frac_factorial(rational(5)) == 120
    assert frac_factorial(rational(-3, 2)) == rational(-2)


def test_frac_factorial_negative_integer_poles():
    for k in (-1, -2, -5):
        with pytest.raises(ZeroDivisionError):
            frac_factorial(rational(k))


@given(rationals)
def test_frac_factorial_recurrence(x):
    """(x+1)! = (x+1) * x! away from the poles."""
    if x.denominator == 1 and x < 0:
        return
    assert frac_factorial(x + 1) == (x + 1) * frac_factorial(x)


def _poly(nvars, items):
    return LaurentPoly(nvars, {tuple(e): rational(c) for e, c in items})


def test_laurent_basic_arithmetic():
    t1 = LaurentPoly.var_power(2, 1, 1)
    t2inv = LaurentPoly.var_power(2, 2, -1)
    p = t1 + t2inv * 3
    assert p.terms == {(1, 0): rational(1), (0, -1): rational(3)}
    assert (p - p).is_zero()
    q = p * p
    assert q.terms[(2, 0)] == 1
    assert q.terms[(1, -1)] == 6
    assert q.terms[(0, -2)] == 9
    assert p * 0 == LaurentPoly.zero(2)
    assert (p * rational(1, 3)).terms[(0, -1)] == 1


def test_laurent_constant_helpers():
    c = LaurentPoly.const(3, rational(-2, 5))
    assert c.as_rational() == rational(-2, 5)
    assert LaurentPoly.zero(3).as_rational() == 0
    t = LaurentPoly.var_power(3, 2, 4)
    with pytest.raises(ValueError):
        t.as_rational()


def test_laurent_mixed_nvars_rejected():
    with pytest.raises(ValueError):
        LaurentPoly.one(2) + LaurentPoly.one(3)
    with pytest.raises(ValueError):
        LaurentPoly.one(2) * LaurentPoly.one(3)


def test_laurent_serialization_round_trip():
    p = _poly(2, [((1, -2), 77), ((0, 0), 5)]) * rational(1, 7)
    obj = p.to_obj()
    assert obj == [{"t_exp": [0, 0], "coeff": "5/7"}, {"t_exp": [1, -2], "coeff": "11"}]
    assert LaurentPoly.from_obj(2, obj) == p


small_polys = st.lists(
    st.tuples(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
              st.fractions(max_denominator=6)),
    max_size=5).map(lambda items: LaurentPoly(
        2, {e: rational(c.numerator, c.denominator) for e, c in items}))


@given(small_polys, small_polys, small_polys)
def test_laurent_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + LaurentPoly.zero(2) == a
    assert a * LaurentPoly.one(2) == a


@given(small_polys)
def test_laurent_serialization_round_trips(p):
    assert LaurentPoly.from_obj(2, p.to_obj()) == p
