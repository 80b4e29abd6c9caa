import pytest
from hypothesis import given, strategies as st

from hhi.exactnum import (LaurentPoly, frac_factorial, rat_from_str, rat_to_float_str,
                          rat_to_str, rational, signed_index_set)
from ring_helpers import frac_unit


rationals = st.builds(rational, st.integers(-60, 60), st.integers(1, 12))


def test_rational_backend_basics():
    assert rational(1, 3) + rational(1, 6) == rational(1, 2)
    assert rational(4, 2) == 2
    assert rat_to_str(rational(-5, 3)) == "-5/3"
    assert rat_to_str(rational(7)) == "7"
    assert rat_from_str("-5/3") == rational(-5, 3)
    assert rat_from_str(" 4 ") == 4


@given(st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 40))
def test_float_rendering_in_range_is_percent_g(num, den):
    x = rational(num, den)
    assert rat_to_float_str(x) == "%.12g" % float(x)


def test_float_rendering_beyond_float_range():
    big = rational(10) ** 400
    assert rat_to_float_str(big) == "1e+400"
    assert rat_to_float_str(-big * 3 / 7) == "-4.28571428571e+399"
    assert rat_to_float_str(1 / big) == "1e-400"
    assert rat_to_float_str(rational(-2, 3) / big) == "-6.66666666667e-401"
    # rounding up to the next power of ten
    assert rat_to_float_str(big * (10 ** 13 - 4) / 10 ** 13) == "1e+400"
    # an exact tie rounds to even, as "%.12g" rounds a float
    assert rat_to_float_str(10 ** 400 + 5 * 10 ** 388) == "1e+400"
    assert rat_to_float_str(10 ** 400 + 15 * 10 ** 388) == "1.00000000002e+400"
    assert rat_to_float_str(rational(0)) == "0"


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
    positives, negatives = signed_index_set(rational(5, 3))
    assert positives == [rational(2, 3), rational(5, 3)]
    assert negatives == []
    positives, negatives = signed_index_set(rational(-1))
    assert positives == [] and negatives == [rational(0)]
    positives, negatives = signed_index_set(rational(-2, 3))
    assert not positives and not negatives
    positives, negatives = signed_index_set(rational(1, 2))
    assert positives == [rational(1, 2)] and negatives == []
    positives, negatives = signed_index_set(rational(-7, 3))
    assert positives == []
    assert negatives == [rational(-4, 3), rational(-1, 3)]


@given(rationals)
def test_signed_index_set_structure(x):
    positives, negatives = signed_index_set(x)
    for p in positives:
        assert 0 < p <= x and frac_unit(p) == frac_unit(x)
    for p in negatives:
        assert x < p <= 0 and frac_unit(p) == frac_unit(x)
    if -1 < x <= 0:
        assert not positives and not negatives


@given(rationals)
def test_signed_index_set_shift_by_one(x):
    """Moving the endpoint up by one adds one index (or removes a
    denominator index)."""
    pos0, neg0 = signed_index_set(x)
    pos1, neg1 = signed_index_set(x + 1)
    n0 = len(pos0) - len(neg0)
    n1 = len(pos1) - len(neg1)
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
    assert c.terms == {(0, 0, 0): rational(-2, 5)}
    assert LaurentPoly.const(3, 0) == LaurentPoly.zero(3)
    assert LaurentPoly.zero(3).terms == {}


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
