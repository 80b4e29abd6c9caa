"""Exact rational arithmetic, fractional-part conventions, and Laurent polynomials.

The rational backend is gmpy2.mpq when available (much faster), with
fractions.Fraction as a drop-in fallback.  Coefficients may also be
plain Python ints: LaurentPoly keeps int coefficients as ints, so a
computation fed only integers (the compact Euler-class build) never
touches the rational type.  Ints, Fraction and mpq hash and compare
identically, so code elsewhere never needs to care which one it holds.

The fractional-part convention used throughout is the *upper* one: the
upper fractional part of x is x - ceil(x) + 1, which lands in (0, 1] and
equals 1 on integers.  Products indexed "from the upper fractional part
of x up to x in integer steps" are encoded by signed_index_set, which
also gives a meaning to the empty and "inverted" ranges that occur when
x <= 0.
"""

import math
from fractions import Fraction
from operator import add

try:
    from gmpy2 import mpq as _mpq

    def rational(num, den=1):
        return _mpq(num, den)

    HAVE_GMPY2 = True
except ImportError:  # pragma: no cover
    def rational(num, den=1):
        return Fraction(num, den)

    HAVE_GMPY2 = False

RATIONAL_TYPES = (int, Fraction) + ((type(rational(0)),) if HAVE_GMPY2 else ())


def rat_from_str(s):
    """Parse "num/den" or "num" into an exact rational."""
    s = s.strip()
    if "/" in s:
        num, den = s.split("/")
        return rational(int(num), int(den))
    return rational(int(s))


def rat_to_str(x):
    """Render an exact rational as "num/den", omitting "/1"."""
    num, den = x.numerator, x.denominator
    if den == 1:
        return str(num)
    return "%d/%d" % (num, den)


def rat_to_float_str(x):
    """Render an exact rational as "%.12g" would render float(x), also
    where float(x) would overflow or flush a nonzero value to zero: then
    the 12 significant digits are rounded from the exact value."""
    try:
        f = float(x)
    except OverflowError:
        f = None
    if f is not None and (f or not x):
        return "%.12g" % f
    q = abs(Fraction(int(x.numerator), int(x.denominator)))
    # 10^exp <= q < 10^(exp+1); the digit counts fix exp up to one
    exp = len(str(q.numerator)) - len(str(q.denominator))
    if q < Fraction(10) ** exp:
        exp -= 1
    digits = round(q / Fraction(10) ** (exp - 11))
    if digits == 10 ** 12:
        digits, exp = digits // 10, exp + 1
    mantissa = str(digits)
    mantissa = (mantissa[0] + "." + mantissa[1:]).rstrip("0").rstrip(".")
    return "%s%se%+03d" % ("-" if x < 0 else "", mantissa, exp)


def signed_index_set(x):
    """The index set of the product "p runs from the upper fractional
    part of x to x", as (positives, negatives).

    positives holds {p : 0 < p <= x, p = x mod 1}; these indices occur in
    the numerator.  negatives holds {p : x < p <= 0, p = x mod 1}; these
    occur in the denominator (the product range ran "backwards").  For
    -1 < x <= 0 both parts are empty and the product is 1.
    """
    x = rational(x)
    c = math.ceil(x)  # x - c + 1 is the upper fractional part of x
    return [x - c + 1 + i for i in range(c)], [x + 1 + i for i in range(-c)]


def frac_factorial(x):
    """x! in the descending-product sense: prod of positives over prod of negatives.

    For x a negative integer the denominator contains 0, so the value is
    undefined; raise ZeroDivisionError to match the pole of Gamma.
    """
    positives, negatives = signed_index_set(x)
    val = rational(1)
    for p in positives:
        val = val * p
    for p in negatives:
        if p == 0:
            raise ZeroDivisionError("factorial pole at negative integer %s" % x)
        val = val / p
    return val


class LaurentPoly:
    """Sparse Laurent polynomial in nvars variables t_1..t_nvars.

    Terms are a dict mapping exponent tuples (possibly negative entries)
    to nonzero rational coefficients.  Instances are treated as immutable.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {tuple(e): c for e, c in terms.items() if c} if terms else {}

    @classmethod
    def _of(cls, nvars, terms):
        """A polynomial on a dict of nonzero coefficients, taken as is."""
        out = cls(nvars)
        out.terms = terms
        return out

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def const(cls, nvars, c):
        if not c:
            return cls(nvars)
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def one(cls, nvars):
        return cls.const(nvars, 1)

    @classmethod
    def var_power(cls, nvars, a, k, coeff=1):
        """coeff * t_a^k, with a 1-based."""
        e = [0] * nvars
        e[a - 1] = k
        return cls(nvars, {tuple(e): coeff})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("mixed variable counts: %d vs %d" % (self.nvars, other.nvars))

    def __add__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            other = LaurentPoly.const(self.nvars, other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            elif e in terms:
                del terms[e]
        return LaurentPoly._of(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            other = LaurentPoly.const(self.nvars, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            if not other:
                return LaurentPoly(self.nvars)
            return LaurentPoly._of(self.nvars, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                prev = terms.get(e)
                terms[e] = c1 * c2 if prev is None else prev + c1 * c2
        if not all(terms.values()):
            terms = {e: c for e, c in terms.items() if c}
        return LaurentPoly._of(self.nvars, terms)

    __rmul__ = __mul__

    def scale_div(self, c):
        return self * (rational(1) / rational(c))

    def to_obj(self):
        out = []
        for e in sorted(self.terms):
            out.append({"t_exp": list(e), "coeff": rat_to_str(self.terms[e])})
        return out

    @classmethod
    def from_obj(cls, nvars, obj):
        """Inverse of to_obj; ValueError on a malformed term."""
        terms = {}
        for item in obj:
            if not isinstance(item, dict) or "t_exp" not in item or "coeff" not in item:
                raise ValueError("term without t_exp and coeff: %r" % (item,))
            exps, coeff = item["t_exp"], item["coeff"]
            if (not isinstance(exps, (list, tuple)) or len(exps) != nvars
                    or not all(type(e) is int for e in exps)):
                raise ValueError("t_exp is not a list of %d integers: %r" % (nvars, exps))
            try:
                terms[tuple(exps)] = rat_from_str(coeff)
            except (AttributeError, ValueError, ZeroDivisionError):
                raise ValueError("unparsable coeff: %r" % (coeff,)) from None
        return cls(nvars, terms)

    def render(self, coeff_str=rat_to_str):
        """The terms in exponent order, as "c*t1*t3^2", the coefficient
        rendered by coeff_str and left out where it renders as "1"."""
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms):
            mono = "*".join(
                "t%d" % (a + 1) if k == 1 else "t%d^%d" % (a + 1, k)
                for a, k in enumerate(e) if k
            )
            c = coeff_str(self.terms[e])
            bits.append(c if not mono else ("%s*%s" % (c, mono) if c != "1" else mono))
        return " + ".join(bits)

    __repr__ = render
