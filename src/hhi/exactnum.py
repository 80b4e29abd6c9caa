"""Exact rational arithmetic, fractional-part conventions, and Laurent polynomials.

The rational backend is gmpy2.mpq when available (much faster), with
fractions.Fraction as a drop-in fallback.  Coefficients may also be
plain Python ints: LaurentPoly keeps int coefficients as ints, so a
computation fed only integers (the compact Euler-class build) never
touches the rational type.  Ints, Fraction and mpq hash and compare
identically, so code elsewhere never needs to care which one it holds.

The fractional-part convention used throughout is the *upper* one:
frac_unit(x) = x - ceil(x) + 1, which lands in (0, 1] and equals 1 on
integers.  Products indexed "from frac_unit(x) up to x in integer steps"
are encoded by SignedIndexSet, which also gives a meaning to the empty
and "inverted" ranges that occur when x <= 0.
"""

import math
from fractions import Fraction

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


def frac_unit(x):
    """Fractional part in (0, 1]: x - ceil(x) + 1.  Equals 1 on integers."""
    return x - math.ceil(x) + 1


class SignedIndexSet:
    """The index set of the product "p runs from frac_unit(x) to x".

    positives holds {p : 0 < p <= x, p = x mod 1}; these indices occur in
    the numerator.  negatives holds {p : x < p <= 0, p = x mod 1}; these
    occur in the denominator (the product range ran "backwards").  For
    -1 < x <= 0 both parts are empty and the product is 1.
    """

    def __init__(self, x):
        x = rational(x)
        self.x = x
        f = frac_unit(x)
        self.positives = []
        self.negatives = []
        if x > 0:
            p = f
            while p <= x:
                self.positives.append(p)
                p = p + 1
        elif x <= -1:
            # indices strictly between x and f, i.e. x+1, x+2, ..., f-1 <= 0
            p = x + 1
            while p <= f - 1:
                self.negatives.append(p)
                p = p + 1

    def is_empty(self):
        return not self.positives and not self.negatives

    def __repr__(self):
        return "SignedIndexSet(x=%s, +%s, -%s)" % (self.x, self.positives, self.negatives)


def signed_index_set(x):
    return SignedIndexSet(x)


def frac_factorial(x):
    """x! in the descending-product sense: prod of positives over prod of negatives.

    For x a negative integer the denominator contains 0, so the value is
    undefined; raise ZeroDivisionError to match the pole of Gamma.
    """
    s = SignedIndexSet(x)
    val = rational(1)
    for p in s.positives:
        val = val * p
    for p in s.negatives:
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
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if c:
                    self.terms[tuple(e)] = self.terms.get(tuple(e), 0) + c
            for e in [e for e, c in self.terms.items() if not c]:
                del self.terms[e]

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

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

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
        out = LaurentPoly(self.nvars)
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = LaurentPoly(self.nvars)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            other = LaurentPoly.const(self.nvars, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            if not other:
                return LaurentPoly(self.nvars)
            out = LaurentPoly(self.nvars)
            out.terms = {e: c * other for e, c in self.terms.items()}
            return out
        self._check(other)
        if len(self.terms) == 1:
            [(e1, c1)] = self.terms.items()
            out = LaurentPoly(self.nvars)
            out.terms = {tuple(a + b for a, b in zip(e1, e2)): c1 * c2
                         for e2, c2 in other.terms.items()}
            return out
        if len(other.terms) == 1:
            [(e2, c2)] = other.terms.items()
            out = LaurentPoly(self.nvars)
            out.terms = {tuple(a + b for a, b in zip(e1, e2)): c1 * c2
                         for e1, c1 in self.terms.items()}
            return out
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, 0) + c1 * c2
                if s:
                    terms[e] = s
                elif e in terms:
                    del terms[e]
        out = LaurentPoly(self.nvars)
        out.terms = terms
        return out

    __rmul__ = __mul__

    def __pow__(self, k):
        out = LaurentPoly.one(self.nvars)
        for _ in range(k):
            out = out * self
        return out

    def scale_div(self, c):
        return self * (rational(1) / rational(c))

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, 0)

    def as_rational(self):
        """The value of a constant polynomial; error if t-dependent."""
        if not self.terms:
            return 0
        if list(self.terms) != [(0,) * self.nvars]:
            raise ValueError("not a constant: %s" % self)
        return self.constant_term()

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

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms):
            mono = "*".join(
                "t%d" % (a + 1) if k == 1 else "t%d^%d" % (a + 1, k)
                for a, k in enumerate(e) if k
            )
            c = rat_to_str(self.terms[e])
            bits.append(c if not mono else ("%s*%s" % (c, mono) if c != "1" else mono))
        return " + ".join(bits)
