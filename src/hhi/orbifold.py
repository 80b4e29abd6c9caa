"""Cyclic quotient data for [C^N / mu_r] and the age bookkeeping built on it.

A group element is recorded by its exponent k in {0, ..., r-1}; the action
on the a-th coordinate direction is by the w_a-th power of the chosen
primitive r-th root of unity.  The age of element k in direction a is the
ordinary fractional part of w_a * k / r, which lies in [0, 1).
"""

from .exactnum import rational


class OrbifoldData:
    """Quotient [C^N / mu_r] together with an n-tuple of group elements.

    weights: the N action weights (w_1, ..., w_N), taken mod r.
    elements: the marked-point monodromies (k_1, ..., k_n), each in [0, r).
    The n-th marking plays the distinguished role in moduli computations.
    """

    __slots__ = ("r", "weights", "elements")

    def __init__(self, r, weights, elements):
        if r < 1:
            raise ValueError("group order must be positive")
        self.r = int(r)
        self.weights = tuple(int(w) % self.r for w in weights)
        self.elements = tuple(int(k) % self.r for k in elements)
        if not self.weights:
            raise ValueError("need at least one coordinate direction")

    @property
    def n(self):
        return len(self.elements)

    @property
    def N(self):
        return len(self.weights)

    def age(self, i, a):
        """Age of the i-th element in direction a (both 1-based), in [0, 1)."""
        w = self.weights[a - 1]
        k = self.elements[i - 1]
        return rational((w * k) % self.r, self.r)

    def age_sum(self, markings, a):
        """Sum of ages over a collection of (1-based) marking indices."""
        total = rational(0)
        for i in markings:
            total = total + self.age(i, a)
        return total

    def merged_element(self, markings):
        return sum(self.elements[i - 1] for i in markings) % self.r

    def admissible(self):
        """Whether the monodromies can occur on a genus-zero orbifold curve."""
        return self.n >= 3 and sum(self.elements) % self.r == 0

    def __eq__(self, other):
        if not isinstance(other, OrbifoldData):
            return NotImplemented
        return (self.r, self.weights, self.elements) == (other.r, other.weights, other.elements)

    def __hash__(self):
        return hash((self.r, self.weights, self.elements))

    def __repr__(self):
        return "OrbifoldData(r=%d, weights=%s, elements=%s)" % (
            self.r, self.weights, self.elements)
