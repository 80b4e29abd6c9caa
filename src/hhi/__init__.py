"""Exact genus-zero invariants of cyclic quotient singularities, computed
independently by boundary-divisor integration and by comb recursions."""

__version__ = "0.1.0"
