"""Exact rational functions as reduced pairs of polynomials.

No multivariate gcd is attempted: a quotient is stored with a monic
denominator, simplified only when the denominator divides the numerator
exactly.  Equality is decided by cross-multiplication, so sums and products
stay exact even when unreduced.  A sum over one denominator keeps it; any
other sum is one ``sum_of_products`` call over the product of the two.  The
exact checks themselves run on polynomials over a common denominator; a
rational function is built for a value that is returned or printed, such as
a connection form W/D.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import VariableSetError
from .groebner import divide_with_cofactors
from .poly import GREVLEX, Polynomial, VariableSet, exact_quotient, sum_of_products


class RationalFunction:
    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        if den is None:
            den = Polynomial.constant(num.varset, 1)
        if den.varset != num.varset:
            raise VariableSetError("numerator and denominator on different charts")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = Polynomial.constant(num.varset, 1)
        else:
            quotient, rest = divide_with_cofactors(num, [den], GREVLEX)
            if rest.is_zero():
                num, den = quotient[0], Polynomial.constant(num.varset, 1)
            lc = den.leading(GREVLEX.key_function(den.varset))[1]
            if lc != 1:
                inv = exact_quotient(1, lc)
                num, den = num.scale(inv), den.scale(inv)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("RationalFunction is immutable")

    @property
    def varset(self) -> VariableSet:
        return self.num.varset

    @classmethod
    def zero(cls, varset: VariableSet) -> "RationalFunction":
        return cls(Polynomial.zero(varset))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den == Polynomial.constant(self.varset, 1)

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Polynomial):
            return RationalFunction(other)
        return RationalFunction(Polynomial.constant(self.varset, other))

    def __add__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        if self.den == o.den:
            return RationalFunction(self.num + o.num, self.den)
        return RationalFunction(
            sum_of_products(self.varset, [(self.num, o.den), (o.num, self.den)]),
            self.den * o.den)

    def __mul__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        return RationalFunction(self.num * o.num, self.den * o.den)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Polynomial)):
            other = self._coerce(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    # Equal values need not share a (num, den) pair, since no gcd is taken,
    # and there is no normal form to hash: the type is unhashable.
    __hash__ = None

    def __str__(self) -> str:
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"
