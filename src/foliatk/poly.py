"""Exact multivariate polynomials with an optional fiber grading.

Coefficients are arbitrary-precision rationals (``fractions.Fraction``) and
every value is immutable after construction, so polynomials can be shared and
compared structurally: two polynomials over the same variable set are equal
iff their term maps are equal.

A :class:`VariableSet` carries base variables ``q^1..q^n`` and, on a cotangent
chart, exactly one fiber variable per base variable.  The fiber grading (total
degree in the fiber variables) is the grading used by every membership
criterion downstream.

Exact evaluation has one path, on integers.  A polynomial keeps, built once on
first use, its *integer form*: the common denominator ``D`` of its
coefficients, the integer numerators, and for each term its nonzero
``(variable, exponent)`` pairs and its degree.  An :class:`ExactPoint` clears
a rational point once to integer numerators ``a_i`` over one common
denominator ``d``.  The value is then ``sum c_e a^e d^(deg-|e|)`` over
``D d^deg``, where ``deg`` is the total degree: terms with a zero coordinate
are skipped before any multiplication, the powers of ``d`` drop out when
``d = 1``, and a zero test reads the integer sum alone.  Callers that
evaluate many polynomials at one point convert it once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import add
from typing import Callable, Iterable, Mapping, Sequence, Sized, Union

from .errors import VariableSetError

Exponents = tuple[int, ...]
Scalar = Union[int, Fraction]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"exact rational expected, got {type(value).__name__}")


@dataclass(frozen=True)
class VariableSet:
    """Ordered chart variables: base names plus optional paired fiber names."""

    base: tuple[str, ...]
    fiber: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.base:
            raise VariableSetError("a chart needs at least one base variable")
        if self.fiber and len(self.fiber) != len(self.base):
            raise VariableSetError(
                "fiber variables must be empty or pair 1:1 with base variables"
            )
        names = self.base + self.fiber
        if len(set(names)) != len(names):
            raise VariableSetError(f"variable names not unique: {names}")
        for name in names:
            if not _NAME_RE.match(name):
                raise VariableSetError(f"invalid variable name: {name!r}")

    def __eq__(self, other) -> bool:
        # charts are compared on every coercion and division; most are the same object
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.base == other.base and self.fiber == other.fiber

    @property
    def dimension(self) -> int:
        return len(self.base)

    @property
    def names(self) -> tuple[str, ...]:
        return self.base + self.fiber

    @property
    def n_vars(self) -> int:
        return len(self.base) + len(self.fiber)

    @property
    def has_fiber(self) -> bool:
        return bool(self.fiber)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise VariableSetError(f"unknown variable {name!r}") from None

    def cotangent(self, prefix: str = "p_") -> "VariableSet":
        """The chart extended with one fiber variable per base variable."""
        if self.fiber:
            return self
        return VariableSet(self.base, tuple(prefix + b for b in self.base))


def _check_length(varset: VariableSet, values: Sized) -> None:
    if len(values) != len(varset.base) + len(varset.fiber):
        raise VariableSetError(
            f"point has {len(values)} coordinates, chart {varset.names} has {varset.n_vars}"
        )


class ExactPoint:
    """A rational point cleared once to integer numerators over one denominator.

    Coordinate ``i`` is ``nums[i] / den`` with ``den`` the least common
    denominator.  Pass it to :meth:`Polynomial.evaluate_seq` or
    :meth:`Polynomial.vanishes_at` to evaluate many polynomials at one point
    without converting the point again.
    """

    __slots__ = ("nums", "den")

    def __init__(self, values: Sequence[Scalar]):
        coords = [_as_fraction(v) for v in values]
        den = lcm(*(c.denominator for c in coords))
        self.nums = tuple(c.numerator * (den // c.denominator) for c in coords)
        self.den = den


def _grevlex_key(expo: Exponents):
    return (sum(expo), tuple(-e for e in reversed(expo)))


@dataclass(frozen=True)
class MonomialOrder:
    """Total multiplicative monomial well-ordering.

    ``block`` (the default everywhere) puts the fiber variables in a dominant
    grevlex block ahead of a grevlex block on the base variables, so leading
    terms of fiber-graded ideals always expose a fiber variable.
    """

    kind: str = "block"

    def __post_init__(self):
        if self.kind not in ("grevlex", "lex", "block"):
            raise ValueError(f"unknown monomial order {self.kind!r}")

    def key_function(self, varset: VariableSet) -> Callable[[Exponents], object]:
        """Sort key of the order on ``varset``; one function object per order and
        chart dimension, so the leading terms cached under it stay valid."""
        return _key_function(self.kind, varset.dimension)


@lru_cache(maxsize=None)
def _key_function(kind: str, n: int) -> Callable[[Exponents], object]:
    if kind == "lex":
        return lambda e: e
    if kind == "grevlex":
        return _grevlex_key

    def block_key(e: Exponents):
        return (_grevlex_key(e[n:]), _grevlex_key(e[:n]))

    return block_key


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")
BLOCK = MonomialOrder("block")


class Polynomial:
    """Canonical sparse polynomial over a fixed :class:`VariableSet`."""

    __slots__ = ("varset", "terms", "_hash", "_lead", "_int")

    def __init__(self, varset: VariableSet, terms: Mapping[Exponents, Scalar] | None = None):
        clean: dict[Exponents, Fraction] = {}
        width = varset.n_vars
        for expo, coeff in (terms or {}).items():
            c = _as_fraction(coeff)
            if not c:
                continue
            e = tuple(expo)
            if len(e) != width or any(x < 0 for x in e):
                raise VariableSetError(f"bad exponent vector {e} for {varset.names}")
            clean[e] = c
        object.__setattr__(self, "varset", varset)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_lead", None)

    @classmethod
    def _trusted(cls, varset: VariableSet, terms: dict[Exponents, Fraction]) -> "Polynomial":
        """Wrap a term map that is already clean, without checking it.

        Every key must be an exponent tuple of the chart's width and every
        value a nonzero ``Fraction``.  The polynomial takes ownership of
        ``terms``, which must not be changed afterwards.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "varset", varset)
        object.__setattr__(p, "terms", terms)
        object.__setattr__(p, "_hash", None)
        object.__setattr__(p, "_lead", None)
        return p

    def __setattr__(self, name, value):  # pragma: no cover - guards misuse
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, varset: VariableSet) -> "Polynomial":
        return cls(varset)

    @classmethod
    def constant(cls, varset: VariableSet, value: Scalar) -> "Polynomial":
        return cls(varset, {(0,) * varset.n_vars: _as_fraction(value)})

    @classmethod
    def variable(cls, varset: VariableSet, name: str) -> "Polynomial":
        expo = [0] * varset.n_vars
        expo[varset.index(name)] = 1
        return cls(varset, {tuple(expo): Fraction(1)})

    @classmethod
    def monomial(cls, varset: VariableSet, expo: Exponents, coeff: Scalar = 1) -> "Polynomial":
        return cls(varset, {tuple(expo): _as_fraction(coeff)})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.varset, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.varset == other.varset and self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.varset, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def total_degree(self) -> int:
        """Degree of the zero polynomial is -1 by convention."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def fiber_degree_of(self, expo: Exponents) -> int:
        return sum(expo[self.varset.dimension:])

    def fiber_degree(self) -> int:
        if not self.terms:
            return -1
        return max(self.fiber_degree_of(e) for e in self.terms)

    def base_degree(self) -> int:
        if not self.terms:
            return -1
        n = self.varset.dimension
        return max(sum(e[:n]) for e in self.terms)

    def is_fiber_homogeneous(self, degree: int | None = None) -> bool:
        degrees = {self.fiber_degree_of(e) for e in self.terms}
        if not degrees:
            return True
        if len(degrees) > 1:
            return False
        return degree is None or degrees == {degree}

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.varset != self.varset:
                raise VariableSetError("variable-set mismatch")
            return other
        return Polynomial.constant(self.varset, other)

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        res = dict(self.terms)
        for e, c in other.terms.items():
            s = res.get(e, Fraction(0)) + c
            if s:
                res[e] = s
            else:
                res.pop(e, None)
        return Polynomial._trusted(self.varset, res)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.varset, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        res: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = res.get(e, Fraction(0)) + c1 * c2
                if s:
                    res[e] = s
                else:
                    res.pop(e, None)
        return Polynomial._trusted(self.varset, res)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Polynomial.constant(self.varset, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def scale(self, c: Scalar) -> "Polynomial":
        c = _as_fraction(c)
        return Polynomial(self.varset, {e: c * v for e, v in self.terms.items()})

    # -- calculus ----------------------------------------------------------

    def diff(self, name: str) -> "Polynomial":
        """Formal partial derivative with respect to a chart variable."""
        i = self.varset.index(name)
        res: dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            de = list(e)
            de[i] -= 1
            res[tuple(de)] = c * e[i]
        return Polynomial._trusted(self.varset, res)

    def evaluate(self, point: Mapping[str, object]):
        """Evaluate at a point assigning every variable.

        Rational assignments give an exact ``Fraction``, computed on integers
        as :meth:`evaluate_seq` does; if any assignment is a float the result
        is an IEEE double.
        """
        values = []
        for name in self.varset.names:
            if name not in point:
                raise VariableSetError(f"missing assignment for {name!r}")
            values.append(point[name])
        return self.evaluate_seq(values)

    def evaluate_seq(self, values: Sequence[Scalar] | ExactPoint):
        """Evaluate at values in variable order, exactly unless one is a float.

        ``values`` may be an :class:`ExactPoint`, built once for many
        polynomials; anything else is cleared to one on each call.  The exact
        value is ``Fraction(sum c_e a^e d^(deg-|e|), D d^deg)`` from the
        integer forms of the polynomial and the point.  A point whose length
        is not the chart's variable count raises :class:`VariableSetError`.
        """
        if not isinstance(values, ExactPoint):
            if any(isinstance(v, float) for v in values):
                return self._evaluate_float(values)
            values = ExactPoint(values)
        num, den = self._integer_value(values)
        return Fraction(num, den)

    def vanishes_at(self, point: ExactPoint) -> bool:
        """Exact zero test; reads the integer sum and builds no ``Fraction``."""
        return not self._integer_value(point)[0]

    def _integer_form(self) -> tuple[int, int, tuple, int]:
        """``(D, deg, terms, width)``, built once: ``terms`` holds, per term,
        its numerator over ``D``, its nonzero ``(variable, exponent)`` pairs
        and its degree; ``width`` is the chart's variable count.

        The slot stays unset until then, so polynomials that are never
        evaluated exactly pay nothing for it."""
        try:
            return self._int
        except AttributeError:
            pass
        den = lcm(*(c.denominator for c in self.terms.values()))
        terms = tuple(
            (c.numerator * (den // c.denominator),
             tuple((i, k) for i, k in enumerate(e) if k),
             sum(e))
            for e, c in self.terms.items()
        )
        form = (den, max((t[2] for t in terms), default=0), terms, self.varset.n_vars)
        object.__setattr__(self, "_int", form)
        return form

    def _integer_value(self, point: ExactPoint) -> tuple[int, int]:
        """The value as ``num / den`` with ``den > 0``, unreduced."""
        den, degree, terms, width = self._integer_form()
        a, d = point.nums, point.den
        if len(a) != width:
            _check_length(self.varset, a)
        total = 0
        for c, powers, deg in terms:
            for i, _ in powers:
                if not a[i]:
                    break
            else:
                for i, k in powers:
                    c *= a[i] ** k
                total += c if d == 1 else c * d ** (degree - deg)
        return total, den if d == 1 else den * d ** degree

    def _evaluate_float(self, values: Sequence) -> float:
        _check_length(self.varset, values)
        fvals = [v if isinstance(v, float) else float(_as_fraction(v)) for v in values]
        acc = 0.0
        for e, c in self.terms.items():
            term = float(c)
            for v, k in zip(fvals, e):
                if k:
                    term *= v ** k
            acc += term
        return acc

    def compose(self, varset_out: VariableSet, images: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Substitute every occurring variable by its image polynomial."""
        one = Polynomial.constant(varset_out, 1)
        power_cache: dict[tuple[str, int], Polynomial] = {}

        def power(name: str, k: int) -> Polynomial:
            key = (name, k)
            if key not in power_cache:
                if name not in images:
                    raise VariableSetError(f"no image supplied for variable {name!r}")
                img = images[name]
                if img.varset != varset_out:
                    raise VariableSetError("image polynomial lives on the wrong chart")
                power_cache[key] = img ** k
            return power_cache[key]

        total = Polynomial.zero(varset_out)
        names = self.varset.names
        for e, c in self.terms.items():
            term = one.scale(c)
            for name, k in zip(names, e):
                if k:
                    term = term * power(name, k)
            total = total + term
        return total

    def rename(self, varset_out: VariableSet, name_map: Mapping[str, str] | None = None) -> "Polynomial":
        """Reindex variables into another chart (injection by name)."""
        name_map = name_map or {}
        positions = []
        for name in self.varset.names:
            positions.append(varset_out.index(name_map.get(name, name)))
        res: dict[Exponents, Fraction] = {}
        width = varset_out.n_vars
        for e, c in self.terms.items():
            ne = [0] * width
            for pos, k in zip(positions, e):
                ne[pos] += k
            res[tuple(ne)] = res.get(tuple(ne), Fraction(0)) + c
        return Polynomial(varset_out, res)

    # -- fiber grading -----------------------------------------------------

    def fiber_components(self) -> list[tuple[int, "Polynomial"]]:
        """Decompose into fiber-homogeneous pieces; the pieces sum back exactly."""
        if not self.varset.has_fiber:
            raise VariableSetError("chart has no fiber variables")
        buckets: dict[int, dict[Exponents, Fraction]] = {}
        for e, c in self.terms.items():
            buckets.setdefault(self.fiber_degree_of(e), {})[e] = c
        return [(k, Polynomial(self.varset, buckets[k])) for k in sorted(buckets)]

    # -- division helpers --------------------------------------------------

    def leading(self, keyf: Callable[[Exponents], object]) -> tuple[Exponents, Fraction]:
        """Leading exponent and coefficient under ``keyf``, computed once per key."""
        lead = self._lead
        if lead is None or lead[0] is not keyf:
            expo = max(self.terms, key=keyf)
            lead = (keyf, expo, self.terms[expo])
            object.__setattr__(self, "_lead", lead)
        return lead[1], lead[2]

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({format_polynomial(self)})"


def format_polynomial(p: Polynomial) -> str:
    """Canonical expression string; re-parsing it yields an equal polynomial."""
    if not p.terms:
        return "0"
    names = p.varset.names
    ordered = sorted(p.terms, key=_grevlex_key, reverse=True)
    pieces: list[str] = []
    for e in ordered:
        c = p.terms[e]
        factors = []
        for name, k in zip(names, e):
            if k == 1:
                factors.append(name)
            elif k > 1:
                factors.append(f"{name}^{k}")
        mono = "*".join(factors)
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        pieces.append(("-" if c < 0 else "+", body))
    sign, body = pieces[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def random_polynomial(rng, varset: VariableSet, *, max_base_degree: int,
                      max_fiber_degree: int = 0, terms: int = 3,
                      coeff_pool: Iterable[int] = (-3, -2, -1, 1, 2, 3)) -> Polynomial:
    """Seeded random polynomial generator used by property and acceptance suites."""
    pool = list(coeff_pool)
    n = varset.dimension
    acc: dict[Exponents, Fraction] = {}
    for _ in range(terms):
        base = [0] * n
        for _ in range(rng.randint(0, max_base_degree)):
            base[rng.randrange(n)] += 1
        fiber = [0] * len(varset.fiber)
        if varset.has_fiber and max_fiber_degree:
            for _ in range(rng.randint(0, max_fiber_degree)):
                fiber[rng.randrange(len(fiber))] += 1
        expo = tuple(base) + tuple(fiber)
        acc[expo] = acc.get(expo, Fraction(0)) + Fraction(rng.choice(pool))
    return Polynomial(varset, acc)
