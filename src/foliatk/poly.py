"""Exact multivariate polynomials with an optional fiber grading.

Coefficients are exact rationals in one normal form: a plain ``int`` when
integral, otherwise a ``fractions.Fraction`` whose denominator is greater
than 1.  Almost every coefficient the engine builds is an integer, and
``int`` arithmetic is far cheaper than ``Fraction`` arithmetic; ``str``,
``==`` and ``hash`` agree between the two, so the choice never shows in a
report.  :func:`normal_coefficient` is the one normaliser, and
:func:`exact_quotient` divides two coefficients (``/`` on two ints would
give a float).  Every value is immutable after construction, so polynomials
can be shared and compared structurally: two polynomials over the same
variable set are equal iff their term maps are equal.

A :class:`VariableSet` carries base variables ``q^1..q^n`` and, on a cotangent
chart, exactly one fiber variable per base variable.  The fiber grading (total
degree in the fiber variables) is the grading used by every membership
criterion downstream.

Exact evaluation runs on integers, by one of two paths.  A polynomial
evaluated many times keeps, built once on first use, its *integer form*: the
common denominator ``D`` of its coefficients, the integer numerators, and
for each term its nonzero ``(variable, exponent)`` pairs and its degree.  An
:class:`ExactPoint` clears a rational point once to integer numerators
``a_i`` over one common denominator ``d``.  The value is then
``sum c_e a^e d^(deg-|e|)`` over ``D d^deg``, where ``deg`` is the total
degree: terms with a zero coordinate are skipped before any multiplication,
the powers of ``d`` drop out when ``d = 1``, and a zero test reads the
integer sum alone.
Callers that evaluate many polynomials at one point convert it once.  A
polynomial read only once, such as a fresh division cofactor, is evaluated
by :meth:`Polynomial.evaluate_once`, which skips the terms with a zero
coordinate and builds no form.

Derivatives are prepared the same way.  A polynomial keeps, built on first
use in one pass over its terms, the tuple of all its first partials
(:meth:`Polynomial.partials`); :meth:`Polynomial.diff` reads it, so a
polynomial bracketed many times is differentiated once.

Products have one kernel, :func:`sum_of_products`, which accumulates
``sum a*b - sum c*d`` over pairs of polynomials in one term map, skipping
zero factors and building no intermediate polynomial; ``a * b`` is its
one-pair case and runs through the same loop.  Every sum of products in the
package (brackets, derivations, tensor lifts, Lie derivatives, determinants,
representation rows and certificates, S-vectors, compositions, cotangent
maps) is one call to it, with three measured exceptions: division's
reduction step, the fused reindex of ``geometry.cotangent_lift``, and
``Certificate.reexpand``, the certificates' verifier, which stays a plain
``*``/``+`` sum.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import add, mul
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


def normal_coefficient(value) -> Scalar:
    """The normal form of a coefficient: an ``int`` when integral, else a
    ``Fraction`` with denominator > 1.  Arithmetic loops call it only on a
    result that is not already an ``int``."""
    if value.__class__ is int:
        return value
    c = _as_fraction(value)
    return c.numerator if c.denominator == 1 else c


def exact_quotient(a: Scalar, b: Scalar) -> Scalar:
    """``a / b`` of two coefficients, in normal form and never a float."""
    if a.__class__ is int and b.__class__ is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return normal_coefficient(a / b)


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

    def cotangent(self) -> "VariableSet":
        """The chart extended with one fiber variable ``p_<q>`` per base variable ``q``."""
        if self.fiber:
            return self
        return VariableSet(self.base, tuple("p_" + b for b in self.base))


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

    @classmethod
    def _trusted(cls, nums: tuple[int, ...], den: int) -> "ExactPoint":
        """Wrap integer numerators over their denominator, without checking.

        ``den`` must be positive and the least common denominator: no
        integer above 1 divides both ``den`` and every numerator.
        """
        p = object.__new__(cls)
        p.nums = nums
        p.den = den
        return p

    def fractions(self) -> tuple[Fraction, ...]:
        """The coordinates as ``Fraction``s."""
        den = self.den
        return tuple(Fraction(a, den) for a in self.nums)


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

    __slots__ = ("varset", "terms", "_hash", "_lead", "_int", "_partials")

    def __init__(self, varset: VariableSet, terms: Mapping[Exponents, Scalar] | None = None):
        clean: dict[Exponents, Scalar] = {}
        width = varset.n_vars
        for expo, coeff in (terms or {}).items():
            c = normal_coefficient(coeff)
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
    def _trusted(cls, varset: VariableSet, terms: dict[Exponents, Scalar]) -> "Polynomial":
        """Wrap a term map that is already clean, without checking it.

        Every key must be an exponent tuple of the chart's width and every
        value a nonzero coefficient in normal form: an ``int``, or a
        ``Fraction`` with denominator > 1.  The polynomial takes ownership of
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
        c = normal_coefficient(value)
        return cls._trusted(varset, {(0,) * varset.n_vars: c} if c else {})

    @classmethod
    def variable(cls, varset: VariableSet, name: str) -> "Polynomial":
        expo = [0] * varset.n_vars
        expo[varset.index(name)] = 1
        return cls._trusted(varset, {tuple(expo): 1})

    @classmethod
    def monomial(cls, varset: VariableSet, expo: Exponents, coeff: Scalar = 1) -> "Polynomial":
        return cls(varset, {tuple(expo): normal_coefficient(coeff)})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
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
            s = res.get(e, 0) + c
            if s:
                res[e] = s if s.__class__ is int else normal_coefficient(s)
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
        """The one-pair case of :func:`sum_of_products`, through its loop."""
        res: dict[Exponents, Scalar] = {}
        _add_product(res, self.terms, self._coerce(other).terms, False)
        return Polynomial._trusted(self.varset, res)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        return power(self, k)

    def scale(self, c: Scalar) -> "Polynomial":
        c = normal_coefficient(c)
        return Polynomial(self.varset, {e: c * v for e, v in self.terms.items()})

    # -- calculus ----------------------------------------------------------

    def diff(self, name: str) -> "Polynomial":
        """Formal partial derivative with respect to a chart variable."""
        return self.partials()[self.varset.index(name)]

    def partials(self) -> tuple["Polynomial", ...]:
        """Every first partial derivative, in chart variable order.

        Built in one pass over the terms on first use and kept, like the
        integer form, in a slot that stays unset until then."""
        try:
            return self._partials
        except AttributeError:
            pass
        maps: list[dict[Exponents, Scalar]] = [{} for _ in range(self.varset.n_vars)]
        for e, c in self.terms.items():
            for i, k in enumerate(e):
                if k:
                    d = c * k
                    maps[i][e[:i] + (k - 1,) + e[i + 1:]] = (
                        d if d.__class__ is int else normal_coefficient(d))
        parts = tuple(Polynomial._trusted(self.varset, m) for m in maps)
        object.__setattr__(self, "_partials", parts)
        return parts

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

    def evaluate_once(self, point: ExactPoint) -> Fraction:
        """The exact value at ``point`` of a polynomial that is read only once.

        Equal to ``evaluate_seq(point)``, but no integer form is built or kept:
        a term with a zero coordinate is skipped before its coefficient is
        read, so at the origin only the constant term is touched.
        """
        a, d = point.nums, point.den
        if len(a) != self.varset.n_vars:
            _check_length(self.varset, a)
        live = []
        for e, c in self.terms.items():
            m, deg = 1, 0
            for i, k in enumerate(e):
                if k:
                    if not a[i]:
                        break
                    m *= a[i] ** k
                    deg += k
            else:
                live.append((c, m, deg))
        if not live:
            return Fraction(0)
        den = lcm(*(c.denominator for c, _, _ in live))
        degree = max(deg for _, _, deg in live)
        total = sum(c.numerator * (den // c.denominator) * m * d ** (degree - deg)
                    for c, m, deg in live)
        return Fraction(total, den * d ** degree)

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

        names = self.varset.names
        pairs = []
        for e, c in self.terms.items():
            image = one
            for name, k in zip(names, e):
                if k:
                    image = image * power(name, k)
            pairs.append((Polynomial.constant(varset_out, c), image))
        return sum_of_products(varset_out, pairs)

    def rename(self, varset_out: VariableSet, name_map: Mapping[str, str] | None = None) -> "Polynomial":
        """Reindex variables into another chart (injection by name)."""
        name_map = name_map or {}
        positions = []
        for name in self.varset.names:
            positions.append(varset_out.index(name_map.get(name, name)))
        res: dict[Exponents, Scalar] = {}
        width = varset_out.n_vars
        for e, c in self.terms.items():
            ne = [0] * width
            for pos, k in zip(positions, e):
                ne[pos] += k
            res[tuple(ne)] = res.get(tuple(ne), 0) + c
        return Polynomial(varset_out, res)

    # -- fiber grading -----------------------------------------------------

    def fiber_components(self) -> list[tuple[int, "Polynomial"]]:
        """Decompose into fiber-homogeneous pieces; the pieces sum back exactly."""
        if not self.varset.has_fiber:
            raise VariableSetError("chart has no fiber variables")
        buckets: dict[int, dict[Exponents, Scalar]] = {}
        for e, c in self.terms.items():
            buckets.setdefault(self.fiber_degree_of(e), {})[e] = c
        return [(k, Polynomial(self.varset, buckets[k])) for k in sorted(buckets)]

    # -- division helpers --------------------------------------------------

    def leading(self, keyf: Callable[[Exponents], object]) -> tuple[Exponents, Scalar]:
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


def _add_product(res: dict[Exponents, Scalar], a: Mapping[Exponents, Scalar],
                 b: Mapping[Exponents, Scalar], negate: bool) -> None:
    """``res += a*b``, or ``res -= a*b`` if ``negate``, in place on term maps.

    New exponents are appended in the order the products reach them, and an
    exponent whose coefficient cancels is dropped, so the term order of the
    result is that of adding the products one by one.
    """
    bterms = b.items()
    for e1, c1 in a.items():
        if negate:
            c1 = -c1
        for e2, c2 in bterms:
            e = tuple(map(add, e1, e2))
            s = res.get(e, 0) + c1 * c2
            if s:
                res[e] = s if s.__class__ is int else normal_coefficient(s)
            else:
                del res[e]


def sum_of_products(varset: VariableSet, plus: Iterable[tuple[Polynomial, Polynomial]],
                    minus: Iterable[tuple[Polynomial, Polynomial]] = ()) -> Polynomial:
    """``sum(a*b for a, b in plus) - sum(c*d for c, d in minus)`` in one term map.

    The package's one product kernel: ``a * b`` is its one-pair case.  A pair
    with a zero factor is skipped, and no product or partial sum is built as
    a polynomial.  Every factor must live on ``varset``.
    """
    res: dict[Exponents, Scalar] = {}
    for pairs, negate in ((plus, False), (minus, True)):
        for a, b in pairs:
            if not a.terms or not b.terms:
                continue
            if a.varset != varset or b.varset != varset:
                raise VariableSetError("variable-set mismatch")
            _add_product(res, a.terms, b.terms, negate)
    return Polynomial._trusted(varset, res)


def power(base: Polynomial, k: int,
          mul: Callable[[Polynomial, Polynomial], Polynomial] = mul) -> Polynomial:
    """``base ** k`` by repeated squaring, each product made by ``mul(a, b)``.

    It starts from the base and stops squaring once the exponent is used up.
    A caller that bounds its work passes a ``mul`` that counts the products.
    """
    if not isinstance(k, int) or k < 0:
        raise ValueError("exponent must be a nonnegative integer")
    result = Polynomial.constant(base.varset, 1) if k == 0 else None
    while k:
        if k & 1:
            result = base if result is None else mul(result, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return result


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
