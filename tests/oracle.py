"""Reference implementations that the tests compare the package against.

Bounded-degree membership: f lies in <g_1..g_k> with cofactor degree at most
D iff f lies in the Q-span of {m * g_i : deg(m) <= D}.  The span is
echelonized by leading monomial (grevlex) with exact rational arithmetic, so
the verdict is exact and shares no code with Buchberger or the division
routine.

Syzygies: the tagged construction that Schreyer's construction in
``groebner.py`` replaced.  It computes a second module Groebner basis, of the
generators augmented with unit tags, so it shares no pair loop with the
package's syzygy code.

Exact evaluation: the ``Fraction`` loop that the integer evaluator in
``poly.py`` replaced, one coordinate power at a time.

Killing connection: the rational-function computation of omega and of the
metric-compatibility identity that the common-denominator check in
``ipoisson.py`` replaced.  Every sum runs in ``RationalFunction``, entry by
entry, with the covariant metric as adjugate/determinant.

Isotropy: the dense point layer that the sparse one in ``foliation.py``
replaced.  It evaluates every component, zero or not, and solves every
bracket class against the frame, zero or not, through the dense linear
algebra below, not the package's.  It and the fiber dimension read the
syzygies at every point: neither decides a regular point by the rank of the
module, nor a bracket class at a graded origin by degree, as the package does.

Linear algebra: the dense ``EchelonSpan``, ``nullspace``, ``CoordinateFrame``
and ``solve_coordinates`` that the sparse row maps in ``linalg.py``
replaced.  Every row is a full list of ``Fraction``s and every reduction
walks all its columns from the pivot on.

Expressions: the character-loop lexer and token-object parser that the
one-regex lexer in ``expressions.py`` replaced.  A zero denominator or an
oversized exponent escapes it as ``ZeroDivisionError`` or ``ValueError``;
everywhere else the package must give the same polynomial, or the same
message and position.

Flows: the closure interpreter and the stored-trajectory rk4, leapfrog and
monitor loops that the generated flow kernels replaced.  They perform the
same float operations in the same order, so the kernels must agree with them
exactly.

Division and brackets: the division that built its per-position lead table
on every call, which the divisor tables owned by a basis replaced, and the
derivative-by-derivative derivation, Lie bracket and canonical bracket that
the partials slot and the one-map product-sum in ``poly.py`` replaced.  Each
partial is one loop over the terms, and every sum goes through polynomial
``+`` and ``-`` and the reference product below.

Products: the product loop that ``Polynomial.__mul__`` ran before it became
the one-pair case of ``poly.sum_of_products``, and the determinant,
adjugate, matrix product and metric Hamiltonian built on it one product and
one sum at a time.  Nothing here multiplies polynomials through the
package's kernel, except inside ``RationalFunction`` arithmetic and in
``reference_compose``: that is ``Polynomial.compose`` as it was before it
became one product-sum, a running total of terms built with ``*`` and
``**``, and the package must keep its values and its term order.

Groebner bases and syzygies: the Buchberger loop whose chain test scanned
every lead and whose inter-reduction divided each kept element by a fresh
table of the others, and the syzygy pair loop that recomputed each lcm it
compared.  Both combine representation rows one product and one difference
at a time, where the package makes each entry one product-sum.  The package
must give the same basis, the same rows as index-to-cofactor maps, and the
same syzygies.

Scene load: the metric checks that multiplied the metric by the cometric as
polynomial matrices and expanded every leading minor of the cometric
symbolically, and the candidate pool built as a list.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from foliatk.dynamics import FlowState, MonitorReport
from foliatk.errors import (AmbiguousQuotientError, ChartMismatchError, FlowDivergedError,
                            InternalCheckError, ParseError, PreconditionError, VariableSetError)
from foliatk.expressions import MAX_NESTING
from foliatk.foliation import FoliationModule, PointReport, _as_point, _combine
from foliatk.geometry import MetricData, SymTensor2, VectorField
from foliatk.groebner import (DivisorTable, GroebnerBasis, ModuleElement, Row, _coprime, _dense,
                              _divides, _lcm, _monic, _sub, module_divide, module_groebner)
from foliatk.ipoisson import srf_check
from foliatk.poly import (BLOCK, GREVLEX, ExactPoint, Exponents, MonomialOrder, Polynomial,
                          VariableSet, exact_quotient, normal_coefficient)
from foliatk.ratfunc import RationalFunction


def monomials_up_to(n_vars: int, degree: int):
    for total in range(degree + 1):
        for bars in itertools.combinations(range(total + n_vars - 1), n_vars - 1):
            expo = []
            prev = -1
            for b in bars:
                expo.append(b - prev - 1)
                prev = b
            expo.append(total + n_vars - 1 - prev - 1)
            yield tuple(expo)


class _Span:
    def __init__(self, keyf):
        self.keyf = keyf
        self.rows: dict[tuple, dict] = {}

    def _reduce(self, vec: dict) -> dict:
        while vec:
            lead = max(vec, key=self.keyf)
            row = self.rows.get(lead)
            if row is None:
                return vec
            c = vec[lead]
            for e, v in row.items():
                s = vec.get(e, Fraction(0)) - c * v
                if s:
                    vec[e] = s
                else:
                    vec.pop(e, None)
        return vec

    def insert(self, vec: dict) -> bool:
        vec = self._reduce(dict(vec))
        if not vec:
            return False
        lead = max(vec, key=self.keyf)
        inv = Fraction(1) / vec[lead]
        self.rows[lead] = {e: c * inv for e, c in vec.items()}
        return True

    def contains(self, vec: dict) -> bool:
        return not self._reduce(dict(vec))


def bounded_membership(f: Polynomial, gens: list[Polynomial], degree_bound: int) -> bool:
    """True iff f = sum c_i g_i has a solution with deg(c_i) <= degree_bound."""
    varset = f.varset
    keyf = GREVLEX.key_function(varset)
    span = _Span(keyf)
    for expo in monomials_up_to(varset.n_vars, degree_bound):
        mono = Polynomial.monomial(varset, expo)
        for g in gens:
            span.insert((mono * g).terms)
    return span.contains(f.terms)


# -- syzygy reference ----------------------------------------------------------


def reference_syzygies(gens: Sequence[ModuleElement]) -> list[ModuleElement]:
    """Generators of {(f_1..f_N) : sum f_i gens_i = 0}, by the tagged construction.

    A module Groebner basis of the generators augmented with unit tags is
    computed under the position-over-term order, where the original
    positions dominate; the basis elements whose original part is zero carry
    the syzygies in their tags.
    """
    gens = tuple(gens)
    if not gens:
        return []
    varset = gens[0].varset
    rank = gens[0].rank
    n = len(gens)
    zero = Polynomial.zero(varset)
    one = Polynomial.constant(varset, 1)
    augmented = [
        ModuleElement(varset, g.components + tuple(one if j == i else zero for j in range(n)))
        for i, g in enumerate(gens)
    ]
    return [
        ModuleElement(varset, g.components[rank:])
        for g in module_groebner(augmented, BLOCK).generators
        if all(c.is_zero() for c in g.components[:rank])
    ]


# -- dense linear algebra reference ----------------------------------------------


def _fractions(vec: Sequence) -> list[Fraction]:
    return [x if x.__class__ is Fraction else Fraction(x) for x in vec]


class DenseEchelonSpan:
    """Incremental row span over Q, every row a full list of ``Fraction``s."""

    def __init__(self, width: int):
        self.width = width
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []

    def _reduce(self, vec: list[Fraction]) -> list[Fraction]:
        for row, piv in zip(self.rows, self.pivots):
            f = vec[piv]
            if f:
                for k in range(piv, self.width):
                    r = row[k]
                    if r:
                        vec[k] -= f * r
        return vec

    def insert(self, vec: Sequence[Fraction]) -> bool:
        v = self._reduce(_fractions(vec))
        for piv in range(self.width):
            if v[piv]:
                inv = Fraction(1) / v[piv]
                v = [x * inv for x in v]
                self.rows.append(v)
                self.pivots.append(piv)
                return True
        return False

    def contains(self, vec: Sequence[Fraction]) -> bool:
        return not any(self._reduce(_fractions(vec)))

    @property
    def rank(self) -> int:
        return len(self.rows)


def reference_nullspace(rows: Sequence[Sequence[Fraction]],
                        width: int) -> list[tuple[Fraction, ...]]:
    span = DenseEchelonSpan(width)
    for r in rows:
        span.insert(r)
    for k in reversed(range(span.rank)):
        row, piv = span.rows[k], span.pivots[k]
        for other in span.rows[:k]:
            f = other[piv]
            if f:
                for c in range(piv, width):
                    other[c] -= f * row[c]
    reduced = dict(zip(span.pivots, span.rows))
    basis = []
    for fc in range(width):
        if fc in reduced:
            continue
        v = [Fraction(0)] * width
        v[fc] = Fraction(1)
        for pc, row in reduced.items():
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return basis


class DenseCoordinateFrame:
    """Rows ``basis[i] + e_i`` in a :class:`DenseEchelonSpan`."""

    def __init__(self, basis: Sequence[Sequence[Fraction]], width: int):
        self.width = width
        self.size = len(basis)
        self.span = DenseEchelonSpan(width + self.size)
        for i, b in enumerate(basis):
            tag = [Fraction(0)] * self.size
            tag[i] = Fraction(1)
            self.span.insert(list(b) + tag)


def reference_solve_coordinates(frame: DenseCoordinateFrame,
                                vec: Sequence[Fraction]) -> list[Fraction] | None:
    v = frame.span._reduce(_fractions(vec) + [Fraction(0)] * frame.size)
    if any(v[:frame.width]):
        return None
    return [-x for x in v[frame.width:]]


# -- isotropy reference --------------------------------------------------------


def _dense_values(element: ModuleElement, exact: ExactPoint) -> tuple[Fraction, ...]:
    return tuple(c.evaluate_seq(exact) for c in element.components)


def reference_fiber_dim(fol: FoliationModule, point: Sequence) -> int:
    """dim F/I_q F = generator count minus the rank of the evaluated syzygies."""
    exact = ExactPoint(_as_point(fol.chart, point))
    span = DenseEchelonSpan(fol.n_generators)
    for s in fol.syzygies:
        span.insert(_dense_values(s, exact))
    return fol.n_generators - span.rank


def reference_isotropy_algebra(fol: FoliationModule, point: Sequence) -> PointReport:
    """Kernel of evaluation inside the fiber, with every bracket class solved."""
    pt = _as_point(fol.chart, point)
    exact = ExactPoint(pt)
    big_n = fol.n_generators

    syz_span = DenseEchelonSpan(big_n)
    for s in fol.syzygies:
        syz_span.insert(_dense_values(s, exact))
    fdim = big_n - syz_span.rank

    values = [_dense_values(g, exact) for g in fol.generators]
    kernel = reference_nullspace(list(zip(*values)), big_n)
    tdim = big_n - len(kernel)

    selection = DenseEchelonSpan(big_n)
    for row in syz_span.rows:
        selection.insert(row)
    basis: list[tuple[Fraction, ...]] = []
    unit_candidates = []
    for a in range(big_n):
        if not any(values[a]):
            e = [Fraction(0)] * big_n
            e[a] = Fraction(1)
            unit_candidates.append(tuple(e))
    for cand in unit_candidates + kernel:
        if selection.insert(cand):
            basis.append(tuple(cand))
    idim = len(basis)
    if tdim + idim != fdim:
        raise AmbiguousQuotientError(
            f"exactness failed at {pt}: tangent {tdim} + isotropy {idim} != fiber {fdim}"
        )

    frame = DenseCoordinateFrame(syz_span.rows + basis, big_n)
    consts = [[[Fraction(0)] * idim for _ in range(idim)] for _ in range(idim)]
    reps = [_combine(fol, b) for b in basis]
    gb = fol.module_gb
    for u in range(idim):
        for v in range(u + 1, idim):
            bracket = reference_lie_bracket(reps[u], reps[v])
            cofactors, remainder = reference_module_divide(bracket, gb.generators, gb.order)
            if not remainder.is_zero():
                raise PreconditionError(
                    "bracket of isotropy representatives leaves the module; "
                    "the foliation is not involutive"
                )
            w = [Fraction(0)] * big_n
            for k, c in cofactors.items():
                ck = c.evaluate_seq(exact)
                for i, t in gb.rows[k].items():
                    w[i] += ck * t.evaluate_seq(exact)
            coords = reference_solve_coordinates(frame, w)
            if coords is None:
                raise AmbiguousQuotientError(
                    f"bracket class at {pt} not expressible in the computed presentation"
                )
            tail = coords[frame.size - idim:]
            for w_idx in range(idim):
                consts[u][v][w_idx] = tail[w_idx]
                consts[v][u][w_idx] = -tail[w_idx]

    return PointReport(
        point=pt,
        tangent_dim=tdim,
        fiber_dim=fdim,
        isotropy_dim=idim,
        structure_constants=tuple(tuple(tuple(row) for row in plane) for plane in consts),
        isotropy_basis=tuple(basis),
    )


# -- killing connection reference ----------------------------------------------


def _reference_field_of_lift(lam: Polynomial, base: VariableSet) -> VectorField:
    """A fiber-linear polynomial read as a vector field via p_i -> d/dq^i."""
    n = base.dimension
    comps = []
    for p_name in lam.varset.fiber:
        terms = {}
        for e, c in reference_diff(lam, p_name).terms.items():
            if any(e[n:]):
                raise InternalCheckError("expected a polynomial in base variables only")
            terms[e[:n]] = c
        comps.append(Polynomial(base, terms))
    return VectorField(base, tuple(comps))


def _rf_neg(r: RationalFunction) -> RationalFunction:
    return RationalFunction(-r.num, r.den)


def _rf_diff(r: RationalFunction, name: str) -> RationalFunction:
    return RationalFunction(
        r.num.diff(name) * r.den - r.num * r.den.diff(name), r.den * r.den
    )


def _rational_lie_derivative_metric(
    x: VectorField, g: list[list[RationalFunction]]
) -> list[list[RationalFunction]]:
    """(L_X g)_ij for a covariant tensor with rational entries."""
    chart = x.chart
    n = chart.dimension
    base = chart.base
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = RationalFunction.zero(chart)
            for k in range(n):
                acc = acc + RationalFunction(x.components[k]) * _rf_diff(g[i][j], base[k])
                acc = acc + g[k][j] * RationalFunction(x.components[k].diff(base[i]))
                acc = acc + g[i][k] * RationalFunction(x.components[k].diff(base[j]))
            row.append(acc)
        out.append(row)
    return out


def reference_killing_connection(
    fol: FoliationModule, metric: MetricData
) -> tuple[list[list[tuple[RationalFunction, ...]]], bool]:
    """omega_a^b components and whether every identity entry (i <= j) holds."""
    result = srf_check(fol, metric)
    if not result.passed:
        raise PreconditionError("the foliation is not an SRF for this metric")
    chart = fol.chart
    n = chart.dimension
    if metric.metric is not None:
        g_rat = [[RationalFunction(e) for e in row] for row in metric.metric.entries]
    else:
        det = reference_poly_det(metric.cometric.entries)
        adj = reference_poly_adjugate(metric.cometric.entries)
        g_rat = [[RationalFunction(adj[i][j], det) for j in range(n)] for i in range(n)]
    n_gen = fol.n_generators
    omega = []
    for a in range(n_gen):
        row = []
        for b in range(n_gen):
            field = _reference_field_of_lift(result.lam[a][b], chart)
            comps = []
            for i in range(n):
                acc = RationalFunction.zero(chart)
                for j in range(n):
                    acc = acc + g_rat[i][j] * RationalFunction(field.components[j])
                comps.append(_rf_neg(acc))
            row.append(tuple(comps))
        omega.append(row)

    flat_gens = []
    for b in range(n_gen):
        comps = []
        for j in range(n):
            acc = RationalFunction.zero(chart)
            for k in range(n):
                acc = acc + g_rat[j][k] * RationalFunction(fol.generators[b].components[k])
            comps.append(acc)
        flat_gens.append(comps)

    verified = True
    for a in range(n_gen):
        lhs = _rational_lie_derivative_metric(fol.generators[a], g_rat)
        for i in range(n):
            for j in range(i, n):
                rhs = RationalFunction.zero(chart)
                for b in range(n_gen):
                    rhs = rhs + omega[a][b][i] * flat_gens[b][j]
                    rhs = rhs + omega[a][b][j] * flat_gens[b][i]
                verified = verified and lhs[i][j] == rhs
    return omega, verified


# -- exact evaluation reference ------------------------------------------------


def reference_evaluate(poly: Polynomial, values: Sequence) -> Fraction:
    """Exact value of ``poly`` at ``values`` (in variable order), term by term."""
    coords = [Fraction(v) for v in values]
    total = Fraction(0)
    for e, c in poly.terms.items():
        term = c
        for v, k in zip(coords, e):
            if k:
                term *= v ** k
        total += term
    return total


# -- expression reference ------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # number | name | op | end
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "/" and j + 1 < n and text[j + 1].isdigit():
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                tokens.append(_Token("number", text[i:k], i))
                i = k
            else:
                tokens.append(_Token("number", text[i:j], i))
                i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*^()":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], varset: VariableSet):
        self.tokens = tokens
        self.pos = 0
        self.varset = varset
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str):
        tok = self.advance()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.pos)

    def parse(self) -> Polynomial:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)
        return value

    def expr(self) -> Polynomial:
        value = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                rhs = self.term()
                value = value + rhs if tok.text == "+" else value - rhs
            else:
                return value

    def term(self) -> Polynomial:
        value = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.advance()
                value = value * self.factor()
            else:
                return value

    def factor(self) -> Polynomial:
        sign = 1
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                if tok.text == "-":
                    sign = -sign
            else:
                break
        value = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exp_tok = self.advance()
            if exp_tok.kind != "number" or "/" in exp_tok.text:
                raise ParseError("exponent must be a nonnegative integer", exp_tok.pos)
            value = value ** int(exp_tok.text)
        return value if sign == 1 else -value

    def atom(self) -> Polynomial:
        tok = self.advance()
        if tok.kind == "number":
            try:
                return Polynomial.constant(self.varset, Fraction(tok.text))
            except ValueError as exc:  # more digits than int() accepts
                raise ParseError(str(exc), tok.pos) from None
        if tok.kind == "name":
            if tok.text not in self.varset.names:
                raise ParseError(f"undeclared variable {tok.text!r}", tok.pos)
            return Polynomial.variable(self.varset, tok.text)
        if tok.kind == "op" and tok.text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", tok.pos)
            self.depth += 1
            value = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return value
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.pos)


def reference_parse_expression(text: str, varset: VariableSet) -> Polynomial:
    value = _Parser(_tokenize(text), varset).parse()
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        for c in value.terms.values():
            for n in (abs(c.numerator), c.denominator):
                if n.bit_length() > 3 * limit and n >= 10 ** limit:
                    raise ParseError(f"a coefficient has more than {limit} digits", 0)
    return value


# -- flow reference ------------------------------------------------------------


def reference_evaluator(poly: Polynomial) -> Callable[[Sequence[float]], float]:
    terms = [
        (float(c), tuple((i, k) for i, k in enumerate(e) if k))
        for e, c in poly.terms.items()
    ]

    def evaluate(vals: Sequence[float]) -> float:
        acc = 0.0
        for coeff, powers in terms:
            term = coeff
            for i, k in powers:
                term *= vals[i] ** k
            acc += term
        return acc

    return evaluate


def reference_rhs(h: Polynomial) -> Callable[[Sequence[float]], list[float]]:
    varset = h.varset
    dq = [reference_evaluator(h.diff(p_name)) for p_name in varset.fiber]
    dp = [reference_evaluator(h.diff(q_name)) for q_name in varset.base]

    def rhs(state: Sequence[float]) -> list[float]:
        return [f(state) for f in dq] + [-f(state) for f in dp]

    return rhs


def _reference_states(h: Polynomial, start: FlowState, t_end: float, dt: float,
                      method: str = "rk4"):
    """The stored trajectory's states, yielded as reached; raises on divergence."""
    varset = h.varset
    n = varset.dimension
    steps = max(1, int(round(t_end / dt))) if t_end > 0 else 0
    dt = t_end / steps if steps else dt
    yield FlowState(tuple(start.q), tuple(start.p), 0.0)

    if method == "rk4":
        rhs = reference_rhs(h)

        def step(vec: list[float]) -> list[float]:
            k1 = rhs(vec)
            k2 = rhs([v + 0.5 * dt * d for v, d in zip(vec, k1)])
            k3 = rhs([v + 0.5 * dt * d for v, d in zip(vec, k2)])
            k4 = rhs([v + dt * d for v, d in zip(vec, k3)])
            return [
                v + dt * (a + 2 * b + 2 * c + d) / 6.0
                for v, a, b, c, d in zip(vec, k1, k2, k3, k4)
            ]

    else:
        dT = [reference_evaluator(h.diff(p_name)) for p_name in varset.fiber]
        dV = [reference_evaluator(h.diff(q_name)) for q_name in varset.base]

        def step(vec: list[float]) -> list[float]:
            q, p = vec[:n], vec[n:]
            p_half = [pi - 0.5 * dt * f(q + p) for pi, f in zip(p, dV)]
            mid = q + p_half
            q_new = [qi + dt * f(mid) for qi, f in zip(q, dT)]
            state_new = q_new + p_half
            p_new = [pi - 0.5 * dt * f(state_new) for pi, f in zip(p_half, dV)]
            return q_new + p_new

    vec = list(start.q) + list(start.p)
    for i in range(steps):
        try:
            vec = step(vec)
        except OverflowError:
            raise FlowDivergedError(
                f"state overflowed near t={(i + 1) * dt:.6g}"
            ) from None
        if not all(math.isfinite(v) for v in vec):
            raise FlowDivergedError(
                f"non-finite state at t={(i + 1) * dt:.6g}: {vec}"
            )
        yield FlowState(tuple(vec[:n]), tuple(vec[n:]), (i + 1) * dt)


def reference_flow(h: Polynomial, start: FlowState, t_end: float, dt: float,
                   method: str = "rk4") -> list[FlowState]:
    return list(_reference_states(h, start, t_end, dt, method))


def reference_monitor(generators: Sequence[Polynomial], h: Polynomial, start: FlowState,
                      t_end: float, dt: float, start_tol: float = 1e-12,
                      store_every: int = 10, precondition_label: str = "") -> MonitorReport:
    """The stored trajectory, sampled afterwards.

    The failure reported is the first one a streaming monitor meets: the
    start sample, then for each state the step from it before its own sample.
    """
    gen_evals = [reference_evaluator(g) for g in generators]
    h_eval = reference_evaluator(h)

    def sample(state: FlowState) -> tuple[tuple[float, ...], float]:
        vec = state.vector()
        try:
            return tuple(f(vec) for f in gen_evals), h_eval(vec)
        except OverflowError:
            raise FlowDivergedError(f"monitored value overflowed at t={state.t:.6g}") from None

    values, e0 = sample(FlowState(tuple(start.q), tuple(start.p), 0.0))
    initial = [abs(v) for v in values]
    if any(v > start_tol for v in initial):
        raise PreconditionError(f"{precondition_label}: generator values at start are {initial}")
    trajectory = []
    failure = None
    try:
        for state in _reference_states(h, start, t_end, dt):
            trajectory.append(state)
    except FlowDivergedError as exc:
        failure = exc
    max_gen = 0.0
    drift = 0.0
    samples = []
    last = len(trajectory) - 1
    # a failed step from the last state reached ends the run before that state is sampled
    for idx, state in enumerate(trajectory[:-1] if failure else trajectory):
        values, energy = sample(state)
        max_gen = max(max_gen, max((abs(v) for v in values), default=0.0))
        drift = max(drift, abs(energy - e0))
        if idx % store_every == 0 or idx == last:
            samples.append((state.t, values, energy))
    if failure:
        raise failure
    return MonitorReport(tuple(samples), max_gen, drift)


# ---------------------------------------------------------------------------
# division and brackets


def reference_module_divide(v: ModuleElement, divisors: Sequence[ModuleElement],
                            order: MonomialOrder) -> tuple[dict, ModuleElement]:
    """Position-over-term division; the lead table is rebuilt from ``divisors``."""
    varset = v.varset
    rank = v.rank
    keyf = order.key_function(varset)
    by_pos: dict = {}
    for i, d in enumerate(divisors):
        if d.varset != varset or len(d.components) != rank:
            raise VariableSetError("module rank or chart mismatch")
        for lpos, comp in enumerate(d.components):
            if comp.terms:
                lexpo, lcoeff = comp.leading(keyf)
                by_pos.setdefault(lpos, []).append((i, lexpo, lcoeff))
                break
    cofactors: dict = {}
    work = [dict(c.terms) for c in v.components]
    remainder: list = [{} for _ in work]
    for pos, terms in enumerate(work):
        leads = by_pos.get(pos, ())
        while terms:
            expo = max(terms, key=keyf)
            coeff = terms.pop(expo)
            for i, lexpo, lcoeff in leads:
                if all(a <= b for a, b in zip(lexpo, expo)):
                    q_expo = tuple(b - a for a, b in zip(lexpo, expo))
                    q_coeff = exact_quotient(coeff, lcoeff)
                    cofactors.setdefault(i, {})[q_expo] = q_coeff
                    comps = divisors[i].components
                    for dpos in range(pos, rank):
                        target = work[dpos]
                        for ge, gc in comps[dpos].terms.items():
                            if dpos == pos and ge == lexpo:
                                continue
                            te = tuple(a + b for a, b in zip(ge, q_expo))
                            s = target.get(te, 0) - gc * q_coeff
                            if s:
                                target[te] = normal_coefficient(s)
                            else:
                                del target[te]
                    break
            else:
                remainder[pos][expo] = coeff
    return (
        {i: Polynomial(varset, cofactors[i]) for i in sorted(cofactors)},
        ModuleElement(varset, tuple(Polynomial(varset, r) for r in remainder)),
    )


def reference_diff(f: Polynomial, name: str) -> Polynomial:
    """One partial derivative, one loop over the terms."""
    i = f.varset.index(name)
    res = {}
    for e, c in f.terms.items():
        if e[i]:
            de = list(e)
            de[i] -= 1
            res[tuple(de)] = c * e[i]
    return Polynomial(f.varset, res)


def reference_apply(x: VectorField, f: Polynomial) -> Polynomial:
    """X(f) = sum X^i df/dq^i, one product and one sum at a time."""
    if f.varset != x.varset:
        raise VariableSetError("variable-set mismatch")
    acc = Polynomial.zero(x.varset)
    for name, comp in zip(x.varset.base, x.components):
        acc = acc + reference_mul(comp, reference_diff(f, name))
    return acc


def reference_lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    """[X, Y]^i = X(Y^i) - Y(X^i)."""
    if x.chart != y.chart:
        raise ChartMismatchError("vector fields on different charts")
    return VectorField(x.chart, tuple(reference_apply(x, yc) - reference_apply(y, xc)
                                      for xc, yc in zip(x.components, y.components)))


def reference_canonical_poisson(f: Polynomial, g: Polynomial) -> Polynomial:
    """{f, g} = sum_i df/dp_i dg/dq^i - df/dq^i dg/dp_i."""
    varset = f.varset
    if g.varset != varset:
        raise ChartMismatchError("bracket arguments on different charts")
    if not varset.has_fiber:
        raise VariableSetError("canonical bracket needs fiber variables")
    acc = Polynomial.zero(varset)
    for q, p in zip(varset.base, varset.fiber):
        acc = acc + reference_mul(reference_diff(f, p), reference_diff(g, q)) \
            - reference_mul(reference_diff(f, q), reference_diff(g, p))
    return acc


# ---------------------------------------------------------------------------
# Groebner bases and syzygies


def _sub_scaled(acc: Row, c: Polynomial, row: Row) -> None:
    """acc -= c * row, entry by entry; entries that cancel are dropped."""
    for j, b in row.items():
        t = c * b
        a = acc.get(j)
        if a is None:
            acc[j] = -t
        else:
            a = a - t
            if a.terms:
                acc[j] = a
            else:
                del acc[j]


def reference_buchberger(
    gens: tuple[ModuleElement, ...], order: MonomialOrder
) -> tuple[tuple[ModuleElement, ...], tuple[Row, ...]]:
    """``groebner._buchberger`` as it was before the pair loop read one lead
    position's list and the inter-reduction shared one table: the chain test
    scans every lead, and each kept element is divided by a table of the
    others."""
    live = [(i, g) for i, g in enumerate(gens) if not g.is_zero()]
    if not live:
        return (), ()
    varset = live[0][1].varset
    rank = live[0][1].rank
    keyf = order.key_function(varset)
    one = Polynomial.constant(varset, 1)

    # the table checks every element's chart and rank as it enters
    table = DivisorTable([g for _, g in live], order)
    basis, leads = table.elements, table.leads
    reps: list[Row] = [{i: one} for i, _ in live]

    def reduce_rep(rep: Row, cofactors: Row, rows: Sequence[Row]) -> Row:
        for k, c in cofactors.items():
            _sub_scaled(rep, c, rows[k])
        return rep

    # each pair is keyed once, when it is queued; the key is unique, so pops
    # follow (lcm key, pair) exactly.  ``pending`` mirrors the queue for the
    # chain criterion's membership test.
    queue: list[tuple[tuple, tuple[int, int]]] = []
    pending: set[tuple[int, int]] = set()

    def push_pairs(new: int) -> None:
        pos, expo, _ = leads[new]
        for k in range(new):
            if leads[k][0] == pos:
                heapq.heappush(queue, (keyf(_lcm(leads[k][1], expo)), (k, new)))
                pending.add((k, new))

    def chain_skippable(i: int, j: int, pos: int, lcm_ij: Exponents) -> bool:
        for k, (kpos, kexpo, _) in enumerate(leads):
            if k in (i, j) or kpos != pos or not _divides(kexpo, lcm_ij):
                continue
            if (min(i, k), max(i, k)) not in pending and (min(j, k), max(j, k)) not in pending:
                return True
        return False

    for j in range(len(basis)):
        push_pairs(j)

    while queue:
        i, j = heapq.heappop(queue)[1]
        pending.discard((i, j))
        (pos, li, ci), (_, lj, cj) = leads[i], leads[j]
        if rank == 1 and _coprime(li, lj):
            continue
        lcm_ij = _lcm(li, lj)
        if chain_skippable(i, j, pos, lcm_ij):
            continue
        mi = Polynomial.monomial(varset, _sub(lcm_ij, li), exact_quotient(1, ci))
        mj = Polynomial.monomial(varset, _sub(lcm_ij, lj), exact_quotient(1, cj))
        cof, r = module_divide(basis[i].scale_by(mi) - basis[j].scale_by(mj), table, order)
        if r.is_zero():
            continue
        rep_s = {k: mi * a for k, a in reps[i].items()}
        _sub_scaled(rep_s, mj, reps[j])
        r, rep_r = _monic(r, reduce_rep(rep_s, cof, reps), keyf)
        table.append(r)
        reps.append(rep_r)
        push_pairs(len(basis) - 1)

    def mkey(k: int):
        pos, expo, _ = leads[k]
        return (-pos, keyf(expo))

    # minimize: drop elements whose leading term is divisible by another's
    kept: list[int] = []
    for k in sorted(range(len(basis)), key=mkey):
        pos, expo, _ = leads[k]
        if not any(leads[m][0] == pos and _divides(leads[m][1], expo) for m in kept):
            kept.append(k)

    # inter-reduce tails and normalize monic; a lead survives the tail
    # reduction, so the final order is the order of the kept leads
    final = []
    for k in sorted(kept, key=mkey, reverse=True):
        others = [m for m in kept if m != k]
        cof, r = module_divide(basis[k], [basis[m] for m in others], order)
        final.append(_monic(r, reduce_rep(dict(reps[k]), cof, [reps[m] for m in others]), keyf))
    return tuple(m for m, _ in final), tuple(rep for _, rep in final)


def reference_syzygy_basis(
    gens: Sequence[ModuleElement] | GroebnerBasis, order: MonomialOrder = BLOCK
) -> list[ModuleElement]:
    """``groebner.syzygy_basis`` as it was before each lead group's lcms were
    tabulated: the chain test recomputes every lcm it compares, and every
    input's relation is formed by a division, a unit multiple of a basis
    element's included."""
    gb = gens if isinstance(gens, GroebnerBasis) else module_groebner(gens, order)
    inputs, basis, rows = gb.input_generators, gb.generators, gb.rows
    n = len(inputs)
    if not n:
        return []
    varset = inputs[0].varset
    out: list[ModuleElement] = []

    def standard(v: ModuleElement) -> Row:
        cofactors, r = gb.divide(v)
        if not r.is_zero():
            raise InternalCheckError("a module element left a remainder on its own Groebner basis")
        return cofactors

    def emit(acc: Row, cofactors: Row) -> None:
        for j, a in cofactors.items():
            _sub_scaled(acc, a, rows[j])
        if acc:
            out.append(ModuleElement(varset, _dense(acc, n, varset)))

    one = Polynomial.constant(varset, 1)
    for i, g in enumerate(inputs):
        emit({i: one}, standard(g))

    # pairs form only within a lead position
    for group in gb.table.by_pos.values():
        for a, (k, lk, ck) in enumerate(group):
            for l, ll, cl in group[a + 1:]:
                lcm_kl = _lcm(lk, ll)
                if any(j != k and j != l and _divides(lj, lcm_kl)
                       and _lcm(lk, lj) != lcm_kl and _lcm(ll, lj) != lcm_kl
                       for j, lj, _ in group):
                    continue
                mk = Polynomial.monomial(varset, _sub(lcm_kl, lk), exact_quotient(1, ck))
                ml = Polynomial.monomial(varset, _sub(lcm_kl, ll), exact_quotient(1, cl))
                acc = {i: mk * t for i, t in rows[k].items()}
                _sub_scaled(acc, ml, rows[l])
                emit(acc, standard(basis[k].scale_by(mk) - basis[l].scale_by(ml)))
    return out


# ---------------------------------------------------------------------------
# scene load


def reference_metric_verdicts(metric: MetricData | None, cometric, points) -> tuple[bool, bool]:
    """(metric * cometric is the identity, the cometric is positive-definite at
    every point), each decided as ``MetricData`` did before it evaluated the
    cometric first: the full polynomial matrix product, and every leading
    principal minor expanded symbolically, then evaluated."""
    entries = cometric.entries
    n = len(entries)
    identity = True
    if metric is not None:
        prod = reference_poly_mat_mul(metric.entries, entries)
        chart = cometric.chart
        identity = all(prod[i][j] == Polynomial.constant(chart, Fraction(1 if i == j else 0))
                       for i in range(n) for j in range(n))
    minors = [reference_poly_det([row[:k] for row in entries[:k]]) for k in range(1, n + 1)]
    positive = all(m.evaluate_seq(ExactPoint(pt)) > 0 for pt in points for m in minors)
    return identity, positive


def reference_candidate_points(n_vars: int) -> list[tuple[Fraction, ...]]:
    """The pool as the list ``sampling.candidate_points`` built before it
    yielded its points one at a time."""
    small = (Fraction(0), Fraction(1), Fraction(-1))
    points: list[tuple[Fraction, ...]] = []
    if 3 ** n_vars <= 800:
        points.extend(itertools.product(small, repeat=n_vars))
    else:
        rng = random.Random(20240 + n_vars)
        pool = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2)]
        seen = set()
        while len(points) < 800:
            pt = tuple(rng.choice(pool) for _ in range(n_vars))
            if pt not in seen:
                seen.add(pt)
                points.append(pt)
    rng = random.Random(977 + n_vars)
    rich = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
            Fraction(1, 2), Fraction(-1, 2), Fraction(3)]
    for _ in range(100):
        points.append(tuple(rng.choice(rich) for _ in range(n_vars)))
    return points


# ---------------------------------------------------------------------------
# products


def reference_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    """``a * b`` in its own term map: an exponent enters when a product first
    reaches it and leaves when its coefficient cancels."""
    if a.varset != b.varset:
        raise VariableSetError("variable-set mismatch")
    res: dict = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = res.get(e, 0) + c1 * c2
            if s:
                res[e] = normal_coefficient(s)
            else:
                res.pop(e, None)
    return Polynomial(a.varset, res)


def reference_sum_of_products(varset: VariableSet, plus, minus=()) -> Polynomial:
    """``sum a*b - sum c*d``, one product and one sum at a time."""
    acc = Polynomial.zero(varset)
    for a, b in plus:
        acc = acc + reference_mul(a, b)
    for c, d in minus:
        acc = acc - reference_mul(c, d)
    return acc


def reference_compose(f: Polynomial, varset_out: VariableSet, images) -> Polynomial:
    """``f.compose(varset_out, images)`` one term at a time: each term is its
    coefficient times the image powers, added to a running total."""
    one = Polynomial.constant(varset_out, 1)
    total = Polynomial.zero(varset_out)
    for e, c in f.terms.items():
        term = one.scale(c)
        for name, k in zip(f.varset.names, e):
            if k:
                term = term * images[name] ** k
        total = total + term
    return total


def reference_poly_mat_mul(a: Sequence[Sequence[Polynomial]],
                           b: Sequence[Sequence[Polynomial]]) -> list[list[Polynomial]]:
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = None
            for t in range(k):
                term = reference_mul(a[i][t], b[t][j])
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


def reference_poly_det(m: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Laplace expansion along the first row."""
    n = len(m)
    if n == 1:
        return m[0][0]
    acc = Polynomial.zero(m[0][0].varset)
    for j in range(n):
        if m[0][j].is_zero():
            continue
        minor = [[m[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = reference_mul(m[0][j], reference_poly_det(minor))
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def reference_poly_adjugate(m: Sequence[Sequence[Polynomial]]) -> list[list[Polynomial]]:
    n = len(m)
    varset = m[0][0].varset
    if n == 1:
        return [[Polynomial.constant(varset, 1)]]
    adj = [[Polynomial.zero(varset) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[m[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            cof = reference_poly_det(minor)
            adj[j][i] = cof if (i + j) % 2 == 0 else -cof
    return adj


def reference_sym_tensor_lift(s: SymTensor2) -> Polynomial:
    """sum_ij S^ij p_i p_j, one entry at a time in row order."""
    cot = s.chart.cotangent()
    acc = Polynomial.zero(cot)
    n = s.chart.dimension
    for i in range(n):
        pi = Polynomial.variable(cot, cot.fiber[i])
        for j in range(n):
            if s.entries[i][j].is_zero():
                continue
            pj = Polynomial.variable(cot, cot.fiber[j])
            acc = acc + reference_mul(reference_mul(s.entries[i][j].rename(cot), pi), pj)
    return acc


def reference_hamiltonian(m: MetricData) -> Polynomial:
    """Half the cometric lift, with the term order of :func:`reference_sym_tensor_lift`."""
    return reference_sym_tensor_lift(m.cometric).scale(Fraction(1, 2))
