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
bracket class against the frame, zero or not.

Flows: the closure interpreter and the stored-trajectory rk4, leapfrog and
monitor loops that the generated flow kernels replaced.  They perform the
same float operations in the same order, so the kernels must agree with them
exactly.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Sequence

from foliatk.dynamics import FlowState, MonitorReport
from foliatk.errors import AmbiguousQuotientError, FlowDivergedError, PreconditionError
from foliatk.foliation import FoliationModule, PointReport, _as_point, _combine
from foliatk.geometry import MetricData, VectorField, lie_bracket
from foliatk.groebner import ModuleElement, module_divide, module_groebner
from foliatk.ipoisson import _fiber_linear_to_field, srf_check
from foliatk.linalg import (CoordinateFrame, EchelonSpan, nullspace, poly_adjugate,
                            poly_det, solve_coordinates)
from foliatk.poly import BLOCK, GREVLEX, ExactPoint, Polynomial
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


# -- isotropy reference --------------------------------------------------------


def _dense_values(element: ModuleElement, exact: ExactPoint) -> tuple[Fraction, ...]:
    return tuple(c.evaluate_seq(exact) for c in element.components)


def reference_isotropy_algebra(fol: FoliationModule, point: Sequence) -> PointReport:
    """Kernel of evaluation inside the fiber, with every bracket class solved."""
    pt = _as_point(fol.chart, point)
    exact = ExactPoint(pt)
    big_n = fol.n_generators

    syz_span = EchelonSpan(big_n)
    for s in fol.syzygies:
        syz_span.insert(_dense_values(s, exact))
    fdim = big_n - syz_span.rank

    values = [_dense_values(g, exact) for g in fol.generators]
    kernel = nullspace(list(zip(*values)), big_n)
    tdim = big_n - len(kernel)

    selection = EchelonSpan(big_n)
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

    frame = CoordinateFrame(syz_span.rows + basis, big_n)
    consts = [[[Fraction(0)] * idim for _ in range(idim)] for _ in range(idim)]
    reps = [_combine(fol, b) for b in basis]
    gb = fol.module_gb
    for u in range(idim):
        for v in range(u + 1, idim):
            bracket = lie_bracket(reps[u], reps[v])
            cofactors, remainder = module_divide(bracket, gb.generators, gb.order)
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
            coords = solve_coordinates(frame, w)
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
        det = poly_det(metric.cometric.entries)
        adj = poly_adjugate(metric.cometric.entries)
        g_rat = [[RationalFunction(adj[i][j], det) for j in range(n)] for i in range(n)]
    n_gen = fol.n_generators
    omega = []
    for a in range(n_gen):
        row = []
        for b in range(n_gen):
            field = _fiber_linear_to_field(result.lam[a][b], chart)
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
