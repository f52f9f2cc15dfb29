"""Floating-point Hamiltonian flows with ideal-preservation monitors.

Symbolic partial derivatives are taken once and turned into straight-line
Python source, compiled with ``exec`` under the file name
``<foliatk flow kernel>``.  A polynomial becomes ``acc = 0.0`` and then one
``acc += c * v0 ** k * ...`` statement per term, in term order, with every
nonzero exponent written as ``** k`` (C ``pow``, which raises
``OverflowError`` on overflow).  One statement per term keeps a large
polynomial within the parser's nesting limit.  The source holds only float
constants, positional local names and integer exponents, never a name from
the scene.

A flow compiles to one kernel: ``step(v0, ..., v{2n-1})`` returns the next
state with the four rk4 stages inlined (or the leapfrog half-steps, for a
separable Hamiltonian), and ``sample(...)`` returns the monitored generator
values and the energy.  Integration is fixed-step, so monitor values are
reproducible.  The monitors stream the trajectory: each state is sampled as
soon as it is reached, the running maxima are updated and only a decimated
trace is kept.  A flow of more than ``MAX_FLOW_STEPS`` steps is refused
before the first step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import FlowDivergedError, PreconditionError, VariableSetError
from .geometry import MetricData, cotangent_lift, hamiltonian
from .ipoisson import IdealPresentation
from .poly import Polynomial

MAX_FLOW_STEPS = 1_000_000

_KERNEL_FILE = "<foliatk flow kernel>"


@dataclass(frozen=True)
class FlowState:
    q: tuple[float, ...]
    p: tuple[float, ...]
    t: float

    def vector(self) -> list[float]:
        return list(self.q) + list(self.p)


@dataclass(frozen=True)
class MonitorReport:
    """Decimated trace plus worst-case generator value and energy drift."""

    samples: tuple[tuple[float, tuple[float, ...], float], ...]
    max_abs_generator: float
    energy_drift: float


# -- source generation -----------------------------------------------------------


def _names(prefix: str, count: int, first: int = 0) -> list[str]:
    return [f"{prefix}{i}" for i in range(first, first + count)]


def _tuple(names: Sequence[str]) -> str:
    return f"({', '.join(names)},)" if names else "()"


def _sum_lines(poly: Polynomial, target: str, names: Sequence[str]) -> list[str]:
    """Statements leaving the value of ``poly`` at ``names`` in ``target``."""
    lines = [f"{target} = 0.0"]
    for e, c in poly.terms.items():
        try:
            coeff = float(c)
        except OverflowError:
            raise PreconditionError("a coefficient is too large for a float") from None
        powers = "".join(f" * {names[i]} ** {k}" for i, k in enumerate(e) if k)
        lines.append(f"{target} += {coeff!r}{powers}")
    return lines


def _partials(h: Polynomial) -> tuple[list[Polynomial], list[Polynomial]]:
    """dH/dp_i and dH/dq^i, in chart order."""
    varset = h.varset
    if not varset.has_fiber:
        raise VariableSetError("Hamiltonian must live on a cotangent chart")
    return [h.diff(p) for p in varset.fiber], [h.diff(q) for q in varset.base]


def _rhs_lines(dh_dp, dh_dq, names: Sequence[str], out: str) -> list[str]:
    """Statements leaving dq^i/dt = dH/dp_i, dp_i/dt = -dH/dq^i in ``out0``, ``out1``..."""
    lines = []
    for i, f in enumerate(dh_dp):
        lines += _sum_lines(f, f"{out}{i}", names)
    for i, f in enumerate(dh_dq, len(dh_dp)):
        lines += _sum_lines(f, f"{out}{i}", names)
        lines.append(f"{out}{i} = -{out}{i}")
    return lines


def _rk4_lines(dh_dp, dh_dq, dt: float) -> list[str]:
    width = len(dh_dp) + len(dh_dq)
    v, w = _names("v", width), _names("w", width)
    half = repr(0.5 * dt)
    lines = _rhs_lines(dh_dp, dh_dq, v, "a")
    for prev, stage, scale in (("a", "b", half), ("b", "c", half), ("c", "d", repr(dt))):
        lines += [f"w{i} = v{i} + {scale} * {prev}{i}" for i in range(width)]
        lines += _rhs_lines(dh_dp, dh_dq, w, stage)
    update = [f"v{i} + {dt!r} * (a{i} + 2 * b{i} + 2 * c{i} + d{i}) / 6.0" for i in range(width)]
    return lines + [f"return {_tuple(update)}"]


def _leapfrog_lines(dh_dp, dh_dq, dt: float) -> list[str]:
    n = len(dh_dp)
    q, p = _names("v", n), _names("v", n, n)
    p_half, q_new, p_new = _names("ph", n), _names("qn", n), _names("pn", n)
    half = repr(0.5 * dt)
    lines = []
    for i, f in enumerate(dh_dq):
        lines += _sum_lines(f, f"s{i}", q + p)
    lines += [f"{p_half[i]} = {p[i]} - {half} * s{i}" for i in range(n)]
    for i, f in enumerate(dh_dp):
        lines += _sum_lines(f, f"s{i}", q + p_half)
    lines += [f"{q_new[i]} = {q[i]} + {dt!r} * s{i}" for i in range(n)]
    for i, f in enumerate(dh_dq):
        lines += _sum_lines(f, f"s{i}", q_new + p_half)
    lines += [f"{p_new[i]} = {p_half[i]} - {half} * s{i}" for i in range(n)]
    return lines + [f"return {_tuple(q_new + p_new)}"]


def _def(name: str, params: Sequence[str], body: Sequence[str]) -> str:
    return "".join([f"def {name}({', '.join(params)}):\n"] + [f"    {s}\n" for s in body])


def _load(source: str, *names: str) -> tuple[Callable, ...]:
    namespace: dict = {}
    exec(compile(source, _KERNEL_FILE, "exec"), namespace)
    return tuple(namespace[name] for name in names)


def kernel_source(h: Polynomial, generators: Sequence[Polynomial], dt: float,
                  method: str = "rk4") -> str:
    """Source of the flow kernel: ``step`` over ``dt``, and ``sample``.

    ``sample`` returns the values of ``generators`` and of ``h``; both
    functions take the state as positional floats ``q`` then ``p``.
    """
    dh_dp, dh_dq = _partials(h)
    if method == "rk4":
        step = _rk4_lines(dh_dp, dh_dq, dt)
    elif method == "leapfrog":
        if not _is_separable(h):
            raise PreconditionError("leapfrog needs a separable Hamiltonian T(p) + V(q)")
        step = _leapfrog_lines(dh_dp, dh_dq, dt)
    else:
        raise PreconditionError(f"unknown integration method {method!r}")
    v = _names("v", h.varset.n_vars)
    sample = []
    for j, g in enumerate(generators):
        sample += _sum_lines(g, f"g{j}", v)
    sample += _sum_lines(h, "e", v)
    sample.append(f"return {_tuple(_names('g', len(generators)))}, e")
    return _def("step", v, step) + _def("sample", v, sample)


def compile_kernel(h: Polynomial, generators: Sequence[Polynomial], dt: float,
                   method: str = "rk4") -> tuple[Callable, Callable]:
    """``(step, sample)`` compiled from :func:`kernel_source`."""
    return _load(kernel_source(h, generators, dt, method), "step", "sample")


def _vals_lines(width: int) -> list[str]:
    return [f"v{i} = vals[{i}]" for i in range(width)]


def compile_evaluator(poly: Polynomial) -> Callable[[Sequence[float]], float]:
    """The polynomial as a function of a float vector in variable order."""
    width = poly.varset.n_vars
    body = _vals_lines(width) + _sum_lines(poly, "acc", _names("v", width)) + ["return acc"]
    return _load(_def("evaluate", ["vals"], body), "evaluate")[0]


def hamiltonian_rhs(h: Polynomial) -> Callable[[Sequence[float]], list[float]]:
    """dq^i/dt = dH/dp_i, dp_i/dt = -dH/dq^i, compiled once."""
    width = h.varset.n_vars
    body = _vals_lines(width) + _rhs_lines(*_partials(h), _names("v", width), "k")
    body.append(f"return [{', '.join(_names('k', width))}]")
    return _load(_def("rhs", ["vals"], body), "rhs")[0]


# -- integration -------------------------------------------------------------------


def _is_separable(h: Polynomial) -> bool:
    n = h.varset.dimension
    for e in h.terms:
        if any(e[:n]) and any(e[n:]):
            return False
    return True


def _steps(h: Polynomial, start: FlowState, t_end: float, dt: float) -> tuple[int, float]:
    """Step count and uniform step; refuses a flow longer than ``MAX_FLOW_STEPS``.

    The horizon is hit exactly: the step count is the nearest integer to
    ``t_end/dt`` and the uniform step is ``t_end`` divided by it, so a
    commensurable ``dt`` is used verbatim.
    """
    if not (dt > 0 and math.isfinite(dt)):
        raise PreconditionError("dt must be finite and positive")
    if not t_end >= 0:
        raise PreconditionError("t_end must be nonnegative")
    n = h.varset.dimension
    if len(start.q) != n or len(start.p) != n:
        raise PreconditionError("start state has the wrong dimension")
    ratio = t_end / dt
    if not ratio < MAX_FLOW_STEPS + 0.5:
        raise PreconditionError(
            f"t_end/dt = {ratio:.6g} steps, more than MAX_FLOW_STEPS = {MAX_FLOW_STEPS}"
        )
    if t_end == 0:
        return 0, dt
    steps = max(1, round(ratio))
    return steps, t_end / steps


def _stream(
    step: Callable,
    sample: Callable,
    start: FlowState,
    steps: int,
    dt: float,
    start_tol: float,
    store_every: int,
    precondition_label: str,
) -> MonitorReport:
    """Sample each state as soon as ``step`` reaches it; aborts on non-finite state.

    The start must sample within ``start_tol`` of zero.  Only every
    ``store_every``-th sample and the last one are kept.  The step from a
    state is taken before the state is sampled, so a flow that diverges
    reports the step that diverged, as a stored trajectory would.
    """
    isfinite = math.isfinite
    vec = tuple(start.q) + tuple(start.p)
    max_gen = 0.0
    drift = 0.0
    samples = []
    i = 0
    try:
        values, e0 = sample(*vec)
        initial = [abs(v) for v in values]
        if any(v > start_tol for v in initial):
            raise PreconditionError(
                f"{precondition_label}: generator values at start are {initial}"
            )
        nxt = vec
        for i in range(steps + 1):
            if i < steps:
                try:
                    nxt = step(*vec)
                except OverflowError:
                    raise FlowDivergedError(
                        f"state overflowed near t={(i + 1) * dt:.6g}"
                    ) from None
                if not all(map(isfinite, nxt)):
                    raise FlowDivergedError(
                        f"non-finite state at t={(i + 1) * dt:.6g}: {list(nxt)}"
                    )
            values, energy = sample(*vec)
            max_gen = max(max_gen, max(map(abs, values), default=0.0))
            drift = max(drift, abs(energy - e0))
            if i % store_every == 0 or i == steps:
                samples.append((i * dt, values, energy))
            vec = nxt
    except OverflowError:
        raise FlowDivergedError(f"monitored value overflowed at t={i * dt:.6g}") from None
    return MonitorReport(tuple(samples), max_gen, drift)


def integrate_flow(
    h: Polynomial,
    start: FlowState,
    t_end: float,
    dt: float,
    method: str = "rk4",
) -> list[FlowState]:
    """Fixed-step trajectory of the Hamiltonian flow; aborts on non-finite state.

    The trajectory is the stream of a monitor whose sample is the state
    itself, with every sample kept.
    """
    steps, dt = _steps(h, start, t_end, dt)
    step, _ = compile_kernel(h, (), dt, method)
    report = _stream(step, lambda *vec: (vec, 0.0), start, steps, dt, math.inf, 1, "")
    n = h.varset.dimension
    return [FlowState(vec[:n], vec[n:], t) for t, vec, _ in report.samples]


def _monitor(
    generators: Sequence[Polynomial],
    h: Polynomial,
    start: FlowState,
    t_end: float,
    dt: float,
    start_tol: float,
    store_every: int,
    precondition_label: str,
) -> MonitorReport:
    steps, dt = _steps(h, start, t_end, dt)
    step, sample = compile_kernel(h, generators, dt)
    return _stream(step, sample, start, steps, dt, start_tol, store_every, precondition_label)


def monitor_ideal_preservation(
    ideal: IdealPresentation,
    h: Polynomial,
    start: FlowState,
    t_end: float,
    dt: float,
    *,
    start_tol: float = 1e-12,
    store_every: int = 10,
) -> MonitorReport:
    """Track the ideal's generators along the flow of H from a zero-set point."""
    if h.varset != ideal.chart:
        raise VariableSetError("Hamiltonian and ideal on different charts")
    return _monitor(
        ideal.generators, h, start, t_end, dt, start_tol, store_every,
        "start is not on the zero set",
    )


def geodesic_orthogonality_check(
    fol,
    metric: MetricData,
    start: FlowState,
    t_end: float,
    dt: float,
    *,
    start_tol: float = 1e-12,
    store_every: int = 10,
) -> MonitorReport:
    """Track the lifted generators along the geodesic flow from an orthogonal start."""
    cot = fol.chart.cotangent()
    lifts = [cotangent_lift(g, cot) for g in fol.generators]
    h = hamiltonian(metric, cot)
    return _monitor(
        lifts, h, start, t_end, dt, start_tol, store_every,
        "start covector is not orthogonal to the leaf",
    )
