"""Floating-point Hamiltonian flows with ideal-preservation monitors.

Symbolic partial derivatives are taken once and turned into straight-line
Python source, compiled with ``exec`` under the file name
``<foliatk flow kernel>``.  A polynomial becomes one sum, ``acc = 0.0 + c *
v0 ** k * ... + ...``, in term order; Python adds from the left, so this is
the order of a loop over the terms.  A sum of more than ``_SUM_CHUNK`` terms
goes on in ``acc = acc + ...`` statements, because one flat expression of a
few thousand terms exhausts the compiler's recursion limit.  The source holds
only float constants, positional local names and integer exponents, never a
name from the scene.

Only factors that are exact identities in IEEE arithmetic are left out of a
term: a ``1.0 *`` coefficient and ``** 1``.  Every ``** k`` with ``k >= 2``
stays, because C ``pow`` raises ``OverflowError`` where a product would
silently give ``inf``; the leading ``0.0 +`` stays, because it turns a
``-0.0`` first term into ``0.0``.

The rk4 step is folded where the fold is exact.  A zero ``dH/dq^j`` makes
every stage of ``p_j`` the constant ``-0.0``, and ``x + -0.0`` is ``x`` for
every ``x``, so ``p_j`` keeps its name: none of its stages, stage arguments or
next value is written, and the coordinate is *unmoved*.  A zero ``dH/dp_i``
is not folded: its stages are ``+0.0``, and ``-0.0 + 0.0`` is ``0.0``, so the
step turns a ``-0.0`` coordinate ``q^i`` into ``0.0``, and the next value
``q^i + d`` is always written.  A step therefore never folds away entirely.

A value that reads only unmoved coordinates is the same at every step, so
the fold reaches across steps: it is computed once, before the loop, from the
same floats in the same order.  Such a rate ``a{i}`` stands for all four of
its stages, and its increment ``d{i} = dt * (a + 2 * a + 2 * a + a) / 6.0``
for every step, whose update is then ``n{i} = v{i} + d{i}``.  These run under
``if steps:`` in a ``try`` of their own that returns the step overflow at
step 0, after the start sample, so a run of no steps never evaluates them and
a start that overflows there fails where the loop would have.  A generator or
energy sum of that kind keeps the value of the start sample, which ran under
its own overflow guard, and the loop does not recompute it.  The finiteness
of the unmoved coordinates is tested once, into ``fin``, which the loop's
test reads before the moved names: ``and`` of the same tests is the same
boolean, and the failing state is returned in full as before.

The energy drift is nan once any sample's ``abs(e - e0)`` is nan, and stays
nan.  It starts at ``abs(e0 - e0)``, which is ``0.0``, or nan for an
infinite or nan start energy, and the loop tests ``not t <= drift``, which
a nan passes as a larger value does; inside that rarely taken branch,
``drift == drift`` keeps a nan drift.  An energy that reads only unmoved
coordinates takes no drift in the loop: ``e`` is ``e0`` at every step, so
``abs(e - e0)`` is the start's ``abs(e0 - e0)`` throughout.

A nan generator value is not a pass.  The kernel tests ``not x <= y``,
which a nan passes as a larger value does: the start test refuses it, and in
the running maximum ``not x > y``, inside the rarely taken branch, tells it
from a larger value and returns the sample overflow (at a finite state, a
nan can only come from ``inf - inf``).

A flow run is one generated function, ``flow(v0, ..., v{2n-1}, steps,
start_tol, store_every, append)``, holding the whole loop on positional
locals: the four rk4 stages inlined, the finiteness check of the next
state, the sample of the monitored generators and the energy, the running
maxima and the decimated trace.  The step from a state is taken before the
state is sampled, so a flow that diverges reports the step that diverged, as
a stored trajectory would.  The function returns an exit code with the step
index, and the errors are raised here; ``integrate_flow`` runs the same loop
with the state itself as the sample, and no start test or maximum.
Integration is fixed-step, so monitor values are reproducible.  A flow of
more than ``MAX_FLOW_STEPS`` steps, or whose ``dt`` does not divide its
horizon into whole steps, is refused before the first step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import FlowDivergedError, PreconditionError, VariableSetError
from .geometry import MetricData, hamiltonian
from .ipoisson import IdealPresentation
from .poly import Polynomial

MAX_FLOW_STEPS = 1_000_000

# the public monitors' bound on each generator value at the start, and the
# stride of their stored trace
START_TOL = 1e-12
STORE_EVERY = 10

_KERNEL_FILE = "<foliatk flow kernel>"

# terms per sum statement; see ``_sum_lines``
_SUM_CHUNK = 64

# exit codes of the generated ``flow`` function
_DONE, _OFF_START, _STEP_OVERFLOW, _NON_FINITE, _SAMPLE_OVERFLOW = range(5)


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


def _names(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(count)]


def _tuple(names: Sequence[str]) -> str:
    return f"({', '.join(names)},)" if names else "()"


def _term(exponents: Sequence[int], c, names: Sequence[str]) -> str:
    try:
        coeff = float(c)
    except OverflowError:
        raise PreconditionError("a coefficient is too large for a float") from None
    factors = [names[i] if k == 1 else f"{names[i]} ** {k}" for i, k in enumerate(exponents) if k]
    if coeff != 1.0 or not factors:
        factors.insert(0, repr(coeff))
    return " * ".join(factors)


def _sum_lines(poly: Polynomial, target: str, names: Sequence[str],
               negate: bool = False) -> list[str]:
    """Statements leaving the value of ``poly`` (or its negation) at ``names`` in ``target``.

    The sum is ``target = 0.0 + t1 + t2 + ...`` in term order, which Python
    associates from the left; the leading ``0.0`` turns a ``-0.0`` first term
    into ``0.0``, as a loop from ``0.0`` would.  A long sum goes on in
    ``target = target + ...`` statements of at most ``_SUM_CHUNK`` terms,
    because one flat expression of a few thousand terms exhausts the
    compiler's recursion limit.  The negation is ``-(0.0 + ...)``, or
    ``target = -target`` after a chunked sum; a zero polynomial is ``0.0``
    and negated ``-0.0``.
    """
    terms = [_term(e, c, names) for e, c in poly.terms.items()]
    if not terms:
        return [f"{target} = {'-0.0' if negate else '0.0'}"]
    lines = [" + ".join([target if k else "0.0", *terms[k:k + _SUM_CHUNK]])
             for k in range(0, len(terms), _SUM_CHUNK)]
    if negate:
        if len(lines) == 1:
            lines[0] = f"-({lines[0]})"
        else:
            lines.append(f"-{target}")
    return [f"{target} = {line}" for line in lines]


def _rates(h: Polynomial) -> list[tuple[Polynomial, bool]]:
    """``(f, negate)`` per coordinate: dq^i/dt = dH/dp_i, dp_i/dt = -dH/dq^i."""
    varset = h.varset
    if not varset.has_fiber:
        raise VariableSetError("Hamiltonian must live on a cotangent chart")
    return [(h.diff(p), False) for p in varset.fiber] + [(h.diff(q), True) for q in varset.base]


def _reads(f: Polynomial) -> set[int]:
    """Indices of the variables that ``f`` reads."""
    return {j for e in f.terms for j, k in enumerate(e) if k}


def _rk4_lines(h: Polynomial, dt: float) -> tuple[list[str], list[str], list[str]]:
    """The folded rk4 step from ``v0, v1...``: the statements run once before
    the loop, the statements of each step, and the names holding the next
    state, ``n{i}``, or ``v{i}`` for a coordinate the step leaves as it is."""
    rates = _rates(h)
    width = len(rates)
    v = _names("v", width)
    # a zero dH/dq makes every stage of p -0.0, and x + -0.0 is x: p stays v
    unmoved = {i for i, (f, negate) in enumerate(rates) if negate and not f.terms}
    reads = [_reads(f) for f, _ in rates]
    # a rate reading only unmoved coordinates has the same arguments, so the
    # same value, at every stage of every step: it and its increment d{i}
    # are computed once, and b, c and d are a (a stage d{i} is written only
    # for a moving rate, so the names never meet)
    moving = [i for i in range(width) if i not in unmoved and not reads[i] <= unmoved]
    fixed = [i for i in range(width) if i not in unmoved and i not in moving]
    shifted = sorted(set().union(*(reads[i] for i in moving)) - unmoved)
    stage_args = [f"w{j}" if j in shifted else f"v{j}" for j in range(width)]

    def value(stage: str, i: int) -> str:
        return f"{stage}{i}" if i in moving else f"a{i}"

    def increment(i: int) -> str:
        return (f"{dt!r} * (a{i} + 2 * {value('b', i)} + 2 * {value('c', i)}"
                f" + {value('d', i)}) / 6.0")

    once = [s for i in fixed for s in _sum_lines(rates[i][0], f"a{i}", v, rates[i][1])]
    once += [f"d{i} = {increment(i)}" for i in fixed]
    lines = [s for i in moving for s in _sum_lines(rates[i][0], f"a{i}", v, rates[i][1])]
    for prev, stage, scale in (("a", "b", 0.5 * dt), ("b", "c", 0.5 * dt), ("c", "d", dt)):
        lines += [f"w{j} = v{j} + {scale!r} * {value(prev, j)}" for j in shifted]
        for i in moving:
            lines += _sum_lines(rates[i][0], f"{stage}{i}", stage_args, rates[i][1])
    lines += [f"n{i} = v{i} + {increment(i) if i in moving else f'd{i}'}"
              for i in range(width) if i not in unmoved]
    return once, lines, [v[i] if i in unmoved else f"n{i}" for i in range(width)]


def _sample_sums(h: Polynomial,
                 generators: Sequence[Polynomial] | None) -> list[tuple[Polynomial, str]]:
    """``(polynomial, target)`` per sampled value: the generator values in
    ``g0, g1...`` and ``h`` in ``e``, or with ``generators`` None the energy
    ``0.0`` alone."""
    if generators is None:
        return [(Polynomial.zero(h.varset), "e")]
    return [(g, f"g{j}") for j, g in enumerate(generators)] + [(h, "e")]


def _block(head: str, body: Sequence[str]) -> list[str]:
    return [head] + [f"    {s}" for s in body]


def _guarded(lines: Sequence[str], code: int, index) -> list[str]:
    """``lines`` in a ``try`` returning ``(code, index, ())`` on ``OverflowError``;
    nothing for no lines."""
    if not lines:
        return []
    return _block("try:", lines) + _block("except OverflowError:", [f"return {code}, {index}, ()"])


def _def(name: str, params: Sequence[str], body: Sequence[str]) -> str:
    return "".join(f"{s}\n" for s in _block(f"def {name}({', '.join(params)}):", body))


def _load(source: str, name: str) -> Callable:
    namespace: dict = {"isfinite": math.isfinite}
    exec(compile(source, _KERNEL_FILE, "exec"), namespace)
    return namespace[name]


def flow_source(h: Polynomial, generators: Sequence[Polynomial] | None, dt: float) -> str:
    """Source of ``flow``, the whole monitored run over steps of ``dt``.

    ``flow(v0, ..., steps, start_tol, store_every, append)`` samples the
    start, returns ``(_OFF_START, 0, values)`` unless every generator value
    is within ``start_tol`` in absolute value, and otherwise takes ``steps``
    steps.  State ``i`` is sampled after the step from it, and ``(t, values,
    energy)`` goes to ``append`` when ``store_every`` divides ``i`` and at
    the last state.  The result is ``(_DONE, steps, (max_gen, drift))``, the
    running maxima, or the exit code of the first failure with its step
    index: ``_STEP_OVERFLOW``, ``_NON_FINITE`` (with the next state as a
    list) or ``_SAMPLE_OVERFLOW``, also for a nan generator value.  With
    ``generators`` None the sample is the state itself, energy ``0.0``, and
    the maximum stays ``0.0``.

    Statements that read only unmoved coordinates (see the module docstring)
    are hoisted out of the loop, each where its first evaluation in the loop
    would fail the same way: the step's rates and increments under ``if
    steps:`` in a ``try`` returning ``(_STEP_OVERFLOW, 0, ())``, followed by
    ``fin``, the finiteness of the unmoved coordinates, which the loop tests
    first; the sums of the sample only in the start sample, with no drift
    taken in the loop for such an energy.  Every float operation that
    reaches a result, exit code, step index and returned state is as without
    the hoist.
    """
    width = h.varset.n_vars
    v = _names("v", width)
    once, step, n = _rk4_lines(h, dt)
    moved = [(a, b) for a, b in zip(n, v) if a != b]
    unmoved = [i for i, (a, b) in enumerate(zip(n, v)) if a == b]
    sums = _sample_sums(h, generators)
    values = v if generators is None else _names("g", len(generators))

    def sampled(polys) -> list[str]:
        lines = [s for f, target in polys for s in _sum_lines(f, target, v)]
        return _guarded(lines, _SAMPLE_OVERFLOW, "i")

    body = ["i = 0", *sampled(sums)]
    maxima = []
    if generators:
        off_start = " or ".join(f"not abs({name}) <= start_tol" for name in values)
        body += _block(f"if {off_start}:", [f"return {_OFF_START}, 0, {_tuple(values)}"])

        def raise_to(t: str, m: str) -> list[str]:
            # the branch is taken for a larger t and for a nan t or m
            nan = _block(f"if not {t} > {m}:", [f"return {_SAMPLE_OVERFLOW}, i, ()"])
            return _block(f"if not {t} <= {m}:", [*nan, f"{m} = {t}"])

        maxima.append(f"m = abs({values[0]})")
        for name in values[1:]:
            maxima += [f"t = abs({name})", *raise_to("t", "m")]
        maxima += raise_to("m", "max_gen")
    body += ["e0 = e", "max_gen = 0.0", "drift = abs(e0 - e0)"]
    # bound for a run of no steps, where the start takes no step but is handed on
    body += [f"{a} = {b}" for a, b in moved]
    finite = [f"isfinite({a})" for a, _ in moved]
    first = _guarded(once, _STEP_OVERFLOW, 0)
    if unmoved:
        first.append(f"fin = {' and '.join(f'isfinite(v{i})' for i in unmoved)}")
        finite.insert(0, "fin")
    if first:
        body += _block("if steps:", first)
    # a sum reading only unmoved coordinates keeps its value at the start
    moving = [(f, target) for f, target in sums if not _reads(f) <= set(unmoved)]
    drift_lines = []
    if any(target == "e" for _, target in moving):
        drift_lines = ["t = abs(e - e0)",
                       *_block("if not t <= drift:", _block("if drift == drift:", ["drift = t"]))]
    body += _block("for i in range(steps + 1):", [
        *_block("if i < steps:", [
            *_guarded(step, _STEP_OVERFLOW, "i"),
            *_block(f"if not ({' and '.join(finite)}):", [
                f"return {_NON_FINITE}, i, [{', '.join(n)}]",
            ]),
        ]),
        *sampled(moving),
        *maxima,
        *drift_lines,
        *_block("if i % store_every == 0 or i == steps:", [
            f"append((i * {dt!r}, {_tuple(values)}, e))",
        ]),
        *(f"{b} = {a}" for a, b in moved),
    ])
    body.append(f"return {_DONE}, steps, (max_gen, drift)")
    return _def("flow", [*v, "steps", "start_tol", "store_every", "append"], body)


def _vals_lines(width: int) -> list[str]:
    return [f"v{i} = vals[{i}]" for i in range(width)]


def compile_evaluator(poly: Polynomial) -> Callable[[Sequence[float]], float]:
    """The polynomial as a function of a float vector in variable order."""
    width = poly.varset.n_vars
    body = _vals_lines(width) + _sum_lines(poly, "acc", _names("v", width)) + ["return acc"]
    return _load(_def("evaluate", ["vals"], body), "evaluate")


def hamiltonian_rhs(h: Polynomial) -> Callable[[Sequence[float]], list[float]]:
    """dq^i/dt = dH/dp_i, dp_i/dt = -dH/dq^i, compiled once."""
    width = h.varset.n_vars
    body = _vals_lines(width)
    for i, (f, negate) in enumerate(_rates(h)):
        body += _sum_lines(f, f"k{i}", _names("v", width), negate)
    body.append(f"return [{', '.join(_names('k', width))}]")
    return _load(_def("rhs", ["vals"], body), "rhs")


# -- integration -------------------------------------------------------------------


def _steps(h: Polynomial, start: FlowState, t_end: float, dt: float) -> tuple[int, float]:
    """Step count and uniform step; refuses a flow longer than ``MAX_FLOW_STEPS``
    and a ``dt`` that does not divide ``t_end`` into a whole number of steps.

    ``t_end/dt`` must be within a relative 1e-9 of its nearest integer, the
    step count; the uniform step is ``t_end`` divided by it, so the horizon is
    hit exactly and a commensurable ``dt`` is used verbatim.  A horizon of 0
    takes no steps.
    """
    if not (dt > 0 and math.isfinite(dt)):
        raise PreconditionError(f"dt must be finite and positive, got {dt!r}")
    if not t_end >= 0:
        raise PreconditionError(f"t_end must be nonnegative, got {t_end!r}")
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
    steps = round(ratio)
    # a ratio that rounds to no steps is off by all of itself
    if not steps or abs(ratio - steps) > 1e-9 * ratio:
        raise PreconditionError(f"dt {dt!r} does not divide t_end {t_end!r} into whole steps")
    return steps, t_end / steps


def _monitor(generators: Sequence[Polynomial] | None, h: Polynomial, start: FlowState,
             t_end: float, dt: float, start_tol: float, store_every: int,
             precondition_label: str) -> MonitorReport:
    """Compile the ``flow`` loop, run it from ``start`` and raise its failure,
    naming how many values failed and the first, not all of them."""
    steps, dt = _steps(h, start, t_end, dt)
    flow = _load(flow_source(h, generators, dt), "flow")
    samples = []
    code, i, data = flow(*start.q, *start.p, steps, start_tol, store_every, samples.append)
    if code == _OFF_START:
        off = [j for j, v in enumerate(data) if not abs(v) <= start_tol]
        raise PreconditionError(
            f"{precondition_label}: {len(off)} of {len(data)} generator values at start are"
            f" not within start_tol = {start_tol!r}; the first is generator {off[0]},"
            f" |value| {abs(data[off[0]])!r}")
    if code == _STEP_OVERFLOW:
        raise FlowDivergedError(f"state overflowed near t={(i + 1) * dt:.6g}")
    if code == _NON_FINITE:
        bad = [j for j, v in enumerate(data) if not math.isfinite(v)]
        raise FlowDivergedError(
            f"non-finite state at t={(i + 1) * dt:.6g}: {len(bad)} of {len(data)} coordinates"
            f" are not finite; the first is coordinate {bad[0]} = {data[bad[0]]!r}")
    if code == _SAMPLE_OVERFLOW:
        raise FlowDivergedError(f"monitored value overflowed at t={i * dt:.6g}")
    return MonitorReport(tuple(samples), *data)


def integrate_flow(h: Polynomial, start: FlowState, t_end: float, dt: float) -> list[FlowState]:
    """Fixed-step trajectory of the Hamiltonian flow; aborts on non-finite state.

    The trajectory is the run of the ``flow`` loop whose sample is the state
    itself, with every sample kept; state ``i`` is at time ``start.t`` plus
    the ``i`` steps elapsed.
    """
    report = _monitor(None, h, start, t_end, dt, math.inf, 1, "")
    n = h.varset.dimension
    return [FlowState(vec[:n], vec[n:], start.t + t) for t, vec, _ in report.samples]


def monitor_ideal_preservation(ideal: IdealPresentation, h: Polynomial, start: FlowState,
                               t_end: float, dt: float) -> MonitorReport:
    """Track the ideal's generators along the flow of H from a zero-set point.

    Each generator value at the start must be within ``START_TOL``; every
    ``STORE_EVERY``-th state and the last are stored, at the time elapsed
    since the start, whatever ``start.t`` is.
    """
    if h.varset != ideal.chart:
        raise VariableSetError("Hamiltonian and ideal on different charts")
    return _monitor(ideal.generators, h, start, t_end, dt, START_TOL, STORE_EVERY,
                    "start is not on the zero set")


def geodesic_orthogonality_check(fol, metric: MetricData, start: FlowState,
                                 t_end: float, dt: float) -> MonitorReport:
    """Track the lifted generators along the geodesic flow from an orthogonal start.

    The start and the stored samples are as in
    :func:`monitor_ideal_preservation`, at the time elapsed since the start.
    """
    lifts = fol.lift_presentation
    h = hamiltonian(metric, lifts.chart)
    return _monitor(lifts.generators, h, start, t_end, dt, START_TOL, STORE_EVERY,
                    "start covector is not orthogonal to the leaf")
