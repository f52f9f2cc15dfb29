import math

import pytest

from foliatk import (
    FlowDivergedError,
    FlowState,
    FoliationModule,
    IdealPresentation,
    PreconditionError,
    VariableSet,
    geodesic_orthogonality_check,
    hamiltonian,
    hamiltonian_rhs,
    integrate_flow,
    lift_ideal,
    monitor_ideal_preservation,
)

from conftest import P, VF, euclidean

R1 = VariableSet(("q",))
R2 = VariableSet(("x", "y"))
R3 = VariableSet(("x", "y", "z"))
COT1 = R1.cotangent()
COT2 = R2.cotangent()
COT3 = R3.cotangent()


def test_free_motion_rhs():
    rhs = hamiltonian_rhs(P("1/2*p_x^2 + 1/2*p_y^2", COT2))
    assert rhs([0.0, 0.0, 2.0, -1.0]) == [2.0, -1.0, 0.0, 0.0]


def test_band_rhs_momentum_component():
    rhs = hamiltonian_rhs(P("1/2*p_x^2 + 1/2*(1+x^2)*p_y^2", COT2))
    out = rhs([2.0, 0.0, 0.0, 3.0])
    # dp_x/dt = -x p_y^2
    assert out[2] == pytest.approx(-2.0 * 9.0)


def test_shear_flow():
    h = P("x*p_y", COT2)
    traj = integrate_flow(h, FlowState((2.0, 0.0), (0.0, 1.0), 0.0), 1.0, 1e-3)
    end = traj[-1]
    assert end.q[0] == pytest.approx(2.0)
    assert end.q[1] == pytest.approx(2.0, abs=1e-12)


def test_euclidean_flow_is_straight_line():
    h = hamiltonian(euclidean(R3))
    traj = integrate_flow(h, FlowState((1.0, 0.0, 0.0), (1.0, 0.0, 1.0), 0.0), 1.0, 1e-3)
    end = traj[-1]
    assert end.q == pytest.approx((2.0, 0.0, 1.0))
    assert end.p == pytest.approx((1.0, 0.0, 1.0))


def test_harmonic_oscillator_period():
    h = P("1/2*p_q^2 + 1/2*q^2", COT1)
    # 6283 steps: a step must divide the horizon into whole steps
    traj = integrate_flow(h, FlowState((1.0,), (0.0,), 0.0), 2 * math.pi, 2 * math.pi / 6283)
    end = traj[-1]
    assert abs(end.q[0] - 1.0) < 1e-6
    assert abs(end.p[0]) < 1e-6


def test_invalid_step_rejected():
    h = P("1/2*p_q^2", COT1)
    with pytest.raises(PreconditionError):
        integrate_flow(h, FlowState((0.0,), (1.0,), 0.0), 1.0, 0.0)
    with pytest.raises(PreconditionError):
        integrate_flow(h, FlowState((0.0,), (1.0,), 0.0), -1.0, 1e-3)


@pytest.mark.parametrize("dt", [0.6, 5.0])
def test_a_step_that_does_not_divide_the_horizon_is_refused_before_the_first_step(dt):
    # 1.0/0.6 and 1.0/5 steps: rounded, they would silently change the step
    ideal, h = so3_setup()
    start = FlowState((1.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.0)
    rotation = FoliationModule(R3, (VF(R3, "-y", "x", "0"),))
    runs = [
        lambda: integrate_flow(h, start, 1.0, dt),
        lambda: monitor_ideal_preservation(ideal, h, start, 1.0, dt),
        lambda: geodesic_orthogonality_check(rotation, euclidean(R3), start, 1.0, dt),
    ]
    for run in runs:
        with pytest.raises(PreconditionError, match="does not divide t_end 1.0 into whole steps"):
            run()


def test_a_trajectory_is_timed_from_its_start():
    h = P("1/2*p_q^2 + 1/2*q^2", COT1)
    from_zero = integrate_flow(h, FlowState((1.0,), (0.0,), 0.0), 0.3, 0.1)
    from_two = integrate_flow(h, FlowState((1.0,), (0.0,), 2.0), 0.3, 0.1)
    assert [s.t for s in from_two] == [2.0 + s.t for s in from_zero]
    assert from_two[0].t == 2.0 and from_two[-1].t == pytest.approx(2.3)
    assert [(s.q, s.p) for s in from_two] == [(s.q, s.p) for s in from_zero]
    # the monitors' traces are in the time elapsed since the start
    ideal, h = so3_setup()
    report = monitor_ideal_preservation(
        ideal, h, FlowState((1.0, 0.0, 0.0), (1.0, 0.0, 0.0), 2.0), 1.0, 1e-3)
    assert report.samples[0][0] == 0.0 and report.samples[-1][0] == pytest.approx(1.0)


def test_divergence_aborts():
    # dq/dt = q^2 blows up in finite time from q=1 (H = q^2 p)
    h = P("q^2*p_q", COT1)
    with pytest.raises(FlowDivergedError):
        integrate_flow(h, FlowState((1.0,), (1.0,), 0.0), 2.0, 1e-2)


def test_energy_conservation_rk4():
    h = P("1/2*p_q^2 + 1/2*q^2 + 1/4*q^4", COT1)
    traj = integrate_flow(h, FlowState((1.0,), (0.5,), 0.0), 1.0, 1e-3)
    from foliatk.dynamics import compile_evaluator

    ev = compile_evaluator(h)
    e0 = ev(traj[0].vector())
    drift = max(abs(ev(s.vector()) - e0) for s in traj)
    assert drift <= 1e-8


def test_rk4_observed_order():
    h = P("1/2*p_q^2 + 1/2*q^2", COT1)

    def endpoint_error(dt):
        traj = integrate_flow(h, FlowState((1.0,), (0.0,), 0.0), 1.0, dt)
        end = traj[-1]
        return math.hypot(end.q[0] - math.cos(1.0), end.p[0] + math.sin(1.0))

    e_coarse = endpoint_error(2e-3)
    e_fine = endpoint_error(1e-3)
    assert e_coarse / e_fine >= 2 ** 3.8


# -- monitors --------------------------------------------------------------------


def so3_setup():
    chart = VariableSet(("q1", "q2", "q3"))
    fol = FoliationModule(chart, (
        VF(chart, "-q2", "q1", "0"),
        VF(chart, "-q3", "0", "q1"),
        VF(chart, "0", "-q3", "q2"),
    ))
    ideal = lift_ideal(fol)
    h = hamiltonian(euclidean(chart), ideal.chart)
    return ideal, h


def test_so3_radial_flow_preserves_the_ideal():
    ideal, h = so3_setup()
    report = monitor_ideal_preservation(
        ideal, h, FlowState((1.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.0), 1.0, 1e-3
    )
    assert report.max_abs_generator <= 1e-9
    assert report.energy_drift <= 1e-8
    assert report.samples[0][0] == 0.0 and report.samples[-1][0] == pytest.approx(1.0)


def test_non_normalizer_flow_grows_linearly():
    ideal = IdealPresentation(COT2, [P("x*p_x", COT2)])
    h = P("p_x", COT2)
    report = monitor_ideal_preservation(
        ideal, h, FlowState((0.0, 0.0), (1.0, 0.0), 0.0), 1.0, 1e-3
    )
    # flow x(t) = t with p_x = 1: the generator value is t
    assert report.max_abs_generator == pytest.approx(1.0, rel=1e-9)
    final_t, values, _ = report.samples[-1]
    assert values[0] == pytest.approx(final_t, rel=1e-9)


def test_hamiltonian_inside_ideal_is_stationary():
    ideal = IdealPresentation(COT2, [P("p_x^2", COT2)])
    h = P("p_x^2", COT2)
    report = monitor_ideal_preservation(
        ideal, h, FlowState((0.5, 0.0), (0.0, 1.0), 0.0), 1.0, 1e-3
    )
    assert report.max_abs_generator <= 1e-12


def test_monitor_rejects_start_off_the_zero_set():
    ideal, h = so3_setup()
    with pytest.raises(PreconditionError):
        monitor_ideal_preservation(
            ideal, h, FlowState((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), 0.0), 1.0, 1e-3
        )


def test_geodesics_stay_orthogonal_to_rotation_leaves():
    fol = FoliationModule(R3, (VF(R3, "-y", "x", "0"),))
    report = geodesic_orthogonality_check(
        fol, euclidean(R3), FlowState((1.0, 0.0, 0.0), (1.0, 0.0, 1.0), 0.0), 1.0, 1e-3
    )
    assert report.max_abs_generator <= 1e-9


def test_geometric_but_not_module_example_stays_orthogonal():
    fol = FoliationModule(R2, (VF(R2, "-(x^2+y^2)*y", "(x^2+y^2)*x"),))
    report = geodesic_orthogonality_check(
        fol, euclidean(R2), FlowState((1.0, 0.0), (1.0, 0.0), 0.0), 1.0, 1e-3
    )
    assert report.max_abs_generator <= 1e-6


def test_geodesic_check_rejects_non_orthogonal_start():
    fol = FoliationModule(R2, (VF(R2, "-y", "x"),))
    with pytest.raises(PreconditionError):
        geodesic_orthogonality_check(
            fol, euclidean(R2), FlowState((1.0, 0.0), (0.0, 1.0), 0.0), 1.0, 1e-3
        )


def test_normalizer_members_preserve_zero_sets():
    # whenever normalizer_check(I, H) passes and the start is on the zero set,
    # the monitored generator values stay small on every shipped example
    from foliatk import FoliationModule, normalizer_check

    cases = []
    ideal, h = so3_setup()
    cases.append((ideal, h, FlowState((1.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.0)))
    rot = FoliationModule(R3, (VF(R3, "-y", "x", "0"),))
    rot_ideal = lift_ideal(rot)
    cases.append((rot_ideal, hamiltonian(euclidean(R3), rot_ideal.chart),
                  FlowState((1.0, 0.0, 0.0), (1.0, 0.0, 1.0), 0.0)))
    band_chart = R2
    band = FoliationModule(band_chart, (VF(band_chart, "1", "0"), VF(band_chart, "0", "1")))
    band_ideal = lift_ideal(band)
    from foliatk import MetricData, SymTensor2
    from conftest import matrix

    band_metric = MetricData(SymTensor2(
        band_chart, "contravariant", matrix(band_chart, [["1", "0"], ["0", "1 + x^2"]])
    ))
    cases.append((band_ideal, hamiltonian(band_metric, band_ideal.chart),
                  FlowState((0.5, 0.0), (0.0, 0.0), 0.0)))
    for ideal, h, start in cases:
        assert normalizer_check(ideal, h).passed
        report = monitor_ideal_preservation(ideal, h, start, 1.0, 1e-3)
        assert report.max_abs_generator <= 1e-6


def test_trace_is_decimated():
    ideal, h = so3_setup()
    report = monitor_ideal_preservation(
        ideal, h, FlowState((1.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.0), 1.0, 1e-3
    )
    assert len(report.samples) == 101  # every 10th of 1000 steps, endpoints included
