"""RK4 oracle: stepping, jumps and convergence order."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from impulsive_logistic import (
    CoefficientPair,
    ConstantCoefficient,
    IntegrationError,
    ModelParams,
    PiecewiseConstantCoefficient,
    SinusoidCoefficient,
    StepControl,
    integrate,
    period_table,
    solution_grid,
)
from impulsive_logistic.integrator import _step_offsets

from helpers import (
    LN2,
    chained_flow,
    golden_params,
    logistic_flow,
    random_params,
    samples,
    scalar_rk4,
)


# ---------------------------------------------------------------------------
# step control
# ---------------------------------------------------------------------------


def test_step_must_divide_the_unit_interval():
    assert StepControl(h=1.0 / 256.0).steps_per_unit == 256
    assert StepControl(h=1.0 / 3.0).steps_per_unit == 3
    with pytest.raises(ValueError, match="whole"):
        StepControl(h=0.3)
    with pytest.raises(ValueError, match="positive"):
        StepControl(h=-0.1)
    with pytest.raises(ValueError, match="error_target"):
        StepControl(h=0.25, error_target=0.0)
    for h in (5e-324, 1e-310):  # 1/h overflows
        with pytest.raises(ValueError, match="too small"):
            StepControl(h=h)


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------


def test_equilibrium_is_preserved():
    traj = integrate(golden_params(E=0.0), 100.0, 5, StepControl(h=1.0 / 64.0))
    _, values = samples(traj)
    assert np.all(np.abs(np.asarray(values) - 100.0) < 1e-11)
    assert traj.events != () and all(e.pre_value == e.post_value for e in traj.events)


def test_one_period_matches_exact_flow():
    traj = integrate(golden_params(E=0.0), 50.0, 1, StepControl(h=1.0 / 256.0))
    assert traj.events[0].pre_value == pytest.approx(200.0 / 3.0, abs=1e-8)


def test_impulse_event_values():
    traj = integrate(golden_params(), 50.0, 3, StepControl(h=1.0 / 256.0))
    assert [e.index for e in traj.events] == [1, 2, 3]
    for e in traj.events:
        assert e.pre_value == pytest.approx(200.0 / 3.0, rel=1e-9)
        # the jump is applied algebraically, so this holds bit for bit
        assert e.post_value == 0.75 * e.pre_value


def test_fourth_order_convergence():
    p = golden_params(E=0.0)
    errors = []
    for n in (32, 64):
        traj = integrate(p, 37.0, 1, StepControl(h=1.0 / n))
        exact = logistic_flow(LN2, 100.0, 37.0, 1.0)
        errors.append(abs(traj.events[0].pre_value - exact))
    assert errors[0] / errors[1] >= 12.0


def test_agrees_with_chained_flow_over_ten_periods():
    p = golden_params()
    traj = integrate(p, 37.0, 10, StepControl(h=1.0 / 256.0))
    worst = 0.0
    for t, v in zip(*samples(traj)):
        ref = chained_flow(LN2, 100.0, 0.25, 0.5, 37.0, t)
        worst = max(worst, abs(v - ref) / ref)
    for e in traj.events:
        ref_pre = chained_flow(LN2, 100.0, 0.25, 0.5, 37.0, p.t0 + e.index) / 0.75
        worst = max(worst, abs(e.pre_value - ref_pre) / ref_pre)
    assert worst <= 1e-8


def test_positivity_is_preserved():
    rng = np.random.default_rng(53)
    for i in range(6):
        p = random_params(rng, index=i)
        k_max = max(p.K(float(t)) for t in np.linspace(0.0, 1.0, 65))
        x0 = float(rng.uniform(1e-3, 2.0 * k_max))
        traj = integrate(p, x0, 3, StepControl(h=1.0 / 64.0))
        assert all(v > 0.0 for v in samples(traj)[1])


def test_validation_errors():
    p = golden_params()
    with pytest.raises(ValueError, match="x0"):
        integrate(p, 0.0, 3)
    for periods in (0, 2.5, True):
        with pytest.raises(ValueError, match="periods"):
            integrate(p, 50.0, periods)


def test_error_target_diagnostic():
    p = golden_params()
    traj = integrate(p, 50.0, 2, StepControl(h=1.0 / 64.0, error_target=1e-8))
    assert traj.step_error_estimate is not None
    assert 0.0 < traj.step_error_estimate < 1e-8
    with pytest.raises(IntegrationError, match="error"):
        integrate(p, 50.0, 2, StepControl(h=1.0 / 4.0, error_target=1e-14))


def test_trajectory_times_strictly_increase():
    traj = integrate(golden_params(), 50.0, 4, StepControl(h=1.0 / 32.0))
    times, _ = samples(traj)
    assert np.all(np.diff(times) > 0.0)
    assert times[0] == 0.5 and times[-1] == 4.5
    # every period samples the same offsets
    assert all(piece.offsets is traj.pieces[0].offsets for piece in traj.pieces[:-1])


def test_steps_split_at_coefficient_jumps():
    # t0 = 0.4 puts the integer-time jumps of a piecewise rate strictly
    # inside the base grid, so extra boundaries must appear there.
    pair = CoefficientPair(
        r=PiecewiseConstantCoefficient(breakpoints=(0.0, 0.5, 1.0), values=(0.6, 1.2)),
        K=ConstantCoefficient(100.0),
    )
    p = ModelParams(pair=pair, E=0.2, t0=0.4)
    traj = integrate(p, 60.0, 1, StepControl(h=1.0 / 8.0))
    times = p.t0 + traj.pieces[0].offsets
    for cut in (0.5, 1.0):
        assert np.any(np.abs(times - cut) < 1e-12)


def test_coefficient_jump_coinciding_with_impulse_instants():
    # r jumps at every half-integer and integer; with t0 = 0.5 one jump
    # family lands exactly on the impulse instants.
    pair = CoefficientPair(
        r=PiecewiseConstantCoefficient(breakpoints=(0.0, 0.5, 1.0), values=(0.6, 1.2)),
        K=ConstantCoefficient(100.0),
    )
    p = ModelParams(pair=pair, E=0.25, t0=0.5)
    traj = integrate(p, 40.0, 3, StepControl(h=1.0 / 128.0))
    table = period_table(p, traj.pieces[0].offsets)
    for piece in traj.pieces:
        closed = solution_grid(p, 40.0, [piece.segment], table)[0, : piece.offsets.size]
        # a piece's last sample is the pre-impulse value, offset 1 of its period
        np.testing.assert_allclose(piece.values, closed, rtol=1e-10)


def test_trajectory_arrays_are_read_only():
    traj = integrate(golden_params(), 50.0, 1, StepControl(h=1.0 / 16.0))
    with pytest.raises(ValueError):
        traj.pieces[0].values[0] = -1.0
    with pytest.raises(ValueError):
        traj.pieces[0].offsets[0] = -1.0


def test_horizon_ending_exactly_on_an_impulse():
    traj = integrate(golden_params(), 50.0, 2, StepControl(h=1.0 / 16.0))
    assert len(traj.events) == 2
    # the run closes with the post-impulse value at offset 0 of period 2
    last = traj.pieces[-1]
    assert last.segment == 2 and last.offsets.tolist() == [0.0]
    assert last.values.tolist() == [traj.events[-1].post_value]


@pytest.mark.parametrize(
    "breaks, start, end, n, expected",
    [
        # jumps on grid points add nothing
        ((0.0, 0.5), 0.25, 1.25, 4, [0.25, 0.5, 0.75, 1.0, 1.25]),
        # an off-grid jump is inserted; its translate 1.0 sits on the grid
        ((0.0, 0.3), 0.25, 1.25, 4, [0.25, 0.3, 0.5, 0.75, 1.0, 1.25]),
        # a later start: every jump of the period is inserted, in order
        ((0.0, 0.3, 0.8), 2.25, 3.25, 4, [2.25, 2.3, 2.5, 2.75, 2.8, 3.0, 3.25]),
        # within 1e-12 of a grid point: no sliver step
        ((0.5 + 5e-13,), 0.25, 1.25, 4, [0.25, 0.5, 0.75, 1.0, 1.25]),
        # breakpoints in [0, 1) translate to the period from t0 = start
        ((0.0, 0.625), 3.125, 4.125, 2, [3.125, 3.625, 4.0, 4.125]),
    ],
)
def test_step_bounds_insert_off_grid_jumps(breaks, start, end, n, expected):
    phase = start - math.floor(start)
    cuts = tuple(sorted((b - phase) % 1.0 for b in breaks))
    times = [start + s for s in _step_offsets(n, cuts)]
    assert times == expected and times[-1] == end


# ---------------------------------------------------------------------------
# the stage-table stepper against the scalar reference, bit for bit
# ---------------------------------------------------------------------------


def _coefficients(low: float, high: float):
    constant = st.floats(low, high).map(ConstantCoefficient)
    sinusoid = st.builds(
        lambda mean, frac, phase: SinusoidCoefficient(mean=mean, amp=frac * mean, phase=phase),
        st.floats(low, high),
        st.floats(-0.9, 0.9),
        st.floats(0.0, 2.0 * math.pi),
    )
    # jumps on the dyadic grid and off it
    jump = st.one_of(st.integers(1, 63).map(lambda i: i / 64.0), st.floats(0.001, 0.999))
    piecewise = st.lists(jump, min_size=1, max_size=3, unique=True).flatmap(
        lambda cuts: st.builds(
            PiecewiseConstantCoefficient,
            st.just((0.0, *sorted(cuts), 1.0)),
            st.tuples(*[st.floats(low, high)] * (len(cuts) + 1)),
        )
    )
    return st.one_of(constant, sinusoid, piecewise)


@st.composite
def _runs(draw):
    pair = CoefficientPair(r=draw(_coefficients(0.2, 3.0)), K=draw(_coefficients(10.0, 500.0)))
    e_crit = 1.0 - math.exp(-pair.r.integral(0.0, 1.0))
    # t0 below the step (stage time ta + h differs from the next bound),
    # ordinary, and large with a phase that is not dyadic
    t0 = draw(st.one_of(st.just(1e-3), st.floats(0.05, 3.0), st.floats(1e5, 1e7)))
    params = ModelParams(pair=pair, E=draw(st.floats(0.0, 0.95)) * e_crit, t0=t0)
    ctrl = StepControl(
        h=2.0 ** -draw(st.integers(0, 8)),
        error_target=draw(st.sampled_from([None, 1e-3, 1e-10])),
    )
    return params, draw(st.floats(1.0, 1000.0)), draw(st.integers(1, 3)), ctrl


def _one_step_past_a_jump(t0: float, cut: float, error_target: float | None):
    """One step per unit from a small t0 to a jump of K.  In the examples
    below the stage time ta + h lands one ulp past the jump, or the half
    steps' end tm + 0.5*h one ulp short of ta + h."""
    pair = CoefficientPair(
        r=SinusoidCoefficient(mean=1.0, amp=0.5, phase=0.3),
        K=PiecewiseConstantCoefficient(breakpoints=(0.0, cut, 1.0), values=(100.0, 150.0)),
    )
    ctrl = StepControl(h=1.0, error_target=error_target)
    return ModelParams(pair=pair, E=0.2, t0=t0), 30.0, 1, ctrl


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(run=_runs())
@example(run=_one_step_past_a_jump(0.2652284551781802, 0.8980443450745145, None))
@example(run=_one_step_past_a_jump(0.011791280347440668, 0.8533712351972526, 1.0))
def test_stage_table_stepper_matches_scalar_rk4_bit_for_bit(run):
    params, x0, periods, ctrl = run
    try:
        ref = scalar_rk4(params, x0, periods, ctrl.h, ctrl.error_target)
    except IntegrationError as exc:
        with pytest.raises(IntegrationError) as got:
            integrate(params, x0, periods, ctrl)
        assert str(got.value) == str(exc)
        return
    traj = integrate(params, x0, periods, ctrl)
    assert len(traj.pieces) == len(ref.offsets)
    for piece, offsets, values in zip(traj.pieces, ref.offsets, ref.values):
        assert np.array_equal(piece.offsets, offsets)
        assert np.array_equal(piece.values, values)
    assert [(e.index, e.pre_value, e.post_value) for e in traj.events] == ref.events
    assert traj.step_error_estimate == ref.step_error_estimate
