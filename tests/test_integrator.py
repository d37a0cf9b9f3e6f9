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
    derive_constants,
    integrate,
    period_table,
    solution_grid,
)

from helpers import (
    LN2,
    chained_flow,
    golden_params,
    logistic_flow,
    random_params,
    reference_integral,
    reference_value,
    samples,
    scalar_rk4,
)


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------


def _jumps(traj) -> list[tuple[float, float]]:
    """(pre, post) at each impulse: one row's last value, the next one's first
    (the end's, at the last)."""
    return list(zip(traj.values[:, -1].tolist(), [*traj.values[1:, 0].tolist(), traj.end]))


def test_equilibrium_is_preserved():
    traj = integrate(golden_params(E=0.0), 100.0, 5, 64)
    _, values = samples(traj)
    assert np.all(np.abs(np.asarray(values) - 100.0) < 1e-11)
    assert len(_jumps(traj)) == 5 and all(pre == post for pre, post in _jumps(traj))


def test_one_period_matches_exact_flow():
    traj = integrate(golden_params(E=0.0), 50.0, 1, 256)
    assert traj.values[0, -1] == pytest.approx(200.0 / 3.0, abs=1e-8)


def test_impulse_event_values():
    traj = integrate(golden_params(), 50.0, 3, 256)
    assert traj.values.shape == (3, traj.offsets.size)
    for pre, post in _jumps(traj):
        assert pre == pytest.approx(200.0 / 3.0, rel=1e-9)
        # the jump is applied algebraically, so this holds bit for bit
        assert post == 0.75 * pre


def test_fourth_order_convergence():
    p = golden_params(E=0.0)
    errors = []
    for n in (32, 64):
        traj = integrate(p, 37.0, 1, n)
        exact = logistic_flow(LN2, 100.0, 37.0, 1.0)
        errors.append(abs(traj.values[0, -1] - exact))
    assert errors[0] / errors[1] >= 12.0


def test_agrees_with_chained_flow_over_ten_periods():
    p = golden_params()
    traj = integrate(p, 37.0, 10, 256)
    worst = 0.0
    for t, v in zip(*samples(traj)):
        ref = chained_flow(LN2, 100.0, 0.25, 0.5, 37.0, t)
        worst = max(worst, abs(v - ref) / ref)
    for k, (pre, _) in enumerate(_jumps(traj), start=1):
        ref_pre = chained_flow(LN2, 100.0, 0.25, 0.5, 37.0, p.t0 + k) / 0.75
        worst = max(worst, abs(pre - ref_pre) / ref_pre)
    assert worst <= 1e-8


def test_positivity_is_preserved():
    rng = np.random.default_rng(53)
    for i in range(6):
        p = random_params(rng, index=i)
        k_max = max(reference_value(p.pair.K, float(t)) for t in np.linspace(0.0, 1.0, 65))
        x0 = float(rng.uniform(1e-3, 2.0 * k_max))
        traj = integrate(p, x0, 3, 64)
        assert all(v > 0.0 for v in samples(traj)[1])


def test_validation_errors():
    p = golden_params()
    with pytest.raises(ValueError, match="x0"):
        integrate(p, 0.0, 3)
    for periods in (0, 2.5, True):
        with pytest.raises(ValueError, match="periods"):
            integrate(p, 50.0, periods)
    for steps in (0, -4, 1.0 / 256.0, 256.0, True):
        with pytest.raises(ValueError, match="steps_per_unit must be a positive whole number"):
            integrate(p, 50.0, 3, steps)


def test_trajectory_times_strictly_increase():
    traj = integrate(golden_params(), 50.0, 4, 32)
    times, _ = samples(traj)
    assert np.all(np.diff(times) > 0.0)
    assert times[0] == 0.5 and times[-1] == 4.5


def test_steps_split_at_coefficient_jumps():
    # t0 = 0.4 puts the integer-time jumps of a piecewise rate strictly
    # inside the base grid, so extra boundaries must appear there.
    pair = CoefficientPair(
        r=PiecewiseConstantCoefficient(breakpoints=(0.0, 0.5, 1.0), values=(0.6, 1.2)),
        K=ConstantCoefficient(100.0),
    )
    p = ModelParams(pair=pair, E=0.2, t0=0.4)
    traj = integrate(p, 60.0, 1, 8)
    times = p.t0 + traj.offsets
    for cut in (0.5, 1.0):
        assert np.any(np.abs(times - cut) < 1e-12)


def test_pieces_count_the_steps_of_the_run():
    # perfbench/tracer.py counts RK4 steps as below.  From t0 = 0.4, K's jumps
    # at 0.0, 0.3 and 0.9 lie at offsets 0.6, 0.9 and 0.5: the first two fall
    # off the grid of 8 steps per unit and add steps
    pair = CoefficientPair(
        r=ConstantCoefficient(1.0),
        K=PiecewiseConstantCoefficient((0.0, 0.3, 0.9, 1.0), (80.0, 120.0, 100.0)),
    )
    traj = integrate(ModelParams(pair=pair, E=0.2, t0=0.4), 60.0, 3, 8)
    assert traj.offsets.size == 9 + 2
    steps = sum(len(p.times) - 1 for p in traj.pieces)
    assert steps == 3 * (traj.offsets.size - 1) == 30


def test_coefficient_jump_coinciding_with_impulse_instants():
    # r jumps at every half-integer and integer; with t0 = 0.5 one jump
    # family lands exactly on the impulse instants.
    pair = CoefficientPair(
        r=PiecewiseConstantCoefficient(breakpoints=(0.0, 0.5, 1.0), values=(0.6, 1.2)),
        K=ConstantCoefficient(100.0),
    )
    p = ModelParams(pair=pair, E=0.25, t0=0.5)
    traj = integrate(p, 40.0, 3, 128)
    c, table = derive_constants(p), period_table(p, traj.offsets)
    closed = solution_grid(c, 40.0, range(4), table)
    # a row's last sample is the pre-impulse value, offset 1 of its period
    np.testing.assert_allclose(traj.values, closed[:-1], rtol=1e-10)
    assert traj.end == pytest.approx(closed[-1, 0], rel=1e-10)


def test_trajectory_arrays_are_read_only():
    traj = integrate(golden_params(), 50.0, 1, 16)
    with pytest.raises(ValueError):
        traj.values[0, 0] = -1.0
    with pytest.raises(ValueError):
        traj.offsets[0] = -1.0


def test_horizon_ending_exactly_on_an_impulse():
    traj = integrate(golden_params(), 50.0, 2, 16)
    assert traj.values.shape == (2, 17)
    # the run closes with the post-impulse value at offset 0 of period 2
    assert traj.end == 0.75 * traj.values[-1, -1]


@pytest.mark.parametrize(
    "breaks, start, end, n, expected",
    [
        # jumps on grid points add nothing
        ((0.0, 0.5), 0.25, 1.25, 4, [0.25, 0.5, 0.75, 1.0, 1.25]),
        # an off-grid jump is inserted; its translate 1.0 sits on the grid
        ((0.0, 0.3), 0.25, 1.25, 4, [0.25, 0.3, 0.5, 0.75, 1.0, 1.25]),
        # a later start: every jump of the period is inserted, in order
        ((0.0, 0.3, 0.8), 2.25, 3.25, 4, [2.25, 2.3, 2.5, 2.75, 2.8, 3.0, 3.25]),
        # 5e-13 past a grid point: a step of its own
        ((0.5 + 5e-13,), 0.25, 1.25, 4, [0.25, 0.5, 0.5 + 5e-13, 0.75, 1.0, 1.25]),
        # breakpoints in [0, 1) translate to the period from t0 = start
        ((0.0, 0.625), 3.125, 4.125, 2, [3.125, 3.625, 4.0, 4.125]),
    ],
)
def test_step_bounds_insert_off_grid_jumps(breaks, start, end, n, expected):
    # a piecewise K jumps at breaks and at 0.0; where breaks leave 0.0 out,
    # its offset falls on the grid
    interior = tuple(b for b in breaks if b != 0.0)
    values = (1.0, 2.0, 3.0, 4.0)[: len(interior) + 1]
    K = PiecewiseConstantCoefficient((0.0, *interior, 1.0), values)
    pair = CoefficientPair(r=ConstantCoefficient(1.0), K=K)
    times = [start + s for s in pair.period_grid(start - math.floor(start), n).tolist()]
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
    e_crit = 1.0 - math.exp(-reference_integral(pair.r, 0.0, 1.0))
    # t0 below the step (stage time ta + h differs from the next bound),
    # ordinary, and large with a phase that is not dyadic
    t0 = draw(st.one_of(st.just(1e-3), st.floats(0.05, 3.0), st.floats(1e5, 1e7)))
    params = ModelParams(pair=pair, E=draw(st.floats(0.0, 0.95)) * e_crit, t0=t0)
    steps = 2 ** draw(st.integers(0, 8))
    return params, draw(st.floats(1.0, 1000.0)), draw(st.integers(1, 3)), steps


def _one_step_past_a_jump(t0: float, cut: float):
    """One step per unit from a small t0 to a jump of K.  In the example
    below the stage time ta + h lands one ulp past the jump."""
    pair = CoefficientPair(
        r=SinusoidCoefficient(mean=1.0, amp=0.5, phase=0.3),
        K=PiecewiseConstantCoefficient(breakpoints=(0.0, cut, 1.0), values=(100.0, 150.0)),
    )
    return ModelParams(pair=pair, E=0.2, t0=t0), 30.0, 1, 1


def _stage_sum_overflow():
    """Near the float maximum k1 + 2 (k2 + k3) + k4 overflows where the
    step's result fits: from the anchor 1.5e307 the state grows toward
    K = 3e307 at rate r = 5, each stage near 4e307."""
    pair = CoefficientPair(
        r=ConstantCoefficient(5.0),
        K=PiecewiseConstantCoefficient(breakpoints=(0.0, 0.5, 1.0), values=(2e307, 3e307)),
    )
    params = ModelParams(pair=pair, E=0.25, t0=0.5)
    return params, derive_constants(params).x0_star, 2, 256


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(run=_runs())
@example(run=_one_step_past_a_jump(0.2652284551781802, 0.8980443450745145))
@example(run=_stage_sum_overflow())
def test_stage_table_stepper_matches_scalar_rk4_bit_for_bit(run):
    params, x0, periods, steps = run
    try:
        ref = scalar_rk4(params, x0, periods, steps)
    except IntegrationError as exc:
        with pytest.raises(IntegrationError) as got:
            integrate(params, x0, periods, steps)
        assert str(got.value) == str(exc)
        return
    traj = integrate(params, x0, periods, steps)
    assert np.array_equal(traj.offsets, ref.offsets)
    assert np.array_equal(traj.values, ref.values)
    assert traj.end == ref.end


def _rate(r: float) -> ModelParams:
    pair = CoefficientPair(r=ConstantCoefficient(r), K=ConstantCoefficient(100.0))
    return ModelParams(pair=pair, E=0.1, t0=0.5)


def _underflow_case():
    # each harvest keeps 1e-16 of the state; the jump at t = 21.5 leaves 0.0
    pair = CoefficientPair(r=ConstantCoefficient(0.1), K=ConstantCoefficient(100.0))
    return ModelParams(pair=pair, E=0.9999999999999999, t0=0.5), 50.0, 30, 4


def test_underflow_at_a_jump_names_the_jump():
    params, x0, periods, steps = _underflow_case()
    for horizon in (periods, 21):  # past that jump, and ending on it
        with pytest.raises(IntegrationError, match=r"underflowed to 0\.0 by t=21\.5: "):
            integrate(params, x0, horizon, steps)


@pytest.mark.parametrize(
    "case, message",
    [
        ((golden_params(), 1e308, 1, 256), "state overflowed at t=0.50390625"),
        (_underflow_case(), "state underflowed to 0.0 by t=21.5"),
        ((_rate(2.0), 250.0, 3, 1), "state became non-positive at t=1.5"),
    ],
    ids=["overflow", "underflow", "non-positive"],
)
def test_scalar_rk4_fails_with_the_messages_of_integrate(case, message):
    params, x0, periods, steps = case
    with pytest.raises(IntegrationError) as ref:
        scalar_rk4(params, x0, periods, steps)
    with pytest.raises(IntegrationError) as got:
        integrate(params, x0, periods, steps)
    assert str(ref.value) == str(got.value)
    assert str(got.value).startswith(message)
