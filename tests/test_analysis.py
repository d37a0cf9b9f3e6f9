"""Verification reports: impulse condition, periodicity, oracle agreement."""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from impulsive_logistic import analysis
from impulsive_logistic.analysis import (
    CheckRecord,
    VerificationReport,
    compare_solutions,
    fixed_point_scan,
    verify_impulse_condition,
    verify_periodicity,
)
from impulsive_logistic.closed_form import (
    AnchorUnderflowError,
    ModelParams,
    NoPeriodicSolutionError,
    derive_constants,
    poincare_map,
)
from impulsive_logistic.coefficients import (
    CoefficientPair,
    ConstantCoefficient,
    PiecewiseConstantCoefficient,
    SinusoidCoefficient,
)

from helpers import (
    bisect_100,
    corrupt_period_table,
    golden_params,
    random_params,
    reference_integral,
)

SINUSOID_R = ModelParams(
    pair=CoefficientPair(
        r=SinusoidCoefficient(mean=0.7, amp=0.2), K=ConstantCoefficient(100.0)
    ),
    E=0.25,
    t0=0.5,
)


# ---------------------------------------------------------------------------
# impulse condition
# ---------------------------------------------------------------------------


def test_corrected_jump_check_passes_golden():
    report = verify_impulse_condition("corrected", golden_params(), ks=range(1, 6), tol=1e-6)
    assert report.passed
    assert len(report.records) == 5
    assert report.metadata["analytic_pre"] == pytest.approx(200.0 / 3.0, rel=1e-12)
    assert report.metadata["analytic_post"] == pytest.approx(50.0, rel=1e-12)
    est = report.metadata["estimates"]["k=1"]
    assert est["pre"] == pytest.approx(200.0 / 3.0, rel=1e-8)
    assert est["post"] == pytest.approx(50.0, rel=1e-10)


def test_corrected_jump_check_trivial_without_harvest():
    report = verify_impulse_condition("corrected", golden_params(E=0.0), ks=(1, 2), tol=1e-6)
    assert report.passed
    for rec in report.records:
        assert rec.residual <= 1e-8


def test_legacy_check_records_continuity_and_shortfall():
    report = verify_impulse_condition("legacy", golden_params(), ks=(1, 2, 3), tol=1e-6)
    assert report.passed  # "passed" = the legacy formula fails as expected
    continuity = [r for r in report.records if "continuity" in r.location]
    shortfall = [r for r in report.records if "shortfall" in r.location]
    assert len(continuity) == 3 and len(shortfall) == 3
    for rec in continuity:
        assert rec.residual <= 1e-10
    for k in (1, 2, 3):
        violation = report.metadata["estimates"][f"k={k}"]["jump_violation"]
        assert violation == pytest.approx(0.25, rel=1e-6)


def test_legacy_check_sinusoidal_rate():
    report = verify_impulse_condition("legacy", SINUSOID_R, ks=(1, 2), tol=1e-6)
    assert report.passed
    for k in (1, 2):
        assert report.metadata["estimates"][f"k={k}"]["jump_violation"] >= 0.125


def test_impulse_checks_pass_for_random_instances():
    rng = np.random.default_rng(59)
    for i in range(4):
        p = random_params(rng, index=i)
        assert verify_impulse_condition("corrected", p, ks=(1, 2), tol=1e-6).passed
        legacy = verify_impulse_condition("legacy", p, ks=(1, 2), tol=1e-6)
        assert legacy.passed
        if p.E > 0.0:
            for k in (1, 2):
                violation = legacy.metadata["estimates"][f"k={k}"]["jump_violation"]
                assert violation >= p.E / 2.0


@pytest.mark.parametrize("lag", [1.6e-5, 7e-5])
def test_impulse_checks_hold_with_a_jump_just_before_the_impulse(lag):
    # K jumps `lag` before every impulse, which put a kink inside the window
    # of an extrapolated pre-impulse limit; read at offset 1 of the period
    # table, the pre value has no window and the jump is one more table cut.
    params = ModelParams(
        pair=CoefficientPair(
            r=SinusoidCoefficient(mean=0.41, amp=-0.09, phase=4.9),
            K=PiecewiseConstantCoefficient((0.0, 0.87 - lag, 1.0), (720.0, 1110.0)),
        ),
        E=0.18,
        t0=0.87,
    )
    pre = verify_impulse_condition("corrected", params, ks=(1, 2), tol=1e-6)
    assert pre.passed, pre.to_text()
    for k in (1, 2):
        estimate = pre.metadata["estimates"][f"k={k}"]["pre"]
        assert estimate == pytest.approx(pre.metadata["analytic_pre"], rel=1e-9)
    legacy = verify_impulse_condition("legacy", params, ks=(1, 2), tol=1e-6)
    assert legacy.passed, legacy.to_text()


def test_jump_checks_report_a_table_that_disagrees_with_B(monkeypatch):
    # K is 3e-255 on the first 1e-13 of each period.  B's panels and the
    # period table both split the period at that jump, so B holds the
    # sliver's share (B = 1.2e241), C(1) = B, and both checks pass.
    params = ModelParams(
        pair=CoefficientPair(
            r=ConstantCoefficient(1.0),
            K=PiecewiseConstantCoefficient((0.0, 1e-13, 1.0), (3e-255, 2e204)),
        ),
        E=0.25,
        t0=1.0,
    )
    assert verify_impulse_condition("corrected", params).passed
    assert verify_impulse_condition("legacy", params).passed
    # With C(1) out of all scale with B (here inf), the pre-impulse value
    # reads 0.0: both checks must fail on the mismatch, not raise.
    corrupt_period_table(monkeypatch, 1.0, lambda c: np.full_like(c, math.inf))
    corrected = verify_impulse_condition("corrected", params)
    assert [rec.residual for rec in corrected.records] == [math.inf] * 5
    legacy = verify_impulse_condition("legacy", params)
    assert not any(rec.passed for rec in legacy.records if "continuity" in rec.location)


def test_impulse_check_validation():
    with pytest.raises(ValueError, match="corrected"):
        verify_impulse_condition("fixed", golden_params())
    with pytest.raises(ValueError, match="positive"):
        verify_impulse_condition("corrected", golden_params(), ks=(0,))
    with pytest.raises(NoPeriodicSolutionError):
        verify_impulse_condition("corrected", golden_params(E=0.6))


def test_every_check_refuses_an_anchor_that_underflows():
    # d is 1 ulp and B 5e307, so d / B underflows to 0.0: each check must
    # name the cause rather than run from a zero anchor
    params = ModelParams(
        pair=CoefficientPair(r=ConstantCoefficient(math.log(2.0)), K=ConstantCoefficient(1e-308)),
        E=0.4999999999999999,
        t0=0.5,
    )
    checks = [
        lambda: verify_periodicity(params),
        lambda: verify_impulse_condition("corrected", params),
        lambda: verify_impulse_condition("legacy", params),
        lambda: compare_solutions(params, 1e-300, 1),
        lambda: fixed_point_scan(params, 1e-310, 1e-300),
    ]
    named = r"^E=0\.4999999999999999: .*\(d=.*, B="
    for check in checks:
        with pytest.raises(AnchorUnderflowError, match=named):
            check()


# ---------------------------------------------------------------------------
# periodicity
# ---------------------------------------------------------------------------


def test_periodicity_golden():
    report = verify_periodicity(golden_params(), periods=3, tol=1e-8)
    assert report.passed
    assert len(report.records) == 3 * 16


def test_periodicity_random_params():
    rng = np.random.default_rng(61)
    for i in range(4):
        p = random_params(rng, index=i)
        report = verify_periodicity(p, periods=2, tol=1e-8)
        assert report.passed, report.to_text()
        assert report.metadata["grid"] == [j / 16.0 for j in range(16)]


def test_periodicity_validation():
    with pytest.raises(ValueError, match="periods"):
        verify_periodicity(golden_params(), periods=0)


# ---------------------------------------------------------------------------
# oracle comparison
# ---------------------------------------------------------------------------


def test_compare_solutions_constant_case():
    report = compare_solutions(golden_params(), 37.0, 10, 256)
    assert report.passed
    for rec in report.records:
        assert rec.residual <= 1e-6


def test_compare_solutions_sinusoidal_rate():
    report = compare_solutions(SINUSOID_R, 60.0, 5, 256, tol=1e-5)
    assert report.passed


def test_compare_solutions_equilibrium():
    report = compare_solutions(golden_params(E=0.0), 100.0, 3, 64)
    assert report.passed
    for rec in report.records:
        assert rec.residual <= 1e-11


def test_compare_solutions_error_decreases_as_h_halves():
    p = golden_params()
    errors = []
    for n in (16, 32, 64):
        report = compare_solutions(p, 37.0, 5, n)
        errors.append(max(rec.residual for rec in report.records))
    floor = 1e-12
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= 2.0 * coarse or fine < floor
    assert errors[-1] < errors[0]


def test_compare_solutions_without_orbit_skips_periodic_record():
    report = compare_solutions(golden_params(E=0.6), 30.0, 3, 64)
    assert report.passed
    assert len(report.records) == 1
    assert report.metadata["x0_star"] is None


@pytest.mark.parametrize(
    "params, x0, runs",
    [
        pytest.param(golden_params(), 50.0, 1, id="x0-is-the-anchor"),
        pytest.param(golden_params(), 37.0, 2, id="x0-elsewhere"),
        pytest.param(golden_params(E=0.6), 30.0, 1, id="no-orbit"),
    ],
)
def test_compare_solutions_integrates_the_anchor_once(monkeypatch, params, x0, runs):
    # started at x0_star, the solution's trajectory is the orbit's: it is
    # integrated once, and the orbit's record is the one a second run gives
    calls = []
    real = analysis.integrate

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(analysis, "integrate", counted)
    report = compare_solutions(params, x0, 3, 64)
    assert len(calls) == runs
    consts = derive_constants(params)
    if consts.x0_star is not None:
        orbit = real(params, consts.x0_star, 3, 64)
        gap = analysis.trajectory_closed_form(orbit, consts, periodic=True)[1]
        assert report.records[1].residual == gap.max()


@pytest.mark.parametrize("bent", ["none", "row", "post", "pre", "end"])
def test_worst_deviation_labels_the_first_worst_sample(bent):
    # every sample counts, in simulate's row order: each row from its post
    # value to its pre value, then the end; the first whose gap reads as the
    # worst, within 2**-52 (4 (1 + worst) + worst), names the time
    params, periods = golden_params(), 3
    consts = derive_constants(params)
    traj = analysis.integrate(params, 37.0, periods, 128)
    closed = analysis.trajectory_closed_form(traj, consts)[0].tolist()
    values, end = traj.values.copy(), traj.end
    if bent == "row":
        values[1, 7] *= 1.001
    elif bent == "post":
        values[2, 0] *= 1.001
    elif bent == "pre":
        values[0, -1] *= 1.001
    elif bent == "end":
        end *= 1.001
    samples = [
        (params.time(k, s), x)
        for k in range(periods)
        for s, x in zip(traj.offsets.tolist(), values[k].tolist())
    ]
    samples.append((params.time(periods, 0.0), end))
    residuals = [abs(ref - num) / ref for (_, num), ref in zip(samples, closed)]
    worst = max(residuals)
    bent_traj = dataclasses.replace(traj, values=values, end=end)
    gap = analysis.trajectory_closed_form(bent_traj, consts)[1]
    bound = worst - 2**-52 * (4.0 * (1.0 + worst) + worst)
    label = next(t for (t, _), residual in zip(samples, residuals) if residual >= bound)
    assert analysis._worst_deviation(bent_traj, gap) == (worst, label)
    if bent != "none":
        assert worst > 1e-4


@pytest.mark.parametrize("largest, named", [(0.0, False), (8e-16, False), (1e-15, True)])
def test_worst_deviation_names_no_time_for_a_rounding_level_gap(largest, named):
    # every sample qualifies once the largest gap g is within 2**-52 (4 + 5 g)
    # (8.9e-16 at g = 0) of 0, and then no sample is the worst
    traj = analysis.integrate(golden_params(), 50.0, 2, 16)
    gap = np.zeros(traj.values.size + 1)
    gap[traj.offsets.size + 7] = largest
    at = traj.params.time(1, float(traj.offsets[7])) if named else None
    assert analysis._worst_deviation(traj, gap) == (largest, at)


def test_oracle_records_on_the_orbit_at_1024_steps_are_at_rounding_level():
    # verify golden_constant --step 0.0009765625: the oracle meets the closed
    # form within rounding at every sample
    params = golden_params()
    report = compare_solutions(params, 50.0, 10, 1024)
    assert report.passed
    assert [record.location for record in report.records] == [
        "solution vs oracle (at rounding level)",
        "periodic orbit vs oracle (at rounding level)",
    ]
    assert [record.residual for record in report.records] == [pytest.approx(8.746216e-16)] * 2


# ---------------------------------------------------------------------------
# critical harvest
# ---------------------------------------------------------------------------


def _critical_harvest(r) -> float:
    pair = CoefficientPair(r=r, K=ConstantCoefficient(100.0))
    return derive_constants(ModelParams(pair=pair, E=0.0, t0=0.5)).e_star


def test_critical_harvest_values():
    assert _critical_harvest(ConstantCoefficient(math.log(2.0))) == pytest.approx(0.5, rel=1e-13)
    assert _critical_harvest(SinusoidCoefficient(mean=0.7, amp=0.2)) == pytest.approx(
        1.0 - math.exp(-0.7), rel=1e-12
    )
    # a vanishing growth rate leaves almost no sustainable harvest
    assert _critical_harvest(ConstantCoefficient(1e-6)) == pytest.approx(1e-6, rel=1e-3)


def test_critical_harvest_separates_existence():
    e_crit = derive_constants(golden_params()).e_star
    assert derive_constants(golden_params(E=e_crit - 1e-6)).x0_star is not None
    assert derive_constants(golden_params(E=e_crit)).x0_star is None
    assert derive_constants(golden_params(E=e_crit + 1e-6)).x0_star is None


# ---------------------------------------------------------------------------
# fixed-point scan
# ---------------------------------------------------------------------------


def test_fixed_point_scan_golden():
    report = fixed_point_scan(golden_params(), 0.1, 1000.0)
    assert report.passed
    crossings = report.metadata["crossings"]
    assert len(crossings) == 1
    assert crossings[0] == pytest.approx(50.0, rel=1e-6)


def test_fixed_point_scan_random_instances():
    rng = np.random.default_rng(67)
    for i in range(6):
        p = random_params(rng, index=i)
        anchor = derive_constants(p).x0_star
        mean_capacity = reference_integral(p.pair.K, 0.0, 1.0)
        report = fixed_point_scan(p, 1e-3 * mean_capacity, 10.0 * mean_capacity)
        assert report.passed, report.to_text()
        assert report.metadata["crossings"][0] == pytest.approx(anchor, rel=1e-6)


def test_fixed_point_scan_no_orbit():
    report = fixed_point_scan(golden_params(E=0.6), 0.1, 1000.0)
    assert report.passed
    assert report.metadata["crossings"] == []
    labels = [rec.location for rec in report.records]
    assert any("below identity" in lab for lab in labels)


@pytest.mark.parametrize(
    "K",
    [ConstantCoefficient(1e300), PiecewiseConstantCoefficient((0.0, 0.5, 1.0), (1e300, 5e299))],
    ids=["constant", "piecewise"],
)
def test_fixed_point_scan_at_huge_capacity_does_not_overflow(K):
    # neighbouring gaps near 1e300 have a product past the float range
    p = ModelParams(pair=CoefficientPair(r=ConstantCoefficient(math.log(2.0)), K=K), E=0.25, t0=0.5)
    mean_capacity = reference_integral(p.pair.K, 0.0, 1.0)
    report = fixed_point_scan(p, 1e-3 * mean_capacity, 10.0 * mean_capacity)
    assert report.passed, report.to_text()
    assert report.metadata["crossings"][0] == pytest.approx(derive_constants(p).x0_star, rel=1e-6)


def test_fixed_point_scan_at_huge_growth_is_quiet():
    # A = exp(709): the map (1 - E) x / (exp(-G) + x B) never forms A x
    pair = CoefficientPair(r=ConstantCoefficient(709.0), K=ConstantCoefficient(1.0))
    p = ModelParams(pair=pair, E=0.5, t0=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = fixed_point_scan(p, 1e-3, 10.0)
    assert report.passed, report.to_text()


def test_fixed_point_scan_reaches_the_largest_float():
    # the grid's last step overflows inside geomspace, which puts the bound
    # itself there; at K 1e307, B = 6.3e-308 is still a normal float and the
    # anchor, 6.0e306, lies inside the scan
    pair = CoefficientPair(r=ConstantCoefficient(1.0), K=ConstantCoefficient(1e307))
    p = ModelParams(pair=pair, E=0.25, t0=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = fixed_point_scan(p, 1e305, sys.float_info.max)
    assert report.passed, report.to_text()
    assert report.metadata["crossings"][0] == pytest.approx(derive_constants(p).x0_star, rel=1e-15)


def test_fixed_point_scan_records_a_zero_gap_at_its_grid_point():
    # the golden map takes 50.0 onto itself exactly, and 50.0 is the last,
    # then the first, of the grid's 512 points: one crossing, there, and no
    # bisection of the neighbouring cell
    assert poincare_map(derive_constants(golden_params()), 50.0) == 50.0
    for x_min, x_max in ((0.5, 50.0), (50.0, 5000.0)):
        report = fixed_point_scan(golden_params(), x_min, x_max)
        assert report.metadata["crossings"] == [50.0]
        assert report.metadata["n"] == 512
        assert report.passed


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(
    bounds=st.lists(st.floats(-1e300, 1e300), min_size=3, max_size=3, unique=True).map(sorted),
    sign=st.sampled_from([1.0, -1.0]),
)
@example(bounds=[0.0, 0.5, 1.0], sign=1.0)  # a midpoint is the root
@example(bounds=[1.0, 1.0, math.nextafter(1.0, 2.0)], sign=1.0)  # adjacent floats
@example(bounds=[1e-300, 2e-300, 1e300], sign=-1.0)  # 100 steps stop short of the root
def test_bisection_returns_the_100_step_float(bounds, sign):
    lo, root, hi = bounds
    steps = []

    def f(u):
        steps.append(u)
        return sign * (u - root)

    got = analysis._bisect(f, lo, hi)
    assert len(steps) <= 101
    steps.clear()
    assert got == bisect_100(f, lo, hi)


def test_bisection_stops_when_the_bracket_collapses():
    # u*u - 2 is 0.0 at no float, so only the collapse of the bracket onto
    # two adjacent floats around sqrt(2), after about 53 steps, ends the loop
    steps = []

    def f(u):
        steps.append(u)
        return u * u - 2.0

    got = analysis._bisect(f, 1.0, 2.0)
    assert len(steps) < 60
    assert got == bisect_100(f, 1.0, 2.0)
    assert abs(got - math.sqrt(2.0)) <= math.ulp(got)


def test_fixed_point_scan_validation():
    with pytest.raises(ValueError, match="x_min"):
        fixed_point_scan(golden_params(), -1.0, 10.0)
    # a bound past the float range would put nan into the grid
    for x_max in (math.inf, math.nan):
        with pytest.raises(ValueError, match="x_max < inf"):
            fixed_point_scan(golden_params(), 1.0, x_max)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_reports_serialize_to_json():
    report = verify_impulse_condition("legacy", golden_params(), ks=(1,), tol=1e-6)
    blob = json.dumps(report.to_dict(), sort_keys=True)
    back = json.loads(blob)
    assert back["check"] == "impulse condition (legacy)"
    assert back["passed"] is True
    assert back["metadata"]["params"]["E"] == 0.25
    assert all(set(r) == {"location", "residual", "tolerance", "passed"} for r in back["records"])


def test_report_text_rendering():
    report = verify_periodicity(golden_params(), periods=1, tol=1e-8)
    text = report.to_text()
    assert text.startswith("[PASS] periodicity")
    assert "offset=0.5" in text


def test_report_fails_when_any_record_fails():
    records = (CheckRecord("k=0 offset=0", 0.0, 1e-8), CheckRecord("k=0 offset=0.5", 2e-8, 1e-8))
    report = VerificationReport(check="periodicity", records=records, metadata={})
    assert not report.passed
    assert report.to_text().startswith("[FAIL] periodicity")
