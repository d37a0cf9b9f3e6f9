"""Verification reports: impulse condition, periodicity, oracle agreement."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from impulsive_logistic import (
    CheckRecord,
    CoefficientPair,
    ConstantCoefficient,
    ModelParams,
    NoPeriodicSolutionError,
    PiecewiseConstantCoefficient,
    SinusoidCoefficient,
    StepControl,
    VerificationReport,
    compare_solutions,
    critical_harvest,
    derive_constants,
    fixed_point_scan,
    verify_impulse_condition,
    verify_periodicity,
)

from helpers import golden_params, random_params

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
def test_impulse_checks_extrapolate_right_of_a_jump_just_before_the_impulse(lag):
    # K jumps `lag` before every impulse, among the default Richardson nodes:
    # extrapolating across the kink this puts in the orbit missed the jump
    # rule by ~1.5e-6.  The nodes must move between the jump and the impulse.
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
    assert pre.metadata["offsets"][0] == pytest.approx(lag / 2.0, rel=1e-6)
    for k in (1, 2):
        estimate = pre.metadata["estimates"][f"k={k}"]["pre"]
        assert estimate == pytest.approx(pre.metadata["analytic_pre"], rel=1e-9)
    legacy = verify_impulse_condition("legacy", params, ks=(1, 2), tol=1e-6)
    assert legacy.passed, legacy.to_text()


def test_impulse_check_validation():
    with pytest.raises(ValueError, match="corrected"):
        verify_impulse_condition("fixed", golden_params())
    with pytest.raises(ValueError, match="positive"):
        verify_impulse_condition("corrected", golden_params(), ks=(0,))
    with pytest.raises(NoPeriodicSolutionError):
        verify_impulse_condition("corrected", golden_params(E=0.6))


# ---------------------------------------------------------------------------
# periodicity
# ---------------------------------------------------------------------------


def test_periodicity_golden():
    report = verify_periodicity(golden_params(), periods=3, tol=1e-8)
    assert report.passed
    assert len(report.records) == 3 * 16


def test_periodicity_custom_grid_and_random_params():
    rng = np.random.default_rng(61)
    for i in range(4):
        p = random_params(rng, index=i)
        report = verify_periodicity(p, grid=(0.0, 0.21, 0.5, 0.93), periods=2, tol=1e-8)
        assert report.passed, report.to_text()


def test_periodicity_grid_validation():
    with pytest.raises(ValueError, match="offsets"):
        verify_periodicity(golden_params(), grid=(0.0, 1.0))


# ---------------------------------------------------------------------------
# oracle comparison
# ---------------------------------------------------------------------------


def test_compare_solutions_constant_case():
    report = compare_solutions(golden_params(), 37.0, 10, StepControl(h=1.0 / 256.0))
    assert report.passed
    for rec in report.records:
        assert rec.residual <= 1e-6


def test_compare_solutions_sinusoidal_rate():
    report = compare_solutions(SINUSOID_R, 60.0, 5, StepControl(h=1.0 / 256.0), tol=1e-5)
    assert report.passed


def test_compare_solutions_equilibrium():
    report = compare_solutions(golden_params(E=0.0), 100.0, 3, StepControl(h=1.0 / 64.0))
    assert report.passed
    for rec in report.records:
        assert rec.residual <= 1e-11


def test_compare_solutions_error_decreases_as_h_halves():
    p = golden_params()
    errors = []
    for n in (16, 32, 64):
        report = compare_solutions(p, 37.0, 5, StepControl(h=1.0 / n))
        errors.append(max(rec.residual for rec in report.records))
    floor = 1e-12
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= 2.0 * coarse or fine < floor
    assert errors[-1] < errors[0]


def test_compare_solutions_without_orbit_skips_periodic_record():
    report = compare_solutions(golden_params(E=0.6), 30.0, 3, StepControl(h=1.0 / 64.0))
    assert report.passed
    assert len(report.records) == 1
    assert report.metadata["x0_star"] is None


# ---------------------------------------------------------------------------
# critical harvest
# ---------------------------------------------------------------------------


def test_critical_harvest_values():
    assert critical_harvest(ConstantCoefficient(math.log(2.0))) == pytest.approx(0.5, rel=1e-13)
    assert critical_harvest(SinusoidCoefficient(mean=0.7, amp=0.2)) == pytest.approx(
        1.0 - math.exp(-0.7), rel=1e-12
    )
    # a vanishing growth rate leaves almost no sustainable harvest
    assert critical_harvest(ConstantCoefficient(1e-6)) == pytest.approx(1e-6, rel=1e-3)


def test_critical_harvest_separates_existence():
    p = golden_params()
    e_crit = critical_harvest(p.pair.r)
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
        mean_capacity = p.K.integral(0.0, 1.0)
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
    mean_capacity = p.K.integral(0.0, 1.0)
    report = fixed_point_scan(p, 1e-3 * mean_capacity, 10.0 * mean_capacity)
    assert report.passed, report.to_text()
    assert report.metadata["crossings"][0] == pytest.approx(derive_constants(p).x0_star, rel=1e-6)


def test_fixed_point_scan_records_a_zero_gap_at_its_grid_point():
    # the middle of this grid maps onto itself exactly: one crossing, there,
    # and no bisection of the neighbouring cells
    xs = np.geomspace(0.5, 5000.0, 5)
    report = fixed_point_scan(golden_params(), 0.5, 5000.0, n=5)
    assert report.metadata["crossings"] == [float(xs[2])]
    assert report.passed


def test_fixed_point_scan_validation():
    with pytest.raises(ValueError, match="x_min"):
        fixed_point_scan(golden_params(), -1.0, 10.0)
    with pytest.raises(ValueError, match="grid"):
        fixed_point_scan(golden_params(), 1.0, 10.0, n=1)


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
    report = verify_periodicity(golden_params(), grid=(0.0, 0.5), periods=1, tol=1e-8)
    text = report.to_text()
    assert text.startswith("[PASS] periodicity")
    assert "offset=0.5" in text


def test_report_fails_when_any_record_fails():
    records = (CheckRecord("k=0 offset=0", 0.0, 1e-8), CheckRecord("k=0 offset=0.5", 2e-8, 1e-8))
    report = VerificationReport(check="periodicity", records=records, metadata={})
    assert not report.passed
    assert report.to_text().startswith("[FAIL] periodicity")
