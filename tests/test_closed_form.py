"""Closed-form solution, periodic orbit, legacy formula, and the map."""

from __future__ import annotations

import decimal
import math
from pathlib import Path

import numpy as np
import pytest

from impulsive_logistic.analysis import verify_impulse_condition
from impulsive_logistic.cli import load_config
from impulsive_logistic.closed_form import (
    ForcingRangeError,
    ModelParams,
    NoPeriodicSolutionError,
    derive_constants,
    legacy_grid,
    period_table,
    periodic_grid,
    periodic_orbit_mean,
    poincare_map,
    require_orbit,
    solution_grid,
)
from impulsive_logistic.coefficients import (
    CoefficientPair,
    ConstantCoefficient,
    PiecewiseConstantCoefficient,
    SinusoidCoefficient,
    compute_B,
)

from helpers import (
    LN2,
    chained_flow,
    golden_params,
    logistic_flow,
    random_params,
    richardson_left,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def test_derive_constants_golden():
    c = derive_constants(golden_params())
    assert c.A == pytest.approx(2.0, rel=1e-13)
    assert c.B == pytest.approx(0.005, rel=1e-13)
    assert c.q == pytest.approx(1.5, rel=1e-13)
    assert c.x0_star == pytest.approx(50.0, rel=1e-13)


def test_derive_constants_growth_factor_examples():
    # A = exp(G), with G the growth integral of r over one period
    examples = [
        (ConstantCoefficient(LN2), 2.0),
        (SinusoidCoefficient(mean=0.7, amp=0.2), math.exp(0.7)),
        (PiecewiseConstantCoefficient(breakpoints=(0.0, 0.5, 1.0), values=(1.0, 2.0)), math.exp(1.5)),
    ]
    for r, growth_factor in examples:
        pair = CoefficientPair(r=r, K=ConstantCoefficient(100.0))
        c = derive_constants(ModelParams(pair=pair, E=0.25, t0=0.5))
        assert c.A == pytest.approx(growth_factor, rel=1e-15)
        assert c.G == r.mean == pytest.approx(math.log(growth_factor), rel=1e-15)


def test_derive_constants_at_threshold_has_no_anchor():
    c = derive_constants(golden_params(E=0.5))
    assert c.q == pytest.approx(1.0, abs=1e-14)
    assert c.x0_star is None


def test_derive_constants_without_harvest():
    # No harvesting: the periodic orbit of the constant model is x = K.
    c = derive_constants(golden_params(E=0.0))
    assert c.q == pytest.approx(2.0, rel=1e-13)
    assert c.x0_star == pytest.approx(100.0, rel=1e-12)


def _capacities(value: float):
    """K of each kind, constant at ``value``."""
    return (
        ConstantCoefficient(value),
        SinusoidCoefficient(mean=value, amp=0.0),
        PiecewiseConstantCoefficient(breakpoints=(0.0, 0.5, 1.0), values=(value, value)),
    )


@pytest.mark.parametrize("E", [0.0, 0.25])
def test_derive_constants_refuses_a_forcing_integral_of_zero(E):
    # B is the anchor's denominator, so it must be a normal float: refused
    # where r/K = 1e-325 makes it underflow to 0.0 (on either side of E* =
    # 1e-320), where r/K = 1e320 makes it overflow, and where r/K = 1e-318
    # leaves it subnormal, for each kind of K, with no warning
    cases = (
        (1e-320, 1e5, "underflows to 0.0"),
        (1.0, 1e-320, "overflows the float range"),
        (1e-10, 1e308, "below the smallest normal float"),
    )
    for rate, capacity, message in cases:
        for K in _capacities(capacity):
            pair = CoefficientPair(r=ConstantCoefficient(rate), K=K)
            params = ModelParams(pair=pair, E=E, t0=0.5)
            with pytest.raises(ForcingRangeError, match=f"B of r/K .*{message}"):
                derive_constants(params)


@pytest.mark.parametrize("G", [0.05, 0.7, 5.0, 20.0, 30.0])
def test_anchor_near_threshold_matches_a_decimal_reference(G):
    # d = E* - E a few ulp above 0: the margin may carry only the rounding of
    # the smaller of E* (for E < 1/2) and exp(-G) (for E >= 1/2, where 1 - E
    # is exact), not the half ulp of E*, which is most of d once G is large
    pair = CoefficientPair(r=ConstantCoefficient(G), K=ConstantCoefficient(100.0))
    e_star = -math.expm1(-G)
    for ulps in (1, 3, 1000):
        E = e_star
        for _ in range(ulps):
            E = math.nextafter(E, 0.0)
        c = derive_constants(ModelParams(pair=pair, E=E, t0=0.5))
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            d = (1 - decimal.Decimal(E)) - decimal.Decimal(-G).exp()
            want = float(d / decimal.Decimal(c.B))
        tol = 2.0**-51 + 2.0**-52 * min(e_star, math.exp(-G)) / float(d)
        assert c.x0_star == pytest.approx(want, rel=tol, abs=0.0), (ulps, c.x0_star, want)


def test_params_validation():
    pair = golden_params().pair
    with pytest.raises(ValueError, match="harvest"):
        ModelParams(pair=pair, E=1.0, t0=0.5)
    with pytest.raises(ValueError, match="harvest"):
        ModelParams(pair=pair, E=-0.1, t0=0.5)
    with pytest.raises(ValueError, match="t0"):
        ModelParams(pair=pair, E=0.25, t0=0.0)
    ModelParams(pair=pair, E=0.0, t0=0.5)  # degenerate no-impulse case is fine


# ---------------------------------------------------------------------------
# solution_grid at (period index k, offset s): time t0 + k + s
# ---------------------------------------------------------------------------


def test_solution_stays_at_equilibrium_without_harvest():
    p = golden_params(E=0.0)
    table = period_table(p, [0.0, 0.4, 0.75, 1.0])
    grid = solution_grid(derive_constants(p), 100.0, range(7), table)
    np.testing.assert_allclose(grid, 100.0, rtol=1e-12)


def test_solution_returns_to_anchor_after_one_period():
    # x0 = 50 is the post-impulse fixed point of the golden case.
    p = golden_params()
    x = solution_grid(derive_constants(p), 50.0, [1], period_table(p, [0.0]))[0, 0]
    assert x == pytest.approx(50.0, rel=1e-10)


def test_solution_mid_interval_matches_chained_flow():
    # Harvested case: flow one period, jump, flow half a period.
    p = golden_params()
    expected = chained_flow(LN2, 100.0, 0.25, 0.5, 50.0, 2.0)
    assert expected == pytest.approx(100.0 * (2.0 - math.sqrt(2.0)), rel=1e-12)
    got = solution_grid(derive_constants(p), 50.0, [1], period_table(p, [0.5]))[0, 0]
    assert got == pytest.approx(expected, rel=1e-10)


def test_a_denominator_that_underflows_matches_chained_flow():
    # r = 700 and x0 = 1e-300: inside period 1, exp(-R) and x0 put every
    # term of the denominator below the float range, and x reads the form
    # divided through by x0.  With K constant, B and C are sums of
    # exponentials, exact to a few ulp even at G = 700.
    pair = CoefficientPair(r=ConstantCoefficient(700.0), K=ConstantCoefficient(1e30))
    p = ModelParams(pair=pair, E=0.25, t0=0.5)
    offsets = [0.25, 0.5, 0.75]
    c, table = derive_constants(p), period_table(p, offsets)
    lead, total = math.exp(-c.ln_q), -math.expm1(-c.ln_q) / c.d
    assert not np.any(table.decay * (lead + 1e-300 * c.B * total) + 1e-300 * table.forcing)
    got = solution_grid(c, 1e-300, [1], table)[0]
    for s, x in zip(offsets, got.tolist()):
        want = chained_flow(700.0, 1e30, 0.25, 0.5, 1e-300, p.t0 + 1 + s)
        assert x == pytest.approx(want, rel=1e-10), s


def test_solution_without_harvest_is_plain_logistic():
    p = golden_params(E=0.0)
    expected = logistic_flow(LN2, 100.0, 50.0, 1.5)
    assert expected == pytest.approx((800.0 - 200.0 * math.sqrt(2.0)) / 7.0, rel=1e-12)
    got = solution_grid(derive_constants(p), 50.0, [1], period_table(p, [0.5]))[0, 0]
    assert got == pytest.approx(expected, rel=1e-10)


def test_solution_domain_errors():
    p = golden_params()
    c, table = derive_constants(p), period_table(p, [0.0])
    with pytest.raises(ValueError, match="x0"):
        solution_grid(c, 0.0, [1], table)
    with pytest.raises(ValueError, match="x0"):
        solution_grid(c, -5.0, [1], table)


def test_solution_at_anchor_time_is_x0():
    p = golden_params()
    x = solution_grid(derive_constants(p), 37.0, [0], period_table(p, [0.0]))[0, 0]
    assert x == pytest.approx(37.0, rel=1e-12)


def test_solution_far_horizon_is_finite_and_positive():
    p = golden_params()
    c, table = derive_constants(p), period_table(p, [0.25])
    far = solution_grid(c, 50.0, [1200], table)[0, 0]
    assert math.isfinite(far) and far > 0.0
    # the orbit is the fixed point, so the far value stays on it
    assert far == pytest.approx(periodic_grid(c, table)[0], rel=1e-9)


def test_decaying_population_far_horizon():
    # Over-harvested: (1-E)A < 1, solution decays toward extinction.
    p = golden_params(E=0.6)
    x_far = solution_grid(derive_constants(p), 50.0, [600], period_table(p, [0.0]))[0, 0]
    assert 0.0 <= x_far < 1e-20


# ---------------------------------------------------------------------------
# periodic orbit
# ---------------------------------------------------------------------------


def test_periodic_solution_at_impulse_instants():
    p = golden_params()
    c, table = derive_constants(p), period_table(p, [0.0])
    assert periodic_grid(c, table)[0] == pytest.approx(50.0, rel=1e-12)
    np.testing.assert_allclose(solution_grid(c, 50.0, range(4), table), 50.0, rtol=1e-12)


def test_periodic_solution_mid_interval():
    p = golden_params()
    expected = logistic_flow(LN2, 100.0, 50.0, 0.5)  # = 100 (2 - sqrt 2)
    c, table = derive_constants(p), period_table(p, [0.5])
    assert periodic_grid(c, table)[0] == pytest.approx(expected, rel=1e-12)
    np.testing.assert_allclose(solution_grid(c, 50.0, range(3), table), expected, rtol=1e-12)


def test_periodic_solution_left_limit():
    p = golden_params()
    c = derive_constants(p)
    pre = richardson_left(lambda s: periodic_grid(c, period_table(p, [s]))[0], 1.0)
    assert pre == pytest.approx(200.0 / 3.0, rel=1e-10)
    assert pre == pytest.approx(50.0 / 0.75, rel=1e-10)
    # offset 1 is the pre-impulse value itself
    assert periodic_grid(c, period_table(p, [1.0]))[0] == pytest.approx(pre, rel=1e-10)


def test_periodic_solution_requires_orbit():
    for e_bad in (0.5, 0.6, 0.9):
        p = golden_params(E=e_bad)
        with pytest.raises(NoPeriodicSolutionError, match="no positive periodic"):
            periodic_grid(derive_constants(p), period_table(p, [0.5]))


def test_periodic_equals_solution_from_anchor():
    rng = np.random.default_rng(23)
    for i in range(8):
        p = random_params(rng, index=i)
        c = derive_constants(p)
        table = period_table(p, np.sort(rng.uniform(0.0, 1.0, size=8)))
        np.testing.assert_allclose(
            solution_grid(c, c.x0_star, range(4), table),
            np.tile(periodic_grid(c, table), (4, 1)),
            rtol=1e-10,
        )


def test_periodicity_property():
    # from the anchor, every period repeats the first
    rng = np.random.default_rng(29)
    for i in range(8):
        p = random_params(rng, index=i)
        table = period_table(p, np.sort(rng.uniform(0.0, 1.0, size=10)))
        c = derive_constants(p)
        grid = solution_grid(c, c.x0_star, range(6), table)
        np.testing.assert_allclose(grid[1:], grid[:-1], rtol=1e-9)


def test_jump_law_numerically():
    rng = np.random.default_rng(31)
    for i in range(6):
        p = random_params(rng, index=i)
        c = derive_constants(p)
        for k in (1, 3):
            pre = richardson_left(
                lambda s: solution_grid(c, c.x0_star, [k - 1], period_table(p, [s]))[0, 0], 1.0
            )
            post = solution_grid(c, c.x0_star, [k], period_table(p, [0.0]))[0, 0]
            assert post == pytest.approx((1.0 - p.E) * pre, rel=1e-8)


@pytest.mark.parametrize("name", ["golden_constant", "sinusoid_r", "piecewise_mixed"])
def test_impulse_has_exact_addresses_on_both_sides(name):
    # (k, 1.0) is the pre-impulse value and (k + 1, 0.0) the post-impulse
    # value of the same instant: no snap is needed to tell them apart.
    p = load_config(CONFIG_DIR / f"{name}.json").params
    keep = 1.0 - p.E
    c, table = derive_constants(p), period_table(p, [0.0, 1.0])
    grid = solution_grid(c, 30.0, range(4), table)
    for k in range(3):
        assert grid[k, 1] * keep == pytest.approx(grid[k + 1, 0], rel=1e-15, abs=0.0)
    orbit = periodic_grid(c, table)
    assert orbit[0] == c.x0_star
    assert orbit[1] * keep == pytest.approx(orbit[0], rel=1e-15, abs=0.0)


def test_interval_restart_consistency():
    # Restarting at an impulse with the post-impulse value reproduces the
    # original solution on the next interval.
    rng = np.random.default_rng(37)
    for i in range(6):
        p = random_params(rng, index=i)
        c = derive_constants(p)
        x0 = float(rng.uniform(0.2, 2.0)) * c.x0_star
        k = int(rng.integers(1, 4))
        restarted = ModelParams(pair=p.pair, E=p.E, t0=p.t0 + k)
        x0_restart = solution_grid(c, x0, [k], period_table(p, [0.0]))[0, 0]
        offsets = np.sort(rng.uniform(0.0, 1.0, size=6))
        np.testing.assert_allclose(
            solution_grid(
                derive_constants(restarted), x0_restart, [0], period_table(restarted, offsets)
            ),
            solution_grid(c, x0, [k], period_table(p, offsets)),
            rtol=1e-9,
        )


def test_orbit_mean_golden():
    # Mean of the orbit over one period; for the golden case the integral
    # reduces to 100 ln(3/2) / ln 2 by substitution.
    expected = 100.0 * math.log(1.5) / math.log(2.0)
    p = golden_params()
    assert periodic_orbit_mean(p, [derive_constants(p)]) == [pytest.approx(expected, rel=1e-12)]


def test_orbit_mean_of_several_fractions_shares_one_table():
    # the mean of each fraction is the one a single-fraction call gives, bit
    # for bit, whichever other fractions come with it
    p = golden_params()
    fractions = [derive_constants(golden_params(E=E)) for E in (0.0, 0.25, 0.4999)]
    means = periodic_orbit_mean(p, fractions)
    assert means == [periodic_orbit_mean(p, [c])[0] for c in fractions]
    assert means[0] == pytest.approx(100.0, rel=1e-12)  # no harvest: the orbit is x = K
    assert periodic_orbit_mean(p, []) == []
    with pytest.raises(NoPeriodicSolutionError):
        periodic_orbit_mean(p, [fractions[1], derive_constants(golden_params(E=0.5))])


@pytest.mark.parametrize("r0", [300.0, 650.0, 709.0])
@pytest.mark.parametrize("E", [0.5, 0.95, 0.99])
def test_orbit_mean_at_huge_growth(r0, E):
    # Constant coefficients: the mean is K (1 + ln(1 - E) / r).  After each
    # impulse the orbit relaxes within about 1/r, which the mean's panels
    # must resolve.
    params = ModelParams(
        pair=CoefficientPair(r=ConstantCoefficient(r0), K=ConstantCoefficient(100.0)),
        E=E,
        t0=0.5,
    )
    expected = 100.0 * (1.0 + math.log(1.0 - E) / r0)
    assert periodic_orbit_mean(params, [derive_constants(params)]) == [
        pytest.approx(expected, rel=1e-12)
    ]


# ---------------------------------------------------------------------------
# legacy formula
# ---------------------------------------------------------------------------


def test_legacy_is_globally_constant_for_constant_coefficients():
    p = golden_params()
    c = derive_constants(p)
    offsets = [0.0, 0.27, 0.5, 0.81, 1.0]
    np.testing.assert_allclose(legacy_grid(c, period_table(p, offsets)), 50.0, rtol=1e-10)


def test_legacy_agrees_with_corrected_when_no_harvest():
    p = golden_params(E=0.0)
    c = derive_constants(p)
    table = period_table(p, [0.0, 0.3, 1.0])
    np.testing.assert_allclose(legacy_grid(c, table), periodic_grid(c, table), rtol=1e-10)


def test_legacy_requires_orbit():
    p = golden_params(E=0.6)
    with pytest.raises(NoPeriodicSolutionError):
        legacy_grid(derive_constants(p), period_table(p, [0.0, 1.0]))


def test_legacy_is_continuous_where_the_orbit_jumps():
    pair = CoefficientPair(
        r=SinusoidCoefficient(mean=0.7, amp=0.2), K=ConstantCoefficient(100.0)
    )
    p = ModelParams(pair=pair, E=0.25, t0=0.5)
    c = derive_constants(p)
    # offset 1 is the value before every impulse, offset 0 the value after it
    post, pre = legacy_grid(c, period_table(p, [0.0, 1.0]))
    # equal one-sided limits: no jump at all
    assert post == pytest.approx(pre, rel=1e-12)
    # hence the jump rule is missed by the full harvested fraction
    violation = abs(post - (1.0 - p.E) * pre) / pre
    assert violation == pytest.approx(p.E, rel=1e-12)
    assert violation >= p.E / 2.0


def test_legacy_counterexample_for_random_instances():
    rng = np.random.default_rng(41)
    for i in range(6):
        p = random_params(rng, index=i)
        if p.E == 0.0:
            continue
        post, pre = legacy_grid(derive_constants(p), period_table(p, [0.0, 1.0]))
        assert abs(post - pre) / pre <= 1e-12
        assert abs(post - (1.0 - p.E) * pre) / pre >= p.E / 2.0


# ---------------------------------------------------------------------------
# one-sided limits
# ---------------------------------------------------------------------------


def _analytic_limits(params: ModelParams) -> tuple[float, float]:
    """The (pre, post) values of the orbit that the corrected jump check reports."""
    meta = verify_impulse_condition("corrected", params).metadata
    return meta["analytic_pre"], meta["analytic_post"]


def test_one_sided_limits_golden():
    p = golden_params()
    pre, post = _analytic_limits(p)
    assert post == require_orbit(derive_constants(p)) == pytest.approx(50.0, rel=1e-12)
    assert pre == pytest.approx(200.0 / 3.0, rel=1e-12)
    # the jump removes exactly the harvested fraction
    assert post - pre == pytest.approx(-0.25 * pre, rel=1e-12)


def test_one_sided_limits_no_harvest_degenerate():
    pre, post = _analytic_limits(golden_params(E=0.0))
    assert pre == post


def test_require_orbit_validation():
    with pytest.raises(NoPeriodicSolutionError):
        require_orbit(derive_constants(golden_params(E=0.6)))


# ---------------------------------------------------------------------------
# period-advance map
# ---------------------------------------------------------------------------


def test_poincare_map_golden_values():
    c = derive_constants(golden_params())
    assert poincare_map(c, 50.0) == pytest.approx(50.0, rel=1e-13)
    assert poincare_map(c, 100.0) == pytest.approx(75.0, rel=1e-13)
    assert poincare_map(c, 75.0) == pytest.approx(1.5 * 75.0 / 1.75, rel=1e-13)


def test_poincare_map_linearizes_to_growth_factor_at_zero():
    c = derive_constants(golden_params())
    for x0 in (1e-6, 1e-9):
        assert poincare_map(c, x0) / x0 == pytest.approx(1.5, rel=1e-6)


def test_poincare_map_matches_one_period_of_the_solution():
    rng = np.random.default_rng(43)
    for i in range(6):
        p = random_params(rng, index=i)
        c, x0 = derive_constants(p), float(rng.uniform(10.0, 150.0))
        assert poincare_map(c, x0) == pytest.approx(
            solution_grid(c, x0, [1], period_table(p, [0.0]))[0, 0], rel=1e-10
        )


def test_fixed_point_identity_property():
    rng = np.random.default_rng(47)
    for i in range(20):
        p = random_params(rng, index=i)
        c = derive_constants(p)
        assert abs(poincare_map(c, c.x0_star) - c.x0_star) <= 1e-10 * c.x0_star


def test_poincare_map_requires_positive_state():
    c = derive_constants(golden_params())
    with pytest.raises(ValueError, match="x0"):
        poincare_map(c, 0.0)
    with pytest.raises(ValueError, match="x0"):
        poincare_map(c, np.array([1.0, -2.0]))


def test_poincare_map_over_an_array_matches_scalar_calls():
    # fixed_point_scan maps its whole grid at once; the values must be the
    # ones the scalar refinement sees.
    c = derive_constants(random_params(np.random.default_rng(53), index=1))
    xs = np.geomspace(1e-3, 1e4, 512)
    assert np.array_equal(poincare_map(c, xs), [poincare_map(c, float(x)) for x in xs])


# ---------------------------------------------------------------------------
# concurrency
# ---------------------------------------------------------------------------


def test_concurrent_evaluation_matches_serial():
    # Pure functions over immutable inputs; the (G, B) cache may be
    # populated from several threads at once and must stay consistent.
    from concurrent.futures import ThreadPoolExecutor

    compute_B.cache_clear()
    p = golden_params()

    def at(j: int) -> float:
        table = period_table(p, [j % 100 / 100])
        return float(solution_grid(derive_constants(p), 37.0, [j // 100], table)[0, 0])

    serial = [at(j) for j in range(200)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(at, range(200)))
    assert threaded == serial
