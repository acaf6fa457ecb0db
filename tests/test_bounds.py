import math

import pytest
from hypothesis import given, settings, strategies as st

import refs_frozen as refs
from psibounds import bounds, oracle
from psibounds.bounds import BoundFamily, Interval
from psibounds.errors import DomainError

GRID = [10.0 ** (-2 + 6 * i / 79) for i in range(80)]


def test_family_parse_and_domains():
    assert BoundFamily.parse("THM22") is BoundFamily.THM22
    assert BoundFamily.parse(" eq9r1 ") is BoundFamily.EQ9R1
    with pytest.raises(KeyError):
        BoundFamily.parse("eq10")
    assert BoundFamily.EQ6.domain_min == 2.0
    assert all(f.domain_min == 0.0 for f in BoundFamily if f is not BoundFamily.EQ6)


def test_interval_invariant():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    iv = Interval(0.25, 0.5)
    assert iv.width == 0.25
    assert iv.contains(0.3) and not iv.contains(0.25)


def test_closed_form_arguments():
    assert bounds.alpha(2.0) == pytest.approx(7.0 / 3.0, rel=1e-15)
    assert bounds.alpha(0.01) == pytest.approx(0.34333333333333332, rel=1e-15)
    assert bounds.beta(1.0) == pytest.approx(refs.BETA_1, rel=1e-13)
    assert bounds.beta_refined(1.0) == pytest.approx(19.0 / 15.0, rel=1e-15)
    assert bounds.delta_star(1.0) == pytest.approx(refs.DELTA_STAR_1, rel=1e-13)
    assert bounds.stirling_arg_upper(1.0) == pytest.approx(27.0 / 21.0, rel=1e-15)
    assert bounds.stirling_arg_upper(2.0) == pytest.approx(2.0 + 1.0 / 3.0 - 1.0 / 39.0, rel=1e-15)


def test_beta_asymptotics():
    assert bounds.beta(1000.0) - 1000.0 == pytest.approx(refs.BETA_1000_OFFSET, rel=1e-10)
    assert bounds.beta(1e6) - 1e6 == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_gamma_arg_bounds():
    lower, upper, refined = bounds.gamma_arg_bounds(1.0)
    assert lower == pytest.approx(1.0 / math.log(2.0), rel=1e-15)
    assert upper == 1.5
    assert refined == pytest.approx(1.5 - 1.0 / 14.0, rel=1e-15)
    assert refined < lower
    # x -> 0+: all three arguments approach 1
    lower, upper, refined = bounds.gamma_arg_bounds(1e-9)
    assert lower == pytest.approx(1.0, abs=1e-8)
    assert upper == pytest.approx(1.0, abs=1e-8)
    assert refined == pytest.approx(1.0, abs=1e-8)
    # x = 10: refined = 6 - 100/32 = 2.875
    _, _, refined = bounds.gamma_arg_bounds(10.0)
    assert refined == pytest.approx(2.875, rel=1e-15)


@given(st.floats(min_value=1e-3, max_value=2e4))
@settings(max_examples=80)
def test_argument_ordering(x):
    # The true separations decay like c/x^2 and drop below one ulp of the
    # argument near x ~ 5e4, where the strict orderings stop being float
    # resolvable; below that they must hold exactly.
    assert x < bounds.beta_refined(x) < bounds.beta(x)
    assert bounds.stirling_arg_upper(x) < bounds.delta_star(x)
    lower, _, refined = bounds.gamma_arg_bounds(x)
    assert refined < lower


@given(st.floats(min_value=2e4, max_value=1e12))
@settings(max_examples=30)
def test_argument_ordering_weak_beyond_resolution(x):
    # Past the resolution point the computed pair can land on either side by
    # a couple of ulps; only the coarse ordering survives.
    slack = 4.0 * math.ulp(x)
    assert x < bounds.beta_refined(x) <= bounds.beta(x) + slack
    assert bounds.stirling_arg_upper(x) <= bounds.delta_star(x) + slack


def test_tau_values_and_bracket():
    assert bounds.tau(1, 1.0) == pytest.approx(refs.BETA_1 - 1.0, rel=1e-12)
    assert bounds.tau(2, 1.0) == pytest.approx(refs.TAU_2_1, rel=1e-12)
    for x in (0.5, 1.0, 3.0, 10.0):
        prev = None
        for k in (1, 2, 3, 10, 100, 10000):
            t = bounds.tau(k, x)
            assert x - 1.0 < t < x - 2.0 / 3.0
            if prev is not None:
                assert t > prev
            prev = t
    with pytest.raises(DomainError):
        bounds.tau(0, 1.0)
    with pytest.raises(DomainError):
        bounds.tau(1, -1.0)


def test_gap_via_tau_series():
    gamma = refs.EULER_GAMMA
    coarse = bounds.gap_via_tau_series(1.0, 1)
    assert coarse.contains(gamma)
    tight = bounds.gap_via_tau_series(1.0, 100)
    assert tight.contains(gamma)
    assert tight.width < 1e-3
    widths = [bounds.gap_via_tau_series(1.0, k).width for k in (10, 100, 1000)]
    assert widths[0] > widths[1] > widths[2]
    # nested within the coarse trigamma-argument bracket
    for x in (0.5, 2.0, 10.0):
        iv = bounds.gap_via_tau_series(x, 50)
        outer = bounds.digamma_gap_bounds(x, BoundFamily.THM21)
        assert outer.lower <= iv.lower and iv.upper <= outer.upper


def test_gap_bounds_spot_values_at_one():
    thm21 = bounds.digamma_gap_bounds(1.0, BoundFamily.THM21)
    assert thm21.lower == pytest.approx(refs.THM21_LOWER_1, rel=1e-12)
    assert thm21.upper == pytest.approx(refs.THM21_UPPER_1, rel=1e-12)
    assert thm21.contains(refs.EULER_GAMMA)
    eq9 = bounds.digamma_gap_bounds(1.0, BoundFamily.EQ9)
    assert (eq9.lower, eq9.upper) == (0.5, 1.0)
    thm22 = bounds.digamma_gap_bounds(1.0, BoundFamily.THM22)
    assert thm22.upper == pytest.approx(refs.THM22_UPPER_1, rel=1e-12)
    eq5_upper = bounds.digamma_gap_bounds(1.0, BoundFamily.EQ5).upper
    assert thm22.upper < eq5_upper
    assert eq5_upper == pytest.approx(refs.TRIGAMMA_1 / 2.0, rel=1e-12)


def test_ratio_bounds_spot_values():
    thm23 = bounds.stirling_ratio_bounds(1.0, BoundFamily.THM23)
    assert thm23.lower == pytest.approx(refs.THM23_LOWER_1, rel=1e-12)
    assert thm23.upper == pytest.approx(refs.THM23_UPPER_1, rel=1e-12)
    assert thm23.contains(refs.STIRLING_RATIO_1)
    eq4 = bounds.stirling_ratio_bounds(1.0, BoundFamily.EQ4)
    assert eq4.upper == pytest.approx(refs.EQ4_UPPER_1, rel=1e-12)
    assert thm23.upper < eq4.upper
    eq6 = bounds.stirling_ratio_bounds(2.0, BoundFamily.EQ6)
    assert eq6.contains(refs.ROOT_SCALED_TARGET_2)
    with pytest.raises(DomainError):
        bounds.stirling_ratio_bounds(1.99, BoundFamily.EQ6)


def test_gamma_bounds_spot_values():
    thm24 = bounds.gamma_bounds(1.0, BoundFamily.THM24)
    assert thm24.lower == pytest.approx(refs.THM24_LOWER_1, rel=1e-12)
    assert thm24.upper == pytest.approx(refs.THM24_UPPER_1, rel=1e-12)
    assert thm24.contains(1.0)  # Gamma(2) = 1
    eq8 = bounds.gamma_bounds(1.0, BoundFamily.EQ8)
    assert eq8.lower == pytest.approx(refs.EQ8_LOWER_1, rel=1e-12)
    assert thm24.lower < eq8.lower
    # x = 4: both families bracket Gamma(5) = 24
    for fam in (BoundFamily.EQ8, BoundFamily.THM24):
        assert bounds.gamma_bounds(4.0, fam).contains(24.0)
    # upper bound at 1 equals exp(2 - gamma - 2 log 2)
    assert thm24.upper == pytest.approx(
        math.exp(2.0 - refs.EULER_GAMMA - 2.0 * math.log(2.0)), rel=1e-12
    )


def test_gamma_bounds_log_scale_consistency():
    iv_log = bounds.gamma_bounds_log(3.0, BoundFamily.EQ8)
    iv = bounds.gamma_bounds(3.0, BoundFamily.EQ8)
    assert iv.lower == pytest.approx(math.exp(iv_log.lower), rel=1e-14)
    assert iv.upper == pytest.approx(math.exp(iv_log.upper), rel=1e-14)
    # huge x: exponentiated form overflows, log form stays finite
    with pytest.raises(DomainError):
        bounds.gamma_bounds(1e4, BoundFamily.THM24)
    iv_big = bounds.gamma_bounds_log(1e4, BoundFamily.THM24)
    assert math.isfinite(iv_big.lower) and math.isfinite(iv_big.upper)


def test_wrong_family_for_target_raises():
    with pytest.raises(DomainError):
        bounds.digamma_gap_bounds(1.0, BoundFamily.EQ4)
    with pytest.raises(DomainError):
        bounds.stirling_ratio_bounds(1.0, BoundFamily.EQ9)
    with pytest.raises(DomainError):
        bounds.gamma_bounds(1.0, BoundFamily.EQ5)


# Upper limit of the regime where each family's thinnest margin still exceeds
# a handful of ulps of the bound value.  eq6's upper slack decays like
# 13/(6480 x^4) and eq9r2's like 1/(240 x^5); past these points the two sides
# agree to within a few ulps in double precision and strict sandwiching is no
# longer float-resolvable (the acceptance suite records this honestly).
RESOLVABLE_UP_TO = {BoundFamily.EQ6: 500.0, BoundFamily.EQ9R2: 600.0}


def _target_and_interval(fam, x):
    kind = fam.target
    if kind == "gap":
        return oracle.ref_digamma_gap(x, 1e-12), bounds.digamma_gap_bounds(x, fam)
    if kind == "ratio":
        return oracle.ref_stirling_target(x, 1e-8), bounds.stirling_ratio_bounds(x, fam)
    return oracle.ref_log_gamma(x + 1.0, 1e-8), bounds.gamma_bounds_log(x, fam)


def test_sandwich_property_all_families():
    # lower < oracle target < upper with margin beyond the oracle radius
    for fam in BoundFamily:
        cap = RESOLVABLE_UP_TO.get(fam, math.inf)
        for x in GRID:
            if x < fam.domain_min or x > cap:
                continue
            target, iv = _target_and_interval(fam, x)
            assert target.value - iv.lower > target.error_radius, (fam, x)
            assert iv.upper - target.value > target.error_radius, (fam, x)


def test_sandwich_never_violated_even_where_unresolvable():
    # In the collapsed regime the sides may coincide to a few ulps, but they
    # must never order the wrong way by more than that noise.
    for fam in (BoundFamily.EQ6, BoundFamily.EQ9R2):
        for x in (700.0, 1500.0, 4000.0, 1e4):
            if x < fam.domain_min:
                continue
            target, iv = _target_and_interval(fam, x)
            slack = 4.0 * math.ulp(abs(iv.upper)) + target.error_radius
            assert target.value - iv.lower > -slack, (fam, x)
            assert iv.upper - target.value > -slack, (fam, x)


def test_g_c_signs_and_limit():
    assert bounds.g_c(1.0, 1.0 / 3.0) == pytest.approx(refs.G_THIRD_AT_1, rel=1e-10)
    assert bounds.g_c(1.0, 0.0) == pytest.approx(refs.G_ZERO_AT_1, rel=1e-12)
    for x in GRID:
        assert bounds.g_c(x, 1.0 / 3.0) > 0.0
        assert bounds.g_c(x, 0.0) < 0.0
    assert abs(bounds.g_c(1e6, 0.7)) < 1e-6
    with pytest.raises(DomainError):
        bounds.g_c(1.0, -0.5)


def test_delta_star_exceeds_simple_argument():
    assert bounds.delta_star(1.0) > 1.0 + 1.0 / 3.0 - 1.0 / 21.0
    for x in GRID:
        assert bounds.stirling_arg_upper(x) < bounds.delta_star(x)
    assert bounds.delta_star(1e6) - 1e6 == pytest.approx(1.0 / 3.0, abs=1e-5)


def test_aux_values_at_one():
    assert bounds.aux_eval("H", 1.0) == pytest.approx(refs.AUX_H_1, rel=1e-12)
    assert bounds.aux_eval("P", 1.0) == pytest.approx(refs.AUX_P_1, rel=1e-11)
    assert bounds.aux_eval("p", 1.0) == pytest.approx(refs.AUX_LITTLE_P_1, rel=1e-12)
    assert bounds.aux_eval("theta", 1.0) == pytest.approx(refs.AUX_THETA_1, rel=1e-11)
    assert bounds.aux_eval("h", 0.0) == 0.0
    assert bounds.aux_eval("theta", 0.0) == 0.0
    assert bounds.aux_eval("h", 1.0) == pytest.approx(1.0 - math.log(2.0), rel=1e-14)
    assert bounds.aux_eval("f", 2.0) == pytest.approx(refs.TAU_2_1, rel=1e-12)
    with pytest.raises(KeyError):
        bounds.aux_eval("Q", 1.0)


def test_aux_signs_on_grid():
    for x in GRID:
        assert 0.0 < bounds.aux_eval("f", x) < 1.0 / 3.0
        assert bounds.aux_eval("H", x) > 0.0
        assert bounds.aux_eval("P", x) < 0.0
        assert bounds.aux_eval("p", x) < 0.0
        assert bounds.aux_eval("theta", x) < 0.0


@pytest.mark.parametrize("name", ["aux_h", "aux_theta", "aux_p"])
def test_aux_nonnegative_domain(name):
    fn = getattr(bounds, name)
    assert fn(0.0) == 0.0
    for bad in (-1e-300, -1.0, -math.inf, math.nan, math.inf):
        with pytest.raises(DomainError):
            fn(bad)


def test_aux_f_limit():
    assert bounds.aux_eval("f", 1e6) == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_aux_p_large_x_series_branch():
    # the series branch must join the direct branch smoothly and keep P < 0
    direct = bounds.aux_big_p(15.999999)
    series = bounds.aux_big_p(16.000001)
    assert series == pytest.approx(direct, rel=1e-6)
    assert bounds.aux_big_p(1e6) < 0.0
    assert bounds.aux_big_p(1e6) == pytest.approx(-1.0 / (120.0 * 1e30), rel=1e-3)
