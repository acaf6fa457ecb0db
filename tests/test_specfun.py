import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import refs_frozen as refs
from psibounds import kernels, oracle, specfun
from psibounds.errors import DomainError


def test_constants():
    assert repr(specfun.EULER_GAMMA).startswith("0.57721")
    assert specfun.EULER_GAMMA == pytest.approx(refs.EULER_GAMMA, abs=1e-15)
    assert specfun.LOG_TWO_PI == pytest.approx(math.log(2 * math.pi), rel=1e-15)
    assert specfun.HALF_LOG_TWO_PI == specfun.LOG_TWO_PI / 2.0


def test_log_gamma_spot_values():
    assert specfun.log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert specfun.log_gamma(5.0) == pytest.approx(refs.LOG_24, rel=1e-14)
    assert specfun.log_gamma(0.5) == pytest.approx(refs.LOG_GAMMA_HALF, rel=1e-14)
    assert specfun.log_gamma(math.pi) == pytest.approx(refs.LOG_GAMMA_PI, rel=1e-14)
    assert specfun.log_gamma(10001.0) == pytest.approx(refs.LOG_GAMMA_10001, rel=1e-14)


def test_digamma_spot_values():
    assert specfun.digamma(1.0) == pytest.approx(-refs.EULER_GAMMA, rel=1e-13)
    assert specfun.digamma(2.0) == pytest.approx(1.0 - refs.EULER_GAMMA, rel=1e-13)
    assert specfun.digamma(4.0 / 3.0) == pytest.approx(refs.DIGAMMA_4_3, rel=1e-12)
    assert specfun.digamma(math.pi) == pytest.approx(refs.DIGAMMA_PI, rel=1e-13)


def test_trigamma_spot_values():
    assert specfun.trigamma(1.0) == pytest.approx(refs.TRIGAMMA_1, rel=1e-13)
    assert specfun.trigamma(2.0) == pytest.approx(refs.TRIGAMMA_2, rel=1e-13)
    assert specfun.trigamma(4.0 / 3.0) == pytest.approx(refs.TRIGAMMA_4_3, rel=1e-13)
    assert specfun.trigamma(math.pi) == pytest.approx(refs.TRIGAMMA_PI, rel=1e-13)


def test_polygamma_spot_values():
    assert specfun.polygamma(1, 1.0) == pytest.approx(refs.TRIGAMMA_1, rel=1e-13)
    assert specfun.polygamma(2, 1.5) == pytest.approx(refs.PSI2_1P5, rel=1e-13)
    assert specfun.polygamma(3, 2.25) == pytest.approx(refs.PSI3_2P25, rel=1e-13)


def test_polygamma_rejects_bad_order():
    for n in (0, -1, 1.0, True):
        with pytest.raises(DomainError):
            specfun.polygamma(n, 1.0)


@pytest.mark.parametrize("fn", [specfun.log_gamma, specfun.digamma, specfun.trigamma,
                                specfun.stirling_ratio, specfun.digamma_gap])
@pytest.mark.parametrize("bad", [0.0, -0.5, float("inf"), float("nan")])
def test_domain_errors(fn, bad):
    with pytest.raises(DomainError):
        fn(bad)


def test_trigamma_at_huge_x_is_its_tail():
    # A quarter ulp of 1e-300 is subnormal; it once overflowed the tail-start
    # ratio.
    assert specfun.trigamma(1e300) == pytest.approx(1e-300, rel=1e-15)


@pytest.mark.parametrize("n, x", [(1, 1e-300), (200, 1.0)])
def test_polygamma_beyond_the_largest_double_is_a_domain_error(n, x):
    # psi'(1e-300) > 1e600 and |psi^(200)(1)| = 200! zeta(201) > 7e374.
    with pytest.raises(DomainError):
        specfun.polygamma(n, x)


def test_polygamma_past_the_factorial_overflow():
    # 171! overflows a double, psi^(171)(2) ~ 2.07e257 does not; at 1000 the
    # terms of psi^(200) underflow while the value (~4e-228) would not.
    mpmath = pytest.importorskip("mpmath")
    assert specfun.polygamma(171, 2.0) == pytest.approx(float(mpmath.polygamma(171, 2)),
                                                        rel=1e-13)
    with pytest.raises(DomainError):
        specfun.polygamma(200, 1000.0)


def test_recurrences_on_random_points():
    rng = random.Random(20240811)
    for _ in range(1000):
        x = rng.uniform(1e-6, 100.0)
        assert abs(specfun.digamma(x + 1.0) - specfun.digamma(x) - 1.0 / x) <= 1e-10
        assert abs(specfun.trigamma(x + 1.0) - specfun.trigamma(x) + x**-2.0) <= 1e-10
        assert abs(specfun.log_gamma(x + 1.0) - specfun.log_gamma(x) - math.log(x)) <= 1e-10


def test_digamma_strictly_increasing_trigamma_decreasing():
    xs = [10.0 ** (-2 + 5 * i / 499) for i in range(500)]
    d = [specfun.digamma(x) for x in xs]
    t = [specfun.trigamma(x) for x in xs]
    assert all(b > a for a, b in zip(d, d[1:]))
    assert all(v > 0.0 for v in t)
    assert all(b < a for a, b in zip(t, t[1:]))


def test_derivative_consistency():
    # central difference of digamma vs trigamma, h = 1e-5
    h = 1e-5
    for i in range(60):
        x = 0.5 + (50.0 - 0.5) * i / 59.0
        fd = (specfun.digamma(x + h) - specfun.digamma(x - h)) / (2.0 * h)
        assert fd == pytest.approx(specfun.trigamma(x), rel=1e-5)


@given(st.floats(min_value=1e-3, max_value=1e9))
@settings(max_examples=60)
def test_gap_positive_and_leading_coefficient(x):
    g = specfun.digamma_gap(x)
    assert g > 0.0
    assert 0.0 < x * x * kernels.kernel_r(x) < 0.5


def test_squared_kernel_increases_to_half():
    xs = [10.0 ** (-2 + 8 * i / 199) for i in range(200)]
    vals = [x * x * kernels.kernel_r(x) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.5


def test_stirling_ratio_spot_values():
    assert specfun.stirling_ratio(1.0) == pytest.approx(refs.STIRLING_RATIO_1, rel=1e-13)
    assert specfun.stirling_ratio(2.0) == pytest.approx(refs.STIRLING_RATIO_2, rel=1e-13)
    assert specfun.stirling_ratio(10.0) == pytest.approx(refs.STIRLING_RATIO_10, rel=1e-13)


def test_stirling_ratio_above_one_decreasing_to_limit():
    xs = [10.0 ** (-2 + 8 * i / 299) for i in range(300)]
    vals = [specfun.stirling_ratio(x) for x in xs]
    assert all(v > 1.0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert specfun.stirling_ratio(1e6) == pytest.approx(1.0, abs=1e-6)


def test_root_scaled_target():
    assert math.exp(specfun.log_stirling_root_scaled(2.0)) == pytest.approx(
        refs.ROOT_SCALED_TARGET_2, rel=1e-13
    )
    # differs from the classical ratio by exactly sqrt(x)
    x = 7.5
    assert specfun.stirling_ratio(x) == pytest.approx(
        math.exp(specfun.log_stirling_root_scaled(x)) * math.sqrt(x), rel=1e-13
    )


def test_core_matches_oracle_on_grid():
    # 200 log-spaced points over (0, 1e3], tolerance 1e-10
    for i in range(200):
        x = 10.0 ** (-3 + 6 * i / 199)
        assert abs(specfun.digamma(x) - oracle.ref_digamma(x, 1e-11).value) <= 1e-10
        assert abs(specfun.log_gamma(x) - oracle.ref_log_gamma(x, 1e-11).value) <= 1e-10
        if x >= 0.05:  # absolute 1e-10 is meaningless against the 1/x^2 pole
            assert abs(specfun.trigamma(x) - oracle.ref_trigamma(x, 1e-11).value) <= 1e-10


def test_digamma_gap_equals_log_minus_digamma():
    for x in (0.25, 1.0, 3.0, 42.0):
        assert specfun.digamma_gap(x) == pytest.approx(
            math.log(x) - specfun.digamma(x), rel=1e-12
        )
