import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import refs_frozen as refs
from psibounds import oracle, tails
from psibounds.errors import DomainError, ToleranceError

mpmath = pytest.importorskip("mpmath")
mpmath.mp.dps = 40


def mp_digamma(x):
    return float(mpmath.psi(0, mpmath.mpf(x)))


def mp_trigamma(x):
    return float(mpmath.psi(1, mpmath.mpf(x)))


def mp_log_gamma(x):
    return float(mpmath.loggamma(mpmath.mpf(x)))


def mp_gap(x):
    return float(mpmath.log(mpmath.mpf(x)) - mpmath.psi(0, mpmath.mpf(x)))


def mp_mu(x):
    x = mpmath.mpf(x)
    return float(mpmath.loggamma(x) - (x - mpmath.mpf(1) / 2) * mpmath.log(x)
                 + x - mpmath.log(2 * mpmath.pi) / 2)


def test_ref_digamma_spot_values():
    assert oracle.ref_digamma(1.0, 1e-12).value == pytest.approx(-refs.EULER_GAMMA, abs=1e-12)
    assert oracle.ref_digamma(2.0, 1e-12).value == pytest.approx(1 - refs.EULER_GAMMA, abs=1e-12)
    r = oracle.ref_digamma(4.0 / 3.0, 1e-12)
    assert r.value == pytest.approx(refs.DIGAMMA_4_3, abs=1e-12)
    assert r.error_radius <= 1e-12


def test_ref_trigamma_spot_values():
    r = oracle.ref_trigamma(1.0, 1e-10)
    assert r.value == pytest.approx(refs.TRIGAMMA_1, abs=1e-10)
    assert oracle.ref_trigamma(2.0, 1e-10).value == pytest.approx(refs.TRIGAMMA_2, abs=1e-10)
    assert oracle.ref_trigamma(4.0 / 3.0, 1e-10).value == pytest.approx(
        refs.TRIGAMMA_4_3, abs=1e-10
    )


def test_ref_log_gamma_spot_values():
    assert oracle.ref_log_gamma(1.0, 1e-12).value == pytest.approx(0.0, abs=1e-12)
    assert oracle.ref_log_gamma(0.5, 1e-12).value == pytest.approx(refs.LOG_GAMMA_HALF, abs=1e-12)
    assert oracle.ref_log_gamma(5.0, 1e-12).value == pytest.approx(refs.LOG_24, abs=1e-12)


def test_ref_euler_gamma():
    five = oracle.ref_euler_gamma(1e-5)
    assert repr(five.value).startswith("0.57721")
    tight = oracle.ref_euler_gamma(1e-12)
    assert tight.value == pytest.approx(refs.EULER_GAMMA, abs=1e-12)
    assert tight.error_radius <= 1e-12
    # self-consistency with the digamma oracle
    psi1 = oracle.ref_digamma(1.0, 1e-12)
    assert abs(psi1.value + tight.value) <= psi1.error_radius + tight.error_radius


def test_eps_floor_fails_loudly():
    with pytest.raises(ToleranceError):
        oracle.ref_digamma(1.0, 9e-15)
    with pytest.raises(ToleranceError):
        oracle.ref_euler_gamma(9e-13)
    with pytest.raises(DomainError):
        oracle.ref_digamma(1.0, -1e-10)


def test_unreachable_absolute_tolerance_fails_loudly():
    # trigamma(1e-3) ~ 1e6: an absolute 1e-12 is below its representation.
    with pytest.raises(ToleranceError):
        oracle.ref_trigamma(1e-3, 1e-12)
    # log-gamma at 1e4 occupies ~1.5e-11 per ulp
    with pytest.raises(ToleranceError):
        oracle.ref_log_gamma(1e4, 1e-13)


@pytest.mark.parametrize("x", [1e-3, 0.04, 0.51, 1.0, 4.0 / 3.0, 7.3, 100.0, 4321.5, 1e4])
def test_radius_contains_truth_digamma_family(x):
    r = oracle.ref_digamma(x, 1e-12)
    assert abs(r.value - mp_digamma(x)) <= r.error_radius
    g = oracle.ref_digamma_gap(x, 1e-12)
    assert abs(g.value - mp_gap(x)) <= g.error_radius
    if x >= 0.5:
        t = oracle.ref_trigamma(x, 1e-12)
        assert abs(t.value - mp_trigamma(x)) <= t.error_radius


@pytest.mark.parametrize("x", [1e-3, 0.51, 1.0, 2.0, 11.25, 317.0, 1e4])
def test_radius_contains_truth_log_gamma_and_mu(x):
    lg = oracle.ref_log_gamma(x, 1e-6)
    assert abs(lg.value - mp_log_gamma(x)) <= lg.error_radius
    mu = oracle.ref_binet_mu(x, 1e-12)
    assert abs(mu.value - mp_mu(x)) <= mu.error_radius
    # absolute eps must scale with the ~1/x magnitude of the target at 1e-3
    st_ = oracle.ref_stirling_target(x, 1e-8)
    x_mp = mpmath.mpf(x)
    truth = float(mpmath.exp(
        mpmath.loggamma(x_mp) - (x_mp - mpmath.mpf(1) / 2) * mpmath.log(x_mp)
        + x_mp - mpmath.log(2 * mpmath.pi) / 2
    ) / mpmath.sqrt(x_mp))
    assert abs(st_.value - truth) <= st_.error_radius


def test_radii_much_tighter_than_requested_in_easy_regimes():
    assert oracle.ref_digamma_gap(1e4, 1e-12).error_radius < 1e-18
    assert oracle.ref_stirling_target(1e4, 1e-12).error_radius < 1e-16


@given(st.floats(min_value=0.01, max_value=500.0),
       st.sampled_from([1e-6, 1e-8, 1e-10]))
@settings(max_examples=40, deadline=None)
def test_bracket_nesting_under_tightening(x, eps):
    # Shrinking eps by 10x must produce a value inside the old interval.
    wide = oracle.ref_digamma(x, eps)
    tight = oracle.ref_digamma(x, eps / 10.0)
    assert wide.lower <= tight.value <= wide.upper
    assert tight.error_radius <= wide.error_radius


def test_recurrence_closure_within_combined_radii():
    import random

    rng = random.Random(7)
    for _ in range(100):
        x = rng.uniform(0.05, 50.0)
        a = oracle.ref_digamma(x, 1e-12)
        b = oracle.ref_digamma(x + 1.0, 1e-12)
        slack = a.error_radius + b.error_radius + math.ulp(abs(b.value) + 1.0 / x)
        assert abs(b.value - a.value - 1.0 / x) <= slack


def integral_test_bracket_trigamma(m):
    """Coarse integral-test bracket for sum_{j>=0} (m+j)^-2: (1/m, 1/m + 1/m^2).

    Equivalently: 1/(x+K+1) < sum_{k>K} 1/(x+k)^2 < 1/(x+K) with m = x+K+1.
    """
    return 1.0 / m, 1.0 / m + 1.0 / (m * m)


def test_em2_enclosure_inside_classical_integral_test():
    # the sharp trigamma tail must sit inside 1/(x+K+1) < tail < 1/(x+K)
    for m in (5.0, 64.0, 1000.0):
        lo, hi = tails.polygamma_tail(m, 1)
        coarse_lo, coarse_hi = integral_test_bracket_trigamma(m)
        assert coarse_lo < lo < hi < coarse_hi


def test_em2_brackets_contain_high_precision_tails():
    x = mpmath.mpf("3.7")
    for m in (9, 33):
        true_tail = float(
            mpmath.log(x) - mpmath.psi(0, x)
            - mpmath.fsum(1 / (x + k) - mpmath.log(1 + 1 / (x + k)) for k in range(m))
        )
        lo, hi = tails.gap_tail(float(x) + m)
        assert lo <= true_tail <= hi


def test_error_bounded_value_validation():
    with pytest.raises(ValueError):
        oracle.ErrorBoundedValue(1.0, -1e-3)
    ebv = oracle.ErrorBoundedValue(2.0, 0.5)
    assert ebv.lower == 1.5 and ebv.upper == 2.5
    assert "±" in str(ebv)


def test_determinism_and_cache_transparency():
    a = oracle.ref_digamma_gap(17.5, 1e-12)
    oracle.clear_caches()
    b = oracle.ref_digamma_gap(17.5, 1e-12)
    assert a == b


# -- bounded cost: psi and log Gamma through the gap and mu series -------------

def mp_reference(fn, x):
    """An mpmath value at 60 + 2 log10(x) digits: the digamma gap and mu are
    small differences of large terms at large x."""
    with mpmath.workdps(60 + 2 * max(0, math.ceil(math.log10(x)))):
        return fn(mpmath.mpf(x))


def encloses(r, ref):
    return math.isfinite(r.value) and abs(mpmath.mpf(r.value) - ref) <= r.error_radius


def test_large_x_is_routed_and_fast():
    # A recurrence down to (0, 2] would take ~1e8 terms (and O(x) memory) here.
    x = 1e8
    oracle.clear_caches()
    t0 = time.perf_counter()
    psi = oracle.ref_digamma(x)
    lg = oracle.ref_log_gamma(x, 1e-3)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    assert encloses(psi, mp_reference(mpmath.digamma, x))
    assert encloses(lg, mp_reference(mpmath.loggamma, x))


def test_log_gamma_refusal_known_before_any_sum(monkeypatch):
    # Half an ulp of log Gamma(1e6) ~ 1.3e7 is ~9e-10 > 1e-12: no sum may run.
    def boom(*args, **kwargs):
        raise AssertionError("summed before refusing")

    oracle.clear_caches()
    monkeypatch.setattr(oracle.np, "arange", boom)
    monkeypatch.setattr(oracle.kernels, "_poly_eval", boom)
    with pytest.raises(ToleranceError):
        oracle.ref_log_gamma(1e6, 1e-12)


@pytest.mark.parametrize("x", [math.nextafter(2.0, 0.0), 2.0, math.nextafter(2.0, math.inf)])
def test_series_and_closed_form_agree_at_the_switch(x):
    # log Gamma's series serves (0, 2], the closed form around mu above 2.
    series = oracle._log_gamma_series(x, 1e-12)
    closed = oracle._log_gamma_stirling(x, 1e-12, "closed form")
    ref = mp_reference(mpmath.loggamma, x)
    assert encloses(series, ref) and encloses(closed, ref)
    assert max(series.lower, closed.lower) <= min(series.upper, closed.upper)


@pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-6])
def test_early_log_gamma_refusal_only_where_the_full_sum_refuses(eps, monkeypatch):
    for x in np.logspace(np.log10(2.5), 5, 40):
        x = float(x)
        with monkeypatch.context() as m:
            # The closed form evaluated in full: mu summed, no refusal.
            m.setattr(oracle, "_ensure", lambda *args: None)
            full = oracle._log_gamma_stirling(x, eps, "full")
        oracle.clear_caches()
        try:
            oracle.ref_log_gamma(x, eps)
            refused = False
        except ToleranceError:
            refused = True
        assert refused == (full.error_radius > eps), x


def test_no_bulk_terms_at_abscissas_that_round_together(monkeypatch):
    # Past 2^53, x + j repeats a few doubles; at 1e19 the tail enclosure at
    # x itself is already far below an ulp of the gap, so terms summed in
    # bulk there would be wasted work.
    lengths = []
    arange = np.arange

    def recording_arange(*args, **kwargs):
        out = arange(*args, **kwargs)
        lengths.append(len(out))
        return out

    oracle.clear_caches()
    monkeypatch.setattr(oracle.np, "arange", recording_arange)
    r = oracle.ref_digamma_gap(1e19)
    assert sum(lengths) < 64
    assert encloses(r, mp_reference(HUGE_TARGETS["ref_digamma_gap"], 1e19))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x", [1e-300, 1e-310, 5e-324])
def test_trigamma_refuses_tiny_x_before_summing(x):
    # psi'(x) > 1/x^2, whose half ulp exceeds eps long before 1/x^2
    # overflows: ToleranceError, with no overflow warning from the sum.
    with pytest.raises(ToleranceError):
        oracle.ref_trigamma(x, 1e-3)


HUGE_TARGETS = {
    "ref_digamma_gap": lambda m: mpmath.log(m) - mpmath.digamma(m),
    "ref_binet_mu": lambda m: (mpmath.loggamma(m) - (m - 0.5) * mpmath.log(m) + m
                               - mpmath.log(2 * mpmath.pi) / 2),
    "ref_digamma": mpmath.digamma,
    "ref_log_gamma": mpmath.loggamma,
}


@pytest.mark.parametrize("name", sorted(HUGE_TARGETS))
def test_huge_x_encloses_or_refuses(name):
    # Up to the largest double, including the subnormal results of the gap
    # and mu past ~1e306, and at subnormal x: a true enclosure or a
    # documented refusal.
    xs = [float(v) for v in np.logspace(5, 308, 60)]
    xs += [1e55, 1e80, 1e200, 1e300, 3e307, 1e308, 1.7976931348623157e308]
    xs += [1e-310, 5e-324]  # subnormal x, where 1/x overflows
    returned = 0
    for x in xs:
        for eps in (1e-12, 1e-3):
            oracle.clear_caches()
            try:
                r = getattr(oracle, name)(x, eps)
            except (ToleranceError, DomainError):
                continue
            returned += 1
            assert encloses(r, mp_reference(HUGE_TARGETS[name], x)), (x, eps, r)
    assert returned > 0
