import functools
import inspect
import math
import random
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import refs_frozen as refs
from psibounds import kernels, oracle, specfun, tails
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
    # gamma = gap(1), summed to a quarter ulp: the nearest double, as specfun has it.
    assert tight.value == specfun.EULER_GAMMA
    assert tight.error_radius < 4.0 * math.ulp(tight.value)


@pytest.mark.parametrize("name, args, x, summed, summing", [
    ("ref_digamma", (0.3,), 0.3, "ref_digamma_gap", "_enveloped_tail"),
    ("ref_digamma", (7.5,), 7.5, "ref_digamma_gap", "_enveloped_tail"),
    ("ref_euler_gamma", (), 1.0, "ref_digamma_gap", "_enveloped_tail"),
    ("ref_log_gamma", (50.0,), 50.0, "ref_binet_mu", "_kernel_sum"),
    ("ref_log_gamma", (1.5,), 1.0, "ref_digamma_gap", "_enveloped_tail"),
])
def test_psi_gamma_and_log_gamma_take_the_cached_sums(name, args, x, summed, summing,
                                                      monkeypatch):
    # The gap and mu series are each summed at most once per call: log Gamma
    # above 2 reads mu's cache, and no other gap or mu sum runs.  psi sums the
    # gap's parts itself, to round once, and leaves the gap's cache empty.
    # gamma = gap(1) is enclosed once at import, so gamma and log Gamma on
    # (0, 2] (the rows at x = 1) sum no gap and leave its cache empty.
    oracle.clear_caches()
    sums = []
    real = {fn: getattr(oracle, fn) for fn in ("_enveloped_tail", "_kernel_sum")}

    def recording(fn):
        def run(y, *rest, **kwargs):
            sums.append((fn, y))
            return real[fn](y, *rest, **kwargs)
        return run

    for fn in real:
        monkeypatch.setattr(oracle, fn, recording(fn))
    getattr(oracle, name)(*args)
    once = x != 1.0
    assert getattr(oracle, summed).cache_info().currsize == (once and name != "ref_digamma")
    assert sums == [(summing, x)] * once
    oracle.clear_caches()


def test_gamma_is_enclosed_once_at_import(monkeypatch):
    # A cold ref_log_gamma on (0, 2] and ref_euler_gamma sum no gap: they read
    # gamma's enclosure, the same doubles as the gap's sum at 1.
    def boom(*args):
        raise AssertionError("summed the gap")

    oracle.clear_caches()
    monkeypatch.setattr(oracle, "_gap_parts", boom)
    gamma, log_gamma_half = oracle.ref_euler_gamma(), oracle.ref_log_gamma(0.5)
    monkeypatch.undo()
    assert gamma == oracle.ref_digamma_gap(1.0)
    assert encloses(log_gamma_half, mp_reference(mpmath.loggamma, 0.5))
    oracle.clear_caches()


@pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-5])
def test_euler_gamma_matches_the_accelerated_harmonic_limit(eps):
    # H_n - log sqrt(n(n+1)) approaches the constant from above like 1/(6n^2);
    # 1/(3n^2) + 1e-12 allows for that and the float sum.
    n = 20000
    h = math.fsum(1.0 / k for k in range(1, n + 1))
    accel = h - 0.5 * (math.log(n) + math.log(n + 1))
    gamma = oracle.ref_euler_gamma(eps)
    assert abs(gamma.value - accel) <= 1.0 / (3.0 * n * n) + 1e-12 + gamma.error_radius


def test_eps_is_refused_exactly_where_the_radius_exceeds_it():
    # No floor of its own: an eps the radius meets is met, however small.
    r = oracle.ref_trigamma(1e5, 1e-20)
    assert r.value == 1.0000050000166667e-05 and f"{r.error_radius:.2e}" == "8.47e-22"
    assert f"{oracle.ref_digamma(1.0, 9e-15).error_radius:.2e}" == "3.18e-16"
    with pytest.raises(ToleranceError):
        oracle.ref_trigamma(1e5, 1e-22)
    with pytest.raises(ToleranceError):
        oracle.ref_digamma(1.0, 1e-16)
    # gamma = gap(1): met and refused as the gap itself.
    assert oracle.ref_euler_gamma(9e-15) == oracle.ref_digamma_gap(1.0, 9e-15)
    with pytest.raises(ToleranceError):
        oracle.ref_euler_gamma(1e-16)
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


def test_trigamma_tail_inside_classical_integral_test():
    # the sharp trigamma tail must sit inside 1/(x+K+1) < tail < 1/(x+K)
    for m in (10.0, 16.0, 64.0, 1000.0):
        (hi, lo), half, _ = oracle._enveloped_tail(m, 0, oracle._TRIGAMMA_SERIES)
        coarse_lo, coarse_hi = integral_test_bracket_trigamma(m)
        with mpmath.workdps(400):   # the half-width is a subnormal from m = 64
            mid = mpmath.mpf(hi) + lo
            assert coarse_lo < mid - half < mid + half < coarse_hi


#: Where the tails start: y = 10 (the most terms), just above it, y = 16, and up
#: to the largest double, where the gap and psi' are subnormal.
_TAIL_Y = [10.0, math.nextafter(10.0, math.inf), 10.5, 15.99, 16.0, math.nextafter(16.0, math.inf),
           16.5, 31.99, 64.0, 84.0, 2240.0, 1.1e5, 2.0**53 + 2.0, 1e20, 1e150, 1e300,
           1.7976931348623157e308]
_TAIL_SERIES = {   # the oracle's series, F, and the divisor of B_2k in its k-th coefficient
    "gap": ("_GAP_SERIES", lambda m: mpmath.log(m) - mpmath.digamma(m), lambda k: 2 * k),
    "trigamma": ("_TRIGAMMA_SERIES", lambda m: mpmath.psi(1, m), lambda k: 1),
}


@pytest.mark.parametrize("series", sorted(_TAIL_SERIES))
@pytest.mark.parametrize("y", _TAIL_Y)
def test_enveloped_tail_encloses_its_function(series, y):
    # gap(y) and psi'(y) lie within the half-width plus the charge of hi + lo.
    # The half-width is half the first omitted term, under 2^-74 of 1/y, and
    # the charge, for the floors and what hi + lo leave, under 2^-70 of it
    # (both underflow to the least subnormal near the largest double).
    name, exact, _ = _TAIL_SERIES[series]
    (hi, lo), half, charge = oracle._enveloped_tail(y, 0, getattr(oracle, name))
    with mpmath.workdps(50 + 2 * math.ceil(math.log10(y))):
        m = mpmath.mpf(y)
        assert abs(mpmath.mpf(hi) + lo - exact(m)) <= mpmath.mpf(half) + charge, y
        assert max(half, charge) <= max(2.0**-70 / y, 2.0**-1074), (y, half, charge)


def _tail_terms(series, y, n):
    # The lead terms and the first n <= len(_B2K) others of the oracle's gap
    # or psi' series at y, an mpf or a Fraction: the lead terms from the
    # oracle's (k, h) pairs, the others from the exact B_2k.
    lead, e, _ = getattr(oracle, _TAIL_SERIES[series][0])
    divisor = _TAIL_SERIES[series][2]
    terms = [1 / (2**h * y**k) for k, h in lead]
    for k, (a, b) in enumerate(oracle._B2K[:n], 1):
        terms.append(a / (b * divisor(k) * y ** (2 * k + e - 2)))
    return terms


@pytest.mark.parametrize("series", sorted(_TAIL_SERIES))
@pytest.mark.parametrize("y", [10.0, 10.5, 16.0, 1e3, 2.0**53, 1e300])
def test_enveloped_tail_is_its_truncated_series(series, y):
    # The fixed-point tail against the same series summed exactly: for some
    # truncation, after the lead and m terms, whose next term spans no more
    # than the enclosure's width, hi + lo plus or minus the half-width covers
    # the exact partial sum and that sum plus the next term, to within the
    # charge (its floors' share is derived beside the code).  Then the
    # enclosure holds wherever the series envelopes.
    name = _TAIL_SERIES[series][0]
    lead = len(getattr(oracle, name)[0])
    (hi, lo), half, charge = oracle._enveloped_tail(y, 0, getattr(oracle, name))
    terms = _tail_terms(series, Fraction(y), len(oracle._B2K))
    mid = Fraction(hi) + Fraction(lo)
    half, charge = Fraction(half), Fraction(charge)
    offs = []
    for m in range(len(oracle._B2K)):
        omitted, partial = terms[lead + m], sum(terms[:lead + m])
        if abs(omitted) <= 2 * half:
            offs.append(max(abs(mid - partial), abs(mid - partial - omitted)) - half)
    assert offs and min(offs) <= charge, (y, offs and min(offs), charge)


def test_oracle_bernoulli_numbers_are_sympys():
    sympy = pytest.importorskip("sympy")
    assert len(oracle._B2K) == 17
    for k, b in enumerate(oracle._B2K, 1):
        assert b == sympy.fraction(sympy.bernoulli(2 * k)), k


def test_tail_tables_keep_each_term_of_4_units_or_more():
    # What _enveloped_tail's half-width rests on: in each binade
    # [2^e_y, 2^(e_y + 1)) that a tail at y >= 10 can start in, the table
    # keeps the coefficients whose term at y_lo = max(10, 2^e_y) is 4 units
    # or more, each the exact one floored, and the first omitted one is in
    # the B_2k table, with its term at y_lo under 4 units (so at every y of
    # the binade, as terms fall with y) and its sign recorded.
    for series in _TAIL_SERIES:
        name, _, divisor = _TAIL_SERIES[series]
        _, e, table = getattr(oracle, name)
        coefficients = [Fraction(a, b * divisor(k)) for k, (a, b) in enumerate(oracle._B2K, 1)]
        assert len(table) == 1024   # e_y up to 1023: y < 2^1024
        for e_y in range(3, 1024):
            b, kept, sign = table[e_y]
            m, y_lo = len(kept), max(10, 2**e_y)
            assert m + 1 <= len(oracle._B2K), (series, e_y)
            for c, floored in zip(coefficients, kept[::-1]):
                assert 0 <= c * 2**b - floored < 1, (series, e_y)
            for k, c in enumerate(coefficients[:m]):
                assert abs(c) * 2**b >= 4 * y_lo ** (2 * k + e), (series, e_y, k)
            omitted = coefficients[m]
            assert abs(omitted) * 2**b < 4 * y_lo ** (2 * m + e), (series, e_y)
            assert sign == (1 if omitted > 0 else -1), (series, e_y)
    # The gap keeps 15 coefficients at y = 10 and psi' 16, and none from
    # y = 2^105 and 2^53, where their first is under 4 units.
    for name, at_ten, none_from in (("_GAP_SERIES", 15, 105), ("_TRIGAMMA_SERIES", 16, 53)):
        sizes = [len(kept) for _, kept, _ in getattr(oracle, name)[2][3:]]
        assert sizes[0] == at_ten and sizes.index(0) + 3 == none_from, name


@pytest.mark.parametrize("series", sorted(_TAIL_SERIES))
def test_tail_horner_sum_is_within_its_floor_charge(series, monkeypatch):
    # What _enveloped_tail's floor charge rests on: the integer partial sum it
    # hands on, the lead terms plus one Horner pass over the binade's floored
    # coefficients, is within the derived units of the exact sum of the same
    # terms: each lead term under 1 + 2^-32, the Horner pass under 1.03
    # (1.11 after psi''s product by 1/y), r2's share under 2^-20.  The first
    # omitted term is under 4 units, handed on as 4 units of its sign.
    name = _TAIL_SERIES[series][0]
    lead, e, table = getattr(oracle, name)
    handed = []
    monkeypatch.setattr(oracle, "_enveloped", lambda *args: handed.append(args))
    rng = random.Random(28)
    ys = ([10.0, 10.5, 16.0, 1e3, 2.0**53, 1e300, 1.7e308]
          + [rng.uniform(10.0, 1e3) for _ in range(100)]
          + [math.exp(rng.uniform(math.log(10.0), math.log(1.7e308))) for _ in range(100)])
    bound = (len(lead) * (1 + Fraction(1, 2**32)) + Fraction(103 if e == 2 else 111, 100)
             + Fraction(1, 2**20))
    for y in ys:
        oracle._enveloped_tail(y, 0, getattr(oracle, name))
        (partial, omitted, b, floor_charge), = handed
        handed.clear()
        m = len(table[math.frexp(y)[1] - 1][1])
        terms = _tail_terms(series, Fraction(y), m + 1)
        assert abs(partial - sum(terms[:-1]) * 2**b) < bound <= Fraction(floor_charge, 2), y
        assert 0 < terms[-1] * 2**b * (omitted // 4) < 4 and abs(omitted) == 4, (series, y)


@pytest.mark.parametrize("series", sorted(_TAIL_SERIES))
def test_oracle_tail_series_envelope(series):
    # What _enveloped_tail's half-width rests on (DLMF 5.11(ii); psi' once
    # its two leading terms are summed): what the kept terms leave lies
    # strictly between 0 and the first omitted term, on y in [10, 1e300], for
    # every truncation down to terms of 2^-115 of 1/y or to the end of the
    # oracle's table (2^-74 of 1/y at y = 10), as far as the tail goes
    # (under 4 units: 2^-73 of 1/y at y = 10, 2^-107 from y = 2^12).
    name, exact, _ = _TAIL_SERIES[series]
    lead = len(getattr(oracle, name)[0])
    n = len(oracle._B2K)
    for i in range(31):
        y = 10.0 * (1e300 / 10.0) ** (i / 30)
        with mpmath.workdps(40):
            terms = _tail_terms(series, mpmath.mpf(y), n)
            stop = next((k for k in range(lead, len(terms)) if abs(terms[k]) * y < 2.0**-115),
                        len(terms) - 1)
        # The remainder is about y^-2 of the term it is compared with, which is
        # down to y^-(2n + 1) of the value: so many digits, and 30 more.
        with mpmath.workdps(30 + (2 * stop + 4) * math.ceil(math.log10(y))):
            m = mpmath.mpf(y)
            terms = _tail_terms(series, m, stop + 1 - lead)
            value = exact(m)
            for k in range(lead, stop + 1):
                ratio = (value - mpmath.fsum(terms[:k])) / terms[k]
                assert 0 < ratio < 1, (series, y, k)


def _mp_binet_mu(m):
    # mu(m) = log Gamma(m) - (m - 1/2) log m + m - log(2 pi)/2, which cancels
    # about 2 log10(m) digits: the caller's working precision must cover them.
    return mpmath.loggamma(m) - (m - 0.5) * mpmath.log(m) + m - mpmath.log(2 * mpmath.pi) / 2


@pytest.mark.parametrize("y", [64.0, 2240.0, 1.1e5, 1e20, 1e150])
def test_mu_tail_is_its_enveloped_stirling_expansion(y):
    # mu's tail at y is mu(y), between 1/(12y) - 1/(360y^3) and that plus
    # 1/(1260y^5): the half-width is 1/(2520y^5) rounded up (at 1e150 it
    # underflows, to the least subnormal), and the midpoint is within it, plus
    # the oracle's 4-ulp midpoint charge, of the 50-digit mu.
    mid, half = tails.mu_tail(y)
    with mpmath.workdps(55 + 2 * math.ceil(math.log10(y))):
        m = mpmath.mpf(y)
        exact = 1 / (2520 * m**5)
        assert exact <= half <= max(exact * (1 + 2.0**-50), 2.0**-1074), y
        assert abs(mid - _mp_binet_mu(m)) <= half + 4 * 2.0**-52 * mid, y


def test_mu_stirling_remainder_is_enveloped():
    # What mu_tail's half-width rests on (DLMF 5.11(ii)): mu(y) less its two
    # Stirling terms lies strictly between 0 and the first omitted term, so
    # r = (mu(y) - 1/(12y) + 1/(360y^3)) 1260y^5 is in (0, 1).  r is about
    # 1 - 0.75/y^2, mu's form cancels 2 log10(y) digits and the remainder is
    # y^-4 of mu, so telling r from 1 takes about 8 log10(y) digits.
    for i in range(61):
        y = 64.0 * (1e12 / 64.0) ** (i / 60)
        with mpmath.workdps(50 + 8 * math.ceil(math.log10(y))):
            m = mpmath.mpf(y)
            r = (_mp_binet_mu(m) - 1 / (12 * m) + 1 / (360 * m**3)) * 1260 * m**5
            assert 0 < r < 1, y


#: Steps of the log Gamma series: down to 2^-52 (x + 1 - 1 at the least x
#: that does not round to 1), powers of two and not, a = 1 (x = 1 and 2),
#: and the a = (x + 1) - 1 that x = 1e-3, 0.01, 0.3 and 0.41 take.
_LOG_GAMMA_A = ([2.0**-52, 1e-9, 1e-3, 0.25, 0.3, 0.5, 0.999, 1.0]
                + [(x + 1.0) - 1.0 for x in (1e-3, 0.01, 0.3, 0.41)])


def _mp_log_gamma_tail(a):
    # sum_{k>=16} [a/k - log(1 + a/k)] = log Gamma(16 + a) - log Gamma(16) - a psi(16),
    # the log Gamma series' tail: the gap tail at 16/a with step 1/a.
    aa, kk = mpmath.mpf(a), mpmath.mpf(16)
    return mpmath.loggamma(kk + aa) - mpmath.loggamma(kk) - aa * mpmath.psi(0, kk)


@pytest.mark.parametrize("a", _LOG_GAMMA_A)
def test_log_gamma_series_tail_encloses_a_50_digit_sum(a):
    # The tail from k = 16, after the 15 head terms: its exact midpoint is
    # within the half-width plus its derived charge, both under 2^-70 of it,
    # far below the 4 ulps a double midpoint is charged.  The closed form
    # cancels up to ~35 digits at a = 2^-52.
    with mpmath.workdps(90):
        truth = _mp_log_gamma_tail(a)
        (hi, lo), half, charge = oracle._log_gamma_tail(a)
        assert abs(mpmath.mpf(hi) + lo - truth) <= mpmath.mpf(half) + charge, a
        assert max(half, charge) <= 2.0**-70 * hi, (a, half, charge)


@pytest.mark.parametrize("a", _LOG_GAMMA_A)
def test_log_gamma_tail_corrections_envelope(a):
    # What _log_gamma_tail's half-width rests on: the tail less its terms
    # (-1)^m zeta(m, 16) a^m/m before the m-th lies strictly between 0 and the
    # m-th, for every m up to the first omitted one (m = 20) and past it.  The
    # digits grow with the powers of a that the rest falls to.
    with mpmath.workdps(60 + 22 * math.ceil(-math.log10(a))):
        aa = mpmath.mpf(a)
        rest = _mp_log_gamma_tail(a)
        for m in range(2, 23):
            term = (-1) ** m * mpmath.zeta(m, 16) * aa**m / m
            assert 0 < rest / term < 1, (a, m)
            rest -= term


def test_log_gamma_tail_table():
    # The coefficients (-1)^m c_m, c_m = zeta(m, 16)/m in units of 2^-90,
    # m = 19 ... 2, are each the exact c_m floored, to within the 2^-17 that
    # _zeta_16's sum charges; they alternate and fall by more than 16 a step,
    # as Leibniz's rule at every a <= 1 needs, and the omitted bound covers c_20.
    with mpmath.workdps(60):
        exact = {m: mpmath.zeta(m, 16) / m * mpmath.mpf(2) ** 90 for m in range(2, 21)}
    table = dict(zip(range(19, 1, -1), oracle._LOG_GAMMA_TAIL))
    assert sorted(table) == list(range(2, 20))
    for m, c in table.items():
        assert c * (-1) ** m > 0, m
        assert 0 <= exact[m] - abs(c) < 1 + 2.0**-17, m
        if m < 19:
            assert 16 * abs(table[m + 1]) < abs(c), m
    assert 16 * exact[20] < abs(table[19]) and oracle._LOG_GAMMA_OMITTED >= exact[20]


#: log Gamma radii where x + 1 adds no rounding (above 1, and on (0, 1] where
#: x + 1 is exact), as they were before the charge for rounding x + 1.
_LOG_GAMMA_EXACT_RADII = {
    1.0000000000000002: 9.53714170811005e-32, 1.5: 2.7380133947432823e-16,
    1.9999999999999998: 7.677620820660616e-16, 2.0: 6.466056036630751e-16,
    3.0: 1.0410132120709168e-15, 0.5: 6.301927805263437e-16, 0.375: 6.923796628643332e-16,
    2.0**-30: 1.1010932351488512e-14, 1.0: 6.466056036630751e-16,
    0.9999999999999998: 7.677620820660617e-16,
}


def test_log_gamma_charges_the_rounding_of_x_plus_one():
    # On (0, 1] the series sums log Gamma(1 + a), a = (x + 1) - 1, and
    # subtracts log x: where x + 1 rounds, a != x moves the value by
    # psi(1 + xi)(x - a), charged 0.5773 |x - a|.  Here that is 6.1% of the
    # radius without it (7.68e-16); where x + 1 is exact nothing changes.
    x = 0.9999926775359839
    r = oracle.ref_log_gamma(x, math.inf)
    assert r.error_radius == 8.318516465400625e-16
    with mpmath.workdps(60):
        assert abs(mpmath.mpf(r.value) - mpmath.loggamma(mpmath.mpf(x))) <= r.error_radius
    for x, radius in _LOG_GAMMA_EXACT_RADII.items():
        assert x > 1.0 or (x + 1.0) - 1.0 == x, x
        assert oracle.ref_log_gamma(x, math.inf).error_radius == radius, x


@pytest.mark.parametrize("b", [60, 1021, 1022, 1023, 1100, 1140])
def test_two_doubles_leaves_exactly_its_rest(b):
    # hi and lo are whole numbers of units 2^-b, and mid less hi + lo is the
    # returned rest, exactly, where 2^-b is normal and where it is subnormal.
    rng = random.Random(b)
    mids = [2**57, 2**57 + 1, 3 * 2**57 + 12345, 2**60 - 1, 2**110 + 2**40 + 1]
    mids += [rng.getrandbits(n) | 1 << n - 1 for n in range(58, min(b, 1000), 7)]
    subnormal = [0, 0]
    for mid in mids:
        (hi, lo), rest = oracle._two_doubles(mid, b)
        units = [Fraction(v) * 2**b for v in (hi, lo)]
        assert all(u.denominator == 1 for u in units), (mid, b)
        assert abs(mid - sum(units)) == rest, (mid, b)
        for i, v in enumerate((hi, lo)):
            subnormal[i] += 0.0 < abs(v) < 2.0**-1022
    # From b = 1023 some lo is subnormal, and from b = 1100 some hi too.
    assert subnormal[0] >= (b >= 1100) and subnormal[1] >= (b >= 1023), (b, subnormal)


def test_error_bounded_value_validation():
    with pytest.raises(ValueError):
        oracle.ErrorBoundedValue(1.0, -1e-3)
    ebv = oracle.ErrorBoundedValue(2.0, 0.5)
    assert ebv.lower == 1.5 and ebv.upper == 2.5


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
    monkeypatch.setattr(np, "arange", boom)
    monkeypatch.setattr(oracle, "_bulk_terms", boom)
    with pytest.raises(ToleranceError):
        oracle.ref_log_gamma(1e6, 1e-12)


@pytest.mark.parametrize("x", [math.nextafter(2.0, 0.0), 2.0, math.nextafter(2.0, math.inf)])
def test_series_and_closed_form_agree_at_the_switch(x):
    # log Gamma's series serves (0, 2], the closed form around mu above 2.
    series = oracle._log_gamma_series(x)
    closed = oracle._log_gamma_stirling(x, 1e-12)
    ref = mp_reference(mpmath.loggamma, x)
    assert encloses(series, ref) and encloses(closed, ref)
    assert max(series.lower, closed.lower) <= min(series.upper, closed.upper)


#: 40 log points of [1e-3, 1e4] (mu's sums kept to x <= 1e4, for time), psi's
#: zero, and log Gamma's switch to its Stirling form, whose Stirling part is
#: negative up to x ~ 2.09.
_REFUSAL_X = [10.0 ** (-3 + 7 * i / 39) for i in range(40)] + [1.4616321449683622, 2.0,
                                                               2.05, 2.5]


@pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-12, 1e-14, 1e-16, 1e-18, 1e-20, 1e-22,
                                 1e-25, 1e-30])
def test_early_log_gamma_refusal_only_where_the_full_sum_refuses(eps):
    # Every ref_* refuses exactly where its radius exceeds eps, log Gamma, the
    # gap, psi and psi' also where they refuse before any sum, from a lower
    # bound of the value.  The radius does not depend on eps, so the one at
    # eps = inf, which refuses nothing, is the full sum's.
    for name in _REFS:
        fn = getattr(oracle, name)
        for x in _REFUSAL_X:
            radius = fn(x, math.inf).error_radius
            try:
                fn(x, eps)
                refused = False
            except ToleranceError:
                refused = True
            assert refused == (radius > eps), (name, x, radius)


def _traced_peak(fn, x):
    # fn(x), cold, and the peak of the memory traced while it ran.
    oracle.clear_caches()
    tracemalloc.start()
    try:
        out = fn(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.mark.parametrize("name, x", [("ref_binet_mu", 6e4), ("ref_binet_mu", 1e6)])
def test_full_bulk_block_stays_small_in_memory(name, x):
    # A full 1e5-term block is built and reduced a chunk at a time in buffers
    # that the thread keeps across sums, so after the first sum (numpy
    # imported and the buffers made outside the trace) a cold one allocates
    # no array: its peak is a few parts lists, not one 256 KiB chunk.
    fn = getattr(oracle, name)
    fn(x)
    assert _traced_peak(fn, x)[1] < 2**16

    def cold_bits(y):
        out, peak = _traced_peak(oracle.ref_binet_mu, y)
        assert peak < 2**16, (y, peak)
        return out.value.hex(), out.error_radius.hex()

    # Other x in between, or a bulk sum whose generator is dropped after its
    # first chunk, leave the buffers to the next sum, which gives the same bits.
    first = cold_bits(1e6)
    cold_bits(6e4)
    assert cold_bits(1e6) == first
    next(oracle._bulk_terms(x, 0, 3))
    assert cold_bits(1e6) == first
    oracle.clear_caches()


def test_bulk_sums_in_two_threads_give_the_sequential_bits():
    # Each thread sums in its own buffers: numpy's loops release the GIL, so
    # on shared ones two threads' full-block sums would overwrite each
    # other's terms.  ``__wrapped__`` is each call uncached.
    cold_mu = oracle.ref_binet_mu.__wrapped__
    xs = [(1e6, 6e4), (65536.37, 1e6)]

    def bits(x):
        out = cold_mu(x)
        return out.value.hex(), out.error_radius.hex()

    expected = [[bits(x) for x in pair] for pair in xs]
    results = [[], []]

    def run(k):
        for _ in range(8):
            results[k].append([bits(x) for x in xs[k]])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)   # threads switch inside each sum, not between sums
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k in range(2):
        assert results[k] == [expected[k]] * 8, k


def test_no_bulk_terms_at_abscissas_that_round_together(monkeypatch):
    # Past 2^53, x + j repeats a few doubles; at 1e19 mu's tail enclosure at
    # x itself is already far below an ulp of mu, so terms summed in bulk
    # there would be wasted work: its tail starts at x + 16, rounded.  (Only
    # mu sums in bulk.)
    lengths = []
    bulk_terms = oracle._bulk_terms

    def recording(x, start, stop):
        for terms, scratch in bulk_terms(x, start, stop):
            lengths.append(terms.size)
            yield terms, scratch

    oracle.clear_caches()
    monkeypatch.setattr(oracle, "_bulk_terms", recording)
    r = oracle.ref_binet_mu(1e19)
    assert sum(lengths) <= 16
    assert encloses(r, mp_reference(HUGE_TARGETS["ref_binet_mu"], 1e19))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x", [1e-300, 1e-310, 5e-324])
def test_trigamma_refuses_tiny_x_before_summing(x):
    # psi'(x) > 1/x^2, which overflows at these x: DomainError at every eps,
    # no ToleranceError, and no overflow warning from a sum.  Below 1/x's
    # overflow (~5.6e-309) the gap and the Stirling target (~0.4/x) pass the
    # largest double too.
    names = ["ref_trigamma"]
    if x < 5.6e-309:
        names += ["ref_digamma_gap", "ref_digamma", "ref_stirling_target"]
    for name in names:
        for eps in (1e-30, 1e-3, math.inf):
            oracle.clear_caches()
            with pytest.raises(DomainError, match="passes the largest double"):
                getattr(oracle, name)(x, eps)


HUGE_TARGETS = {
    "ref_digamma_gap": lambda m: mpmath.log(m) - mpmath.digamma(m),
    "ref_binet_mu": lambda m: (mpmath.loggamma(m) - (m - 0.5) * mpmath.log(m) + m
                               - mpmath.log(2 * mpmath.pi) / 2),
    "ref_digamma": mpmath.digamma,
    "ref_log_gamma": mpmath.loggamma,
    "ref_trigamma": lambda m: mpmath.polygamma(1, m),
    "ref_stirling_target": lambda m: mpmath.exp(mpmath.loggamma(m) - m * mpmath.log(m) + m
                                                - mpmath.log(2 * mpmath.pi) / 2),
}


@pytest.mark.parametrize("name", sorted(HUGE_TARGETS))
def test_huge_x_encloses_or_refuses(name):
    # Up to the largest double, including the subnormal results of the gap
    # and mu past ~1e306, and at subnormal x: a true enclosure or a
    # documented refusal.  eps = inf refuses nothing, so there only a value
    # past the largest double may raise (DomainError).
    xs = [float(v) for v in np.logspace(5, 308, 60)]
    xs += [1e55, 1e80, 1e200, 1e300, 3e307, 1e308, 1.7976931348623157e308]
    xs += [1e-310, 5e-324]  # subnormal x, where 1/x overflows
    returned = 0
    for x in xs:
        for eps in (1e-12, 1e-3, math.inf):
            oracle.clear_caches()
            try:
                r = getattr(oracle, name)(x, eps)
            except DomainError:
                continue
            except ToleranceError:
                assert eps < math.inf, x
                continue
            returned += 1
            assert math.isfinite(r.error_radius), (x, eps, r)
            assert encloses(r, mp_reference(HUGE_TARGETS[name], x)), (x, eps, r)
    assert returned > 0


def test_infinite_eps_returns_a_finite_value_or_a_domain_error():
    # On 400 log points of the positive doubles, eps = inf refuses nothing:
    # each ref_* returns a finite value and radius or raises DomainError, the
    # latter only where a value overflows: below ~7.5e-155 for psi', below
    # ~5.6e-309 for the gap, psi and the Stirling target, and above ~2.5e305
    # for log Gamma, whose (x - 1/2) log x overflows.
    lo, hi = math.log(5e-324), math.log(1.7976931348623157e308)
    xs = [5e-324] + [math.exp(lo + (hi - lo) * i / 399) for i in range(1, 399)]
    xs.append(1.7976931348623157e308)
    for name in ("ref_digamma_gap", "ref_binet_mu", "ref_stirling_target",
                 "ref_digamma", "ref_trigamma", "ref_log_gamma"):
        for x in xs:
            oracle.clear_caches()
            try:
                r = getattr(oracle, name)(x, math.inf)
            except DomainError:
                assert not 1e-154 < x < 1e305, (name, x)
                continue
            assert math.isfinite(r.value) and math.isfinite(r.error_radius), (name, x, r)


# -- the gap series: an exact tail midpoint, so its tail starts near x + 16 ----

#: Log points of [1e-3, 1.8e308], and where the gap's float-midpoint tail
#: start used to peak (640), push out to x + 1e5 (6.7e3, 1e4) or round (2^53).
_GAP_X = ([10.0 ** (-3 + 311.25 * i / 119) for i in range(120)]
          + [1.7976931348623157e308, 150.0, 640.0, 6.7e3, 1e4, 2.0**53, 1e300])
#: The log Gamma series' a = x on (0, 1] and x - 1 on (1, 2].
_LOG_GAMMA_X = [0.01, 0.3, 1.0, 1.01, 1.3, 2.0]


def _gap_series_calls():
    # Every series summing kernel_r: the gap at its quarter-ulp target (psi
    # takes the same sum) and, on (0, 2], the log Gamma series at step 1/a.
    for x in _GAP_X:
        yield "ref_digamma_gap", x
        yield "ref_digamma", x
    for x in _LOG_GAMMA_X + [x for x in _GAP_X if x <= 2.0]:
        yield "ref_log_gamma", x


def test_gap_series_cost_is_bounded(monkeypatch):
    # The log Gamma series (kernel_r at step 1/a) sums the 15 head terms
    # kernel_r(k/a) and takes its tail from k = 16 at every a and eps.  None of
    # these series sums in bulk.
    counts = []
    log_gamma_tail = oracle._log_gamma_tail
    kernel_r = kernels.kernel_r

    def recording(a):
        counts.append((a, len(heads)))
        return log_gamma_tail(a)

    def recording_kernel_r(y):
        heads.append(y)
        return kernel_r(y)

    def boom(*args):
        raise AssertionError("summed in bulk")

    monkeypatch.setattr(oracle, "_log_gamma_tail", recording)
    monkeypatch.setattr(oracle, "_bulk_terms", boom)
    monkeypatch.setattr(kernels, "kernel_r", recording_kernel_r)
    for name, x in _gap_series_calls():
        for eps in (1e-14, 1e-12, 1e-6, 1.0):
            oracle.clear_caches()
            heads = []
            try:
                getattr(oracle, name)(x, eps)
            except ToleranceError:
                pass
    assert len(counts) >= 30 and 1.0 in {a for a, _ in counts}, counts
    assert all(n_heads == 15 and 0.0 < a <= 1.0 for a, n_heads in counts), counts


@pytest.mark.parametrize("name", ["ref_digamma_gap", "ref_digamma", "ref_euler_gamma",
                                  "ref_trigamma"])
def test_gap_and_trigamma_sum_at_most_16_head_terms(name, monkeypatch):
    # The gap and psi' sum their terms while x + j < 10 (at most 10, well
    # within the 16 of the name), none from x = 10, and add the tail at
    # y = x + count >= 10; no bulk sum runs.  Their value is fsum over the
    # head terms and the tail's two parts.
    def boom(*args, **kwargs):
        raise AssertionError("summed in bulk")

    tails_taken = []
    real_tail = oracle._enveloped_tail

    def recording(x, count, series):
        out = real_tail(x, count, series)
        tails_taken.append((x, count, out[0]))
        return out

    monkeypatch.setattr(oracle, "_bulk_terms", boom)
    monkeypatch.setattr(oracle, "_enveloped_tail", recording)
    returned = 0
    xs = _GAP_X + [0.3, 1.0, 1.5, 2.0, 7.5, 9.9, 9.999999999999998, 10.0, 15.9, 16.0, 6e4, 1e6]
    for x in ([1.0] if name == "ref_euler_gamma" else xs):
        for eps in (1e-12, 1e-6, 1.0):
            oracle.clear_caches()
            tails_taken.clear()
            try:
                if name == "ref_euler_gamma":
                    # gamma's enclosure, from import, is the gap's sum at 1.
                    gamma = oracle.ref_euler_gamma(eps)
                    r = oracle.ref_digamma_gap(x, eps)
                    assert gamma == r
                else:
                    r = getattr(oracle, name)(x, eps)
            except ToleranceError:
                continue
            returned += 1
            (tail_x, count, mid_parts), = tails_taken
            assert tail_x == x and count == (10 - math.floor(x) if x < 10 else 0), (x, count)
            assert 10 <= mpmath.mpf(x) + count and count <= 10, (x, count)
            if name == "ref_trigamma":
                terms = [(x + j) ** -2.0 for j in range(count)]
                assert r.value.hex() == math.fsum([*terms, *mid_parts]).hex(), x
            elif name == "ref_digamma_gap":
                terms = [kernels.kernel_r(x + j) for j in range(count)]   # bit for bit
                assert r.value.hex() == math.fsum([*terms, *mid_parts]).hex(), x
    assert returned >= (1 if name == "ref_euler_gamma" else 200), returned


def _mp_kernel_r(y):
    return 1 / y - mpmath.log1p(1 / y)


def _mp_kernel_w(y):
    return (y + mpmath.mpf(1) / 2) * mpmath.log1p(1 / y) - 1


def test_gap_head_terms_within_their_charges():
    # Each term an oracle sum takes, its abscissa rounded, against 50-digit
    # kernel_r or kernel_w at the exact abscissa, within its derived charge
    # (the worst seen here, in units of 2^-53, against the charge):
    #  - the gap's head, kernel_r(x + j) while x + j < 16: 3.03, 3.93 and
    #    1.79/x against 4.5, 6.5 and 3/x (3.47 and 4.06 on denser grids);
    #  - mu's head, kernel_w(x + j) while x + j <= 16: 5.19 against 11.5,
    #    and 2.46 (w + 1) against 5 (w + 1) for the direct form below 1/2;
    #  - the log Gamma series' kernel_r(k/a): 2.97 against 6.5 (4.5 where a
    #    is a power of two and k/a exact);
    #  - mu's bulk, kernel_w(x + j) at y > 16: 4.12 against 11.5.
    # The grid of [1e-3, 16] takes in y ~ 1.72, y = 1/2, 1, 4 and 16, abscissas
    # that do and do not round (x + 16 rounds to 16 at x = 2^-50), and the
    # direct forms.
    xs = [10.0 ** (-3 + math.log10(16e3) * i / 3000) for i in range(3001)]
    xs += [1.72 + k * 1e-4 for k in range(-50, 51)] + [0.5, 1.0, 1.5, 4.0, 7.5, 15.0, 16.0, 2.0**-50]
    xs += [math.nextafter(v, 0.0) for v in (0.5, 1.0, 2.0, 16.0)]
    with mpmath.workdps(50):
        for x in xs:
            terms = [kernels.kernel_r(x + j) for j in range(16 - math.floor(x))]
            for j, term in enumerate(terms):
                # The charges of a term alone: the direct one below 1, else
                # one at y >= 1 (after the direct term, if any).
                if x < 1.0 and j == 0:
                    charge = oracle._gap_head_charges(x, [term])[1]
                else:
                    charge = oracle._gap_head_charges(x, [*terms[:x < 1.0], term])[0]
                y = mpmath.mpf(x) + j
                assert abs(term - _mp_kernel_r(y)) <= charge, ("gap", x, j)
            j = 0
            while x + j <= 16.0:
                term = kernels.kernel_w(x + j)
                charge = (oracle._W_DIRECT_REL * (term + 1.0) if x + j < 0.5
                          else oracle._W_REL * term)
                assert abs(term - _mp_kernel_w(mpmath.mpf(x) + j)) <= charge, ("mu", x, j)
                j += 1
    for a in (2.0**-52, 1e-3, 0.3, 0.5, 0.999, 1.0):
        rel = oracle._R_REL + (oracle._ABSCISSA_REL if a in (0.3, 1e-3, 0.999) else 0.0)
        for k in range(1, 16):
            term = kernels.kernel_r(k / a)
            with mpmath.workdps(50 + 2 * math.ceil(math.log10(k / a))):
                exact = _mp_kernel_r(mpmath.mpf(k) / mpmath.mpf(a))
            assert abs(term - exact) <= rel * term, ("log Gamma", a, k)
    with mpmath.workdps(62):
        for x in [math.nextafter(16.0, 17.0)] + [16.0 * 62500.0 ** (i / 1000) for i in range(1, 1001)]:
            for j, term in enumerate(next(oracle._bulk_terms(x, 0, 3))[0].tolist()):
                assert abs(term - _mp_kernel_w(mpmath.mpf(x) + j)) <= oracle._W_REL * term, ("bulk", x, j)


# -- mu: a double midpoint, so its start also fits the midpoint's charge -------

#: mu's tail start is capped at x + MAX_TERMS from x = 6e4 until, with the
#: target at its 1e-26 floor (from x ~ 2.8e9), 4 ulps of the midpoint
#: ~1/(12m) fit it at m ~ _MU_FLOOR_START (7.4e9); below that m its blocks
#: take every length.
_MU_FLOOR_START = math.floor(oracle._FLOAT_MID_REL / (12.0 * 1e-26))


def _record_kernel_sums(monkeypatch):
    # [x, target, count, tail midpoint] of every mu sum.
    sums = []
    kernel_sum, tail_count, mu_tail = oracle._kernel_sum, oracle._tail_count, tails.mu_tail

    def recording(x):
        sums.append([x, oracle._target(x)])
        return kernel_sum(x)

    def recording_count(x):
        count = tail_count(x)
        sums[-1].append(count)
        return count

    def recording_tail(y):
        out = mu_tail(y)
        sums[-1].append(out[0])
        return out

    monkeypatch.setattr(oracle, "_kernel_sum", recording)
    monkeypatch.setattr(oracle, "_tail_count", recording_count)
    monkeypatch.setattr(tails, "mu_tail", recording_tail)
    return sums


def _three_term_start(x, target):
    return max(x + 16.0, 64.0, (1.0 / 360.0 / target) ** 0.2)


def test_mu_series_cost_is_bounded(monkeypatch):
    # mu's double midpoint, below mu(m) < 1/(12m), is charged 4 ulps of
    # itself.  At the quarter-ulp target eps/(8x) (from x = 0.0111, where it
    # falls below _MU_TARGET_MAX) the tail starts at most at
    # max(x + 16, 64, (scale/target)^0.2, min(8x/3, x + MAX_TERMS)), and
    # where the cap does not bind, the charge fits the target there.
    sums = _record_kernel_sums(monkeypatch)
    xs = _GAP_X + [2e3, 6e4, 1e5, 2.78e9, _MU_FLOOR_START - 44999.0, _MU_FLOOR_START]
    for x in xs:
        oracle.clear_caches()
        oracle.ref_binet_mu(x)
    assert len(sums) == len(xs), len(sums)
    capped = 0
    for x, target, count, mid in sums:
        start = max(_three_term_start(x, target),
                    min(8.0 * x / 3.0, x + oracle.MAX_TERMS))
        # 2^-50 covers the roundings of the target and of the fourth term.
        assert count <= math.ceil((start - x) * (1.0 + 2.0**-50)), (x, count)
        if count < oracle.MAX_TERMS:
            assert oracle._FLOAT_MID_REL * mid <= target * (1.0 + 2.0**-50), (x, count)
        else:
            capped += 1
    # The cap binds from x = 6e4 to just below _MU_FLOOR_START.
    assert capped >= 5, capped


@pytest.mark.parametrize("name", ["ref_digamma_gap", "ref_digamma", "ref_trigamma"])
def test_gap_series_values_enclose_on_a_log_grid(name):
    # Up to the largest double, with the (60 + 2 log10 x)-digit reference.
    returned = 0
    for x in _GAP_X:
        oracle.clear_caches()
        try:
            r = getattr(oracle, name)(x)
        except ToleranceError:
            continue
        returned += 1
        assert encloses(r, mp_reference(HUGE_TARGETS[name], x)), (x, r)
    assert returned > 100


def _neighbours(x):
    return [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]


@pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-6])
def test_trigamma_and_log_gamma_series_enclose_on_a_grid(eps):
    # psi' sums its terms directly and adds its exact tail at every x; log
    # Gamma's series goes through the kernel sum on (0, 2].
    xs = [float(v) for v in np.logspace(-3, 6, 200)]
    xs += _neighbours(1.0) + _neighbours(2.0) + _neighbours(16.0)
    returned = {"ref_trigamma": 0, "ref_log_gamma": 0}
    for x in xs:
        for name, target in (("ref_trigamma", HUGE_TARGETS["ref_trigamma"]),
                             ("ref_log_gamma", mpmath.loggamma)):
            if name == "ref_log_gamma" and x > 2.0:
                continue
            try:
                r = getattr(oracle, name)(x, eps)
            except ToleranceError:
                continue
            returned[name] += 1
            assert encloses(r, mp_reference(target, x)), (name, x, eps, r)
    assert min(returned.values()) > 0, returned


# -- exact bulk sums: the split reduces an array to doubles with its exact sum --

_SPLIT_LENGTHS = [1, 2, oracle.SPLIT_MIN_TERMS - 1, oracle.SPLIT_MIN_TERMS,
                  oracle.SPLIT_MIN_TERMS + 1, 100_000]


def _same_float(a, b):
    # Bit for bit, except that a zero total may carry either sign (every
    # oracle sum also holds its positive tail midpoint).
    return a == b and (a == 0.0 or a.hex() == b.hex())


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from(_SPLIT_LENGTHS), seed=st.integers(0, 2**32 - 1),
       top=st.integers(-1074, -1), span=st.integers(0, 1100),
       zeros=st.sampled_from([0.0, 0.3, 1.0]), mixed_signs=st.booleans())
def test_exact_split_keeps_the_correctly_rounded_sum(n, seed, top, span, zeros, mixed_signs):
    # Terms of magnitude below 2^top over up to `span` binades: zeros,
    # subnormals (exponents down to -1074) and mixed signs included.
    rng = np.random.default_rng(seed)
    exponents = rng.integers(max(top - span, -1074), top + 1, size=n)
    terms = np.ldexp(rng.uniform(0.5, 1.0, size=n), exponents)
    terms[rng.random(n) < zeros] = 0.0
    if mixed_signs:
        terms[rng.random(n) < 0.5] *= -1.0
    assert np.all(np.abs(terms) <= 0.5)
    expected = math.fsum(terms.tolist())
    assert _same_float(math.fsum(oracle._exact_split(terms.copy(), np.empty(n))), expected)


def test_exact_split_edge_values():
    cases = [[0.5], [-0.5, 0.5], [5e-324], [5e-324, -5e-324, 1e-300],
             [0.5, 2.0**-60, -2.0**-110, 5e-324], [0.0] * 5, [0.5] * 3 + [2.0**-1074] * 7,
             [0.5 - 2.0**-54, 2.0**-55, 2.0**-108]]
    for values in cases:
        arr = np.array(values)
        assert _same_float(math.fsum(oracle._exact_split(arr, np.empty_like(arr))),
                           math.fsum(values)), values
    assert oracle._exact_split(np.zeros(3), np.empty(3)) == []


@pytest.mark.parametrize("bad", [0.75, -1.0, math.inf, math.nan])
def test_exact_split_checks_its_invariant(bad):
    # Beyond |p| <= 1/2 sigma could overflow; the bulk terms never get there.
    with pytest.raises(ValueError):
        oracle._exact_split(np.array([0.1, bad]), np.empty(2))


_SERIES_X = [1e-3, 1.0, 15.9, 16.0, 100.0, 2e3, 5e3, 6.7e3, 1e4, 3e4, 5e4, 2e5, 1e6, 1e20,
             1e300]
#: mu's blocks here are a full one (1e5) and two just below _MU_FLOOR_START
#: that span two and three chunks and end in one shorter than BLOCK_TERMS:
#: above SPLIT_MIN_TERMS (45000 terms, the last 12232) and below it (65700,
#: the last 164).
_CHUNKED_X = [1e5, _MU_FLOOR_START - 44999.0, _MU_FLOOR_START - 65699.0]
#: The refs that sum mu: itself and log Gamma above 2.
_SERIES_REFS = ("ref_binet_mu", "ref_log_gamma")


@pytest.mark.parametrize("split_min", [1, oracle.SPLIT_MIN_TERMS])
def test_kernel_sums_equal_fsum_over_the_full_term_list(split_min, monkeypatch):
    # Each mu sum's value against fsum over its head terms, all its bulk
    # chunks as Python floats and its tail midpoint; with split_min = 1 every
    # bulk chunk goes through the split.
    sums = []
    real_split, real_bulk_terms, real_kernel_sum, real_tail = (
        oracle._exact_split, oracle._bulk_terms, oracle._kernel_sum, tails.mu_tail)

    def recording_bulk_terms(*args):
        for terms, scratch in real_bulk_terms(*args):
            sums[-1]["bulk"].extend(terms.tolist())
            sums[-1]["chunks"].append(terms.size)
            yield terms, scratch

    def recording_split(arr, scratch):
        sums[-1]["split_terms"] += arr.size
        taus = real_split(arr, scratch)
        sums[-1]["taus"] += len(taus)
        return taus

    def recording_tail(y):
        out = real_tail(y)
        sums[-1]["tail"] = [out[0]]
        return out

    def recording_kernel_sum(x):
        record = {"bulk": [], "chunks": [], "split_terms": 0, "taus": 0}
        sums.append(record)
        parts, charges = real_kernel_sum(x)
        record["out"] = list(parts), list(charges)
        return parts, charges

    monkeypatch.setattr(oracle, "SPLIT_MIN_TERMS", split_min)
    monkeypatch.setattr(oracle, "_exact_split", recording_split)
    monkeypatch.setattr(oracle, "_bulk_terms", recording_bulk_terms)
    monkeypatch.setattr(oracle, "_kernel_sum", recording_kernel_sum)
    monkeypatch.setattr(tails, "mu_tail", recording_tail)
    split_sums = full_length = 0
    for x in _SERIES_X + _CHUNKED_X + [1.5, 2.0]:
        for name in _SERIES_REFS:
            oracle.clear_caches()
            try:
                getattr(oracle, name)(x)
            except ToleranceError:
                pass
    for record in sums:
        parts, charges = record["out"]
        if not record["taus"]:   # short blocks, or none where x + 16 rounds to x
            continue
        split_sums += 1
        full_length += len(record["bulk"]) == oracle.MAX_TERMS
        # The bulk's parts: the split chunks' taus and the short chunks' terms.
        n_bulk = record["taus"] + len(record["bulk"]) - record["split_terms"]
        head = parts[:len(parts) - len(record["tail"]) - n_bulk]
        full = oracle._close([*head, *record["bulk"], *record["tail"]], charges)
        split = oracle._close(parts, charges)
        assert (split.value.hex(), split.error_radius.hex()) == (
            full.value.hex(), full.error_radius.hex())
    assert split_sums >= 20 and full_length >= 2, (split_sums, full_length)
    # Blocks of several chunks that end in a short one, both above and below
    # SPLIT_MIN_TERMS.
    last_chunks = {r["chunks"][-1] for r in sums if len(r["chunks"]) > 1}
    assert {12232, 164} <= last_chunks, last_chunks


# -- bounded caches --------------------------------------------------------------

_REFS = ("ref_digamma_gap", "ref_binet_mu", "ref_stirling_target", "ref_digamma",
         "ref_trigamma", "ref_log_gamma")


#: 401 log points of [1e-3, 1e9] and four up to the largest double.
_EPS_CHECK_X = [10.0 ** (-3 + 12 * i / 400) for i in range(401)] + [1e20, 1e100, 1e300, 1.7e308]


@pytest.mark.parametrize("name", _REFS)
def test_eps_only_decides_a_refusal(name):
    # Every value and radius is a function of x alone: at each eps that does
    # not refuse, the same doubles, and no larger eps refuses.  An eps equal
    # to the radius is met, and the next double below it refused.
    fn = getattr(oracle, name)
    returned = 0
    for x in _EPS_CHECK_X:
        seen = []
        for eps in (1e-14, 1e-12, 1e-9, 1e-6, 1.0):
            try:
                r = fn(x, eps)
            except (ToleranceError, DomainError):   # log Gamma overflows past ~1e306
                assert not seen, (x, eps)
                continue
            seen.append((r.value.hex(), r.error_radius.hex()))
        assert len(set(seen)) <= 1, (x, seen)
        returned += bool(seen)
        if x < 1e306:
            radius = fn(x, math.inf).error_radius
            assert fn(x, radius).error_radius == radius, x
            with pytest.raises(ToleranceError):
                fn(x, math.nextafter(radius, 0.0))
    assert returned >= 400, returned


@pytest.mark.parametrize("name", _REFS)
def test_oracle_caches_are_bounded(name):
    fn = getattr(oracle, name)
    assert fn.cache_info().maxsize == oracle.CACHE_SIZE
    oracle.clear_caches()
    # Past ~7.4e9, and with eps = 1 for log Gamma's sake, every kernel sum
    # is 16 bulk terms: cheap distinct keys.
    for i in range(oracle.CACHE_SIZE + 50):
        fn(1e12 + 1024.0 * i, 1.0)
        assert fn.cache_info().currsize <= oracle.CACHE_SIZE
    assert fn.cache_info().currsize == oracle.CACHE_SIZE
    oracle.clear_caches()


@pytest.mark.parametrize("name", _REFS)
def test_reference_entries_keep_their_contract(name):
    # Each cached ref_* is one lru_cache object over its body (``_reference``):
    # perfbench reads its cache_info() and selects it by name and module, and
    # its signature and refusals are the body's.
    fn = getattr(oracle, name)
    assert type(fn) is type(functools.lru_cache(maxsize=1)(abs))
    assert (fn.__name__, fn.__module__) == (name, "psibounds.oracle")
    assert inspect.signature(fn).parameters["eps"].default == 1e-12 == oracle.DEFAULT_EPS
    with pytest.raises(ToleranceError, match=rf"^{name}\(3\.0\)"):
        fn(3.0, 1e-300)
