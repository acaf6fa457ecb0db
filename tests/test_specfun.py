import math
import random
import time

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
    # terms of psi^(200) underflow while the value (~-4.35e-228) does not.
    mpmath = pytest.importorskip("mpmath")
    assert specfun.polygamma(171, 2.0) == pytest.approx(float(mpmath.polygamma(171, 2)),
                                                        rel=1e-13)
    assert specfun.polygamma(200, 1000.0) == pytest.approx(
        float(mpmath.polygamma(200, 1000)), rel=1e-13)


@pytest.mark.parametrize("n, x, result", [(10**6, 2.0, None), (10**5, 3.6e4, None),
                                          (10**5, 1e9, -0.0), (10**5 + 1, 1e9, 0.0)])
def test_polygamma_at_large_orders_returns_before_summing(n, x, result):
    # n! x^-(n+1) passes the largest double (None: DomainError), or
    # n! x^-(n+1) (1 + x/n) is below 2^-1075 (a signed zero): each is known
    # without summing the n terms.
    start = time.perf_counter()
    if result is None:
        with pytest.raises(DomainError):
            specfun.polygamma(n, x)
    else:
        assert specfun.polygamma(n, x).hex() == result.hex()
    assert time.perf_counter() - start < 1.0


def _series_polygamma(mpmath, n, x):
    # (-1)^(n+1) n! sum_k (x + k)^-(n+1), until a term is under 10^-45 of the
    # first: past it the rest is under t_k (1 + (x + k)/n), a few times that.
    x = mpmath.mpf(x)
    terms = [x ** -(n + 1)]
    while terms[-1] > terms[0] * mpmath.mpf(10) ** -45:
        terms.append((x + len(terms)) ** -(n + 1))
    return (-1) ** (n + 1) * mpmath.factorial(n) * mpmath.fsum(terms)


def test_polygamma_at_large_orders_within_four_ulps():
    # From n = 57 a head can stop before the shift point, and from n = 141
    # the scaled sum has one, whose quotients (x + k)/x once carried their
    # roundings n + 1 times over: 51.8 ulps at (2000, 700), 1634 at
    # (10^5, 36800).  x is within a factor 2 of n/e, where the terms fall by
    # about e each, raised where psi^(n) would pass the largest double.
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(57)
    points = [(200, 60.0), (500, 100.0), (2000, 700.0), (10**5, 36800.0)]
    for _ in range(40):
        n = rng.randint(57, 5000)
        low = max(-1.0, -690.0 / (n * math.log(2.0)))
        points.append((n, n / math.e * 2.0 ** rng.uniform(low, 1.0)))
    for n, x in points:
        with mpmath.workdps(40):
            ref = _series_polygamma(mpmath, n, x)
            err = abs(mpmath.mpf(specfun.polygamma(n, x)) - ref)
        assert err <= 4 * math.ulp(float(ref)), (n, x)
    with mpmath.workdps(40):   # the series reference agrees with mpmath's own
        assert _series_polygamma(mpmath, 200, 60.0) == pytest.approx(
            mpmath.polygamma(200, 60), rel=1e-35)


def test_polygamma_at_order_1e5_takes_a_bounded_head():
    # Its scaled sum once summed 63 208 head terms and divided true Fractions
    # out: 3.7 s.  math.factorial(10**5) alone takes 0.13-0.24 s.
    def seconds():
        start = time.perf_counter()
        specfun.polygamma(10**5, 36800.0)
        return time.perf_counter() - start

    assert min(seconds() for _ in range(3)) < 0.5   # the best of three: a busy machine stalls one


# Log grid over [1e-3, 1e6], plus starts just below powers of two, where the
# abscissas x + k round the most.
_POLYGAMMA_GRID = ([10.0 ** (-3 + 9 * i / 180) for i in range(181)]
                   + [2.0**e - f for e in range(4, 20) for f in (0.3, 1.7, 7.3)])


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
def test_polygamma_within_four_ulps(n):
    mpmath = pytest.importorskip("mpmath")
    for x in _POLYGAMMA_GRID:
        with mpmath.workdps(50):
            ref = mpmath.polygamma(n, mpmath.mpf(x))
            err = abs(mpmath.mpf(specfun.polygamma(n, x)) - ref)
        assert err <= 4 * math.ulp(float(ref)), (n, x)


#: (n, x, psi^(n)(x)) where the head's drift decides the last bit: with its
#: factor n + 1 taken as n, each value moves by an ulp.  They are the first two
#: per order among starts 2^e - U(0, 1), e in (2, 3, 4), 200 of each drawn
#: from random.Random(1) in turn.
_DRIFT_DECIDES = [
    (2, 7.152566263062767, -0.022469483537497816),
    (2, 7.06085083722149, -0.023098485660282754),
    (3, 7.1642348960801305, 0.006682767177351282),
    (3, 3.4585875272065034, 0.07319804613637446),
    (10, 15.50418775861815, -6.15011321073444e-07),
    (10, 15.696631489067082, -5.416926482055849e-07),
]


@pytest.mark.parametrize("n, x, value", _DRIFT_DECIDES)
def test_polygamma_head_drift_decides_the_last_bit(n, x, value):
    mpmath = pytest.importorskip("mpmath")
    assert specfun.polygamma(n, x).hex() == value.hex()
    with mpmath.workdps(40):
        ref = mpmath.polygamma(n, mpmath.mpf(x))
        assert abs(mpmath.mpf(value) - ref) <= 2.4 * math.ulp(float(ref)), (n, x)


def test_shift_then_expand_does_bounded_work(monkeypatch):
    # Each sum evaluates its terms below the shift point x0 (ceil(x0) of them
    # at most), then one expansion: a few terms at any x, where the summed
    # tails once took thousands.  The scaled polygamma path sums twice.  The
    # terms are counted where they are summed, in specfun's math.fsum.
    sums, fsum = [], math.fsum

    class RecordingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        @staticmethod
        def fsum(terms):
            terms = list(terms)
            sums.append(len(terms))
            return fsum(terms)

    # mu's head is also counted where its work is done, in kernel_w's calls.
    kernel_w, w_calls = kernels._kernel_w, []

    def counting_kernel_w(y):
        w_calls.append(y)
        return kernel_w(y)

    monkeypatch.setattr(specfun, "math", RecordingMath())
    monkeypatch.setattr(kernels, "_kernel_w", counting_kernel_w)
    xs = [5e-324, 1e-300, 1e-3, 0.5, 1.0, 6.99, 7.0, 100.0, 1e4, 1e300,
          1.7976931348623157e308]
    for x in xs:
        sums.clear()
        w_calls.clear()
        specfun.binet_mu(x)
        (summed,) = sums
        count = summed - 1   # the head terms, then the expansion
        assert count <= specfun._MU_X0 + 1, (x, count)
        assert len(w_calls) == count, (x, count, len(w_calls))
        for n in (1, 2, 3, 10, 200):
            sums.clear()
            try:
                value = specfun.polygamma(n, x)
            except DomainError:
                assert len(sums) <= 2, (n, x, sums)   # a first term that overflows sums nothing
            else:
                # From order 23 on, a value that rounds to zero is known before any sum.
                least = 0 if n > 22 and value == 0.0 else 1
                assert least <= len(sums) <= 2, (n, x, sums)
            # The head, the expansion's two parts and the rounding drift.
            x0 = n + specfun._PSI_X0
            assert all(c <= x0 + 1 + 3 for c in sums), (n, x, sums)
    # A head of over 64 terms stops where the rest is under 2^-64 of its first
    # term: about 16 of the 63 208 below the shift point here, in both sums.
    sums.clear()
    specfun.polygamma(10**5, 36800.0)
    assert len(sums) == 2 and all(c <= 64 + 3 for c in sums), sums


#: mu's 16 expansion coefficients B_2k / (2k(2k-1)), k = 1..16, as the
#: literals they once were in specfun (highest first, in its Horner order).
_MU_LITERALS = (-7709321041217/505920, 1723168255201/2492028, -3392780147/93960,
                657931/300, -236364091/1506960, 77683/5796, -174611/125400,
                43867/244188, -3617/122400, 1/156, -691/360360, 1/1188, -1/1680,
                1/1260, -1/360, 1/12)


def test_bernoulli_table_and_the_coefficients_it_derives():
    mpmath = pytest.importorskip("mpmath")
    from fractions import Fraction
    bernoulli = [Fraction(num, den) for num, den in specfun._BERNOULLI]
    for k, b in enumerate(bernoulli, 1):
        # bernfrac is mpmath's exact B_n, the one its bernoulli rounds.
        assert b == Fraction(*mpmath.bernfrac(2 * k)), k
    # Bit for bit what the literal coefficients gave, so mu is unchanged.
    assert specfun._MU_COEFFICIENTS == _MU_LITERALS[::-1]
    # polygamma's: B_2k (n + 2k - 1)! / ((2k)! n! (n + 8)^2k), each the exact
    # ratio rounded once, and below 1 in magnitude at any order.
    for n in (1, 2, 3, 10, 200, 10**6):
        coefficients = specfun._psi_coefficients(n)
        assert len(coefficients) == 12 and all(abs(c) < 1 for c in coefficients), n
        if n > 200:
            continue
        for k, (b, c) in enumerate(zip(bernoulli, coefficients), 1):
            exact = (b * math.factorial(n + 2 * k - 1)
                     / (math.factorial(2 * k) * math.factorial(n) * (n + 8) ** (2 * k)))
            assert c == float(exact), (n, k)


def _stirling_terms(mpmath, y, count):
    # The terms B_2k / (2k(2k-1) y^(2k-1)) of mu's expansion, k = 1..count.
    return [mpmath.bernoulli(2 * k) / (2 * k * (2 * k - 1) * y ** (2 * k - 1))
            for k in range(1, count + 1)]


def _polygamma_terms(mpmath, n, y, count):
    # y^-n/n, y^-(n+1)/2, then B_2k (2k+n-1)! / ((2k)! n!) y^-(2k+n), k = 1..count.
    return [y**-n / n, y ** -(n + 1) / 2] + [
        mpmath.bernoulli(2 * k) * mpmath.factorial(2 * k + n - 1)
        / (mpmath.factorial(2 * k) * mpmath.factorial(n)) * y ** -(2 * k + n)
        for k in range(1, count + 1)]


_MU_KEPT = 16   # the terms of specfun._mu_expansion


def test_mu_expansion_is_its_partial_sum():
    # At small y the high terms dominate, so every coefficient shows.
    mpmath = pytest.importorskip("mpmath")
    for y in (1.0, 1.5, 2.0, 4.0, 7.0, 30.0):
        with mpmath.workdps(50):
            ref = mpmath.fsum(_stirling_terms(mpmath, mpmath.mpf(y), _MU_KEPT))
        assert specfun._mu_expansion(y) == pytest.approx(float(ref), rel=1e-14), y


def test_expansions_envelope():
    # From the shift point up, what the kept terms leave lies strictly
    # between 0 and the first omitted term (DLMF 5.11(ii), 5.15.8): the
    # truncation is bounded by that term, not calibrated.
    mpmath = pytest.importorskip("mpmath")
    # The omitted terms fall like y^-(2K+2) against the value: 50 digits,
    # plus 35 per decade of y, keep them resolved.
    kept_psi = len(specfun._psi_coefficients(1))
    for i in range(40):
        with mpmath.workdps(50 + 35 * i // 8):
            y = mpmath.mpf(specfun._MU_X0) * mpmath.mpf(10) ** (mpmath.mpf(i) / 8)
            mu = mpmath.loggamma(y) - (y - 0.5) * mpmath.log(y) + y - mpmath.log(2 * mpmath.pi) / 2
            terms = _stirling_terms(mpmath, y, _MU_KEPT + 1)
            ratio = (mu - mpmath.fsum(terms[:-1])) / terms[-1]
            assert 0 < ratio < 1, ("mu", y)
            for n in (1, 2, 3, 10, 200):
                y_n = y + n + specfun._PSI_X0 - specfun._MU_X0
                series = mpmath.polygamma(n, y_n) / mpmath.factorial(n) * (-1) ** (n + 1)
                terms = _polygamma_terms(mpmath, n, y_n, kept_psi + 1)
                ratio = (series - mpmath.fsum(terms[:-1])) / terms[-1]
                assert 0 < ratio < 1, (n, y_n)


def test_binet_mu_within_its_documented_ulps():
    # Below x = 1/2 the shift's first kernel_w term is its direct form, which
    # cancels (up to ~eps absolute); the others are series terms.  From x = 7
    # on, mu is the expansion alone and within a few ulps.
    mpmath = pytest.importorskip("mpmath")
    worst_below, worst_above = 0.0, 0.0
    for i in range(601):
        x = 10.0 ** (-3 + 9 * i / 600)
        with mpmath.workdps(60):
            m = mpmath.mpf(x)
            ref = mpmath.loggamma(m) - (m - 0.5) * mpmath.log(m) + m - mpmath.log(2 * mpmath.pi) / 2
            err = float(abs(mpmath.mpf(specfun.binet_mu(x)) - ref)) / math.ulp(float(ref))
        if x < specfun._MU_X0:
            worst_below = max(worst_below, err)
        else:
            worst_above = max(worst_above, err)
    assert worst_below <= 6.1
    assert worst_above <= 2


def test_digamma_gap_within_its_documented_ulps():
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    for i in range(601):
        x = 10.0 ** (-3 + 9 * i / 600)
        with mpmath.workdps(60):
            ref = mpmath.log(x) - mpmath.digamma(x)
            worst = max(worst, float(abs(mpmath.mpf(specfun.digamma_gap(x)) - ref))
                        / math.ulp(float(ref)))
    assert worst <= 1.9


def _gap_tail_half_width(m):
    # -f'''(m)/1440 for f = kernel_r, f''' = -2(6m^2 + 8m + 3)/(m^4 (m + 1)^3):
    # half the Euler-Maclaurin pair's width, for an mpf m.
    return (6 * m * m + 8 * m + 3) / (720 * m**4 * (m + 1) ** 3)


def test_em2_brackets_contain_high_precision_tails():
    # The tail of the gap's series after m terms lies within the half-width
    # of _gap_tail's midpoint.
    mpmath = pytest.importorskip("mpmath")
    x = mpmath.mpf("3.7")
    for m in (9, 33):
        with mpmath.workdps(50):
            # y rounds x + m, which moves the tail by under f(y) ulp(y), below
            # 1e-7 of the half-width.
            y = float(x) + m
            true_tail = (mpmath.log(x) - mpmath.psi(0, x)
                         - mpmath.fsum(1 / (x + k) - mpmath.log(1 + 1 / (x + k))
                                       for k in range(m)))
            assert abs(specfun._gap_tail(y) - true_tail) <= _gap_tail_half_width(mpmath.mpf(y))


@pytest.mark.parametrize("y", [64.0, 100.0, 1e3, 2240.0, 12345.678, 1.1e5, 1e6, 1e10, 1e20,
                               2e30, 1e52, 1e55, 1e80, 1e155, 1e200, 1.7976931348623157e308])
def test_em2_half_width_is_the_derived_one(y):
    # From every abscissa a tail starts at, 64 up to the largest double, the
    # midpoint is within the half-width -f'''(y)/1440, plus 4 ulps of itself
    # (and one subnormal step where it underflows), of the gap at y.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50 + 2 * math.ceil(math.log10(y))):
        m = mpmath.mpf(y)
        mid = specfun._gap_tail(y)
        tolerance = _gap_tail_half_width(m) + 4 * 2.0**-52 * mid + 2.0**-1074
        assert abs(mid - (mpmath.log(m) - mpmath.psi(0, m))) <= tolerance, y


def test_binet_mu_exceeds_robbins_lower_bound():
    # mu(x) > 1/(12x + 1) for x > 0 (Robbins), with a relative gap of about
    # 1/(12x): wider than binet_mu's error on [1e-10, 1e7].
    for i in range(171):
        x = 10.0 ** (-10 + 17 * i / 170)
        assert specfun.binet_mu(x) > 1 / (12 * x + 1), x


@pytest.mark.parametrize("n, x", [(200, 1e6), (100, 2e3), (1000, 400.0), (20, 3e15),
                                  (3, 1e155), (2, 1.3e154), (2, 1e160),
                                  (2, 1.7976931348623157e308), (3, 1.7976931348623153e308)])
def test_polygamma_where_its_terms_underflow(n, x):
    # Summed over x^-(n+1), with x^-(n+1) and n! applied exactly: the result
    # is the rounding of a value within (n+1) ulps, subnormal ones included.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        ref = float(mpmath.polygamma(n, mpmath.mpf(x)))
    assert specfun.polygamma(n, x) == pytest.approx(ref, rel=(n + 1) * 2.0**-52,
                                                    abs=2.0**-1074)


_FULL_RANGE = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)
_SPECFUN_NAMES = ["digamma_gap", "binet_mu", "digamma", "trigamma", "log_gamma",
                  "stirling_ratio", "root_scaled"]


def _root_scaled(x):
    # log of Gamma(x) / (sqrt(2 pi) x^x e^-x), the quantity the exponential
    # bound families enclose; it tends to -inf like -log(x)/2.
    return specfun.binet_mu(x) - 0.5 * math.log(x)


def _specfun(name):
    return _root_scaled if name == "root_scaled" else getattr(specfun, name)


#: Where 1/x overflows (below the first two), log Gamma's Stirling product
#: overflows (from ~2.5e305), and the largest double.
_RANGE_EDGES = [5e-324, 3e-311, 1e-310, 5.562684646268003e-309, 5.56268464626801e-309,
                2.5e305, 1.4e308, 1.7976931348623157e308]


def _finite_or_domain_error(fn, *args):
    # Defined behaviour from the smallest subnormal to the largest double:
    # a finite value, or DomainError.
    try:
        value = fn(*args)
    except DomainError:
        return
    assert math.isfinite(value), (args, value)


@pytest.mark.parametrize("name", _SPECFUN_NAMES)
@given(x=_FULL_RANGE)
@settings(max_examples=80, deadline=None)
def test_total_on_every_positive_double(name, x):
    _finite_or_domain_error(_specfun(name), x)


@pytest.mark.parametrize("name", _SPECFUN_NAMES)
@pytest.mark.parametrize("x", _RANGE_EDGES)
def test_total_at_the_range_edges(name, x):
    _finite_or_domain_error(_specfun(name), x)


@given(n=st.integers(min_value=1, max_value=300), x=_FULL_RANGE)
@settings(max_examples=150, deadline=None)
def test_polygamma_total_on_every_positive_double(n, x):
    _finite_or_domain_error(specfun.polygamma, n, x)


@pytest.mark.parametrize("x", [5e-324, 1e-310, 3e-311, 5.562684646268003e-309])
def test_tiny_x_values_or_domain_errors(x):
    # Below ~5.56e-309, 1/x overflows: the gap (~1/x) and psi are beyond the
    # largest double, while mu, log Gamma and the Stirling ratio (~ -log x)
    # are not.
    mpmath = pytest.importorskip("mpmath")
    for fn in (specfun.digamma_gap, specfun.digamma):
        with pytest.raises(DomainError):
            fn(x)
    with mpmath.workdps(50):
        m = mpmath.mpf(x)
        log_gamma = mpmath.loggamma(m)
        mu = log_gamma - (m - 0.5) * mpmath.log(m) + m - mpmath.log(2 * mpmath.pi) / 2
        refs_mp = {"binet_mu": mu, "log_gamma": log_gamma, "stirling_ratio": mpmath.exp(mu),
                   "root_scaled": mu - mpmath.log(m) / 2}
    # exp turns mu's absolute error into a relative one.
    for name, ref in refs_mp.items():
        tol = {"rel": 5e-14} if name == "stirling_ratio" else {"abs": 5e-14}
        assert _specfun(name)(x) == pytest.approx(float(ref), **tol), name


def test_log_gamma_where_the_stirling_product_overflows():
    # log Gamma(1.4e308) ~ 9.92e310 is beyond the largest double.
    for x in (1.4e308, 1.7976931348623157e308):
        with pytest.raises(DomainError):
            specfun.log_gamma(x)


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
    assert math.exp(_root_scaled(2.0)) == pytest.approx(refs.ROOT_SCALED_TARGET_2, rel=1e-13)
    # differs from the classical ratio by exactly sqrt(x)
    x = 7.5
    assert specfun.stirling_ratio(x) == pytest.approx(
        math.exp(_root_scaled(x)) * math.sqrt(x), rel=1e-13
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
