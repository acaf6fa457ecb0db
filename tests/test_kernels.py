import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import refs_frozen as refs
from psibounds import kernels, oracle
from psibounds.errors import DomainError


def test_kernel_r_spot_values():
    assert kernels.kernel_r(1.0) == pytest.approx(refs.KERNEL_R_1, rel=1e-15)
    assert kernels.kernel_r(2.0) == pytest.approx(refs.KERNEL_R_2, rel=1e-15)
    assert kernels.kernel_r(1e8) == pytest.approx(refs.KERNEL_R_1E8, rel=1e-12)


def test_kernel_s_spot_values():
    assert kernels.kernel_s(1.0) == pytest.approx(refs.KERNEL_S_1, rel=1e-15)
    assert kernels.kernel_s(100.0) == pytest.approx(refs.KERNEL_S_100, rel=1e-13)


def test_kernel_r_large_x_leading_term():
    # x^2 * r(x) -> 1/2 from below
    assert 1e8**2 * kernels.kernel_r(1e8) == pytest.approx(0.5, abs=1e-8)
    assert 1e12**2 * kernels.kernel_r(1e12) == pytest.approx(0.5, abs=1e-11)


def test_kernel_s_large_x_leading_term():
    assert 1e8 * kernels.kernel_s(1e8) == pytest.approx(0.5, abs=1e-7)


def test_domain_errors():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            kernels.kernel_r(bad)
        with pytest.raises(DomainError):
            kernels.kernel_s(bad)
        with pytest.raises(DomainError):
            kernels.kernel_w(bad)


@pytest.mark.parametrize("y", [16.0, 17.3, 24.0])
def test_series_matches_direct_formulas(y):
    # Series and direct branches evaluated at the same point must agree to
    # the direct branch's ~1e-12 cancellation-limited accuracy.
    u = 1.0 / y
    assert kernels.kernel_r(y) == pytest.approx(u - math.log1p(u), rel=2e-12)
    assert kernels.kernel_s(y) == pytest.approx((y + 1.0) * math.log1p(u) - 1.0,
                                                rel=2e-12)
    assert kernels.kernel_w(y) == pytest.approx((y + 0.5) * math.log1p(u) - 1.0,
                                                rel=2e-11)


def test_poly_eval_on_arrays_matches_scalar_kernels(monkeypatch):
    # mu's bulk terms, kernel_w at y > 16, are built in place, BLOCK_TERMS at
    # a time in buffers the thread keeps across sums, from W's K = 6
    # coefficient tuple.
    # Each term must equal the scalar kernel_w at x + j exactly, in every
    # chunk: both paths take the same IEEE operations.
    chunks = []
    bulk_terms = oracle._bulk_terms

    def recording(x, start, stop):
        for k, (terms, scratch) in enumerate(bulk_terms(x, start, stop)):
            chunks.append((x, start + k * oracle.BLOCK_TERMS, terms.tolist()))
            yield terms, scratch

    monkeypatch.setattr(oracle, "_bulk_terms", recording)
    # From x = 6e4 each of mu's sums is a full MAX_TERMS block, which crosses
    # 3 boundaries; below 16 the bulk starts after the head, at x + j > 16.
    for x in (0.3, 15.5, 16.0, 17.3, 6e4, 65536.37, 2.5e5, 1e6):
        oracle.clear_caches()
        oracle.ref_binet_mu(x)
    oracle.clear_caches()
    for x, start, terms in chunks:
        assert x + start > 16.0, (x, start)
        assert terms == [kernels.kernel_w(x + j) for j in range(start, start + len(terms))], (x, start)
    # Chunk boundaries were crossed.
    assert sum(start > 0 and start % oracle.BLOCK_TERMS == 0 for _, start, _ in chunks) >= 10
    # A dense set of fractional parts of x + j, from just above y = 16 on.
    for x in [math.nextafter(16.0, 17.0)] + (16.0 + np.geomspace(1e-9, 1e7, 2001)).tolist():
        terms = next(oracle._bulk_terms(x, 0, 3))[0].tolist()
        assert terms == [kernels.kernel_w(x + j) for j in range(3)], x


# The kernels' accuracy table, as their module docstring quotes it: most ulps
# off (40 + 2 log10 y)-digit mpmath on 600 log points of [1e-3, 1) (direct
# forms, but kernel_w's series from 1/2) and 3000 of [1, 1e150] (the series),
# and for u - log1p(u) on 3001 points of [-1/2, 1].
_BELOW_ONE = [1e-3 * 1e3 ** (i / 600) for i in range(600)]
_FROM_ONE = [10.0 ** (150 * i / 2999) for i in range(3000)]
_H_POINTS = [-0.5 + 1.5 * i / 3000 for i in range(3001)]
_ACCURACY_TABLE = [
    ("kernel_r", lambda m, mp: 1 / m - mp.log1p(1 / m), _BELOW_ONE, 2.1),
    ("kernel_r", lambda m, mp: 1 / m - mp.log1p(1 / m), _FROM_ONE, 2.4),
    ("kernel_s", lambda m, mp: (m + 1) * mp.log1p(1 / m) - 1, _BELOW_ONE, 5.5),
    ("kernel_s", lambda m, mp: (m + 1) * mp.log1p(1 / m) - 1, _FROM_ONE, 1.6),
    ("kernel_w", lambda m, mp: (m + mp.mpf(1) / 2) * mp.log1p(1 / m) - 1, _BELOW_ONE, 13.2),
    ("kernel_w", lambda m, mp: (m + mp.mpf(1) / 2) * mp.log1p(1 / m) - 1, _FROM_ONE, 2.9),
    ("u_minus_log1p", lambda m, mp: m - mp.log1p(m), _H_POINTS, 2.3),
]


@pytest.mark.parametrize("name, exact, points, max_ulps", _ACCURACY_TABLE,
                         ids=[f"{row[0]}-{row[2][0]:g}" for row in _ACCURACY_TABLE])
def test_kernel_accuracy_table(name, exact, points, max_ulps):
    mpmath = pytest.importorskip("mpmath")
    fn, worst = getattr(kernels, name), 0.0
    for y in points:
        with mpmath.workdps(40 + 2 * max(0, math.ceil(math.log10(abs(y) or 1.0)))):
            ref = exact(mpmath.mpf(y), mpmath)
            worst = max(worst, float(abs(mpmath.mpf(fn(y)) - ref)) / math.ulp(float(ref)))
    assert worst <= max_ulps, (name, worst)


@given(st.floats(min_value=1e-3, max_value=1e12))
def test_kernel_relative_accuracy_56bit(x):
    # Cross-check against a 56-bit-split reference: r(x) via fsum of the
    # alternating series with many terms at high k-count when x is large,
    # else the direct formula in extended steps.  Relative error <= 1e-12.
    r = kernels.kernel_r(x)
    assert r > 0.0
    if x >= 32.0:
        u = 1.0 / x
        ref = math.fsum((-1.0) ** m * u**m / m for m in range(2, 40))
        assert r == pytest.approx(ref, rel=1e-12)
    else:
        assert r == pytest.approx(1.0 / x - math.log1p(1.0 / x), rel=1e-10)


@given(st.floats(min_value=1e-3, max_value=1e12))
def test_kernel_positivity(x):
    assert kernels.kernel_r(x) > 0.0
    assert kernels.kernel_s(x) > 0.0
    assert kernels.kernel_w(x) > 0.0


@given(st.floats(min_value=1e-6, max_value=0.0624))
def test_u_minus_log1p_series_branch(u):
    ref = math.fsum((-1.0) ** m * u**m / m for m in range(2, 40))
    assert kernels.u_minus_log1p(u) == pytest.approx(ref, rel=1e-13)


def test_u_minus_log1p_domain():
    assert kernels.u_minus_log1p(0.0) == 0.0
    with pytest.raises(DomainError):
        kernels.u_minus_log1p(-1.0)


@pytest.mark.parametrize("x", [5e-324, 1e-310, 5.562684646268003e-309])
def test_kernels_where_the_reciprocal_overflows(x):
    # Below ~5.56e-309, 1/x is inf: kernel_r (~1/x) is beyond the largest
    # double, while log(1 + 1/x) = -log x + log1p(x) keeps kernel_s and
    # kernel_w finite.
    mpmath = pytest.importorskip("mpmath")
    assert 1.0 / x == math.inf
    with pytest.raises(DomainError):
        kernels.kernel_r(x)
    with pytest.raises(DomainError):
        kernels.u_minus_log1p(math.inf)
    with mpmath.workdps(50):
        t = mpmath.mpf(x)
        log_ratio = mpmath.log1p(1 / t)
        exact = {
            kernels.kernel_s: (t + 1) * log_ratio - 1,
            kernels.kernel_w: (t + mpmath.mpf(1) / 2) * log_ratio - 1,
        }
    for fn, truth in exact.items():
        assert fn(x) == pytest.approx(float(truth), rel=4 * 2.0**-52), fn.__name__


def test_w_series_takes_the_exact_coefficients_bit_for_bit():
    # W(v) = sum_{k<=K} v^k/(2k + 1), K = 26 above v = 1/9, 18 above 1/81,
    # 9 above 1/1089, else 6, by the plain Horner loop from 0: the scalar
    # straight-line stages take its operations.  The oracle's K = 6
    # coefficients are W's (its bulk terms equal the scalar kernel_w's:
    # test_poly_eval_on_arrays_matches_scalar_kernels).
    def horner_loop(v):
        acc = 0.0
        for k in range(26 if v > 1 / 9 else 18 if v > 1 / 81 else 9 if v > 1 / 1089 else 6,
                       0, -1):
            acc = (acc + 1.0 / (2 * k + 1)) * v
        return acc

    assert oracle._W_COEFFS == tuple(1.0 / (2 * k + 1) for k in range(1, 7))
    v = np.concatenate([np.geomspace(1.0 / 4.0, 1e-300, 4001),
                        [1 / 9, math.nextafter(1 / 9, 1.0), 1 / 81,
                         math.nextafter(1 / 81, 1.0), 1 / 1089,
                         math.nextafter(1 / 1089, 1.0), 0.0]])
    assert [kernels._w_over_v(w) * w for w in v.tolist()] == [horner_loop(w) for w in v.tolist()]


_TERM_STARTS = ([10.0 ** (-300 + 608 * i / 400) for i in range(401)]
                + [float(i) for i in range(1, 40)]
                + [1.0 - 2.0**-53, 15.0, 16.0, 17.0]
                + [math.nextafter(16.0 - k, 0.0) for k in range(16)]
                + [math.nextafter(16.0 - k, 20.0) for k in range(16)]
                + [16.0 - k + 0.3 for k in range(16)]
                # Just above 16 W's sixth term is nearest an ulp of the value:
                # without its 1/13, 6 of these lists change.
                + [16.0 + i / 256 for i in range(512)])


def test_term_lists_equal_the_scalar_kernels():
    for x in _TERM_STARTS:
        assert kernels.kernel_r_terms(x, 40) == [kernels.kernel_r(x + j) for j in range(40)], x
    assert kernels.kernel_r_terms(2.0, 0) == []


@pytest.mark.parametrize("x", [5e-324, 1e-310, 5.562684646268003e-309])
def test_term_lists_where_the_reciprocal_overflows(x):
    # kernel_r_terms raises kernel_r's own DomainError.
    with pytest.raises(DomainError) as scalar:
        kernels.kernel_r(x)
    with pytest.raises(DomainError) as listed:
        kernels.kernel_r_terms(x, 5)
    assert str(listed.value) == str(scalar.value)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_term_lists_check_their_start(bad):
    with pytest.raises(DomainError):
        kernels.kernel_r_terms(bad, 3)
    with pytest.raises(DomainError):
        kernels.kernel_r_terms(bad, 0)
