"""Cancellation-safe elementary kernels.

The quantities 1/y - log(1+1/y), (y+1)log(1+1/y) - 1 and (y+1/2)log(1+1/y) - 1
lose essentially all significant digits when evaluated directly at large y
(both operands approach each other like 1/y while the result decays like
1/y**2).  Every routine here switches to an alternating series in u = 1/y at
y = 16; the truncation error is bounded by the first omitted term.  The
tails' derivative forms are written in u as well, so none overflows or
underflows before its value does.

Measured relative error against 60-digit mpmath (2001 log points in
[1e-3, 1e8] and 3001 points in [14, 17]): kernel_r is within 18 ulps below
y = 16 and 75 ulps just above it, where the series truncated at u^12 is
least accurate.  kernel_w's direct formula still cancels below 16: up to
about 6100 ulps near y = 15.5.  Its series is within 128 ulps.
"""

from __future__ import annotations

import math

from .errors import DomainError

# Direct evaluation keeps more than 12 significant digits up to this point;
# past it, u = 1/y <= 1/16 and the truncated series below are accurate to
# well under 1e-12 relative.
SERIES_CUTOFF = 16.0

# Each series below is one straight-line Horner expression in u, led by its
# highest retained power and ended by the leading power of u, squared as
# u * u.  They serve floats only.  The oracle builds its bulk terms from the
# same coefficients in place on numpy arrays, with the same operations and
# so the same values.


def _r_poly(u):
    # u - log1p(u) = sum_{m>=2} (-1)^m u^m / m, terms through u^12.
    return ((((((((((1/12 * u - 1/11) * u + 1/10) * u - 1/9) * u + 1/8) * u - 1/7) * u
                + 1/6) * u - 1/5) * u + 1/4) * u - 1/3) * u + 1/2) * (u * u)


def _s_poly(u):
    # (1/u + 1) log1p(u) - 1 = sum_{j>=1} (-1)^(j+1) u^j / (j(j+1)), through u^12.
    return (((((((((((-1/156 * u + 1/132) * u - 1/110) * u + 1/90) * u - 1/72) * u
                  + 1/56) * u - 1/42) * u + 1/30) * u - 1/20) * u + 1/12) * u - 1/6) * u
            + 1/2) * u


def _w_poly(u):
    # (1/u + 1/2) log1p(u) - 1 = sum_{j>=2} (-1)^j (j-1) u^j / (2j(j+1)), through u^12.
    return ((((((((((11/312 * u - 5/132) * u + 9/220) * u - 2/45) * u + 7/144) * u
                 - 3/56) * u + 5/84) * u - 1/15) * u + 3/40) * u - 1/12) * u + 1/12) * (u * u)


def _wint_poly(u):
    # Integral of the w-kernel from T to infinity, u = 1/T:
    # sum_{j>=2} (-1)^j u^(j-1) / (2j(j+1)), terms through u^11.
    return ((((((((((1/312 * u - 1/264) * u + 1/220) * u - 1/180) * u + 1/144) * u
                 - 1/112) * u + 1/84) * u - 1/60) * u + 1/40) * u - 1/24) * u + 1/12) * u


def _check_domain(x: float, name: str = "x") -> float:
    # The one positive-finite check of the package.  The chained comparison
    # against the largest finite double is false for nan, 0, negatives and
    # inf alike, and costs less than separate isinf/isnan calls.
    x = float(x)
    if not 0.0 < x <= 1.7976931348623157e308:
        raise DomainError(f"{name} must be a positive finite real, got {x!r}")
    return x


def _check_nonnegative(t: float, name: str = "t") -> float:
    # _check_domain with 0 allowed (auxiliaries defined at the origin).
    t = float(t)
    if not 0.0 <= t <= 1.7976931348623157e308:
        raise DomainError(f"{name} must be a finite real >= 0, got {t!r}")
    return t


def u_minus_log1p(u: float) -> float:
    """u - log(1+u) for u > -1, stable for small |u|.

    This is the h auxiliary; kernel_r(y) equals u_minus_log1p(1/y).
    DomainError for nan, u <= -1 and u = inf (where the value is inf too).
    """
    if not -1.0 < u <= 1.7976931348623157e308:
        raise DomainError(f"argument must be a finite real > -1, got {u!r}")
    if abs(u) <= 1.0 / SERIES_CUTOFF:
        return _r_poly(u)
    return u - math.log1p(u)


def kernel_r(x: float) -> float:
    """1/x - log(1+1/x) > 0 for x > 0.

    Relative error stays below ~1e-14 out to x = 1e8 and beyond; the direct
    formula would return pure noise there.  Below ~5.56e-309, where 1/x and
    the value pass the largest double, DomainError.
    """
    x = _check_domain(x)
    return u_minus_log1p(1.0 / x)


def kernel_s(x: float) -> float:
    """(x+1)*log(1+1/x) - 1 > 0 for x > 0, cancellation-safe."""
    x = _check_domain(x)
    u = 1.0 / x
    if x >= SERIES_CUTOFF:
        return _s_poly(u)
    # Below ~5.56e-309, u = 1/x overflows; there log(1 + 1/x) is
    # -log x + log1p(x), and log1p(x) < 6e-309 is far below an ulp of
    # -log x > 708.  kernel_w and kernel_w_integral do the same, inline: a
    # helper call would cost the head terms of every mu sum.
    return (x + 1.0) * (math.log1p(u) if u <= 1.7976931348623157e308 else -math.log(x)) - 1.0


def kernel_w(x: float) -> float:
    """(x+1/2)*log(1+1/x) - 1, the summand of the Stirling-series kernel.

    Positive, decreasing, ~1/(12 x^2) for large x.
    """
    x = _check_domain(x)
    u = 1.0 / x
    if x >= SERIES_CUTOFF:
        return _w_poly(u)
    return (x + 0.5) * (math.log1p(u) if u <= 1.7976931348623157e308 else -math.log(x)) - 1.0


def kernel_r_terms(x: float, count: int) -> list[float]:
    """[kernel_r(x + j) for j in range(count)], bit for bit: the gap's terms.

    x is checked once; each term takes kernel_r's own series/direct test,
    one polynomial call per series term, and DomainError is raised where
    kernel_r raises it.
    """
    x = _check_domain(x)
    r_poly, u_max = _r_poly, 1.0 / SERIES_CUTOFF
    terms = []
    for j in range(count):
        u = 1.0 / (x + j)
        terms.append(r_poly(u) if u <= u_max else u_minus_log1p(u))
    return terms


def kernel_w_integral(t: float) -> float:
    """Integral of kernel_w over [t, inf): 1/4 + t/2 - (t(t+1)/2) log(1+1/t).

    ~1/(12 t) for large t; evaluated by series past the cancellation point.
    """
    t = _check_domain(t, "t")
    u = 1.0 / t
    if t >= SERIES_CUTOFF:
        return _wint_poly(u)
    log_ratio = math.log1p(u) if u <= 1.7976931348623157e308 else -math.log(t)
    return 0.25 + 0.5 * t - 0.5 * t * (t + 1.0) * log_ratio


# Exact derivative forms used by the tail enclosures, in u = 1/y: the powers
# of u and of u/(1+u) = 1/(y+1) are taken by pow from the exact y, so they
# neither overflow nor underflow before their values do for y >= 1, and
# u's own rounding is not raised to a power: within 5e-16 relative on
# [64, 1.8e308], where every tail starts.


def kernel_r_d1(y: float) -> float:
    """First derivative of kernel_r: -1/(y^2 (y+1)) = -u^3/(1+u)."""
    return -y**-2.0 / (y + 1.0)


def kernel_r_d3(y: float) -> float:
    """Third derivative of kernel_r: -2u^5 (6+8u+3u^2)/(1+u)^3."""
    u = 1.0 / y
    return -2.0 * ((3.0 * u + 8.0) * u + 6.0) * y**-2.0 * (y + 1.0) ** -3.0


def kernel_w_d1(y: float) -> float:
    """First derivative of kernel_w: log(1+1/y) - (y+1/2)/(y(y+1)).

    From y = 16, where the direct form cancels, it is u^3 times the series
    sum_{k>=3} (-1)^k (1/2 - 1/k) u^(k-3), through u^12: truncated below
    2.3e-12 relative at y = 16 and 2.2e-18 from y = 64.
    """
    u = 1.0 / y
    if y >= SERIES_CUTOFF:
        return ((((((((((5/12 * u - 9/22) * u + 2/5) * u - 7/18) * u + 3/8) * u - 5/14) * u
                    + 1/3) * u - 3/10) * u + 1/4) * u - 1/6) * y**-3.0)
    return math.log1p(u) - (y + 0.5) / (y * (y + 1.0))


def kernel_w_d3(y: float) -> float:
    """Third derivative of kernel_w: -(2y+1)/(y(y+1))^3 = -u^5 (2+u)/(1+u)^3."""
    return -(2.0 + 1.0 / y) * y**-2.0 * (y + 1.0) ** -3.0
