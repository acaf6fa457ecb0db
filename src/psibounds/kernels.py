"""Cancellation-safe elementary kernels.

The quantities 1/y - log(1+1/y), (y+1)log(1+1/y) - 1 and (y+1/2)log(1+1/y) - 1
lose essentially all significant digits when evaluated directly at large y
(both operands approach each other like 1/y while the result decays like
1/y**2).  Every routine here switches to an alternating series in u = 1/y once
the direct formula would cancel; the truncation error is bounded by the first
omitted term, keeping the relative error at a few ulps everywhere.
"""

from __future__ import annotations

import math

from .errors import DomainError

# Direct evaluation keeps comfortably more than 12 significant digits up to
# this point; past it, u = 1/y <= 1/16 and the truncated series below are
# accurate to well under 1e-12 relative.
SERIES_CUTOFF = 16.0

# u - log1p(u) = sum_{m>=2} (-1)^m u^m / m, terms through u^12.
_R_COEFFS = tuple((-1.0) ** m / m for m in range(2, 13))
# (1/u + 1) log1p(u) - 1 = sum_{j>=1} (-1)^(j+1) u^j / (j(j+1)), through u^12.
_S_COEFFS = tuple((-1.0) ** (j + 1) / (j * (j + 1)) for j in range(1, 13))
# (1/u + 1/2) log1p(u) - 1 = sum_{j>=2} (-1)^j (j-1) u^j / (2j(j+1)), through u^12.
_W_COEFFS = tuple((-1.0) ** j * (j - 1) / (2.0 * j * (j + 1)) for j in range(2, 13))
# integral of the w-kernel from T to infinity, u = 1/T:
# sum_{j>=2} (-1)^j u^(j-1) / (2j(j+1)), terms through u^11.
_WINT_COEFFS = tuple((-1.0) ** j / (2.0 * j * (j + 1)) for j in range(2, 13))


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


def _poly_eval(u, coeffs, lead_power: int):
    # Horner in u, result multiplied by u**lead_power at the end; u may be a
    # float or a numpy array (the oracle sums whole blocks of terms at once).
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc * u**lead_power


def u_minus_log1p(u: float) -> float:
    """u - log(1+u) for u > -1, stable for small |u|.

    This is the h auxiliary; kernel_r(y) equals u_minus_log1p(1/y).
    """
    if u <= -1.0 or math.isnan(u):
        raise DomainError(f"argument must exceed -1, got {u!r}")
    if abs(u) <= 1.0 / SERIES_CUTOFF:
        return _poly_eval(u, _R_COEFFS, 2)
    return u - math.log1p(u)


def kernel_r(x: float) -> float:
    """1/x - log(1+1/x) > 0 for x > 0.

    Relative error stays below ~1e-14 out to x = 1e8 and beyond; the direct
    formula would return pure noise there.
    """
    x = _check_domain(x)
    return u_minus_log1p(1.0 / x)


def kernel_s(x: float) -> float:
    """(x+1)*log(1+1/x) - 1 > 0 for x > 0, cancellation-safe."""
    x = _check_domain(x)
    u = 1.0 / x
    if x >= SERIES_CUTOFF:
        return _poly_eval(u, _S_COEFFS, 1)
    return (x + 1.0) * math.log1p(u) - 1.0


def kernel_w(x: float) -> float:
    """(x+1/2)*log(1+1/x) - 1, the summand of the Stirling-series kernel.

    Positive, decreasing, ~1/(12 x^2) for large x.
    """
    x = _check_domain(x)
    u = 1.0 / x
    if x >= SERIES_CUTOFF:
        return _poly_eval(u, _W_COEFFS, 2)
    return (x + 0.5) * math.log1p(u) - 1.0


def kernel_s_scaled(t: float, a: float) -> float:
    """(t+a)*log(1+a/t) - a: the integral of v -> a/v - log(1+a/v) over [t, inf).

    Equals a * kernel_s(t/a).  Requires t > 0 and a > 0.
    """
    t = _check_domain(t, "t")
    a = _check_domain(a, "a")
    return a * kernel_s(t / a)


def kernel_w_integral(t: float) -> float:
    """Integral of kernel_w over [t, inf): 1/4 + t/2 - (t(t+1)/2) log(1+1/t).

    ~1/(12 t) for large t; evaluated by series past the cancellation point.
    """
    t = _check_domain(t, "t")
    u = 1.0 / t
    if t >= SERIES_CUTOFF:
        return _poly_eval(u, _WINT_COEFFS, 1)
    return 0.25 + 0.5 * t - 0.5 * t * (t + 1.0) * math.log1p(u)


# Exact derivative forms used by the tail enclosures (no cancellation).
# Past HUGE_Y each form is its leading term in u = 1/y instead: the next
# term is u times smaller (below 1e-30 relative), while the product forms
# overflow there (y**4 from 1.2e77, (y(y+1))**3 from 7.5e51, y(y+1) from
# 1.3e154, where kernel_w_d1 then returns log1p(u) = u instead of -u^3/6).
# Every abscissa a tail is evaluated at for x <= 1e20 lies below HUGE_Y.
HUGE_Y = 1e30


def kernel_r_d1(y: float) -> float:
    """First derivative of kernel_r: -1/(y^2 (y+1))."""
    if y > HUGE_Y:
        u = 1.0 / y
        return -(u * u * u)
    return -1.0 / (y * y * (y + 1.0))


def kernel_r_d3(y: float) -> float:
    """Third derivative of kernel_r: -2(6y^2+8y+3)/(y^4 (y+1)^3)."""
    if y > HUGE_Y:
        u = 1.0 / y
        return -12.0 * (u * u * u * u * u)
    return -2.0 * (6.0 * y * y + 8.0 * y + 3.0) / (y**4 * (y + 1.0) ** 3)


def kernel_w_d1(y: float) -> float:
    """First derivative of kernel_w: log(1+1/y) - (y+1/2)/(y(y+1)).

    Mild cancellation (~1e-13 relative near y=16) is harmless: this only
    feeds a correction term that is itself divided by 12.
    """
    if y > HUGE_Y:
        u = 1.0 / y
        return -(u * u * u) / 6.0
    return math.log1p(1.0 / y) - (y + 0.5) / (y * (y + 1.0))


def kernel_w_d3(y: float) -> float:
    """Third derivative of kernel_w: -(2y+1)/(y(y+1))^3."""
    if y > HUGE_Y:
        u = 1.0 / y
        return -2.0 * (u * u * u * u * u)
    return -(2.0 * y + 1.0) / (y * (y + 1.0)) ** 3
