"""Cancellation-safe elementary kernels.

The quantities 1/y - log(1+1/y), (y+1)log(1+1/y) - 1 and (y+1/2)log(1+1/y) - 1
lose essentially all significant digits when evaluated directly at large y.
From y = 1 all three come from one positive series (the atanh series, DLMF
4.6(i)) in v = t^2, t = 1/(2y + 1) = 0.5/(y + 0.5), which cannot overflow:

    kernel_w = W(v) = sum_{k>=1} v^k / (2k + 1),
    kernel_r = t (1/y - 2W) = (1/(2y) - W) / (y + 1/2),   kernel_s = (W + t) + t W.

Nothing cancels; W cut after K terms is short by under v^(K+1)/((2K + 3)(1 - v)),
1e-18 of W (2e-17 for y in [1/2, 1)).  u_minus_log1p is t (u - 2W) at t = u/(2 + u)
on [-1/2, 1].  Below y = 1 the direct forms stay (kernel_r's within about 2 ulps),
but kernel_w is W from y = 1/2.  Most ulps off (40 + 2 log10 y)-digit mpmath on 600
log points of [1e-3, 1) and 3000 of [1, 1e150] (tests/test_kernels.py): kernel_r
2.1 and 2.4, kernel_s 5.5 and 1.6, kernel_w 13.2 (its direct form below 1/2
cancels) and 2.9; u_minus_log1p 2.3 on [-1/2, 1].  The gap's term list,
kernel_r_terms, writes W's six-term cut inline: _w_over_v's K = 6 test on v.
"""

from __future__ import annotations

import math

from .errors import DomainError


def _w_over_v(v):
    # W(v)/v, 0 <= v <= 1/4, cut after K = 26 terms above v = 1/9 (y < 1), 18 above 1/81
    # (y < 4), 9 above 1/1089 (y < 16), else 6: each K by straight-line Horner from acc = 0.
    acc = 0.0
    if v > 1/81:
        if v > 1/9:
            acc = (((((((1/53 * v + 1/51) * v + 1/49) * v + 1/47) * v + 1/45) * v
                     + 1/43) * v + 1/41) * v + 1/39) * v
        acc = (((((((((acc + 1/37) * v + 1/35) * v + 1/33) * v + 1/31) * v + 1/29) * v
                  + 1/27) * v + 1/25) * v + 1/23) * v + 1/21) * v
    if v > 1/1089:
        acc = (((acc + 1/19) * v + 1/17) * v + 1/15) * v
    return (((((acc + 1/13) * v + 1/11) * v + 1/9) * v + 1/7) * v + 1/5) * v + 1/3


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

    This is the h auxiliary, kernel_r(1/u).  DomainError for nan, u <= -1
    and u = inf (where the value is inf too).
    """
    if not -1.0 < u <= 1.7976931348623157e308:
        raise DomainError(f"argument must be a finite real > -1, got {u!r}")
    if -0.5 <= u <= 1.0:
        t = u / (2.0 + u)
        v = t * t
        return t * (u - 2.0 * (_w_over_v(v) * v))
    return u - math.log1p(u)


def kernel_r(x: float) -> float:
    """1/x - log(1+1/x) > 0 for x > 0.

    Below ~5.56e-309, where 1/x and the value pass the largest double,
    DomainError.
    """
    x = _check_domain(x)
    if x >= 1.0:
        s = x + 0.5
        t = 0.5 / s
        v = t * t
        return (0.5 / x - _w_over_v(v) * v) / s
    u = 1.0 / x
    if u == math.inf:
        raise DomainError(f"kernel_r({x!r}) passes the largest double")
    return u_minus_log1p(u)


def kernel_s(x: float) -> float:
    """(x+1)*log(1+1/x) - 1 > 0 for x > 0, cancellation-safe."""
    x = _check_domain(x)
    if x >= 1.0:
        t = 0.5 / (x + 0.5)
        v = t * t
        w = _w_over_v(v) * v
        return (w + t) + t * w
    return _direct(x, 1.0)


def _direct(x: float, c: float) -> float:
    # (x + c) log(1 + 1/x) - 1 as written, below the series' range.  Below
    # ~5.56e-309, u = 1/x overflows; there log(1 + 1/x) is -log x + log1p(x),
    # and log1p(x) < 6e-309 is far below an ulp of -log x > 708.
    u = 1.0 / x
    return (x + c) * (math.log1p(u) if u <= 1.7976931348623157e308 else -math.log(x)) - 1.0


def kernel_w(x: float) -> float:
    """(x+1/2)*log(1+1/x) - 1, the summand of the Stirling-series kernel.

    Positive, decreasing, ~1/(12 x^2) for large x.
    """
    return _kernel_w(_check_domain(x))


def _kernel_w(x: float) -> float:
    # kernel_w for an x already checked: mu's head terms x + j share one check.
    if x >= 0.5:
        t = 0.5 / (x + 0.5)
        v = t * t
        return _w_over_v(v) * v
    return _direct(x, 0.5)


def kernel_r_terms(x: float, count: int) -> list[float]:
    """[kernel_r(x + j) for j in range(count)], bit for bit: the gap's terms.

    x is checked once, and each term from 1 on takes kernel_r's series operations.
    W's six-term cut is written inline, under _w_over_v's K = 6 test on v: its one other copy.
    """
    x = _check_domain(x)
    terms = []
    append = terms.append
    for j in range(count):
        y = x + j
        if y >= 1.0:
            s = y + 0.5
            t = 0.5 / s
            v = t * t
            # On v, not y: y = 16 takes K = 9, as (0.5/16.5)^2 rounds above 1/1089.
            w = ((((((1/13 * v + 1/11) * v + 1/9) * v + 1/7) * v + 1/5) * v + 1/3) * v
                 if v <= 1/1089 else _w_over_v(v) * v)
            append((0.5 / y - w) / s)
        else:   # y = x < 1, at j = 0 only
            append(kernel_r(y))
    return terms
