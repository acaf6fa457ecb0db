"""Core evaluation of log-gamma, digamma, polygamma and the Stirling ratio.

Everything is built from two convergent series with completely monotone,
cancellation-free terms:

    digamma gap   log(x) - psi(x)      = sum_{j>=0} kernel_r(x + j)
    Stirling term log of the ratio     = sum_{j>=0} kernel_w(x + j)

plus the defining series for polygamma.  Tails are enclosed by
:mod:`psibounds.tails` and start where the enclosure width drops to a
quarter ulp of a lower bound on the value.  The kernels' own errors (see
:mod:`psibounds.kernels`) then set the accuracy.  Measured against 60-digit
mpmath on 601 log points in [1e-3, 1e6]:

    digamma_gap     within 6.2 ulps
    binet_mu        up to 674 ulps near x = 11.6, 65 at x = 10: the sum
                    inherits kernel_w's cancellation below 16
    digamma         within 11 ulps, away from its zero at 1.4616
    polygamma       within 2.7 ulps for n in {1, 2, 3, 5, 10} (1000 log
                    points in the same range)

All functions are pure; there is no shared mutable state.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from . import kernels, tails
from .errors import DomainError
from .kernels import _check_domain

_EPS = 2.0**-52

#: Euler-Mascheroni constant, nearest double.  The oracle re-derives this
#: value independently from the series; the test suite cross-checks the two.
EULER_GAMMA = 0.5772156649015329

LOG_TWO_PI = math.log(2.0 * math.pi)
HALF_LOG_TWO_PI = LOG_TWO_PI / 2.0


def _tail_start(x: float, scale: float, magnitude: float) -> float:
    # First tail abscissa: far enough out that the enclosure width
    # (~scale / M^5) is below a quarter ulp of a lower bound on the value.
    target = 0.25 * _EPS * max(magnitude, 1e-8)
    m = (scale / target) ** 0.2
    return max(x + 8.0, m, 64.0)


def digamma_gap(x: float) -> float:
    """log(x) - psi(x), evaluated without cancellation.

    Positive and strictly decreasing on (0, inf); ~1/(2x) for large x.
    Accurate to a few relative ulps, which the plain difference of
    log and digamma cannot achieve once x is large.
    """
    x = _check_domain(x)
    y_tail = _tail_start(x, 1.0 / 60.0, 0.5 / x)
    count = int(math.ceil(y_tail - x))
    lo, hi = tails.gap_tail(x + count)
    terms = kernels.kernel_r_terms(x, count)
    terms.append(0.5 * (lo + hi))
    return math.fsum(terms)


def binet_mu(x: float) -> float:
    """log of Gamma(x) / (sqrt(2 pi) x^(x-1/2) e^-x): the Stirling-series sum.

    Positive, strictly decreasing, ~1/(12x) for large x.
    """
    x = _check_domain(x)
    # mu(x) > 1/(12x + 1) (checked against mpmath on [1e-10, 1e7]).
    y_tail = _tail_start(x, 1.0 / 360.0, 1.0 / (12.0 * x + 1.0))
    count = int(math.ceil(y_tail - x))
    lo, hi = tails.mu_tail(x + count)
    terms = kernels.kernel_w_terms(x, count)
    terms.append(0.5 * (lo + hi))
    return math.fsum(terms)


def digamma(x: float) -> float:
    """psi(x) = Gamma'(x)/Gamma(x) for x > 0."""
    x = _check_domain(x)
    return math.log(x) - digamma_gap(x)


def _add_error(a: float, b: float, s: float) -> float:
    """a + b - s exactly, for s the rounded a + b (Knuth's TwoSum)."""
    z = s - a
    return (a - (s - z)) + (b - z)


def _power_sum(n: int, x: float, d: float, magnitude: float) -> float:
    """sum_{k>=0} ((x + k)/d)^-(n+1), the polygamma series scaled by d^(n+1).

    ``magnitude`` is a lower bound on the sum.  d = 1 is the series itself;
    d = x starts the terms at 1, so they cannot underflow where the value
    does not.
    """
    # Enclosure width ~ d^(n+1) (n+3)!/(n-1)! / (720 M^(n+4)); aim below a
    # quarter ulp of the magnitude.
    target = 0.25 * _EPS * max(magnitude, 1e-300)
    scale = (n + 1) * (n + 2) * (n + 3) / 720.0
    # A subnormal target overflows scale / target; take that root apart.
    ratio, p = scale / target, 1.0 / (n + 4)
    m = ratio**p if ratio < math.inf else scale**p / target**p
    m_tail = max(x + 8.0, 64.0, m * d ** ((n + 1) * p))
    count = int(math.ceil(m_tail - x))
    power = -(n + 1)
    terms = [((x + k) / d) ** power for k in range(count)]
    y = x + count
    lo, hi = tails.polygamma_tail(y / d, n, 1.0 / d)
    mid = lo + 0.5 * (hi - lo)   # 0.5 * (lo + hi) overflows near 1.8e308 when scaled
    terms.append(mid)
    if n > 1:
        # Each abscissa y = x + k rounds, and a term carries that error n + 1
        # times over: up to 8 ulps of psi^(10) near powers of two, against
        # at most an ulp for n = 1.  To first order, the exact error
        # e = x + k - y moves a term t by -(n + 1) t e / y and the tail
        # midpoint (~ y^-n) by -n mid e / y.
        drift = n * _add_error(x, count, y) / y * mid
        for k in range(1, count):
            y = x + k
            drift += (n + 1) * _add_error(x, k, y) / y * terms[k]
        terms.append(-drift)
    return math.fsum(terms)


def polygamma(n: int, x: float) -> float:
    """psi^(n)(x) = (-1)^(n-1) n! sum_{k>=0} 1/(x+k)^(n+1), n >= 1, x > 0.

    DomainError where |psi^(n)(x)| exceeds the largest double.  Where for
    n >= 2 the sum underflows the normal range, it is summed scaled by
    x^(n+1) and x^-(n+1) is applied exactly, with n!, before one rounding.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError(f"polygamma order must be an integer >= 1, got {n!r}")
    x = _check_domain(x)
    too_big = f"|polygamma({n}, {x!r})| exceeds the largest double"
    try:
        lead = x ** -(n + 1)   # the first term: its overflow is the value's
    except OverflowError:
        raise DomainError(too_big) from None
    # The sum exceeds both its first term and the integral x^-n / n of its
    # terms from x (DLMF 5.15.1): past x ~ n, the integral is the larger.
    total = _power_sum(n, x, 1.0, max(lead, x**-n / n))
    if n > 1 and total < sys.float_info.min:
        # The terms underflow: sum them over x^-(n+1), then divide that out.
        series = Fraction(_power_sum(n, x, x, 1.0)) / Fraction(x) ** (n + 1)
    else:
        series = Fraction(total)
    # Exact, then rounded once: n! alone overflows a double from n = 171.
    magnitude = math.factorial(n) * series
    if magnitude > sys.float_info.max:
        raise DomainError(too_big)
    return float(magnitude) if n % 2 == 1 else -float(magnitude)


def trigamma(x: float) -> float:
    """psi'(x), the first derivative of digamma."""
    return polygamma(1, x)


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0.

    Satisfies log_gamma(x+1) = log_gamma(x) + log(x) to ulp-scale accuracy.
    DomainError where (x - 1/2) log x overflows (from x ~ 2.5e305), as in
    the oracle.
    """
    x = _check_domain(x)
    product = (x - 0.5) * math.log(x)
    if product == math.inf:
        raise DomainError(f"log_gamma({x!r}): (x - 1/2) log x overflows binary64")
    return math.fsum([binet_mu(x), product, -x, HALF_LOG_TWO_PI])


def stirling_ratio(x: float) -> float:
    """Gamma(x) / (sqrt(2 pi) x^(x-1/2) e^-x).

    Greater than 1, strictly decreasing, -> 1 as x -> inf.  Evaluated in log
    space, so there is no overflow even at x = 1e6 and beyond.
    """
    return math.exp(binet_mu(_check_domain(x)))


def log_stirling_root_scaled(x: float) -> float:
    """log of Gamma(x) / (sqrt(2 pi) x^x e^-x), the root-scaled remainder.

    This is binet_mu(x) - log(x)/2: the quantity the exponential bound
    families enclose.  It tends to -inf like -log(x)/2.
    """
    x = _check_domain(x)
    return binet_mu(x) - 0.5 * math.log(x)

