"""Core evaluation of log-gamma, digamma, polygamma and the Stirling ratio.

The digamma gap log(x) - psi(x) = sum_{j>=0} kernel_r(x + j) is summed term
by term, with completely monotone, cancellation-free terms, until the
enclosure of its tail (``_gap_tail``) is a quarter ulp of the value.
mu, the log of the Stirling ratio, and the polygamma series
S(x) = sum_k (x + k)^-(n+1) shift the argument instead: they sum kernel_w(x + j)
while x + j < 7, or (x + k)^-(n+1) while x + k < n + 8, then add a
fixed-length Stirling/Bernoulli expansion in 1/y (DLMF 5.11.1, 5.15.8;
Bernardo, Appl. Statist. AS 103, 1976).  Both expansions take their
coefficients from one table of exact B_2k pairs, each coefficient the exact
ratio rounded once: mu's 16 once at import, polygamma's 12 once per order n,
scaled by (n + 8)^-2k so that they are finite for every n and the polynomial
runs in w = ((n + 8)/y)^2 <= 1.  Each is one straight-line Horner expression.
Both functions are completely monotone, so each expansion envelopes: its
remainder has the sign of the first omitted term and is smaller.  Measured
against 60-digit mpmath on 601 log points in [1e-3, 1e6]:

    digamma_gap     within 1.9 ulps
    binet_mu        within 1.5 ulps from x = 7 (the expansion alone); below,
                    6.1 ulps (10.7 at x = 0.305 on a dense grid), from the
                    first kernel_w term below 1/2, a direct form that cancels
    digamma         within 11 ulps, away from its zero at 1.4616
    polygamma       within 2.1 ulps for n in {1, 2, 3, 5, 10} (1000 log
                    points in the same range; 2.4 from starts just below
                    powers of two, where the abscissas x + k round the most);
                    0.9 at 44 points n in [57, 1e5], x near n/e (a 40-digit sum)

All functions are pure; the only shared state is polygamma's cache of its
coefficients per order.
"""

from __future__ import annotations

import functools
import math

from . import kernels
from .errors import DomainError
from .kernels import _check_domain

_EPS = 2.0**-52

#: Euler-Mascheroni constant, nearest double.  The oracle re-derives this
#: value independently from the series; the test suite cross-checks the two.
EULER_GAMMA = 0.5772156649015329

LOG_TWO_PI = math.log(2.0 * math.pi)
HALF_LOG_TWO_PI = LOG_TWO_PI / 2.0


def _gap_tail(y: float) -> float:
    # sum_{j>=0} kernel_r(y + j), the midpoint of hi = kernel_s(y) + f/2 - f'/12
    # and lo = hi + f'''/720: f is completely monotone, so the Euler-Maclaurin
    # remainder lies between them (kernel_s(y) is f's integral over [y, inf)).
    # f' and f''' take their powers by pow from the exact y: no early overflow.
    u = 1.0 / y
    d1 = -y**-2.0 / (y + 1.0)
    d3 = -2.0 * ((3.0 * u + 8.0) * u + 6.0) * y**-2.0 * (y + 1.0) ** -3.0
    hi = kernels.kernel_s(y) + 0.5 * kernels.kernel_r(y) - d1 / 12.0
    lo = hi + d3 / 720.0
    return 0.5 * (lo + hi)


def digamma_gap(x: float) -> float:
    """log(x) - psi(x), evaluated without cancellation.

    Positive and strictly decreasing on (0, inf); ~1/(2x) for large x.
    Accurate to a few relative ulps, which the plain difference of
    log and digamma cannot achieve once x is large.
    """
    x = _check_domain(x)
    # The tail starts where its pair's width 1/(60 m^5), twice the half-width
    # -f'''(m)/1440 ~ 1/(120 m^5), is a quarter ulp of max(0.5/x, 1e-8); gap(x) > 0.5/x.
    target = 0.25 * _EPS * max(0.5 / x, 1e-8)
    m = max(x + 8.0, (1.0 / 60.0 / target) ** 0.2, 64.0)
    count = int(math.ceil(m - x))
    terms = kernels.kernel_r_terms(x, count)
    terms.append(_gap_tail(x + count))
    return math.fsum(terms)


#: The Bernoulli numbers B_2k, k = 1..16, as exact (numerator, denominator)
#: pairs: mu's expansion takes all 16, polygamma's the first 12.
_BERNOULLI = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510),
    (43867, 798), (-174611, 330), (854513, 138), (-236364091, 2730), (8553103, 6),
    (-23749461029, 870), (8615841276005, 14322), (-7709321041217, 510))

#: B_2k / (2k(2k-1)), k = 1..16, each the exact ratio rounded once.
_MU_COEFFICIENTS = tuple(num / (den * 2 * k * (2 * k - 1))
                         for k, (num, den) in enumerate(_BERNOULLI, 1))

# mu's shift point: from y = 7 the first term the expansion below omits is
# under 2^-57 of mu(y).
_MU_X0 = 7.0


def _mu_expansion(y: float) -> float:
    # mu(y) = sum_{k=1..16} B_2k / (2k(2k-1) y^(2k-1)) (DLMF 5.11.1), as a
    # polynomial in v = 1/y^2 divided by y: correctly rounded coefficients,
    # and the remainder has the sign of the first omitted term and is below it.
    v = 1.0 / (y * y)   # 0 once y*y overflows, leaving 1/(12y)
    c = _MU_COEFFICIENTS
    return (((((((((((((((c[15] * v + c[14]) * v + c[13]) * v + c[12]) * v + c[11]) * v
            + c[10]) * v + c[9]) * v + c[8]) * v + c[7]) * v + c[6]) * v + c[5]) * v
            + c[4]) * v + c[3]) * v + c[2]) * v + c[1]) * v + c[0]) / y


def binet_mu(x: float) -> float:
    """log of Gamma(x) / (sqrt(2 pi) x^(x-1/2) e^-x): the Stirling-series sum.

    Positive, strictly decreasing, ~1/(12x) for large x.
    """
    x = _check_domain(x)
    count = math.ceil(_MU_X0 - x) if x < _MU_X0 else 0   # the shift: #{j : x + j < x0}
    kernel_w, terms = kernels._kernel_w, []   # x is checked once, here
    for j in range(count):
        terms.append(kernel_w(x + j))
    terms.append(_mu_expansion(x + count))
    return math.fsum(terms)


def digamma(x: float) -> float:
    """psi(x) = Gamma'(x)/Gamma(x) for x > 0."""
    x = _check_domain(x)
    return math.log(x) - digamma_gap(x)


def _add_error(a: float, b: float, s: float) -> float:
    """a + b - s exactly, for s the rounded a + b (Knuth's TwoSum)."""
    z = s - a
    return (a - (s - z)) + (b - z)


# psi^(n)'s shift point is n + _PSI_X0: from there the expansion's terms
# shrink by about (n + 2k)^2 / (2 pi y)^2 each, and the first omitted one is
# below 2^-60 relative for every n.
_PSI_X0 = 8


@functools.lru_cache(maxsize=64)
def _psi_coefficients(n: int) -> tuple[float, ...]:
    """c_k(n) (n + _PSI_X0)^-2k, k = 1..12, c_k(n) = B_2k (n + 2k - 1)! / ((2k)! n!):
    each the exact ratio rounded once, and finite for every n."""
    x0 = n + _PSI_X0
    return tuple(num * math.perm(n + 2 * k - 1, 2 * k - 1)
                 / (den * math.factorial(2 * k) * x0 ** (2 * k))
                 for k, (num, den) in enumerate(_BERNOULLI[:12], 1))


def _power_sum(n: int, x: float, d: float) -> float:
    """sum_{k>=0} ((x + k)/d)^-(n+1), the polygamma series scaled by d^(n+1).

    d = 1 is the series itself; d = x starts the terms at 1, so they cannot
    underflow where the value does not.  From y >= n + _PSI_X0 on,
    y^n S(y) = 1/n + 1/(2y) + sum_{k=1..12} c_k(n) y^-2k, evaluated in
    w = ((n + _PSI_X0)/y)^2 <= 1 on the coefficients of ``_psi_coefficients``.
    """
    power = -(n + 1)
    x0 = n + _PSI_X0
    count = math.ceil(x0 - x) if x < x0 else 0   # the shift, as binet_mu's
    lo, head = 0, count
    if count > 64:   # n >= 57
        # The rest from term k on is under t_k (1 + (x + k)/n), t_k = t_0 (1 + k/x)^-(n+1): stop
        # at the first k where that is under 2^-64 t_0, bisected by logs; before y, no expansion.
        while head - lo > 1:
            k = (lo + head) // 2
            below = math.log1p((x + k) / n) + power * math.log1p(k / x) < -64.0 * math.log(2.0)
            lo, head = (lo, k) if below else (k, head)
    y = x + count
    terms = []
    if d == 1.0:
        for j in range(head):   # a loop, not a comprehension: no frame per call
            terms.append((x + j) ** power)
    else:
        # A head here needs n >= 141.  t_k = exp(E), E = power log1p(k/x) from the exact
        # k and x, raises no rounding to the power n + 1: k/x's rounding moves log1p by
        # at most u = 2^-53 relative (q/(1 + q) <= log1p(q)), log1p and the product add
        # 2u and u, and exp 2u, so t_k is within (4|E| + 2)u t_k <= (4/e + 2t_k)u.
        for k in range(head):
            terms.append(math.exp(power * math.log1p(k / x)))
    if head == count:
        w = x0 / y
        w *= w
        c = _psi_coefficients(n)
        acc = (((((((((((c[11] * w + c[10]) * w + c[9]) * w + c[8]) * w + c[7]) * w + c[6]) * w
                + c[5]) * w + c[4]) * w + c[3]) * w + c[2]) * w + c[1]) * w + c[0]) * w
        # y^-n d^(n+1) / n apart, so that only its own roundings reach the value.
        lead = (y / d) ** -n * d
        terms += [lead / n, lead * (0.5 / y + acc)]
    if n > 1:
        # Each abscissa y = x + k rounds, and a term carries that error n + 1
        # times over: without this, psi^(10) is 3.2 ulps off at x = 15.8.
        # To first order, the exact error e = x + k - y moves a term t by
        # -(n + 1) t e / y and the expansion (~ y^-n / n) by -n e / y of it.
        # Each e is exact by TwoSum (``_add_error``).  Where x + count is
        # exact, x is a multiple of its ulp, so every x + k below it is exact
        # too and the drift is 0.
        if e := _add_error(x, count, y):
            drift = n * e / y * terms[count] if head == count else 0.0
            for k in range(1, head if d == 1.0 else 0):   # the head terms that took x + k
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
    return _polygamma(n, _check_domain(x))


# Logs of the largest double and of 2^-1075, below which a value rounds to 0.
_LOG_MAX, _LOG_ZERO = math.log(1.7976931348623157e308), -1075.0 * math.log(2.0)


def _polygamma(n: int, x: float) -> float:
    # polygamma past its checks, for trigamma and the bounds' closed forms.
    try:
        if n > 22:
            # |psi^(n)(x)| is n! x^-(n+1), of log low, times [1, 1 + x/n], with
            # log n! = (n + 1/2) log n - n + log(2 pi)/2 + r, 0 < r < 1/(12n)
            # (Stirling).  Past either end by the margin (1 for r, 2^-40 of the
            # terms' size for the roundings) it overflows or rounds to zero.
            nf, log_x = float(n), math.log(x)
            log_n = math.log(nf)
            low = (nf + 0.5) * (log_n - log_x) - 0.5 * log_x - nf + HALF_LOG_TWO_PI
            margin = 1.0 + (nf + 1.0) * 2.0**-40 * (abs(log_n) + abs(log_x) + 1.0)
            if low > _LOG_MAX + margin:
                raise OverflowError   # handled below, as every overflow is
            if low + math.log1p(x / nf) < _LOG_ZERO - margin:
                return 0.0 if n % 2 == 1 else -0.0
        total, d = _power_sum(n, x, 1.0), 1.0   # its first term overflows where the value does
        if n > 1 and total < 2.2250738585072014e-308:   # the least normal double
            # The terms underflow: sum them over x^-(n+1), and divide that out below.
            total, d = _power_sum(n, x, x), x
        if n <= 22 and d == 1.0:
            # n! is a double up to 22!: the float product is already the exact
            # one rounded once, as below.
            magnitude = math.factorial(n) * total
        else:
            # n! d^-(n+1) total exactly, rounded once by int division: n! alone
            # overflows a double from n = 171, and Fraction's gcds took seconds.
            (a, b), (p, q) = total.as_integer_ratio(), d.as_integer_ratio()
            magnitude = math.factorial(n) * a * q ** (n + 1) / (b * p ** (n + 1))
    except OverflowError:
        magnitude = math.inf
    if magnitude > 1.7976931348623157e308:
        raise DomainError(f"|polygamma({n}, {x!r})| exceeds the largest double")
    return magnitude if n % 2 == 1 else -magnitude


def trigamma(x: float) -> float:
    """psi'(x), the first derivative of digamma."""
    return _polygamma(1, _check_domain(x))


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0.

    Satisfies log_gamma(x+1) = log_gamma(x) + log(x) to ulp-scale accuracy.
    DomainError where (x - 1/2) log x overflows (from x ~ 2.5e305), as in
    the oracle.
    """
    mu, x = binet_mu(x), float(x)   # binet_mu checks x
    product = (x - 0.5) * math.log(x)
    if product == math.inf:
        raise DomainError(f"log_gamma({x!r}): (x - 1/2) log x overflows binary64")
    return math.fsum([mu, product, -x, HALF_LOG_TWO_PI])


def stirling_ratio(x: float) -> float:
    """Gamma(x) / (sqrt(2 pi) x^(x-1/2) e^-x).

    Greater than 1, strictly decreasing, -> 1 as x -> inf.  Evaluated in log
    space, so there is no overflow even at x = 1e6 and beyond.
    """
    return math.exp(binet_mu(x))
