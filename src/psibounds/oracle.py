"""Slow, rigorous reference evaluations with explicit absolute-error radii.

The oracle is deliberately independent of every library special-function
implementation: it only sums the defining series and encloses their tails
via :mod:`psibounds.tails`.  Each result carries an ``error_radius`` that
accounts for

  * the truncation enclosure (half the tail-bracket width),
  * per-term floating-point evaluation, charged at a calibrated 2 ulps of
    the accumulated term magnitude (4 ulps for the tail midpoint), and
  * the final exactly-rounded summation (``math.fsum``), half an ulp.

The charges sit roughly 2x above the worst error observed against a
50-digit reference across the verification grids; the test suite checks
``|value - reference| <= error_radius`` directly.

Requests below ``EPS_FLOOR`` fail loudly instead of returning an optimistic
radius, as do requests that the argument's own representation cannot honour
(e.g. an absolute 1e-12 on trigamma near 0, where the value is ~1e6).

psi and log Gamma come from two kernel sums over x + j, the digamma gap
and Binet's mu (DLMF 5.11.1):

  * psi(x) = log x - gap(x) at every x, charging the gap's radius, 1 ulp of
    log x and half an ulp of the difference;
  * log Gamma(x) = mu(x) + (x - 1/2) log x - x + log(2 pi)/2 for x > 2,
    summed with fsum, charging mu's radius, (x - 1/2) ulps of log x, the
    roundings of x - 1/2 and of the product, 1.7e-16 for log(2 pi)/2 and
    half an ulp of the value.  On (0, 2] that form cancels near the zeros
    at 1 and 2, so log Gamma sums its product-form series at 1 + a there.

A kernel sum is asked for a half-width ``target``: a quarter ulp of ~1/(2x)
(within [1e-26, eps/4]) for the gap and mu themselves; eps/8 for psi and an
eighth of what the closed-form charges leave of eps for log Gamma, each
floored at that quarter ulp.  Its tail starts where both the enclosure
width (~ scale / m^5) and the 4-ulp charge on the tail midpoint (~ 1/(2m))
fit within the target:
m >= max(x + 16, 64, (scale/target)^0.2, min(2^-51/target, x + MAX_TERMS)).

Cost is bounded, not linear in x: no sum has more than about ``MAX_TERMS``
(1e5) terms, and psi's at most ~420.  For the quarter-ulp target the
midpoint term is 16x (to within its rounding) below x ~ 2.8e9; from
x ~ 4.45e10 it falls below x, so the tail starts at x + 16, rounded, and
past 2^53 at most 16 bulk terms sit at abscissas that round together.

Refusals known from the value's magnitude are decided before any sum: the
radius charges half an ulp of the value, so where the value is known to
exceed some v with half an ulp of v above eps, no sum could help.  The gap
exceeds 1/(2x) (which overflows for subnormal x), trigamma 1/x^2 and
log Gamma its Stirling part (mu > 0).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels, tails
from .errors import DomainError, ToleranceError
from .kernels import _check_domain

_EPS = 2.0**-52

#: Smallest honest absolute tolerance at working precision.
EPS_FLOOR = 1e-14

#: About the most terms one evaluation sums (see the module docstring).
MAX_TERMS = 100_000

#: log(2 pi)/2 to within 1.7e-16: 2 pi rounds by at most 2^-53 relative and
#: log by at most 1 ulp; the halving is exact.
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

#: Least rounding charge of a result: below the normal range half an ulp
#: rounds to zero (ties to even), yet each rounding still costs up to half
#: a spacing of 2^-1074.
_SUBNORMAL_CHARGE = 4.0 * 2.0**-1074


@dataclass(frozen=True)
class ErrorBoundedValue:
    """A value with a rigorous absolute-error radius."""

    value: float
    error_radius: float

    def __post_init__(self) -> None:
        if self.error_radius < 0.0 or math.isnan(self.error_radius):
            raise ValueError(f"invalid error radius {self.error_radius!r}")

    @property
    def lower(self) -> float:
        return self.value - self.error_radius

    @property
    def upper(self) -> float:
        return self.value + self.error_radius

    def __str__(self) -> str:
        return f"{self.value!r} ± {self.error_radius:.2e}"


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not eps > 0.0:
        raise DomainError(f"eps must be positive, got {eps!r}")
    if eps < EPS_FLOOR:
        raise ToleranceError(
            f"eps={eps!r} below the {EPS_FLOOR} floor of working precision"
        )
    return eps


def _ensure(radius: float, eps: float, what: str) -> None:
    if radius > eps:
        raise ToleranceError(
            f"{what}: achievable radius {radius:.3e} exceeds requested eps {eps:.3e}"
        )


def _ensure_above(floor: float, eps: float, what: str) -> None:
    # Refusal before any sum for a value known to exceed ``floor``, which is
    # computed within a few ulps (hence the 2^-48 slack); ulp(inf) = inf.
    _ensure(0.5 * math.ulp(floor * (1.0 - 2.0**-48)), eps, what)


def _target(x: float, eps: float) -> float:
    # A quarter ulp of the gap's magnitude (~1/(2x)), capped at eps/4: no
    # sum needs to be tighter than the value it feeds.
    magnitude = max(0.5 / x, 1e-10)
    return max(min(eps / 4.0, 0.25 * _EPS * magnitude), 1e-26)


def _kernel_sum(x: float, target: float, kernel, coeffs, tail, trunc_scale: float,
                trunc_rel_bound) -> ErrorBoundedValue:
    """Sum kernel(x + j) for j >= 0 to about half-width ``target``.

    ``kernel``/``coeffs``/``tail`` select the scalar term, the coefficients
    of its u^2-led series in u = 1/y (summed as one array for y >= 16) and
    the tail enclosure; ``trunc_scale`` is the constant in the
    enclosure-width law width ~ trunc_scale / M^5, which with the midpoint
    charge sets the tail start (see the module docstring).
    """
    m_tail = max(x + 16.0, 64.0, (trunc_scale / target) ** 0.2,
                 min(2.0 * _EPS / target, x + MAX_TERMS))
    count = int(math.ceil(m_tail - x))

    head_charges = 0.0
    parts: list[float] = []
    n_head = min(count, max(0, int(math.ceil(16.0 - x))))
    for j in range(n_head):
        term = kernel(x + j)
        parts.append(term)
        # Direct-formula terms round at the scale of the term itself plus the
        # O(1) log factor, not of the raw 1/y operand.
        head_charges += 2.0 * _EPS * (abs(term) + 1.0)
    bulk_sum = 0.0
    if count > n_head:
        u = 1.0 / (x + np.arange(n_head, count, dtype=np.float64))
        arr = kernels._poly_eval(u, coeffs, 2)
        bulk_sum = float(np.abs(arr).sum())
        parts.extend(arr.tolist())
    lo, hi = tail(x + count)
    mid = 0.5 * (lo + hi)
    parts.append(mid)
    value = math.fsum(parts)

    u_first = 1.0 / max(x + n_head, 16.0)
    radius = math.fsum(
        [
            0.5 * (hi - lo),
            head_charges,
            (2.0 * _EPS + trunc_rel_bound(u_first)) * bulk_sum,
            4.0 * _EPS * abs(mid),
            max(0.5 * math.ulp(value), _SUBNORMAL_CHARGE),
        ]
    )
    return ErrorBoundedValue(value, radius)


def _r_trunc_rel(u: float) -> float:
    # First omitted series term over the leading one: (u^13/13) / (u^2/2).
    return 2.0 * u**11 / 13.0


def _w_trunc_rel(u: float) -> float:
    # |c_13| u^13 over u^2/12.
    return (12.0 / (2.0 * 13.0 * 14.0)) * 12.0 * u**11


def _gap_sum(x: float, eps: float, target: float, what: str) -> ErrorBoundedValue:
    # sum_j kernel_r(x + j) = log x - psi(x) > 1/(2x).
    _ensure_above(0.5 / x, eps, what)
    return _kernel_sum(x, target, kernels.kernel_r, kernels._R_COEFFS, tails.gap_tail,
                       1.0 / 60.0, _r_trunc_rel)


def _mu_sum(x: float, target: float) -> ErrorBoundedValue:
    return _kernel_sum(x, target, kernels.kernel_w, kernels._W_COEFFS, tails.mu_tail,
                       1.0 / 360.0, _w_trunc_rel)


@functools.lru_cache(maxsize=None)
def ref_digamma_gap(x: float, eps: float = 1e-12) -> ErrorBoundedValue:
    """log(x) - psi(x) as a directly summed positive series.

    The target quantity of the digamma-gap bound families; also the source
    of the Euler-Mascheroni constant (the series at x = 1 sums to it).
    """
    x = _check_domain(x)
    eps = _check_eps(eps)
    what = f"ref_digamma_gap({x!r})"
    out = _gap_sum(x, eps, _target(x, eps), what)
    _ensure(out.error_radius, eps, what)
    return out


@functools.lru_cache(maxsize=None)
def ref_binet_mu(x: float, eps: float = 1e-12) -> ErrorBoundedValue:
    """log of the Stirling ratio Gamma(x)/(sqrt(2 pi) x^(x-1/2) e^-x)."""
    x = _check_domain(x)
    eps = _check_eps(eps)
    out = _mu_sum(x, _target(x, eps))
    _ensure(out.error_radius, eps, f"ref_binet_mu({x!r})")
    return out


@functools.lru_cache(maxsize=None)
def ref_stirling_target(x: float, eps: float = 1e-12) -> ErrorBoundedValue:
    """Gamma(x) / (sqrt(2 pi) x^x e^-x), the exponential families' target.

    Computed as exp(mu)/sqrt(x) so the relative radius stays at ulp scale;
    the log/exp round trip through large log-gamma values would not.
    """
    x = _check_domain(x)
    eps = _check_eps(eps)
    mu = ref_binet_mu(x, eps)
    value = math.exp(mu.value) / math.sqrt(x)
    radius = value * (mu.error_radius + 3.0 * _EPS)
    _ensure(radius, eps, f"ref_stirling_target({x!r})")
    return ErrorBoundedValue(value, radius)


@functools.lru_cache(maxsize=1)
def _gamma_harmonic_accelerated() -> tuple[float, float]:
    # H_n - log sqrt(n(n+1)) approaches the constant from above like 1/(6n^2);
    # returns (estimate, rigorous-ish error allowance).
    n = 20000
    h = math.fsum(1.0 / k for k in range(1, n + 1))
    est = h - 0.5 * (math.log(n) + math.log(n + 1))
    return est, 1.0 / (3.0 * n * n) + 1e-12


def ref_euler_gamma(eps: float = 1e-12) -> ErrorBoundedValue:
    """The Euler-Mascheroni constant with an error radius.

    Derived from the digamma oracle at 1 (psi(1) = -gamma) and cross-checked
    against the accelerated harmonic-minus-log limit.
    """
    eps = _check_eps(eps)
    if eps < 1e-12:
        raise ToleranceError(f"eps={eps!r} below the 1e-12 floor for the constant")
    psi1 = ref_digamma(1.0, eps)
    value, radius = -psi1.value, psi1.error_radius
    accel, allowance = _gamma_harmonic_accelerated()
    if abs(value - accel) > allowance + radius:
        raise ArithmeticError(
            f"gamma constant cross-check failed: {value!r} vs {accel!r}"
        )
    return ErrorBoundedValue(value, radius)


@functools.lru_cache(maxsize=None)
def ref_digamma(x: float, eps: float = 1e-12) -> ErrorBoundedValue:
    """psi(x) = log x - gap(x) at every x (DLMF 5.11.1).

    The gap is summed to half-width max(eps/8, its quarter-ulp target), not
    through the cached ref_digamma_gap, which always sums to a quarter ulp.
    """
    x = _check_domain(x)
    eps = _check_eps(eps)
    what = f"ref_digamma({x!r})"
    gap = _gap_sum(x, eps, max(eps / 8.0, _target(x, eps)), what)
    log_x = math.log(x)
    value = log_x - gap.value
    radius = math.fsum([gap.error_radius, math.ulp(log_x), 0.5 * math.ulp(value)])
    _ensure(radius, eps, what)
    return ErrorBoundedValue(value, radius)


@functools.lru_cache(maxsize=None)
def ref_trigamma(x: float, eps: float = 1e-12) -> ErrorBoundedValue:
    """psi'(x) = sum_{k>=0} 1/(x+k)^2 with an integral-test tail enclosure.

    The enclosure sits inside the classical bracket
    1/(x+K+1) < sum_{k>K} 1/(x+k)^2 < 1/(x+K).  Refused before any sum where
    half an ulp of 1/x^2 < psi'(x) exceeds eps.
    """
    x = _check_domain(x)
    eps = _check_eps(eps)
    _ensure_above(1.0 / x / x, eps, f"ref_trigamma({x!r})")
    target = max(eps / 4.0, 1e-18)
    m_tail = max(x + 8.0, 64.0, (4.0 / (30.0 * target)) ** 0.2)
    count = int(math.ceil(m_tail - x))
    terms = (x + np.arange(0.0, count)) ** -2.0
    lo, hi = tails.polygamma_tail(x + count, 1)
    mid = 0.5 * (lo + hi)
    value = math.fsum(terms.tolist() + [mid])
    radius = math.fsum(
        [
            0.5 * (hi - lo),
            2.0 * _EPS * float(terms.sum()),
            4.0 * _EPS * mid,
            0.5 * math.ulp(value),
        ]
    )
    _ensure(radius, eps, f"ref_trigamma({x!r})")
    return ErrorBoundedValue(value, radius)


@functools.lru_cache(maxsize=None)
def ref_log_gamma(x: float, eps: float = 1e-12) -> ErrorBoundedValue:
    """log Gamma(x): a series on (0, 2], Stirling's formula above 2.

    On (0, 2], the product-form series at 1 + a, a in (0, 1], less log x
    for x <= 1.  Above 2, mu(x) + (x - 1/2) log x - x + log(2 pi)/2, with mu
    summed to an eighth of what the closed-form charges leave of eps.
    Refused before any sum where half an ulp of the Stirling part (mu > 0)
    or the closed-form charges exceed eps; DomainError where
    (x - 1/2) log x overflows.
    """
    x = _check_domain(x)
    eps = _check_eps(eps)
    what = f"ref_log_gamma({x!r})"
    out = _log_gamma_series(x, eps) if x <= 2.0 else _log_gamma_stirling(x, eps, what)
    _ensure(out.error_radius, eps, what)
    return out


def _log_gamma_stirling(x: float, eps: float, what: str) -> ErrorBoundedValue:
    h, log_x = x - 0.5, math.log(x)
    product = h * log_x
    stirling = product - x + _HALF_LOG_TWO_PI
    if not math.isfinite(stirling):
        raise DomainError(f"{what}: (x - 1/2) log x overflows binary64")
    # Where this can fire (eps >= EPS_FLOOR, so s >= 128 and x > 45), s is
    # within 2^-50 relative of the exact part.
    _ensure_above(stirling, eps, what)
    charges = [
        abs(x - h - 0.5) * log_x,   # x - h is exact, so this is h's rounding
        h * math.ulp(log_x),
        0.5 * math.ulp(product),
        1.7e-16,                    # _HALF_LOG_TWO_PI
    ]
    closed_form = math.fsum(charges)
    _ensure(closed_form, eps, what)
    mu = _mu_sum(x, max((eps - closed_form) / 8.0, _target(x, eps)))
    value = math.fsum([mu.value, product, -x, _HALF_LOG_TWO_PI])
    charges.extend([mu.error_radius, 0.5 * math.ulp(value)])
    return ErrorBoundedValue(value, math.fsum(charges))


def _log_gamma_series(x: float, eps: float) -> ErrorBoundedValue:
    # log Gamma(1+a) = -gamma a + sum_{k>=1} [a/k - log(1+a/k)] for
    # a = z0 - 1 in (0, 1], with z0 = x + 1 for x <= 1 (then
    # log Gamma(x) = log Gamma(x+1) - log x) and z0 = x on (1, 2].
    z0 = x + 1.0 if x <= 1.0 else x
    a = z0 - 1.0

    parts: list[float] = []
    charges: list[float] = []
    if a > 0.0:
        gam = ref_digamma_gap(1.0)   # the series at 1 sums to gamma
        parts.append(-gam.value * a)
        charges.append(gam.error_radius * a + 0.5 * math.ulp(gam.value * a))
        target = max(eps / 4.0, 1e-18)
        k_tail = max(64, int(math.ceil((4.0 * a * a / (60.0 * target)) ** 0.2)))
        head_n = min(k_tail, 16)
        for k in range(1, head_n):
            parts.append(kernels.u_minus_log1p(a / k))
            charges.append(2.0 * _EPS * (a / k))
        if k_tail > head_n:
            # term_k = a/k - log(1+a/k) = u - log1p(u) at u = a/k <= 1/16
            karr = np.arange(float(head_n), float(k_tail))
            terms = kernels._poly_eval(a / karr, kernels._R_COEFFS, 2)
            parts.extend(terms.tolist())
            charges.append((2.0 * _EPS + _r_trunc_rel(a / head_n)) * float(terms.sum()))
        lo, hi = tails.log_gamma_series_tail(float(k_tail), a)
        mid = 0.5 * (lo + hi)
        parts.append(mid)
        charges.extend([0.5 * (hi - lo), 4.0 * _EPS * mid])

    if x <= 1.0:
        log_x = math.log(x)
        parts.append(-log_x)
        charges.append(2.0 * _EPS * abs(log_x))

    value = math.fsum(parts)
    charges.append(0.5 * math.ulp(value))
    return ErrorBoundedValue(value, math.fsum(charges))


def clear_caches() -> None:
    """Drop all memoised oracle values (mainly for benchmarks and tests)."""
    for fn in (ref_digamma_gap, ref_binet_mu, ref_stirling_target,
               ref_digamma, ref_trigamma, ref_log_gamma):
        fn.cache_clear()
