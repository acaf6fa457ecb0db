"""Slow, rigorous reference evaluations with explicit absolute-error radii.

The oracle is deliberately independent of every library special-function
implementation: it only sums the defining series and encloses their tails
via :mod:`psibounds.tails`.  Each result carries an ``error_radius`` that
accounts for

  * the truncation enclosure (half the tail-bracket width),
  * per-term floating-point evaluation, charged at a calibrated 2 ulps of
    each term's rounding scale (4 ulps for the tail midpoint), and
  * the final exactly-rounded summation (``math.fsum``), half an ulp.

The charges sit roughly 2x above the worst error observed against a
50-digit reference across the verification grids; the test suite checks
``|value - reference| <= error_radius`` directly.

Requests below ``EPS_FLOOR`` fail loudly instead of returning an optimistic
radius, as do requests that the argument's own representation cannot honour
(e.g. an absolute 1e-12 on trigamma near 0, where the value is ~1e6).

One routine sums every series over y = x + j: direct-formula terms below
y = 16, charged at a per-series rounding scale, then the terms' series in
u = a/y in numpy arrays, then a tail enclosure.  It serves four series:

  * the digamma gap, sum kernel_r(x + j) = log x - psi(x), and Binet's mu,
    sum kernel_w(x + j) (DLMF 5.11.1); scale |term| + 1, for the log factor;
  * psi'(x) = sum (x + j)^-2, whose series in u is u^2; scale |term|;
  * log Gamma(1 + a) + gamma a = sum_k [a/k - log(1 + a/k)], the gap's
    series at u = a/k; scale u.

The bulk is the package's only use of numpy, and numpy is imported there,
at the first bulk sum: ``import psibounds`` and the CLI parser load no
numeric layer, and the fast path (``kernels``, ``specfun``, ``bounds``, all
standard library only) never loads numpy.  The bulk terms are built and
reduced ``BLOCK_TERMS`` (32768) at a time, in place on two arrays: u =
a/(x + j), then the series by Horner's rule from its coefficient tuple, with
the operations of the scalar kernels' straight-line polynomials, so each
term equals the scalar kernel at x + j bit for bit.  A chunk of
``SPLIT_MIN_TERMS`` (600) terms or more never becomes Python floats:
``_exact_split`` reduces it in numpy to two or three doubles with the same
exact sum (Rump, Ogita and Oishi's error-free vector transformation), and
the one ``fsum`` rounds those, the head terms and the tail midpoint to the
same double as the whole term list would give.  Shorter chunks, where
``fsum`` is faster, go to it as floats.  A full 1e5-term block then takes
about 2.0 ms to build and reduce (3.0 ms as one whole-block array, each
numpy step writing a fresh 0.8 MB temporary), 0.6 ms of it the reduction,
against 4.2 ms for ``fsum`` over its terms as floats; ``ref_binet_mu(9999)``
takes 1.7 ms instead of 3.3 ms, at a transient peak of 0.53 MB instead of
2.4 MB (3.7 MB with its terms as floats).  Medians of 200 runs, 2-vCPU
x86_64, numpy 2.4.

psi(x) = log x - gap(x) at every x, charging 1 ulp of log x on top of the
gap.  Above 2, log Gamma(x) = mu(x) + (x - 1/2) log x - x + log(2 pi)/2,
charging (x - 1/2) ulps of log x, the roundings of x - 1/2 and of the
product and 1.7e-16 for log(2 pi)/2 on top of mu; on (0, 2] that form
cancels near the zeros at 1 and 2, so the series at 1 + a serves there.

A kernel sum is asked for a half-width ``target``: a quarter ulp of ~1/(2x)
(within [1e-26, eps/4]) for the gap and mu themselves; eps/8 for psi and an
eighth of what the closed-form charges leave of eps for log Gamma, each
floored at that quarter ulp; eps/16 for psi' and the log Gamma series.  Its
tail starts where both the enclosure width (~ scale / m^5) and the 4-ulp
charge on the tail midpoint (~ 1/(2m)) fit within the target:
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

from . import kernels, tails
from .errors import DEFAULT_EPS, DomainError, ToleranceError
from .kernels import _check_domain

_EPS = 2.0**-52

#: Smallest honest absolute tolerance at working precision.
EPS_FLOOR = 1e-14

#: About the most terms one evaluation sums (see the module docstring).
MAX_TERMS = 100_000

#: Entries each ``ref_*`` cache keeps: twice the most any one of them holds
#: after one certify pass (1048, ``ref_binet_mu``), rounded up.
CACHE_SIZE = 4096

#: Bulk chunks of at least this many terms are reduced by ``_exact_split``;
#: shorter ones go to ``fsum`` as Python floats, which is faster there.
SPLIT_MIN_TERMS = 600

#: Terms per bulk chunk, 256 KiB of doubles: the fastest power of two from 8192 to 65536.
BLOCK_TERMS = 32_768

# The bulk series in u as coefficient tuples of u^2, u^3, ..., u^12, from the
# series formulas of the kernels: u - log1p(u) for the gap and the log Gamma
# series, (1/u + 1/2) log1p(u) - 1 for mu, and u^2 for psi'.
_R_SERIES = tuple((-1.0) ** m / m for m in range(2, 13))
_W_SERIES = tuple((-1.0) ** j * (j - 1) / (2.0 * j * (j + 1)) for j in range(2, 13))
_U2_SERIES = (1.0,)

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


def _kernel_sum(x: float, target: float, kernel, coeffs: tuple[float, ...], tail,
                trunc_scale: float, trunc_rel_bound, head_scale, a: float = 1.0):
    """Parts and charges of sum_j kernel(x + j) to about half-width ``target``.

    Direct terms round at ``head_scale(term, u)``; the terms' series in
    u = a/(x + j), with coefficients ``coeffs`` (see ``_bulk_terms``), is
    truncated within ``trunc_rel_bound(u)`` relative; ``tail`` encloses the
    tail, of width ~ trunc_scale / M^5 (see the module docstring).
    ``_close`` ends it.
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
        head_charges += 2.0 * _EPS * head_scale(term, a / (x + j))
    bulk_sum = 0.0
    for start in range(n_head, count, BLOCK_TERMS):
        terms = _bulk_terms(x, a, coeffs, start, min(start + BLOCK_TERMS, count))
        bulk_sum += float(terms.sum())   # every bulk term is positive
        parts.extend(terms.tolist() if terms.size < SPLIT_MIN_TERMS else _exact_split(terms))
        del terms   # freed before the next chunk is built
    lo, hi = tail(x + count)
    mid = 0.5 * (lo + hi)
    parts.append(mid)
    u_first = a / max(x + n_head, 16.0)
    return parts, [0.5 * (hi - lo), head_charges,
                   (2.0 * _EPS + trunc_rel_bound(u_first)) * bulk_sum,
                   4.0 * _EPS * abs(mid)]


def _bulk_terms(x: float, a: float, coeffs: tuple[float, ...], start: int, stop: int):
    """The series terms sum_i coeffs[i] u^(i+2) at u = a/(x + j), j in [start, stop).

    In place on two arrays, with the operations of the scalar kernels'
    straight-line Horner expressions: u = a/(x + j), the highest coefficient,
    then ``acc *= u; acc += c`` down to coeffs[0], then ``acc *= u*u``.  So
    each term equals the scalar kernel at x + j bit for bit.
    """
    import numpy as np   # imported at the first bulk sum (see the module docstring)
    u = np.arange(start, stop, dtype=np.float64)
    u += x
    np.divide(a, u, out=u)
    acc = np.full_like(u, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= u
        acc += c
    u *= u
    acc *= u
    return acc


def _exact_split(p) -> list[float]:
    """A few doubles whose exact sum is the exact sum of the array ``p``.

    Rump, Ogita and Oishi's error-free vector transformation (SIAM J. Sci.
    Comput. 31(1), 2008, Algorithm 3.2): with 2^k >= n + 2 and sigma = 2^k
    times a power of two >= max|p|, q = (p + sigma) - sigma and p - q are
    exact, and so is sum(q) in any order, since every q is a multiple of
    2^-53 sigma and their total stays below sigma.  Each round strips at
    least 53 - k - 1 bits off the largest residual; it repeats until the
    residual is all zero.  ``p`` is consumed.  Requires finite |p| <= 1/2,
    so that sigma stays far from overflow: every bulk term of the four
    series is at most u^2 <= 1/256, at u <= 1/16.
    """
    import numpy as np
    k = (p.size + 1).bit_length()   # 2^k >= n + 2
    q = np.abs(p)
    top = float(q.max())
    if not top <= 0.5:
        raise ValueError(f"bulk terms must be finite and at most 1/2, got {top!r}")
    taus = []
    while top != 0.0:
        sigma = math.ldexp(1.0, k + math.frexp(top)[1])
        np.add(p, sigma, out=q)
        q -= sigma
        p -= q
        taus.append(float(q.sum()))
        np.abs(p, out=q)
        top = float(q.max())
    return taus


def _close(parts: list[float], charges: list[float]) -> ErrorBoundedValue:
    # Every summed value ends here: one exactly rounded sum, charged half an
    # ulp of itself on top of the charges of its parts.
    value = math.fsum(parts)
    charges = [*charges, max(0.5 * math.ulp(value), _SUBNORMAL_CHARGE)]
    return ErrorBoundedValue(value, math.fsum(charges))


def _r_trunc_rel(u: float) -> float:
    # First omitted series term over the leading one: (u^13/13) / (u^2/2).
    return 2.0 * u**11 / 13.0


def _w_trunc_rel(u: float) -> float:
    # |c_13| u^13 over u^2/12.
    return (12.0 / (2.0 * 13.0 * 14.0)) * 12.0 * u**11


def _plus_one(term: float, u: float) -> float:
    # The gap and mu terms round with their O(1) log factor, not with 1/y.
    return abs(term) + 1.0


def _gap_sum(x: float, eps: float, target: float, what: str) -> ErrorBoundedValue:
    # sum_j kernel_r(x + j) = log x - psi(x) > 1/(2x).
    _ensure_above(0.5 / x, eps, what)
    return _close(*_kernel_sum(x, target, kernels.kernel_r, _R_SERIES,
                               tails.gap_tail, 1.0 / 60.0, _r_trunc_rel, _plus_one))


def _mu_sum(x: float, target: float) -> ErrorBoundedValue:
    return _close(*_kernel_sum(x, target, kernels.kernel_w, _W_SERIES,
                               tails.mu_tail, 1.0 / 360.0, _w_trunc_rel, _plus_one))


@functools.lru_cache(maxsize=CACHE_SIZE)
def ref_digamma_gap(x: float, eps: float = DEFAULT_EPS) -> ErrorBoundedValue:
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


@functools.lru_cache(maxsize=CACHE_SIZE)
def ref_binet_mu(x: float, eps: float = DEFAULT_EPS) -> ErrorBoundedValue:
    """log of the Stirling ratio Gamma(x)/(sqrt(2 pi) x^(x-1/2) e^-x)."""
    x = _check_domain(x)
    eps = _check_eps(eps)
    out = _mu_sum(x, _target(x, eps))
    _ensure(out.error_radius, eps, f"ref_binet_mu({x!r})")
    return out


@functools.lru_cache(maxsize=CACHE_SIZE)
def ref_stirling_target(x: float, eps: float = DEFAULT_EPS) -> ErrorBoundedValue:
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


def ref_euler_gamma(eps: float = DEFAULT_EPS) -> ErrorBoundedValue:
    """The Euler-Mascheroni constant, -psi(1), with the digamma oracle's radius."""
    eps = _check_eps(eps)
    if eps < DEFAULT_EPS:
        raise ToleranceError(f"eps={eps!r} below the {DEFAULT_EPS} floor for the constant")
    psi1 = ref_digamma(1.0, eps)
    return ErrorBoundedValue(-psi1.value, psi1.error_radius)


@functools.lru_cache(maxsize=CACHE_SIZE)
def ref_digamma(x: float, eps: float = DEFAULT_EPS) -> ErrorBoundedValue:
    """psi(x) = log x - gap(x) at every x (DLMF 5.11.1).

    The gap is summed to half-width max(eps/8, its quarter-ulp target), not
    through the cached ref_digamma_gap, which always sums to a quarter ulp.
    """
    x = _check_domain(x)
    eps = _check_eps(eps)
    what = f"ref_digamma({x!r})"
    gap = _gap_sum(x, eps, max(eps / 8.0, _target(x, eps)), what)
    log_x = math.log(x)
    out = _close([log_x, -gap.value], [gap.error_radius, math.ulp(log_x)])
    _ensure(out.error_radius, eps, what)
    return out


@functools.lru_cache(maxsize=CACHE_SIZE)
def ref_trigamma(x: float, eps: float = DEFAULT_EPS) -> ErrorBoundedValue:
    """psi'(x) = sum_{k>=0} 1/(x+k)^2, a kernel sum with u^2 as its series.

    Summed to half-width eps/16; the tail enclosure sits inside the
    classical bracket 1/(x+K+1) < sum_{k>K} 1/(x+k)^2 < 1/(x+K).  Refused
    before any sum where half an ulp of 1/x^2 < psi'(x) exceeds eps.
    """
    x = _check_domain(x)
    eps = _check_eps(eps)
    _ensure_above(1.0 / x / x, eps, f"ref_trigamma({x!r})")
    out = _close(*_kernel_sum(x, eps / 16.0, lambda y: y**-2.0, _U2_SERIES,
                              lambda y: tails.polygamma_tail(y, 1), 1.0 / 30.0,
                              lambda u: 0.0, lambda term, u: term))
    _ensure(out.error_radius, eps, f"ref_trigamma({x!r})")
    return out


@functools.lru_cache(maxsize=CACHE_SIZE)
def ref_log_gamma(x: float, eps: float = DEFAULT_EPS) -> ErrorBoundedValue:
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
    return _close([mu.value, product, -x, _HALF_LOG_TWO_PI], [*charges, mu.error_radius])


def _log_gamma_series(x: float, eps: float) -> ErrorBoundedValue:
    # log Gamma(1+a) = -gamma a + sum_{k>=1} [a/k - log(1+a/k)] for
    # a = z0 - 1 in (0, 1], with z0 = x + 1 for x <= 1 (then
    # log Gamma(x) = log Gamma(x+1) - log x) and z0 = x on (1, 2].
    z0 = x + 1.0 if x <= 1.0 else x
    a = z0 - 1.0
    parts: list[float] = []
    charges: list[float] = []
    if a > 0.0:
        parts, charges = _kernel_sum(
            1.0, eps / 16.0, lambda k: kernels.u_minus_log1p(a / k), _R_SERIES,
            lambda k: tails.gap_tail(k / a, 1.0 / a), a * a / 60.0, _r_trunc_rel,
            lambda term, u: u, a)
        gam = ref_digamma_gap(1.0)   # the series at 1 sums to gamma
        parts.append(-gam.value * a)
        charges.append(gam.error_radius * a + 0.5 * math.ulp(gam.value * a))

    if x <= 1.0:
        log_x = math.log(x)
        parts.append(-log_x)
        charges.append(2.0 * _EPS * abs(log_x))
    return _close(parts, charges)


def clear_caches() -> None:
    """Drop all memoised oracle values (mainly for benchmarks and tests)."""
    for fn in (ref_digamma_gap, ref_binet_mu, ref_stirling_target,
               ref_digamma, ref_trigamma, ref_log_gamma):
        fn.cache_clear()
