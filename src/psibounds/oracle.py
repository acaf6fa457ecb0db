"""Slow, rigorous reference evaluations with explicit absolute-error radii.

The oracle is deliberately independent of every library special-function
implementation: it only sums the defining series and encloses their tails:
Euler-Maclaurin pairs for the gap series and psi', mu's own enveloping
Stirling series for mu (:mod:`psibounds.tails`).  Each result carries an
``error_radius`` that accounts for

  * the truncation enclosure (half the tail-bracket width) and the derived
    truncation of the terms' positive series W (see ``kernels``),
  * per-term floating-point evaluation: 2 ulps of each term's rounding
    scale, calibrated for the kernel terms and derived for psi''s
    (``ref_trigamma``); 4 ulps for mu's tail midpoint, a double (derived
    below 2.5, see ``_FLOAT_MID_REL``), while the gap series' midpoint is
    exact to about 2^-76 of itself and psi''s to an ulp of its second
    double, each charged that (``_exact_gap_tail``, ``_trigamma_tail``), and
  * the final exactly-rounded summation (``math.fsum``), half an ulp.

The calibrated bulk charge sits above the worst error observed against a
50-digit reference across the verification grids; the test suite checks
``|value - reference| <= error_radius`` directly.

Requests below ``EPS_FLOOR`` fail loudly instead of returning an optimistic
radius, as do requests that the argument's own representation cannot honour
(e.g. an absolute 1e-12 on trigamma near 0, where the value is ~1e6).

One routine sums the kernel series over y = x + j: at most one direct
term, below y = 1, at scale |term| + 1 for its log factor, then the rest in
numpy arrays by the kernels' series, then a tail enclosure.  It serves the
digamma gap, sum kernel_r(x + j) = log x - psi(x), Binet's mu,
sum kernel_w(x + j) (DLMF 5.11.1), and log Gamma(1 + a) + gamma a =
sum_k kernel_r(k/a).  psi'(x) = sum (x + j)^-2 sums its at most ~560 terms
as Python floats, to the same start, and adds its exact tail.

The bulk is the package's only use of numpy, and numpy is imported there,
at the first bulk sum: ``import psibounds`` and the CLI parser load no
numeric layer, and the fast path (``kernels``, ``specfun``, ``bounds``, all
standard library only) never loads numpy.  The bulk terms are built and
reduced ``BLOCK_TERMS`` (32768) at a time, in place on at most three
arrays, each equal to its scalar kernel bit for bit.  A chunk of
``SPLIT_MIN_TERMS`` (600) terms or more never becomes Python floats:
``_exact_split`` reduces it in numpy to two or three doubles with the same
exact sum (Rump, Ogita and Oishi's error-free vector transformation), and
the one ``fsum`` rounds those, the head terms and the tail midpoint's
parts to the same double as the whole term list would give.  Shorter
chunks, where ``fsum`` is faster, go to it as floats.  ``ref_binet_mu(6e4)``,
a full 1e5-term block, peaks at 0.53 MB (3.7 MB with the terms as floats);
no gap series sum leaves its first chunk.

psi(x) = log x - gap(x) at every x, charging 1 ulp of log x on top of the
gap, and gamma = gap(1).  Above 2, log Gamma(x) = mu(x) + (x - 1/2) log x -
x + log(2 pi)/2, charging (x - 1/2) ulps of log x, the roundings of x - 1/2
and of the product and 1.7e-16 for log(2 pi)/2 on top of mu; on (0, 2] that
form cancels near the zeros at 1 and 2, so the series at 1 + a serves there.
Each series is summed in one place: psi and gamma take the cached gap, log
Gamma above 2 the cached mu.

A kernel sum is asked for a half-width ``target``: a quarter ulp of ~1/(2x)
(within [1e-26, eps/4]) for the gap and mu, and eps/16 for the log Gamma
series (as for psi').  Its tail starts where the enclosure width
(~ scale / m^5) fits within the target and, for mu's double midpoint charged
mid_rel = 4 ulps of itself, below mu(m) < 1/(12m), where that charge fits too:
m >= max(x + 16, 64, (scale/target)^0.2, min(mid_rel/(12 target), x + MAX_TERMS)).
The exact midpoints of the gap series and psi' have no such term.

Cost is bounded, not linear in x.  A sum of the gap series (the gap's or
the log Gamma series') has at most max_x (8x/(60 eps))^0.2 - x, about 2650
terms (near x = 663), and from x ~ 4.9e3 on its tail starts at x + 16;
psi''s has at most ~560.  mu's midpoint term is 8x/3 (to within its rounding)
for the quarter-ulp target; it exceeds the enclosure's from x ~ 930, and mu
then sums about 5x/3 terms.  From x = 6e4 the cap x + ``MAX_TERMS`` (1e5)
binds.  From x ~ 2.8e9 the target sits at its 1e-26 floor and the term is
a constant 7.4e9, so the cap binds up to x ~ 7.4e9 - 1e5, and from
x ~ 7.4e9 the term falls below x.  Every tail starts at x + 16, rounded,
from there, and past 2^53 at most 16 bulk terms sit at abscissas that round
together.

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

#: Relative charge on mu's double tail midpoint: 4 ulps.  It (``tails.mu_tail``)
#: rounds u = 1/y, the constant 1/12, the add of 1/12 and the product by u,
#: each by at most 2^-53 relative, and the terms in u^2 <= 2^-12 add under
#: 1e-4 of one such; the abscissa x + count rounds by 2^-53 more, which moves
#: mu(y) ~ 1/(12y) by as much: 2.5 ulps in all.  mu's tail start depends on it
#: (see ``_tail_count``), so a smaller charge would change mu's term counts.
_FLOAT_MID_REL = 4.0 * _EPS

#: Terms per bulk chunk, 256 KiB of doubles: the fastest power of two from 8192 to 65536.
BLOCK_TERMS = 32_768

#: W(v) = sum_{k>=1} v^k/(2k + 1) (see ``kernels``): the bulk's K = 6
#: coefficients, and each K the kernels take with the largest v it serves.
_W_COEFFS = tuple(1.0 / (2 * k + 1) for k in range(1, 7))
_W_LENGTHS = ((1 / 9, 18), (1 / 81, 9), (1 / 1089, 6))

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


def _tail_count(x: float, target: float, trunc_scale: float, mid_rel: float = 0.0) -> int:
    # Terms before the tail.  It starts where the enclosure width
    # (~ trunc_scale / m^5) fits the target and, for mu's double midpoint
    # charged mid_rel of itself (mu(m) < 1/(12m)), where that charge fits
    # too, or at x + MAX_TERMS.
    m_tail = max(x + 16.0, 64.0, (trunc_scale / target) ** 0.2,
                 min(mid_rel / (12.0 * target), x + MAX_TERMS))
    return int(math.ceil(m_tail - x))


def _kernel_sum(x: float, target: float, kernel, tail, trunc_scale: float,
                mid_rel: float = 0.0, a: float = 1.0):
    """Parts and charges of sum_j kernel((x + j)/a) to about half-width ``target``.

    A term at y = x < 1 takes the direct formula and rounds with its O(1) log
    factor (the log Gamma series, with a <= 1, starts at y = 1/a >= 1); the bulk
    rounds at 2 ulps plus ``_trunc_rel``.  ``tail(x, count, a)`` encloses
    sum_{j>=count}: it returns its midpoint as parts, its half-width
    (~ trunc_scale / M^5) and the midpoint's derived charge.  mu's double
    midpoint is charged ``mid_rel`` of itself instead (see ``_tail_count``).
    """
    count = _tail_count(x, target, trunc_scale, mid_rel)
    n_head = 1 if x < 1.0 else 0
    parts = [kernel(x)] * n_head
    head_charge = 2.0 * _EPS * (parts[0] + 1.0) if n_head else 0.0
    bulk_sum = 0.0
    for start in range(n_head, count, BLOCK_TERMS):
        terms = _bulk_terms(x, a, kernel, start, min(start + BLOCK_TERMS, count))
        bulk_sum += float(terms.sum())   # every bulk term is positive
        parts.extend(terms.tolist() if terms.size < SPLIT_MIN_TERMS else _exact_split(terms))
        del terms   # freed before the next chunk is built
    mid_parts, half_width, mid_charge = tail(x, count, a)
    parts.extend(mid_parts)
    return parts, [half_width, head_charge, (2.0 * _EPS + _trunc_rel(x + n_head, a)) * bulk_sum,
                   mid_charge + mid_rel * abs(math.fsum(mid_parts))]


def _mu_tail(x: float, count: int, a: float):
    mid, half_width = tails.mu_tail(x + count)
    return [mid], half_width, 0.0   # the midpoint's charge is _FLOAT_MID_REL


def _exact_gap_tail(x: float, count: int, a: float):
    """sum_{j>=count} kernel_r((x + j)/a) by ``tails``' Euler-Maclaurin pair
    (step h = 1/a), evaluated at the exact y = k/a, k = x + count, in binary
    fixed point: Python integers in units of 2^-b, with the midpoint over
    2^76 units.

    Returns the midpoint as two doubles, hi + lo, the half-width rounded up to
    a double, and the midpoint's derived charge: the floors' errors and what
    hi + lo leave of the midpoint (nothing, unless they are subnormal).
    Requires k >= 64 and a <= 1, as every kernel sum's tail has.
    """
    p, q = x.as_integer_ratio()
    pa, qa = a.as_integer_ratio()
    kq = p + count * q                               # (x + count) q
    num, den = kq * qa, q * pa                       # y = num/den
    b = 80 + num.bit_length() - den.bit_length() + qa.bit_length() - pa.bit_length()
    one = 1 << b
    t = (den << b) // (2 * num + den)                # t = 1/(2y + 1)
    r = (den << b) // num                            # r = 1/y
    rho = (q << b) // kq                             # rho = 1/k = r/h
    v = t * t >> b
    w, power, d = 0, v, 1
    while power:                                     # W(v) = sum v^j/(2j + 1)
        d += 2
        w += power // d
        power = power * v >> b
    rho2 = rho * rho >> b
    rho3 = rho2 * rho >> b
    q1 = one + r
    a2_num, a2_den = pa * pa, qa * qa
    em_hi = ((t + w + (t * w >> b)) * pa // qa       # a kernel_s(y) = a((W + t) + tW)
             + (t * (r - 2 * w) >> (b + 1))          # kernel_r(y)/2 = t(1/y - 2W)/2
             # h |f'(y)|/12 = h r^3/(12(1 + r)) = a^2 rho^3/(12(1 + r))
             + (rho3 << b) // q1 * a2_num // (12 * a2_den))
    # h^3 |f'''(y)|/1440 = h^3 r^5 (6 + 8r + 3r^2)/(720 (1 + r)^3), with h^3 r^5 = a^2 rho^5
    half = ((rho3 * rho2 >> b) * (3 * (r * r >> b) + 8 * r + 6 * one)
            // (q1 * q1 * q1 >> 2 * b) * a2_num // (720 * a2_den))
    # Each floor errs by under one unit.  With t <= 1/129 and r, rho <= 1/64
    # the errors carried are: v and each power of v under 1.02, so W under
    # 1.34n + 0.34 for its n = (d - 1)/2 terms (the rest of the series is
    # under 0.34 once a power floors to 0); the three terms of em_hi under
    # 3.4 + 1.36n, 1.1 + 0.02n and 1.2; half under 1.1.  So mid is under
    # 7 + 2n = 6 + d units off.
    mid = em_hi - half
    # Both true divisions round correctly, subnormals included, and leave
    # hi and lo whole numbers of units.
    hi = mid / one
    rest = mid - int(math.ldexp(hi, b))
    lo = rest / one
    rest -= int(math.ldexp(lo, b))
    return ([hi, lo], math.nextafter((half + 2) / one, math.inf),
            math.nextafter((6 + d + abs(rest)) / one, math.inf))


def _trunc_rel(y: float, a: float) -> float:
    # W cut after K terms is short by < v^(K+1)/((2K + 3)(1 - v)), W > v/3, and no more
    # relative to kernel_r (4W < 1/y); from y on, v <= t^2 (2^-50 up), t = a/(2y + a).
    v = (a / (2.0 * y + a)) ** 2 * (1.0 + 2.0**-50)
    return max(3.0 * w**k / ((2 * k + 3) * (1.0 - w))
               for w, k in ((min(v, top), k) for top, k in _W_LENGTHS))


def _bulk_terms(x: float, a: float, kernel, start: int, stop: int):
    """kernel((x + j)/a) for j in [start, stop), bit for bit, on at most three arrays.

    As in ``kernels``: terms over the K = 6 length's largest v (y < 16) take the
    kernels' longer W, the rest K = 6 in place, from (0 + c_6) v = c_6 v.
    """
    import numpy as np   # imported at the first bulk sum (see the module docstring)
    y = np.arange(start, stop, dtype=np.float64)
    y += x
    if a != 1.0:
        y /= a
    v = np.add(y, 0.5, out=y if kernel is kernels.kernel_w else None)
    np.divide(0.5, v, out=v)
    v *= v
    n = v.size - int(np.searchsorted(v[::-1], _W_LENGTHS[-1][0], side="right"))
    w = np.empty_like(v)
    w[:n] = [kernels._w_over_v(s) * s for s in v[:n].tolist()]
    w_6, v_6 = w[n:], v[n:]
    np.multiply(v_6, _W_COEFFS[-1], out=w_6)
    for c in _W_COEFFS[-2::-1]:
        w_6 += c
        w_6 *= v_6
    if kernel is kernels.kernel_w:
        return w
    np.divide(0.5, y, out=v)
    np.subtract(v, w, out=w)
    y += 0.5
    w /= y
    return w


def _exact_split(p) -> list[float]:
    """A few doubles whose exact sum is the exact sum of the array ``p``.

    Rump, Ogita and Oishi's error-free vector transformation (SIAM J. Sci.
    Comput. 31(1), 2008, Algorithm 3.2): with 2^k >= n + 2 and sigma = 2^k
    times a power of two >= max|p|, q = (p + sigma) - sigma and p - q are
    exact, and so is sum(q) in any order, since every q is a multiple of
    2^-53 sigma and their total stays below sigma.  Each round strips at
    least 53 - k - 1 bits off the largest residual; it repeats until the
    residual is all zero.  ``p`` is consumed.  Requires finite |p| <= 1/2,
    so that sigma stays far from overflow: no bulk term of the four series
    exceeds kernel_r(1) = 1 - log 2 < 0.31.
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


@functools.lru_cache(maxsize=CACHE_SIZE)
def ref_digamma_gap(x: float, eps: float = DEFAULT_EPS) -> ErrorBoundedValue:
    """log(x) - psi(x) as a directly summed positive series.

    The target quantity of the digamma-gap bound families; also the source
    of the Euler-Mascheroni constant (the series at x = 1 sums to it).
    """
    x = _check_domain(x)
    eps = _check_eps(eps)
    what = f"ref_digamma_gap({x!r})"
    _ensure_above(0.5 / x, eps, what)   # the gap exceeds 1/(2x)
    out = _close(*_kernel_sum(x, _target(x, eps), kernels.kernel_r, _exact_gap_tail,
                              1.0 / 60.0))
    _ensure(out.error_radius, eps, what)
    return out


@functools.lru_cache(maxsize=CACHE_SIZE)
def ref_binet_mu(x: float, eps: float = DEFAULT_EPS) -> ErrorBoundedValue:
    """log of the Stirling ratio Gamma(x)/(sqrt(2 pi) x^(x-1/2) e^-x)."""
    x = _check_domain(x)
    eps = _check_eps(eps)
    out = _close(*_kernel_sum(x, _target(x, eps), kernels.kernel_w, _mu_tail, 1.0 / 360.0,
                              _FLOAT_MID_REL))
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
    """The Euler-Mascheroni constant, -psi(1) = gap(1), with the gap oracle's radius."""
    eps = _check_eps(eps)
    if eps < DEFAULT_EPS:
        raise ToleranceError(f"eps={eps!r} below the {DEFAULT_EPS} floor for the constant")
    return ref_digamma_gap(1.0, eps)


@functools.lru_cache(maxsize=CACHE_SIZE)
def ref_digamma(x: float, eps: float = DEFAULT_EPS) -> ErrorBoundedValue:
    """psi(x) = log x - gap(x) at every x (DLMF 5.11.1), with the cached
    ref_digamma_gap."""
    x = _check_domain(x)
    eps = _check_eps(eps)
    gap = ref_digamma_gap(x, eps)
    log_x = math.log(x)
    out = _close([log_x, -gap.value], [gap.error_radius, math.ulp(log_x)])
    _ensure(out.error_radius, eps, f"ref_digamma({x!r})")
    return out


@functools.lru_cache(maxsize=CACHE_SIZE)
def ref_trigamma(x: float, eps: float = DEFAULT_EPS) -> ErrorBoundedValue:
    """psi'(x) = sum_{j>=0} (x + j)^-2: terms as Python floats, then an exact tail.

    Summed to half-width eps/16, with the kernel sums' start at scale 1/30, the
    tail's full width times y^5.  x + j rounds by 2^-53, which moves
    (x + j)^-2 by 2^-52 of itself, and pow errs by under one ulp: each term is
    charged 2 ulps.  Refused before any sum where half an ulp of
    1/x^2 < psi'(x) exceeds eps.
    """
    x = _check_domain(x)
    eps = _check_eps(eps)
    what = f"ref_trigamma({x!r})"
    _ensure_above(1.0 / x / x, eps, what)
    count = _tail_count(x, eps / 16.0, 1.0 / 30.0)
    terms = [(x + j) ** -2.0 for j in range(count)]
    mid_parts, half_width, mid_charge = _trigamma_tail(x, count)
    out = _close([*terms, *mid_parts], [half_width, 2.0 * _EPS * math.fsum(terms), mid_charge])
    _ensure(out.error_radius, eps, what)
    return out


def _trigamma_tail(x: float, count: int):
    """sum_{j>=count} (x + j)^-2 by its Euler-Maclaurin pair (DLMF 2.10(i)) at
    the exact k = x + count = K/q: midpoint 1/k + 1/(2k^2) + 1/(6k^3) - 1/(60k^5),
    half-width 1/(60k^5).  The terms are completely monotone, so the pair
    envelopes, as the gap series' does (``tails``).

    One integer rational, whose correctly rounded division gives hi and the
    rest's gives lo; their charge is an ulp of lo, at least the least
    subnormal.  The half-width is correctly rounded, then rounded up.
    """
    p, q = x.as_integer_ratio()
    k = p + count * q
    k2, q2 = k * k, q * q
    den = 60 * k2 * k2 * k
    num = 60 * q * k2 * k2 + 30 * q2 * k2 * k + 10 * q2 * q * k2 - q2 * q2 * q
    hi = num / den
    a, b = hi.as_integer_ratio()
    lo = (num * b - a * den) / (den * b)
    return [hi, lo], math.nextafter(q2 * q2 * q / den, math.inf), math.ulp(lo)


@functools.lru_cache(maxsize=CACHE_SIZE)
def ref_log_gamma(x: float, eps: float = DEFAULT_EPS) -> ErrorBoundedValue:
    """log Gamma(x): a series on (0, 2], Stirling's formula above 2.

    On (0, 2], the product-form series at 1 + a, a in (0, 1], less log x
    for x <= 1.  Above 2, mu(x) + (x - 1/2) log x - x + log(2 pi)/2, with the
    cached ref_binet_mu.  Refused before any sum where half an ulp of the
    Stirling part (mu > 0) or the closed-form charges exceed eps; DomainError
    where (x - 1/2) log x overflows.
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
    _ensure(math.fsum(charges), eps, what)
    mu = ref_binet_mu(x, eps)
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
        parts, charges = _kernel_sum(   # a/k - log(1 + a/k) = kernel_r(k/a)
            1.0, eps / 16.0, kernels.kernel_r, _exact_gap_tail, a * a / 60.0, a=a)
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
