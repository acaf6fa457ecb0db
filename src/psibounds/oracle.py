"""Slow, rigorous reference evaluations with explicit absolute-error radii.

The oracle is deliberately independent of every library special-function
implementation: it only sums the defining series and encloses their tails.
The gap and psi' sum their terms while x + j < 16 and take the tail at the
exact y = x + count as gap(y) or psi'(y), by that function's enveloping
Bernoulli series (DLMF 5.11.2, 5.15.8; Section 5.11(ii)), with the B_2k
derived here as integers (``_bernoulli``).  The log Gamma series' tail is an
Euler-Maclaurin pair, and mu's tail mu's own enveloping Stirling series
(:mod:`psibounds.tails`).  Each result carries an ``error_radius`` that
accounts for

  * the truncation enclosure (half the tail-bracket width, or half the first
    omitted term) and the derived truncation of the terms' positive series W
    (see ``kernels``),
  * per-term floating-point evaluation: derived for the gap's and psi''s
    head terms (``_gap_head_charges``, ``ref_trigamma``), 2 ulps of each
    term's rounding scale, calibrated, for the bulk kernel terms of mu and
    the log Gamma series; 4 ulps for mu's tail midpoint, a double (derived
    below 2.5, see ``_FLOAT_MID_REL``), while the gap's and psi''s tails are
    exact to about 2^-72 of themselves and the log Gamma series' to about
    2^-76, each charged that (``_enveloped_tail``, ``_exact_gap_tail``), and
  * the final exactly-rounded summation (``math.fsum``), half an ulp.

The calibrated bulk charge sits above the worst error observed against a
50-digit reference across the verification grids; the test suite checks
``|value - reference| <= error_radius`` directly.

Requests below ``EPS_FLOOR`` fail loudly instead of returning an optimistic
radius, as do requests that the argument's own representation cannot honour
(e.g. an absolute 1e-12 on trigamma near 0, where the value is ~1e6).

One routine sums the kernel series over y = x + j: at most one direct
term, below y = 1, at scale |term| + 1 for its log factor, then the rest in
numpy arrays by the kernels' series, then a tail enclosure.  It serves
Binet's mu, sum kernel_w(x + j) (DLMF 5.11.1), and log Gamma(1 + a) +
gamma a = sum_k kernel_r(k/a).

The bulk is the package's only use of numpy, and numpy is imported there,
at the first bulk sum: ``import psibounds`` and the CLI parser load no
numeric layer, the fast path (``kernels``, ``specfun``, ``bounds``, all
standard library only) never loads numpy, and nor do the gap, psi, psi' and
gamma.  The bulk terms are built and reduced ``BLOCK_TERMS`` (32768) at a
time, in place on at most three arrays, each equal to its scalar kernel bit
for bit.  A chunk of ``SPLIT_MIN_TERMS`` (600) terms or more never becomes
Python floats: ``_exact_split`` reduces it in numpy to two or three doubles
with the same exact sum (Rump, Ogita and Oishi's error-free vector
transformation), and the one ``fsum`` rounds those, the head terms and the
tail midpoint's parts to the same double as the whole term list would give.
Shorter chunks, where ``fsum`` is faster, go to it as floats.
``ref_binet_mu(6e4)``, a full 1e5-term block, peaks at 0.53 MB (3.7 MB with
the terms as floats); no log Gamma series sum leaves its first chunk.

psi(x) = log x - gap(x) at every x, charging 1 ulp of log x on top of the
gap, and gamma = gap(1).  Above 2, log Gamma(x) = mu(x) + (x - 1/2) log x -
x + log(2 pi)/2, charging (x - 1/2) ulps of log x, the roundings of x - 1/2
and of the product and 1.7e-16 for log(2 pi)/2 on top of mu; on (0, 2] that
form cancels near the zeros at 1 and 2, so the series at 1 + a serves there.
Each series is summed in one place: psi and gamma take the cached gap, log
Gamma above 2 the cached mu.

The gap and psi' are computed once per x, whatever eps: eps only decides
whether the radius is refused.  A kernel sum is asked for a half-width
``target``: a quarter ulp of ~1/(2x) (within [1e-26, eps/4]) for mu, and
eps/16 for the log Gamma series.  Its tail starts where the enclosure width
(~ scale / m^5) fits within the target and, for mu's double midpoint charged
mid_rel = 4 ulps of itself, below mu(m) < 1/(12m), where that charge fits too:
m >= max(x + 16, 64, (scale/target)^0.2, min(mid_rel/(12 target), x + MAX_TERMS)).
The log Gamma series' exact midpoint has no such term.

Cost is bounded, not linear in x.  The gap and psi' sum at most 16 head
terms, none from x = 16, and at most 11 terms of their tail series (at
y = 16; 5 at y = 100), so each takes tens of microseconds at any x.
The log Gamma series, at step 1/a, has at most (16/(60 eps))^0.2 terms, 193
at eps = 1e-12.  mu's midpoint term is 8x/3 (to within its rounding) for
the quarter-ulp target; it exceeds the enclosure's from x ~ 930, and mu then
sums about 5x/3 terms.  From x = 6e4 the cap x + ``MAX_TERMS`` (1e5) binds.
From x ~ 2.8e9 the target sits at its 1e-26 floor and the term is a constant
7.4e9, so the cap binds up to x ~ 7.4e9 - 1e5, and from x ~ 7.4e9 the term
falls below x.  mu's tail starts at x + 16, rounded, from there, and past
2^53 at most 16 bulk terms sit at abscissas that round together.

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


def _ensure(radius: float, eps: float, what: str, x: float) -> None:
    # The message names what(x), formatted only when it is raised.
    if radius > eps:
        raise ToleranceError(
            f"{what}({x!r}): achievable radius {radius:.3e} exceeds requested eps {eps:.3e}"
        )


def _ensure_above(floor: float, eps: float, what: str, x: float) -> None:
    # Refusal before any sum for a value known to exceed ``floor``, which is
    # computed within a few ulps (hence the 2^-48 slack); ulp(inf) = inf.
    _ensure(0.5 * math.ulp(floor * (1.0 - 2.0**-48)), eps, what, x)


def _target(x: float, eps: float) -> float:
    # A quarter ulp of ~1/(2x) (mu is below it), capped at eps/4: no sum
    # needs to be tighter than the value it feeds.
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
    mid, rest = _two_doubles(em_hi - half, b)
    return (mid, math.nextafter((half + 2) / one, math.inf),
            math.nextafter((6 + d + rest) / one, math.inf))


def _bernoulli(n: int) -> list[tuple[int, int]]:
    """B_2, B_4, ..., B_2n as reduced integer pairs, from the tangent numbers
    T_k by Brent and Harvey's integer recurrence (arXiv:1108.0286, Algorithm
    2): B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))."""
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    pairs = [((-1) ** (k - 1) * 2 * k * t[k], 4**k * (4**k - 1)) for k in range(1, n + 1)]
    return [(a // math.gcd(a, b), b // math.gcd(a, b)) for a, b in pairs]


def _series(lead: list[tuple[int, int, int]], coefficients: list[tuple[int, int]], e: int):
    # sum of the lead terms a/(c y^k) and of c_k y^-(2k + e - 2), k >= 1, with
    # c_k = a_k/b_k alternating in sign from c_1 > 0: c_1's magnitude and each
    # |c_(k+1)/c_k| as reduced integer pairs.
    ratios = []
    for (a0, b0), (a1, b1) in zip(coefficients, coefficients[1:]):
        a, b = abs(a1) * b0, b1 * abs(a0)
        ratios.append((a // math.gcd(a, b), b // math.gcd(a, b)))
    return lead, coefficients[0], e, ratios


#: B_2 ... B_32: the tails below stop at B_24 at y = 16, where they need most.
_B2K = _bernoulli(16)
#: gap(y) ~ 1/(2y) + sum_k B_2k/(2k y^2k) (DLMF 5.11.2) and
#: psi'(y) ~ 1/y + 1/(2y^2) + sum_k B_2k/y^(2k+1) (DLMF 5.15.8).
_GAP_SERIES = _series([(1, 2, 1)], [(a, 2 * k * b) for k, (a, b) in enumerate(_B2K, 1)], 2)
_TRIGAMMA_SERIES = _series([(1, 1, 1), (1, 2, 2)], _B2K, 3)


def _enveloped_tail(x: float, count: int, series):
    """sum_{j>=count} f(x + j) = F(y) at the exact y = x + count >= 16, for the
    gap or psi', by F's asymptotic series, in binary fixed point: Python
    integers in units of 2^-b, 1/y being about 2^80 of them at y = 16 and
    4 bits more per binade of y, up to 2^110 from y = 2^11 (each term gains
    2 log2 y bits on the last, so the deeper units take a term or two more
    only where the terms fall fast).

    Past its lead terms the series envelopes (DLMF 5.11(ii); checked for
    both on [16, 1e300] in the tests): what the terms kept leave has the sign
    of the first omitted term and is smaller.  So the midpoint is the partial
    sum plus half the first term under 4 units, with half that term as the
    half-width.  Returns the midpoint as two doubles, hi + lo, the half-width
    and the midpoint's charge, each rounded up to a double.
    """
    lead, (c_num, c_den), e, ratios = series
    p, q = x.as_integer_ratio()
    num, den = p + count * q, q                      # y = num/den
    e_y = num.bit_length() - den.bit_length()        # 2^(e_y - 1) < y < 2^(e_y + 1)
    b = e_y + min(110, 64 + 4 * e_y)
    num2, den2 = num * num, den * den
    total = sum((a * den**k << b) // (c * num**k) for a, c, k in lead)
    term = (c_num * den**e << b) // (c_den * num**e)
    kept = []
    for r_num, r_den in ratios:
        if term < 4:
            break
        kept.append(term)
        term = term * r_num * den2 // (r_den * num2)
    # Each term after the first is the floor of the last one times its ratio,
    # below 1 here (the terms fall under 4 units, 2^-77 of 1/y or less, long
    # before their smallest, near k = pi y, at y >= 16), so term k is under k
    # units low, and the lead terms under 1: the midpoint and the half-width
    # together are under len(lead) + (m + 1)(m + 2)/2 units off, m = len(kept).
    omitted = -term if len(kept) % 2 else term
    mid, rest = _two_doubles(2 * (total + sum(kept[::2]) - sum(kept[1::2])) + omitted, b + 1)
    m = len(kept)
    return (mid, math.nextafter(term / (2 << b), math.inf),
            math.nextafter((2 * len(lead) + (m + 1) * (m + 2) + rest) / (2 << b), math.inf))


def _two_doubles(mid: int, b: int) -> tuple[list[float], int]:
    # mid 2^-b as hi + lo and the units they leave (none unless subnormal):
    # both true divisions round correctly, subnormals included, and leave hi
    # and lo whole numbers of units, mid being at least 2^57 of them.
    one = 1 << b
    hi = mid / one
    rest = mid - int(math.ldexp(hi, b))
    lo = rest / one
    rest -= int(math.ldexp(lo, b))
    return [hi, lo], abs(rest)


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


def _head_count(x: float) -> int:
    # The j >= 0 with x + j < 16, exactly: 16 - floor(x) below 16, none from 16.
    return 16 - math.floor(x) if x < 16.0 else 0


def _gap_head_charges(x: float, terms: list[float]) -> list[float]:
    # With u = 2^-53 and each operation of kernel_r off by at most u, from
    # y = 1 (s = y + 1/2, t = 1/(2s), v = t^2, W/v by Horner, W = (W/v) v,
    # 1/(2y), the difference d = 1/(2y) - W and d/s): s's rounding moves the
    # term by (1 - 2vW'/d) u, t's by 2vW'/d u, v's and W's by vW'/d u and W/d u,
    # W/v's by 2.2 W/d u (W/v = 1/3 + v(...) with every part positive and
    # v (...) under 1/8 of it, so each Horner level errs by 2u plus 1/8 of the
    # next), 1/(2y)'s by (1 + W/d) u, the difference and d/s by u each.  With
    # vW' < 1.08 W and W/d < 0.087 (y = 1), that is (4 + 5.28 W/d) u < 4.46u,
    # and W's truncation adds under 0.01u: 4.5u in all (3.5u measured).
    # x + j rounds by u relative unless x is a multiple of 2^-49, and moves
    # kernel_r(y) by y|r'|/r = 1/(y(y + 1) r) < 2 of that (r > 1/(2y(y + 1))).
    # The direct form below y = 1, at y = x exactly, is U - log1p(U), U = 1/x
    # rounded: U's rounding costs under U u = (r + L) u, log1p's (at most one
    # ulp) 2Lu and the difference ru, with L = log1p(U) = 1/x - r: under 3u/x.
    rel = (4.5 + 2.0 * (not (x * 2.0**49).is_integer())) * 0.5 * _EPS
    if x < 1.0:
        return [rel * math.fsum(terms[1:]), 1.5 * _EPS / x]
    return [rel * math.fsum(terms), 0.0]


@functools.lru_cache(maxsize=CACHE_SIZE)
def ref_digamma_gap(x: float, eps: float = DEFAULT_EPS) -> ErrorBoundedValue:
    """log(x) - psi(x) = sum_{j>=0} kernel_r(x + j): the terms while x + j < 16,
    then the tail, gap(y) at y = x + count, by its enveloping series.

    The target quantity of the digamma-gap bound families; also the source
    of the Euler-Mascheroni constant (the series at x = 1 sums to it).
    """
    x = _check_domain(x)
    eps = _check_eps(eps)
    _ensure_above(0.5 / x, eps, "ref_digamma_gap", x)   # the gap exceeds 1/(2x)
    count = _head_count(x)
    terms = kernels.kernel_r_terms(x, count)
    mid_parts, half_width, mid_charge = _enveloped_tail(x, count, _GAP_SERIES)
    out = _close([*terms, *mid_parts], [half_width, mid_charge, *_gap_head_charges(x, terms)])
    _ensure(out.error_radius, eps, "ref_digamma_gap", x)
    return out


@functools.lru_cache(maxsize=CACHE_SIZE)
def ref_binet_mu(x: float, eps: float = DEFAULT_EPS) -> ErrorBoundedValue:
    """log of the Stirling ratio Gamma(x)/(sqrt(2 pi) x^(x-1/2) e^-x)."""
    x = _check_domain(x)
    eps = _check_eps(eps)
    out = _close(*_kernel_sum(x, _target(x, eps), kernels.kernel_w, _mu_tail, 1.0 / 360.0,
                              _FLOAT_MID_REL))
    _ensure(out.error_radius, eps, "ref_binet_mu", x)
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
    _ensure(radius, eps, "ref_stirling_target", x)
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
    _ensure(out.error_radius, eps, "ref_digamma", x)
    return out


@functools.lru_cache(maxsize=CACHE_SIZE)
def ref_trigamma(x: float, eps: float = DEFAULT_EPS) -> ErrorBoundedValue:
    """psi'(x) = sum_{j>=0} (x + j)^-2: the terms while x + j < 16, as Python
    floats, then the tail, psi'(y) at y = x + count, by its enveloping series.

    x + j rounds by 2^-53, which moves (x + j)^-2 by 2^-52 of itself, and pow
    errs by under one ulp: each term is charged 2 ulps.  Refused before any
    sum where half an ulp of 1/x^2 < psi'(x) exceeds eps.
    """
    x = _check_domain(x)
    eps = _check_eps(eps)
    _ensure_above(1.0 / x / x, eps, "ref_trigamma", x)
    count = _head_count(x)
    terms = [(x + j) ** -2.0 for j in range(count)]
    mid_parts, half_width, mid_charge = _enveloped_tail(x, count, _TRIGAMMA_SERIES)
    out = _close([*terms, *mid_parts], [half_width, 2.0 * _EPS * math.fsum(terms), mid_charge])
    _ensure(out.error_radius, eps, "ref_trigamma", x)
    return out


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
    out = _log_gamma_series(x, eps) if x <= 2.0 else _log_gamma_stirling(x, eps, "ref_log_gamma")
    _ensure(out.error_radius, eps, "ref_log_gamma", x)
    return out


def _log_gamma_stirling(x: float, eps: float, what: str) -> ErrorBoundedValue:
    h, log_x = x - 0.5, math.log(x)
    product = h * log_x
    stirling = product - x + _HALF_LOG_TWO_PI
    if not math.isfinite(stirling):
        raise DomainError(f"{what}({x!r}): (x - 1/2) log x overflows binary64")
    # Where this can fire (eps >= EPS_FLOOR, so s >= 128 and x > 45), s is
    # within 2^-50 relative of the exact part.
    _ensure_above(stirling, eps, what, x)
    charges = [
        abs(x - h - 0.5) * log_x,   # x - h is exact, so this is h's rounding
        h * math.ulp(log_x),
        0.5 * math.ulp(product),
        1.7e-16,                    # _HALF_LOG_TWO_PI
    ]
    _ensure(math.fsum(charges), eps, what, x)
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
