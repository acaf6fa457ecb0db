"""Slow, rigorous reference evaluations with explicit absolute-error radii.

The oracle is deliberately independent of every library special-function
implementation: it only sums the defining series and encloses their tails.
The gap and psi' sum their terms while x + j < 10 and take the tail at the
exact y = x + count as gap(y) or psi'(y), by that function's enveloping
Bernoulli series (DLMF 5.11.2, 5.15.8; Section 5.11(ii)), one Horner pass
over the coefficients that y's binade keeps (``_binade``), with the B_2k
derived here as integers (``_bernoulli``).  The log Gamma series' tail is
its Maclaurin series in a with Hurwitz zeta(m, 16) coefficients (DLMF 5.7.3,
25.11.1), alternating, one Horner pass over a table built from the same B_2k,
and mu's tail mu's own enveloping Stirling series (:mod:`psibounds.tails`).
Each result carries an ``error_radius`` that accounts for

  * the tail's truncation enclosure (half the tail-bracket width or the first
    omitted term, or 2 units of the gap's and psi''s fixed point),
  * per-term rounding and W's truncation (see ``kernels``), derived once per
    kernel operation sequence (Higham 3.1) and charged on its terms' sum:
    kernel_r from y = 1 (the gap's head and the log Gamma series) and its
    direct form below 1, kernel_w's W from y = 1/2 and its direct form below
    1/2 (mu), and psi''s (x + j)^-2; 4 ulps for mu's tail midpoint, a double
    (``_FLOAT_MID_REL``), while the gap's and psi''s tails are exact to about
    2^-70 of themselves at y = 10 (2^-105 from y = 2^12) and the log Gamma
    series' to about 2^-79 (2^-74 at the least a), each charged that
    (``_enveloped_tail``, ``_log_gamma_tail``),
  * on (0, 1], the rounding of z0 = x + 1, which moves log Gamma(z0) by
    under 0.5773 |x - (z0 - 1)| (``_log_gamma_series``), and
  * the final exactly-rounded summation (``math.fsum``), half an ulp.

The tests check ``|value - reference| <= error_radius``, and each per-term
charge on single terms, against 50-digit references.

mu, sum kernel_w(x + j) (DLMF 5.11.1), sums its terms while x + j <= 16 as
Python floats, then its bulk from y > 16 (W's K = 6) in numpy, the package's
only use of numpy, imported at the first bulk sum; log Gamma(1 + a) + gamma a =
sum_k kernel_r(k/a) sums its terms as Python floats.  The bulk is built
``BLOCK_TERMS`` (32768) terms at a time in three arrays of that length
that each thread makes at its first bulk sum and keeps across sums (0.75 MB,
held once), each term the scalar ``kernel_w``'s bit for bit; ``_exact_split``
reduces a chunk of ``SPLIT_MIN_TERMS`` (600) or more to two or three doubles
with its exact sum (Rump, Ogita and Oishi), shorter ones go to ``fsum`` as
floats, and the one ``fsum`` gives the double of the whole term list.  A
later full 1e5-term block, as ``ref_binet_mu(6e4)``, allocates no array.

psi(x) = log x less the gap's parts, rounded once, at every x, charging
1 ulp of log x on top, and gamma = gap(1), enclosed once at import.  Above
2, log Gamma(x) = mu(x) + (x - 1/2) log x - x + log(2 pi)/2, charging
(x - 1/2) ulps of log x, the roundings of x - 1/2 and of the product and
1.7e-16 for log(2 pi)/2 on top of mu; on (0, 2] that form cancels near the
zeros at 1 and 2, so the series at 1 + a serves there, with gamma's
enclosure.  Each series is summed at most once per call: log Gamma above 2
takes the cached mu.

Every value and radius is a function of x alone, and eps only decides a
refusal (``ToleranceError``), exactly where the radius exceeds eps (as an
absolute 1e-12 does on trigamma near 0, where the value is ~1e6); where half
an ulp of a known lower bound of the value does, the radius does too, and
the refusal comes before any sum: 1/(2x) for the gap, 1/x^2 for trigamma
and the Stirling part (mu > 0) for log Gamma; eps = inf refuses nothing.  A
value past the largest double is a ``DomainError`` at every eps: the gap and
psi below x ~ 5.6e-309, where 1/x overflows, psi' below ~7.5e-155, where
1/x^2 does, the Stirling target below ~2.2e-309, and log Gamma where
(x - 1/2) log x overflows.  mu is summed to a half-width ``_target(x)``, a
quarter ulp of ~1/(2x) within [1e-26, ``_MU_TARGET_MAX``]: its tail starts
at the m where the enclosure (~ 1/(360 m^5)) and its double midpoint's
charge (4 ulps of mu(m) < 1/(12m)) fit that, or at x + MAX_TERMS
(``_tail_count``).

Cost is bounded, not linear in x.  The gap and psi' sum at most 10 head
terms, none from x = 10, and take their tail in one Horner pass over at most
16 coefficients (7 at y ~ 100, none from y = 2^53 for psi', 2^105 for the
gap), a multiply and a shift on Python integers each: a cold call of the
gap, psi or psi' does that bounded work at every x.  The log Gamma series, at
step 1/a, sums its terms k = 1 ... 15 and its tail's 18 coefficients at
every a.  mu's midpoint term is 8x/3 (to within its rounding)
for the quarter-ulp target; it exceeds the enclosure's from x ~ 930, and mu
then sums about 5x/3 terms.  From x = 6e4 the cap x + ``MAX_TERMS`` (1e5)
binds.  From x ~ 2.8e9 the target sits at its 1e-26 floor and the term is a
constant 7.4e9, so the cap binds up to x ~ 7.4e9 - 1e5, and from x ~ 7.4e9
the term falls below x.  mu's tail starts at x + 16, rounded, from there,
and past 2^53 at most 16 bulk terms sit at abscissas that round together.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

from . import kernels, tails
from .errors import DomainError, ToleranceError
from .kernels import _check_domain

_EPS = 2.0**-52
_U = 2.0**-53   # each correctly rounded operation errs by at most _U relative

#: Absolute tolerance of each ``ref_*`` unless the caller asks for another.
DEFAULT_EPS = 1e-12

#: About the most terms one evaluation sums (see the module docstring).
MAX_TERMS = 100_000

#: Entries each ``ref_*`` cache keeps: twice the most any one of them holds
#: after one certify pass (1285, ``ref_binet_mu``), rounded up to a power of 2.
CACHE_SIZE = 4096

#: ``_target``'s cap, which binds from x ~ 0.011 down.
_MU_TARGET_MAX = 2.5e-15

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

#: Each thread's bulk buffers, made at its first bulk sum: the integers 0, 1,
#: ..., the abscissas (later scratch) and the terms, ``BLOCK_TERMS`` doubles
#: each.  Per thread, since numpy's loops release the GIL: two threads' sums
#: on shared buffers would overwrite each other's terms.
_bulk = threading.local()

#: W(v) = sum_{k>=1} v^k/(2k + 1) (see ``kernels``): the coefficients of the
#: K = 6 that kernel_w takes at every bulk term (y > 16, where v <= 1/1089).
_W_COEFFS = tuple(1.0 / (2 * k + 1) for k in range(1, 7))

#: log(2 pi)/2 to within 1.7e-16: 2 pi rounds by at most 2^-53 relative and
#: log by at most 1 ulp; the halving is exact.
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

#: Least rounding charge of a result: below the normal range half an ulp
#: rounds to zero (ties to even), yet each rounding still costs up to half
#: a spacing of 2^-1074.
_SUBNORMAL_CHARGE = 4.0 * 2.0**-1074


@dataclass(frozen=True, slots=True, init=False)
class ErrorBoundedValue:
    """A value with a rigorous absolute-error radius."""

    value: float
    error_radius: float

    def __init__(self, value: float, error_radius: float) -> None:
        # One check (negative and nan alike), two stores by the slots' own setters.
        if not error_radius >= 0.0:
            raise ValueError(f"invalid error radius {error_radius!r}")
        _set_value(self, value)
        _set_radius(self, error_radius)

    @property
    def lower(self) -> float:
        return self.value - self.error_radius

    @property
    def upper(self) -> float:
        return self.value + self.error_radius


_set_value, _set_radius = ErrorBoundedValue.value.__set__, ErrorBoundedValue.error_radius.__set__


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not eps > 0.0:
        raise DomainError(f"eps must be positive, got {eps!r}")
    return eps


def _ensure(radius: float, eps: float, what: str, x: float) -> None:
    # The message names what(x), formatted only when it is raised.
    if radius > eps:
        raise ToleranceError(
            f"{what}({x!r}): achievable radius {radius:.3e} exceeds requested eps {eps:.3e}"
        )


def _ensure_above(floor: float, eps: float, what: str, x: float) -> None:
    # Refusal before any sum for a value known to exceed ``floor``, which is
    # computed within a few ulps (hence the 2^-48 slack).  A floor that
    # overflows is a value past the largest double: DomainError at every eps.
    if floor == math.inf:
        raise DomainError(f"{what}({x!r}) passes the largest double")
    _ensure(0.5 * math.ulp(floor * (1.0 - 2.0**-48)), eps, what, x)


def _target(x: float) -> float:
    # A quarter ulp of ~1/(2x) (mu is below it), within [1e-26, _MU_TARGET_MAX].
    magnitude = max(0.5 / x, 1e-10)
    return max(min(_MU_TARGET_MAX, 0.25 * _EPS * magnitude), 1e-26)


def _tail_count(x: float) -> int:
    # Terms of mu before its tail.  It starts where the enclosure width
    # (~ 1/(360 m^5)) fits the target and, for the double midpoint charged
    # _FLOAT_MID_REL of itself (mu(m) < 1/(12m)), where that charge fits too,
    # or at x + MAX_TERMS.
    target = _target(x)
    m_tail = max(x + 16.0, 64.0, (1.0 / 360.0 / target) ** 0.2,
                 min(_FLOAT_MID_REL / (12.0 * target), x + MAX_TERMS))
    return int(math.ceil(m_tail - x))


def _kernel_sum(x: float):
    """Parts and charges of mu(x) = sum_j kernel_w(x + j) to about half-width ``_target(x)``.

    The head terms while x + j <= 16 come from the scalar ``kernel_w`` (y = 16.0
    itself takes K = 9: v = (0.5/16.5)^2 rounds above the double 1/1089), the
    bulk from y > 16 in numpy, and the tail mu(x + count) from ``tails.mu_tail``,
    its double midpoint charged ``_FLOAT_MID_REL`` of itself (see ``_tail_count``).
    """
    count = _tail_count(x)
    parts: list[float] = []
    while (y := x + len(parts)) <= 16.0:
        parts.append(kernels.kernel_w(y))
    direct = parts[:x < 0.5]   # kernel_w's direct form, at y = x < 1/2
    w_sum = math.fsum(parts[len(direct):])
    for terms, scratch in _bulk_terms(x, len(parts), count):
        w_sum += float(terms.sum())   # every bulk term is positive
        parts.extend(terms.tolist() if terms.size < SPLIT_MIN_TERMS
                     else _exact_split(terms, scratch))
    mid, half_width = tails.mu_tail(x + count)
    parts.append(mid)
    return parts, [half_width, _FLOAT_MID_REL * mid, _W_REL * w_sum,
                   *(_W_DIRECT_REL * (w + 1.0) for w in direct)]


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


def _binade(coefficients: list[tuple[int, int]], e: int, e_y: int):
    """A tail series' entry for y in [2^e_y, 2^(e_y + 1)), y >= 10: its units
    2^-b; the m coefficients whose term at y_lo = max(10, 2^e_y) is 4 units or
    more, floored in units, last first; the sign of the first omitted one,
    whose term is under 4 units at every y of the binade, as terms fall with y."""
    b = e_y + (110 if e_y > 11 else 64 + 4 * e_y)
    y_lo = max(10, 1 << e_y)
    m = next(k for k, (a, d) in enumerate(coefficients)
             if abs(a) << b < 4 * d * y_lo ** (2 * k + e))
    return (b, tuple((a << b) // d for a, d in reversed(coefficients[:m])),
            1 if coefficients[m][0] > 0 else -1)


def _series(lead: list[tuple[int, int]], coefficients: list[tuple[int, int]], e: int):
    # The sum of the lead terms 2^-h y^-k, as (k, h), and of c_k y^-(2k + e - 2),
    # k >= 1, as (a_k, b_k): the lead, e and the ``_binade`` of each e_y = floor(log2 y).
    return lead, e, [_binade(coefficients, e, e_y) for e_y in range(1024)]


#: B_2 ... B_34: the tails below stop at B_34 at y = 10, where they need most.
_B2K = _bernoulli(17)
#: gap(y) ~ 1/(2y) + sum_k B_2k/(2k y^2k) (DLMF 5.11.2) and
#: psi'(y) ~ 1/y + 1/(2y^2) + sum_k B_2k/y^(2k+1) (DLMF 5.15.8).
_GAP_SERIES = _series([(1, 1)], [(a, 2 * k * b) for k, (a, b) in enumerate(_B2K, 1)], 2)
_TRIGAMMA_SERIES = _series([(1, 0), (2, 1)], _B2K, 3)


def _zeta_16(m: int) -> int:
    """zeta(m, 16)/m, m >= 2, floored in units of 2^-90.  zeta(m, 16) is summed
    in units of 2^-114: its terms k = 16 ... 63 and its Euler-Maclaurin tail at
    64 = 2^6, 64^(1-m)/(m - 1) + 64^-m/2 plus the corrections B_2j/(2j)!
    (m)_(2j-1) 64^(1-m-2j), each floored, to the first that floors to 0.  k^-m
    is completely monotone, so they envelope (DLMF 2.10(i)) and that one, under
    a unit, bounds what they leave: the sum is under 48 + 2 + 16 + 1 < 70 units
    low, and the result under 1 + 2^-17 units low."""
    z = sum((1 << 114) // k**m for k in range(16, 64))
    z += (1 << 114) // ((m - 1) << 6 * (m - 1)) + (1 << 114) // (2 << 6 * m)
    rising, factorial = m, 2                         # (m)_(2j-1) and (2j)!
    for j, (num, den) in enumerate(_B2K, 1):
        term = (num * rising << 114) // (den * factorial << 6 * (m + 2 * j - 1))
        if not term:
            break
        z += term
        rising *= (m + 2 * j - 1) * (m + 2 * j)
        factorial *= (2 * j + 1) * (2 * j + 2)
    return z // m >> 24


#: (-1)^m c_m, m = 19 ... 2, and c_20 + 2 units, above c_20 (``_log_gamma_tail``).
_LOG_GAMMA_TAIL = tuple((-1) ** m * _zeta_16(m) for m in range(19, 1, -1))
_LOG_GAMMA_OMITTED = _zeta_16(20) + 2


def _enveloped_tail(x: float, count: int, series):
    """sum_{j>=count} f(x + j) = F(y) at the exact y = x + count >= 10, for the
    gap or psi', by F's asymptotic series, in binary fixed point: Python
    integers in units of 2^-b, 1/y being about 2^76 of them at y = 10, 2^80
    at y = 16 and 4 bits more per binade of y, up to 2^110 from y = 2^12.
    1/y and 1/y^2 are taken once, in units of 2^-s, 1/y^2 being about 2^130
    of them (the one division); the lead terms are shifts of those, and the
    rest one Horner pass over the binade's floored coefficients
    (``_binade``), a multiply by 1/y^2 and a shift each (then one by 1/y for
    psi').

    Past its lead terms the series envelopes (DLMF 5.11(ii); checked for
    both on [10, 1e300] in the tests): what the terms kept leave has the sign
    of the first omitted term and is smaller, under 4 units.  So the
    midpoint is the partial sum plus 2 units of that sign, with 2 units as
    the half-width (``_enveloped``).
    """
    lead, e, table = series
    p, q = x.as_integer_ratio()
    num, den = p + count * q, q                      # y = num/den, den a power of two
    e_y = num.bit_length() - den.bit_length()        # 2^e_y <= y < 2^(e_y + 1)
    b, coefficients, sign = table[e_y]
    s = 2 * e_y + 130
    r = (den << s) // num                            # 1/y in units of 2^-s
    r2 = r * r >> s                                  # 1/y^2
    total = 0
    for k, h in lead:
        total += (r if k == 1 else r2) >> s - b + h
    acc = 0
    for c in coefficients:
        acc = (acc + c) * r2 >> s
    if e == 3:
        acc = acc * r >> s
    # r is 2^s/y floored and r2 is low by under 1.2 units of 2^-s, 2^32 or
    # more times finer than 2^-b: each lead term is one floor of one of them,
    # under 1 + 2^-32 units low (1/y's exactly the floor of 2^(b - h)/y).
    # Each coefficient and each Horner step floors once, under 1 unit each;
    # r2, under 2^-127 of itself low (it is 2^128 units or more), costs each
    # step under 2^-127 of its product, under 2^-20 units over all steps (the
    # terms are under 2^(b - 2 e_y) units, each under 0.29 of the last).
    # Each step carries the error before it times 1/y^2 <= 1/100: from
    # E <= (E + 1)/100 + 1, under 1.03 units in all, and after psi''s product
    # by 1/y, 1.03/10 + 1 < 1.11.  So the floors cost under len(lead) + 1.5
    # units, 2 len(lead) + 3 half-units.
    return _enveloped(total + acc, 4 * sign, b, 2 * len(lead) + 3)


def _enveloped(partial: int, omitted: int, b: int, floor_charge: int):
    """The enveloping tail whose kept terms sum to ``partial`` units of 2^-b
    and whose first omitted term is ``omitted`` (signed): its midpoint,
    partial + omitted/2, as two doubles hi + lo, its half-width |omitted|/2
    and the midpoint's charge, ``floor_charge`` half-units for the floors
    plus what hi + lo leave, the last two each rounded up to a double."""
    mid, rest = _two_doubles(2 * partial + omitted, b + 1)
    return (mid, math.nextafter(math.ldexp(abs(omitted), -b - 1), math.inf),
            math.nextafter(math.ldexp(floor_charge + rest, -b - 1), math.inf))


def _log_gamma_tail(a: float):
    """sum_{k>=16} [a/k - log(1 + a/k)] = sum_{m>=2} (-1)^m c_m a^m, a in (0, 1],
    c_m = zeta(m, 16)/m, as a^2 S(a): with a = pa/2^e exactly, S by one Horner
    pass in a over ``_LOG_GAMMA_TAIL`` in units of 2^-90, then times pa^2 in
    units of 2^-(90 + 2e).  S's terms alternate and fall (c_(m+1) < c_m/16 and
    a <= 1), so by Leibniz's rule what the kept terms leave lies between 0 and
    the first omitted one, c_20 a^20 <= ``_LOG_GAMMA_OMITTED`` a^2 units.
    """
    pa, qa = a.as_integer_ratio()
    e = qa.bit_length() - 1
    acc = 0
    for c in _LOG_GAMMA_TAIL:
        acc = c + (acc * pa >> e)
    # The 18 coefficients are each under 1 + 2^-17 units off (``_zeta_16``) and
    # the 17 Horner floors under 1, each carried on times a <= 1: S is under 36
    # units off, and its exact product by pa^2 under 36 pa^2, 72 pa^2 half-units.
    pa2 = pa * pa
    return _enveloped(acc * pa2, _LOG_GAMMA_OMITTED * pa2, 90 + 2 * e, 72 * pa2)


def _two_doubles(mid: int, b: int) -> tuple[list[float], int]:
    # mid 2^-b as hi + lo and the units they leave.  Each int/int true
    # division rounds once, subnormals included, so hi and lo are whole
    # numbers of units, mid being at least 2^57 of them.
    one = 1 << b
    hi = mid / one
    rest = mid - int(math.ldexp(hi, b))
    lo = rest / one
    rest -= int(math.ldexp(lo, b))
    return [hi, lo], abs(rest)


def _bulk_terms(x: float, start: int, stop: int):
    """kernel_w(x + j) for j in [start, stop), all at y > 16 (where W takes K = 6
    terms, as in ``kernels``, by Horner from (0 + c_6) v = c_6 v), bit for bit:
    yields each chunk of at most ``BLOCK_TERMS`` and a scratch array of its
    length.  Both are views of the calling thread's buffers (``_bulk``), which
    outlive the call, so that a sum allocates no array after the thread's
    first: a fresh array's first writes cost page faults.  Each chunk is
    overwritten by the next, or by the thread's next bulk sum.
    """
    import numpy as np   # imported at the first bulk sum (see the module docstring)
    buffers = getattr(_bulk, "buffers", None)
    if buffers is None or buffers[0].size < BLOCK_TERMS:
        buffers = _bulk.buffers = (np.arange(BLOCK_TERMS, dtype=np.float64),
                                   np.empty(BLOCK_TERMS), np.empty(BLOCK_TERMS))
    iota, v_all, w_all = buffers
    for first in range(start, stop, BLOCK_TERMS):
        n = min(BLOCK_TERMS, stop - first)
        v = np.add(iota[:n], float(first), out=v_all[:n])   # first + i, exact below 2^53
        v += x
        v += 0.5
        np.divide(0.5, v, out=v)
        v *= v
        w = np.multiply(v, _W_COEFFS[-1], out=w_all[:n])
        for c in _W_COEFFS[-2::-1]:
            w += c
            w *= v
        yield w, v   # v is scratch once w is built


def _exact_split(p, q) -> list[float]:
    """A few doubles whose exact sum is the exact sum of the array ``p``.

    Rump, Ogita and Oishi's error-free vector transformation (SIAM J. Sci.
    Comput. 31(1), 2008, Algorithm 3.2): with 2^k >= n + 2 and sigma = 2^k
    times a power of two >= max|p|, q = (p + sigma) - sigma and p - q are
    exact, and so is sum(q) in any order, since every q is a multiple of
    2^-53 sigma and their total stays below sigma.  Each round strips at
    least 53 - k - 1 bits off the largest residual; it repeats until the
    residual is all zero.  ``p`` is consumed and ``q``, of its length, is
    scratch.  Requires finite |p| <= 1/2, so that sigma stays far from
    overflow: no bulk term, kernel_w(y) at y > 16, exceeds 1/(12 y^2) < 4e-4.
    """
    import numpy as np
    k = (p.size + 1).bit_length()   # 2^k >= n + 2
    np.abs(p, out=q)
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


#: The gap and psi' sum their terms while x + j < _SHIFT, then take the tail.
_SHIFT = 10


def _head_count(x: float) -> int:
    # The j >= 0 with x + j < _SHIFT, exactly: _SHIFT - floor(x) below it.
    return _SHIFT - math.floor(x) if x < _SHIFT else 0


# Per-term charges: first-order forward error bounds, one per kernel
# operation sequence (Higham 3.1).  Each operation is correctly rounded, so off
# by at most u = 2^-53 relative; the second-order rest is far below the slack.

#: An abscissa x + j or k/a rounds by u relative, which moves kernel_r(y) by
#: y|r'|/r = 1/(y(y + 1) r) < 2 of that (r > 1/(2y(y + 1))) and kernel_w(y) by
#: y|w'|/w = 2q(1 - sqrt v) < 2 (q as for ``_W_REL``).
_ABSCISSA_REL = 2.0 * _U
#: kernel_r from y = 1 (s = y + 1/2, t = 1/(2s), v = t^2, W/v by Horner,
#: W = (W/v) v, 1/(2y), the difference d = 1/(2y) - W and d/s): s's rounding
#: moves the term by (1 - 2vW'/d) u, t's by 2vW'/d u, v's and W's by vW'/d u
#: and W/d u, W/v's by 2.3 W/d u (W/v = 1/3 + v(...) with every part positive
#: and v(...) under 1/8 of it, so each Horner level errs by 2u plus 1/8 of the
#: next), 1/(2y)'s by (1 + W/d) u, the difference and d/s by u each.  With
#: vW' < 1.08 W and W/d < 0.087 (y = 1), that is (4 + 5.4 W/d) u < 4.47u,
#: and W's truncation adds under 0.01u: 4.5u in all (3.5u measured).
_R_REL = 4.5 * _U
#: kernel_w from y = 1/2 is W = (W/v) v, with s = y + 1/2, t = 0.5/s and
#: v = t^2.  With q = vW'/W, W's change per relative change of v: s's and t's
#: roundings move v by 2u each and so W by 2qu, v's by qu; the Horner levels
#: B_k = c_k + v B_(k+1) of W/v (each rounds c_k, a product and a sum) err by
#: e_k <= 2u + rho_k e_(k+1), rho_k = v B_(k+1)/B_k, e_K <= u; the product
#: (W/v) v by u.  All grow with v: at v = 1/4 (y = 1/2) q = 1.191, every
#: rho_k < 0.239 and e_1 < 2.381u, and W cut after its 26 terms is short by
#: 0.123u of itself (under 0.01u for the other K at their largest v): under
#: 5q + 2.381 + 1 + 0.123 < 9.46 units (8.01 from y = 16, where K = 6), and
#: 11.5u with the abscissa's rounding (5.2u measured, near y = 15.7).
_W_REL = 9.5 * _U + _ABSCISSA_REL
#: kernel_w below y = 1/2, at y = x exactly, is (x + 1/2) log1p(U) - 1 with
#: U = 1/x rounded: U's rounding moves log1p(U) by under u, log1p errs by an
#: ulp (2u relative), x + 1/2 <= 1 and the product round by u each, so
#: (x + 1/2) log1p(U) = w + 1 is off by under 4(w + 1)u + u, and the
#: difference rounds by wu: under 5(w + 1)u.  Below x ~ 5.6e-309, where U
#: overflows, -log x takes log1p(U)'s place, off by an ulp and log1p(x) < u.
_W_DIRECT_REL = 5.0 * _U


def _gap_head_charges(x: float, terms: list[float]) -> list[float]:
    # kernel_r at y = x + j from y = 1, where x + j rounds unless x is a
    # multiple of 2^-49, and below y = 1 its direct form at y = x exactly,
    # U - log1p(U), U = 1/x rounded: U's rounding costs under U u = (r + L) u,
    # log1p's (at most one ulp) 2Lu and the difference ru, with
    # L = log1p(U) = 1/x - r: under 3u/x.
    rel = _R_REL + _ABSCISSA_REL * (not (x * 2.0**49).is_integer())
    if x < 1.0:
        return [rel * math.fsum(terms[1:]), 3.0 * _U / x]
    return [rel * math.fsum(terms), 0.0]


def _gap_parts(x: float, eps: float, what: str):
    # gap(x) = sum_{j>=0} kernel_r(x + j): the terms while x + j < 10, then the
    # tail gap(x + count).  The gap exceeds 1/(2x), and |psi| does but on about
    # (1.07, 1.79), where psi's radius is over 7 half ulps of 1/(2x).  1/(2x)
    # overflows where 1/x does: halve 1/x, not 0.5/x.
    _ensure_above(1.0 / x * 0.5, eps, what, x)
    count = _head_count(x)
    terms = kernels.kernel_r_terms(x, count)
    mid_parts, half_width, mid_charge = _enveloped_tail(x, count, _GAP_SERIES)
    return [*terms, *mid_parts], [half_width, mid_charge, *_gap_head_charges(x, terms)]


#: gamma = gap(1) (the series at 1 sums to it), enclosed once.
_EULER_GAMMA = _close(*_gap_parts(1.0, math.inf, "ref_euler_gamma"))


def _reference(sum_at):
    # Each cached ref_*: x and eps checked, then the body's sum, refused past eps.
    @functools.lru_cache(maxsize=CACHE_SIZE)
    @functools.wraps(sum_at)
    def entry(x, eps=DEFAULT_EPS):
        x = _check_domain(x)
        eps = _check_eps(eps)
        out = sum_at(x, eps)
        _ensure(out.error_radius, eps, sum_at.__name__, x)
        return out
    return entry


@_reference
def ref_digamma_gap(x: float, eps: float = DEFAULT_EPS) -> ErrorBoundedValue:
    """log(x) - psi(x) = sum_{j>=0} kernel_r(x + j) (``_gap_parts``).

    The target quantity of the digamma-gap bound families; also the source
    of the Euler-Mascheroni constant (the series at x = 1 sums to it).
    """
    return _close(*_gap_parts(x, eps, "ref_digamma_gap"))


@_reference
def ref_binet_mu(x: float, eps: float = DEFAULT_EPS) -> ErrorBoundedValue:
    """log of the Stirling ratio Gamma(x)/(sqrt(2 pi) x^(x-1/2) e^-x)."""
    return _close(*_kernel_sum(x))


@_reference
def ref_stirling_target(x: float, eps: float = DEFAULT_EPS) -> ErrorBoundedValue:
    """Gamma(x) / (sqrt(2 pi) x^x e^-x), the exponential families' target.

    Computed as exp(mu)/sqrt(x) so the relative radius stays at ulp scale;
    the log/exp round trip through large log-gamma values would not.
    """
    mu = ref_binet_mu(x, math.inf)   # eps judges the target's radius
    value = math.exp(mu.value) / math.sqrt(x)
    if value == math.inf:
        raise DomainError(f"ref_stirling_target({x!r}) passes the largest double")
    return ErrorBoundedValue(value, value * (mu.error_radius + 3.0 * _EPS))


def ref_euler_gamma(eps: float = DEFAULT_EPS) -> ErrorBoundedValue:
    """The Euler-Mascheroni constant, -psi(1) = gap(1), with the gap oracle's radius."""
    _ensure(_EULER_GAMMA.error_radius, _check_eps(eps), "ref_euler_gamma", 1.0)
    return _EULER_GAMMA


@_reference
def ref_digamma(x: float, eps: float = DEFAULT_EPS) -> ErrorBoundedValue:
    """psi(x) = log x - gap(x) at every x (DLMF 5.11.1): log x less the gap's
    parts, rounded once, with the gap's charges and an ulp of log x."""
    parts, charges = _gap_parts(x, eps, "ref_digamma")
    log_x = math.log(x)
    return _close([log_x, *[-part for part in parts]], [*charges, math.ulp(log_x)])


@_reference
def ref_trigamma(x: float, eps: float = DEFAULT_EPS) -> ErrorBoundedValue:
    """psi'(x) = sum_{j>=0} (x + j)^-2: the terms while x + j < 10, as Python
    floats, then the tail, psi'(y) at y = x + count, by its enveloping series.

    x + j rounds by 2^-53, which moves (x + j)^-2 by 2^-52 of itself, and pow
    errs by under one ulp: each term is charged 2 ulps.  Refused before any
    sum where half an ulp of 1/x^2 < psi'(x) exceeds eps.
    """
    _ensure_above(1.0 / x / x, eps, "ref_trigamma", x)
    count = _head_count(x)
    terms = [(x + j) ** -2.0 for j in range(count)]
    mid_parts, half_width, mid_charge = _enveloped_tail(x, count, _TRIGAMMA_SERIES)
    return _close([*terms, *mid_parts], [half_width, 2.0 * _EPS * math.fsum(terms), mid_charge])


@_reference
def ref_log_gamma(x: float, eps: float = DEFAULT_EPS) -> ErrorBoundedValue:
    """log Gamma(x): a series on (0, 2], Stirling's formula above 2.

    On (0, 2], the product-form series at 1 + a, a in (0, 1], less log x
    for x <= 1.  Above 2, mu(x) + (x - 1/2) log x - x + log(2 pi)/2, with the
    cached ref_binet_mu.  Refused before any sum where half an ulp of the
    Stirling part (mu > 0) or the closed-form charges exceed eps; DomainError
    where (x - 1/2) log x overflows.
    """
    return _log_gamma_series(x) if x <= 2.0 else _log_gamma_stirling(x, eps)


def _log_gamma_stirling(x: float, eps: float) -> ErrorBoundedValue:
    h, log_x = x - 0.5, math.log(x)
    product = h * log_x
    stirling = product - x + _HALF_LOG_TWO_PI
    if not math.isfinite(stirling):
        raise DomainError(f"ref_log_gamma({x!r}): (x - 1/2) log x overflows binary64")
    # log Gamma = mu + s*, mu > 0, s* the exact part: s errs by a few ulps of
    # the product, under mu up to x ~ 2e7 and under 2^-48 s from x ~ 2.22, so
    # s (1 - 2^-48) < log Gamma at every x > 2.  Where s < 0 (x < 2.09), half
    # an ulp of |s| < 0.042 is under the product's own charge.
    _ensure_above(stirling, eps, "ref_log_gamma", x)
    charges = [
        abs(x - h - 0.5) * log_x,   # x - h is exact, so this is h's rounding
        h * math.ulp(log_x),
        0.5 * math.ulp(product),
        1.7e-16,                    # _HALF_LOG_TWO_PI
    ]
    _ensure(math.fsum(charges), eps, "ref_log_gamma", x)
    mu = ref_binet_mu(x, math.inf)   # eps judges the total radius
    return _close([mu.value, product, -x, _HALF_LOG_TWO_PI], [*charges, mu.error_radius])


def _log_gamma_series(x: float) -> ErrorBoundedValue:
    # log Gamma(1+a) = -gamma a + sum_{k>=1} [a/k - log(1+a/k)] for
    # a = z0 - 1 in (0, 1], with z0 = x + 1 for x <= 1 (then
    # log Gamma(x) = log Gamma(x+1) - log x) and z0 = x on (1, 2].
    z0 = x + 1.0 if x <= 1.0 else x
    a = z0 - 1.0
    parts, charges = [], []
    if a > 0.0:
        # a/k - log(1 + a/k) = kernel_r(k/a), k/a >= 1, exact for a power of two.
        parts = [kernels.kernel_r(k / a) for k in range(1, 16)]
        rel = _R_REL + _ABSCISSA_REL * (math.frexp(a)[0] != 0.5)
        mid_parts, half_width, mid_charge = _log_gamma_tail(a)
        charges = [half_width, mid_charge, rel * math.fsum(parts)]
        parts.extend(mid_parts)
        parts.append(-_EULER_GAMMA.value * a)
        charges.append(_EULER_GAMMA.error_radius * a + 0.5 * math.ulp(_EULER_GAMMA.value * a))

    if x <= 1.0:
        log_x = math.log(x)
        parts.append(-log_x)
        # The sum is log Gamma(1 + a), off by psi(1 + xi)(x - a), |psi| < 0.5773 on [1, 2];
        # x - a is exact (x itself at a = 0, below 2^-53, where it covers gamma x).
        charges += [2.0 * _EPS * abs(log_x), 0.5773 * abs(x - a)]
    return _close(parts, charges)


def clear_caches() -> None:
    """Drop all memoised oracle values (mainly for benchmarks and tests)."""
    for fn in (ref_digamma_gap, ref_binet_mu, ref_stirling_target,
               ref_digamma, ref_trigamma, ref_log_gamma):
        fn.cache_clear()
