"""Closed-form bound arguments and two-sided evaluators for all families.

Each family is one row of ``FAMILIES``: the quantity it bounds, the start of
its domain and its (lower, upper) closed forms.  Each of the three targets
has one evaluator keyed by family, so that tightness comparisons are uniform:

  ``digamma_gap_bounds``    encloses log(x) - psi(x)
  ``stirling_ratio_bounds`` encloses Gamma(x) / (sqrt(2 pi) x^x e^-x)
  ``gamma_bounds``          encloses Gamma(x+1) (log forms available)

plus the proof-auxiliary functions, the monotone series representation of
the digamma gap, and ``FUNCTIONS``, the registry of every function that can
be evaluated by name.  From x = 1, f, beta, H and P are written in
t = 1/(2x + 1) through one series V and do not cancel: from 1 and from 16,
f is within 1.0 and 0.9 ulps, beta 0.8 and 0.5, H 3.1 and 2.4, P 5.1 and 4.4
(tests/test_bounds.py).  P takes it from x = 1/2 (5.2 ulps on [1/2, 1)), and
p in t = x/(x + 2) up to x = 2 (6.7 on (1, 2]).  theta up to t = 1/16 takes
its own series, and up to 4 a form in z = ((1 + t)^(1/3) - 1)/((1 + t)^(1/3) + 1)
that does not cancel; from 1e6 its direct form takes (t + 1)^(2/3) as the
square of a cube root refined by one Newton step (2.8 ulps on [1e6, 1e200]).
A gap interval costs a bounded number of operations at every x: a few where
its sides are rational in x (eq9), one psi' sum a side (eq5, thm21, thm22).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

from . import kernels, specfun
from .errors import DomainError
from .kernels import _check_domain, _check_nonnegative


class BoundFamily(enum.Enum):
    """Bound families, tagged by their lowercase CLI names."""

    EQ4 = "eq4"
    EQ5 = "eq5"
    EQ6 = "eq6"
    EQ7 = "eq7"
    EQ8 = "eq8"
    EQ9 = "eq9"
    EQ9R1 = "eq9r1"
    EQ9R2 = "eq9r2"
    THM21 = "thm21"
    THM22 = "thm22"
    THM23 = "thm23"
    THM24 = "thm24"

    # Members are singletons compared by identity; Enum's own __hash__ hashes
    # the name in Python code on every FAMILIES lookup.
    __hash__ = object.__hash__

    @property
    def domain_min(self) -> float:
        return FAMILIES[self].domain_min

    @property
    def target(self) -> str:
        """Which quantity the family bounds: 'gap', 'ratio' or 'gamma'."""
        return FAMILIES[self].target

    @classmethod
    def parse(cls, tag: str) -> "BoundFamily":
        try:
            return cls(tag.strip().lower())
        except ValueError:
            raise KeyError(f"unknown bound family {tag!r}") from None


@dataclass(frozen=True, slots=True, init=False)
class Interval:
    """A two-sided enclosure (lower, upper) of a target quantity."""

    lower: float
    upper: float

    def __init__(self, lower: float, upper: float) -> None:
        # One check, two stores: the slots' own setters pass the frozen __setattr__.
        if not lower < upper:
            raise ValueError(f"degenerate interval [{lower}, {upper}]")
        _set_lower(self, lower)
        _set_upper(self, upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, v: float) -> bool:
        return self.lower < v < self.upper


_set_lower, _set_upper = Interval.lower.__set__, Interval.upper.__set__


# -- closed-form arguments ---------------------------------------------------

def alpha(x: float) -> float:
    """Lower-bound trigamma argument x + 1/3."""
    return _check_domain(x) + 1.0 / 3.0


def _shifted_atanh(v: float) -> float:
    # V(v) = sum_{j>=0} v^j/(2j + 5), so that atanh(t) = t (1 + v/3 + v^2 V) at
    # v = t^2 (DLMF 4.6(i)).  For v <= 1/9 (x >= 1) 18 terms leave it short by
    # under v^18/(41(1 - v)), 2^-59 of V >= 1/5; up to v = 1/4 (x >= 1/2) 30
    # terms by under v^30/(65(1 - v)), 2^-62 of V.  Straight-line Horner from acc = 0.
    acc = 0.0
    if v > 1/9:
        acc = (((((((((((1/63 * v + 1/61) * v + 1/59) * v + 1/57) * v + 1/55) * v + 1/53) * v
                    + 1/51) * v + 1/49) * v + 1/47) * v + 1/45) * v + 1/43) * v + 1/41) * v
    return (((((((((((((((((acc + 1/39) * v + 1/37) * v + 1/35) * v + 1/33) * v + 1/31) * v
            + 1/29) * v + 1/27) * v + 1/25) * v + 1/23) * v + 1/21) * v + 1/19) * v + 1/17) * v
            + 1/15) * v + 1/13) * v + 1/11) * v + 1/9) * v + 1/7) * v + 1/5


def _t_fifth(x: float) -> float:
    # t^5 = (2x + 1)^-5 for x >= 1/2 by pow, which underflows gradually from
    # x ~ 1e61.  s = x + 0.5 rounds, by e = (x + 0.5) - s, exact by TwoSum;
    # (1 - 5e/s) keeps pow from raising that rounding to the fifth power.
    s = x + 0.5
    return 2.0**-5 * s**-5.0 * (1.0 - 5.0 * specfun._add_error(x, 0.5, s) / s)


def beta(x: float) -> float:
    """Upper-bound trigamma argument 1/sqrt(2/x - 2 log(1+1/x)).

    Strictly above x, approaches x + 1/3 from below as x grows; x + f(x)
    from x = 1, so it neither cancels nor underflows.
    """
    return _beta(_check_domain(x))


def _beta(x: float) -> float:
    # beta for an x already checked; with _aux_f, x's one check serves both.
    if x >= 1.0:
        return x + _aux_f(x)
    return 1.0 / math.sqrt(2.0 * kernels.kernel_r(x))


def beta_refined(x: float) -> float:
    """x + 1/3 - 1/(12x+3), in (x, beta(x)): as x + x/(3x + 3/4), which neither
    cancels nor overflows."""
    x = _check_domain(x)
    return x + x / (3.0 * x + 0.75)


def delta_star(x: float) -> float:
    """1 / (2 ((x+1) log(1+1/x) - 1)): the sharp upper Stirling argument."""
    x = _check_domain(x)
    if x >= 2.0**53:   # in (x, x + 1/3), which rounds to x; kernel_s goes subnormal
        return x
    return 0.5 / kernels.kernel_s(x)


def stirling_arg_upper(x: float) -> float:
    """x + 1/3 - 1/(18x+3), below delta_star: as x + x/(3x + 1/2), which neither
    cancels nor overflows."""
    x = _check_domain(x)
    return x + x / (3.0 * x + 0.5)


def gamma_arg_bounds(x: float) -> tuple[float, float, float]:
    """(lower_arg, upper_arg, refined_lower_arg) for the Gamma(x+1) bounds.

    lower_arg = x/log(x+1); upper_arg = x/2 + 1;
    refined_lower_arg = x/2 + 1 - x^2/(12+2x) < lower_arg for all x > 0, as
    4(x + 3/2)/(x + 6), which neither cancels nor overflows.
    """
    x = _check_domain(x)
    lower_arg = x / math.log1p(x)
    upper_arg = 0.5 * x + 1.0
    refined_lower_arg = 4.0 * ((x + 1.5) / (x + 6.0))
    return lower_arg, upper_arg, refined_lower_arg


def tau(k: int, x: float) -> float:
    """[2/(x+k-1) - 2 log(1+1/(x+k-1))]^(-1/2) - k.

    Strictly increasing in k with x - 1 < tau(k, x) < x - 2/3; tau(1, x)
    equals beta(x) - 1.  DomainError where x + k - 1 passes the largest double.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise DomainError(f"k must be an integer >= 1, got {k!r}")
    x = _check_domain(x)
    try:
        y = x + (k - 1)   # one rounding; (x + k) - 1 would lose x's digits at k = 1
    except OverflowError:   # k - 1 itself passes the largest double
        y = math.inf
    if y == math.inf:
        raise DomainError("tau: x + k - 1 passes the largest double")
    # beta(y) - y is evaluated as the stable f auxiliary to dodge the large-y
    # cancellation in (beta(y)) - (k).
    return _aux_f(y) + (x - 1.0)


# -- bound evaluators --------------------------------------------------------

def _exp_neg_half_digamma(z: float) -> float:
    # exp(-psi(z)/2) = exp(gap(z)/2) / sqrt(z); keeps the relative error at
    # ulp scale, which exp(-digamma(z)/2) would lose for large z.
    return math.exp(0.5 * specfun.digamma_gap(z)) / math.sqrt(z)


def _eq6(x: float) -> tuple[float, float]:
    lower = _exp_neg_half_digamma(x + 1.0 / 3.0) * math.exp(1.0 / (72.0 * x * x))
    return lower, lower * math.exp(11.0 / (3240.0 * x**3))


def _eq8(x: float) -> tuple[float, float]:
    lower_arg, upper_arg, _ = gamma_arg_bounds(x)
    return x * specfun.digamma(lower_arg), x * specfun.digamma(upper_arg)


def _thm24(x: float) -> tuple[float, float]:
    _, upper_arg, refined_lower_arg = gamma_arg_bounds(x)
    return x * specfun.digamma(refined_lower_arg), x * specfun.digamma(upper_arg)


@dataclass(frozen=True)
class _FamilyRow:
    target: str  # 'gap', 'ratio' or 'gamma'
    domain_min: float
    bounds: Callable[[float], tuple[float, float]]  # x -> (lower, upper)


#: One row per family.  Only the eq6 refinement is proved from 2 upward;
#: every other family holds on all of (0, inf).  The closed forms look their
#: helpers up at call time, so a patched module attribute sees every call; psi'
#: and beta are taken past their checks, as their arguments are positive and
#: finite.
FAMILIES = {
    BoundFamily.EQ4: _FamilyRow("ratio", 0.0, lambda x: (
        _exp_neg_half_digamma(x + 1.0 / 3.0), _exp_neg_half_digamma(x))),
    BoundFamily.EQ5: _FamilyRow("gap", 0.0, lambda x: (
        0.5 * specfun._polygamma(1, x + 1.0 / 3.0), 0.5 * specfun._polygamma(1, x))),
    BoundFamily.EQ6: _FamilyRow("ratio", 2.0, _eq6),
    BoundFamily.EQ7: _FamilyRow("ratio", 0.0, lambda x: (
        _exp_neg_half_digamma(x + 1.0 / 3.0), _exp_neg_half_digamma(delta_star(x)))),
    BoundFamily.EQ8: _FamilyRow("gamma", 0.0, _eq8),
    BoundFamily.EQ9: _FamilyRow("gap", 0.0, lambda x: (0.5 / x, 1.0 / x)),
    BoundFamily.EQ9R1: _FamilyRow("gap", 0.0, lambda x: (
        0.5 / x + 1.0 / (12.0 * (x + 0.25) ** 2),
        0.5 / x + 1.0 / (12.0 * x * x))),
    BoundFamily.EQ9R2: _FamilyRow("gap", 0.0, lambda x: (
        0.5 / x + 1.0 / (12.0 * x * x) - 1.0 / (12.0 * x**4),
        0.5 / x + 1.0 / (12.0 * x * x) - 1.0 / (120.0 * (x + 0.125) ** 4))),
    BoundFamily.THM21: _FamilyRow("gap", 0.0, lambda x: (
        0.5 * specfun._polygamma(1, x + 1.0 / 3.0), 0.5 * specfun._polygamma(1, _beta(x)))),
    BoundFamily.THM22: _FamilyRow("gap", 0.0, lambda x: (
        0.5 * specfun._polygamma(1, x + 1.0 / 3.0),
        0.5 * specfun._polygamma(1, beta_refined(x)))),
    BoundFamily.THM23: _FamilyRow("ratio", 0.0, lambda x: (
        _exp_neg_half_digamma(x + 1.0 / 3.0),
        _exp_neg_half_digamma(stirling_arg_upper(x)))),
    BoundFamily.THM24: _FamilyRow("gamma", 0.0, _thm24),
}


def _family_bounds(x: float, family: BoundFamily, target: str, what: str) -> Interval:
    x = _check_domain(x)
    row = FAMILIES[family]
    if x < row.domain_min:
        raise DomainError(f"{family.value} is only valid for x >= {row.domain_min}, got {x!r}")
    if row.target != target:
        raise DomainError(f"{family.value} does not bound {what}")
    try:
        lower, upper = row.bounds(x)
    except (OverflowError, ZeroDivisionError):
        lower = upper = math.inf
    if not (math.isfinite(lower) and math.isfinite(upper)):
        # A closed form passes the largest double (exp, pow, a product or a
        # quotient), or divides by a square or power of x that underflowed to 0.
        raise DomainError(
            f"{family.value}: evaluating its bounds at x={x!r} overflows binary64")
    return Interval(lower, upper)


def digamma_gap_bounds(x: float, family: BoundFamily) -> Interval:
    """Two-sided bounds on log(x) - psi(x) for the gap families."""
    return _family_bounds(x, family, "gap", "the digamma gap")


def stirling_ratio_bounds(x: float, family: BoundFamily) -> Interval:
    """Two-sided bounds on Gamma(x) / (sqrt(2 pi) x^x e^-x)."""
    return _family_bounds(x, family, "ratio", "the Stirling ratio")


def gamma_bounds_log(x: float, family: BoundFamily) -> Interval:
    """Bounds on log Gamma(x+1): the exponent forms x * psi(argument).

    Finite for every x > 0, unlike the exponentiated bounds which overflow
    doubles once x exceeds a few hundred.
    """
    return _family_bounds(x, family, "gamma", "Gamma(x+1)")


def gamma_from_log(log_gamma_value: float) -> float:
    """Gamma from its logarithm; DomainError where Gamma passes the largest double."""
    try:
        return math.exp(log_gamma_value)
    except OverflowError:
        raise DomainError(
            f"Gamma overflows doubles (log Gamma = {log_gamma_value!r}); "
            "use eval log_gamma"
        ) from None


def gamma_bounds(x: float, family: BoundFamily) -> Interval:
    """Two-sided bounds on Gamma(x+1) itself (exponentiated forms)."""
    log_iv = gamma_bounds_log(x, family)
    try:
        return Interval(math.exp(log_iv.lower), math.exp(log_iv.upper))
    except OverflowError:
        raise DomainError(
            f"Gamma({x}+1) bounds overflow doubles; use gamma_bounds_log"
        ) from None


def g_c(x: float, c: float) -> float:
    """log Gamma(x) - x log x + x - log(2 pi)/2 + psi(x+c)/2.

    Positive for c = 1/3 and negative for c = 0 on all of (0, inf); tends to
    0 at infinity.  Assembled from small terms so the sign is reliable even
    where the value is ~1e-14.
    """
    x = _check_domain(x)
    c = float(c)
    if c < 0.0 or not x + c > 0.0:
        raise DomainError(f"need c >= 0 and x + c > 0, got x={x!r}, c={c!r}")
    # S(x) + psi(x+c)/2 = mu(x) + log1p(c/x)/2 - gap(x+c)/2, all O(1/x) terms.
    return math.fsum(
        [
            specfun.binet_mu(x),
            0.5 * math.log1p(c / x),
            -0.5 * specfun.digamma_gap(x + c),
        ]
    )


def gap_via_tau_series(x: float, terms: int) -> Interval:
    """Enclose log(x) - psi(x) by the monotone series (1/2) sum 1/(k+tau(k))^2.

    The partial sum is exact apart from rounding: k + tau(k) is beta(x + k - 1),
    which does not cancel as k + tau(k) does.  The tail is bracketed by
    replacing tau(k) with its limits x - 2/3 (from above) and beta(x) - 1
    (from below), each summed in closed form via trigamma.  Width shrinks
    like 1/terms^2.
    """
    x = _check_domain(x)
    if not isinstance(terms, int) or isinstance(terms, bool) or terms < 1:
        raise DomainError(f"terms must be an integer >= 1, got {terms!r}")
    partial = 0.5 * math.fsum(beta(x + (k - 1)) ** -2.0 for k in range(1, terms + 1))
    k_next = terms + 1.0
    tail_low = 0.5 * specfun.trigamma(k_next + x - 2.0 / 3.0)
    tail_high = 0.5 * specfun.trigamma(k_next + beta(x) - 1.0)
    # Guard the enclosure against the few-ulp evaluation noise of the pieces.
    slack = 8.0 * math.ulp(partial + tail_high)
    return Interval(partial + tail_low - slack, partial + tail_high + slack)


# -- proof auxiliaries ---------------------------------------------------------

def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise DomainError(f"{what} passes the largest double")
    return value


def aux_f(u: float) -> float:
    """f(u) = [2(1/u - log(1+1/u))]^(-1/2) - u: increasing from 0 to 1/3.

    From u = 1, with t = 1/(2u + 1), V of ``_shifted_atanh``, g = 1 + (1 - t)^2
    (t^2 V + 1/3) and s = sqrt(1 - t g), beta = (1 - t)/(2ts) and f is
    (1 - t) g/(2s(1 + s)): 1/3 less an O(t) part, which does not cancel.
    """
    return _aux_f(_check_domain(u, "u"))


def _aux_f(u: float) -> float:
    # f for a u already checked.
    if u < 1.0:
        return _beta(u) - u
    t = 0.5 / (u + 0.5)
    big_v = _shifted_atanh(t * t)
    g = 1.0 + (1.0 - t) ** 2 * (t * t * big_v + 1.0 / 3.0)
    s = math.sqrt(1.0 - t * g)
    small = 2.0 - t - 3.0 * t * (1.0 - t) ** 2 * big_v - t * g * g / (1.0 + s) ** 2
    return 1.0 / 3.0 - t * small / (6.0 * s * (1.0 + s))


def aux_h(t: float) -> float:
    """h(t) = t - log(1+t) for t >= 0."""
    return kernels.u_minus_log1p(_check_nonnegative(t))


def aux_theta(t: float) -> float:
    """theta(t) = h(t) - t^2 / (2 (t+1)^(2/3)): equals 0 at 0, negative after.

    Up to t = 1/16, where the difference cancels, its series -t^4/36 + ...
    through t^17 (exact coefficients; truncated below 5e-17 relative).  Up to
    4, with s = (1 + t)^(1/3), d = s - 1 = t/(s^2 + s + 1) and z = d/(s + 1),
    exactly -d^4 ((s + 1)/s)^2 (z^2 + 3) c/32 - 6z^5 V(z^2) (V of ``_shifted_atanh``),
    c = z^3 - 2z^2 - z + 6 in [4, 6]: no cancellation.  Then the direct form,
    with (t + 1)^(2/3) from t = 1e6 the square of c = (t + 1)^(1/3) after one
    Newton step c += ((t + 1)/c^2 - c)/3.
    """
    t = _check_nonnegative(t)
    if t <= 0.0625:
        return ((((((((((((((15968225149/177826004451 * t - 1664324453/18596183472) * t
                + 172477237/1937102445) * t - 159777557/1807962282) * t
                + 16311749/186535791) * t - 1648631/19131876) * t + 1480892/17537553) * t
                - 24238/295245) * t + 1553/19683) * t - 3911/52488) * t + 349/5103) * t
                - 29/486) * t + 19/405) * t - 1/36) * t**4.0 + 0.0)   # + 0.0: theta(0) = +0
    if t <= 4.0:
        s = (1.0 + t) ** (1.0 / 3.0)
        d = t / ((s + 1.0) * s + 1.0)
        z = d / (s + 1.0)
        v = z * z
        return (-(d * d) ** 2 * ((s + 1.0) / s) ** 2 * (v + 3.0)
                * (((z - 2.0) * z - 1.0) * z + 6.0) / 32.0 - 6.0 * v * v * z * _shifted_atanh(v))
    # pow's rounded exponent 2/3 errs by ~3.7e-17 log t relative.  From 1e6
    # one Newton step on the cube root removes its exponent's error; up to 1e6
    # pow alone is closer (6.0 ulps on [26, 1e6], against 6.8 with the step).
    u = t + 1.0
    if t < 1e6:
        q = u ** (2.0 / 3.0)
    else:
        c = u ** (1.0 / 3.0)
        c += (u / (c * c) - c) / 3.0
        q = c * c
    # t * (t / ...), as t^2 / ... overflows from t ~ 1.3e154; theta from 2.6e231.
    return _finite(aux_h(t) - t * (0.5 * t / q), f"theta({t!r})")


def aux_big_h(x: float) -> float:
    """H(x) = log(1+1/x) - 1/x + 1/(2 (x + 1/3 - 1/(12x+3))^2): positive, decreasing.

    From x = 1, with log(1+1/x) = 2 atanh(t) at t = 1/(2x + 1), exactly
    t^5 (2V + 2(t + 2)(t + 8)/(3(1 - t)^2 (t + 6)^2)) for the series V of
    ``_shifted_atanh``: both parts are positive, so nothing cancels.
    """
    x = _check_domain(x)
    if x >= 1.0:
        t = 0.5 / (x + 0.5)
        rational = 2.0 * (t + 2.0) * (t + 8.0) / (3.0 * (1.0 - t) ** 2 * (t + 6.0) ** 2)
        return _t_fifth(x) * (2.0 * _shifted_atanh(t * t) + rational)
    b = beta_refined(x)   # 0.5/b/b, as b*b underflows at small x
    # H ~ 0.09/x^2 passes the largest double below x ~ 2.3e-155.
    return _finite(0.5 / b / b, f"H({x!r})") - kernels.kernel_r(x)


def aux_big_p(x: float) -> float:
    """P(x) = log(1+1/x) - (1+12x+12x^2)/(6x(x+1)(2x+1)): negative, increasing.

    From x = 1/2, as for H, exactly 2t^5 (V - 1/(3(1 - v))) at v = t^2, where
    V < 1/(5(1 - v)): nothing cancels.
    """
    x = _check_domain(x)
    if x >= 0.5:
        t = 0.5 / (x + 0.5)
        v = t * t
        return 2.0 * _t_fifth(x) * (_shifted_atanh(v) - 1.0 / (3.0 * (1.0 - v)))
    # log(1 + 1/x) = log1p(x) - log x, as 1/x overflows at subnormal x.  P ~ -1/(6x)
    # passes the largest double below x ~ 9.3e-310; above, 6x keeps 50 bits.
    rational = (1.0 + 12.0 * x + 12.0 * x * x) / (6.0 * x * (x + 1.0) * (2.0 * x + 1.0))
    return (math.log1p(x) - math.log(x)) - _finite(rational, f"P({x!r})")


def aux_p(x: float) -> float:
    """p(x) = log(x+1) - (x^2+6x)/(4x+6): zero at 0, strictly decreasing.

    The asserted sign is p < 0 on (0, inf), forced by p(0) = 0 together with
    p' = -x^3/((x+1)(2x+3)^2) < 0 (so p ~ -x^4/36); statements of the
    opposite sign circulate but contradict that monotonicity.  Up to x = 2,
    where the difference cancels, log(1+x) = 2 atanh(t) with t = x/(x+2) gives
    p = 2t^4 (t V(t^2) - (2+t)/(3(1-t)(3+t))) for V(v) = sum_{j>=0} v^j/(2j+5)
    of ``_shifted_atanh`` (t^2 <= 1/4).
    """
    x = _check_nonnegative(x, "x")
    if x <= 2.0:
        t = x / (2.0 + x)
        s = t * t
        rational = (2.0 + t) / (3.0 * (1.0 - t) * (3.0 + t))
        return 2.0 * s * s * (t * _shifted_atanh(s) - rational) + 0.0   # + 0.0: p(0) = +0
    return math.log1p(x) - 0.25 * x * ((x + 6.0) / (x + 1.5))   # x(x + 6)/(4x + 6), no x^2


class _Registry(dict):
    """A name -> callable dict whose misses name the valid choices."""

    def __missing__(self, name: str):
        raise KeyError(f"unknown function {name!r}; choose from {sorted(self)}")


#: Every function of one real argument that can be evaluated by name.  Each
#: entry looks its function up at call time, so a patched module attribute
#: sees every call.
FUNCTIONS = _Registry(
    gamma=lambda x: gamma_from_log(specfun.log_gamma(x)),
    log_gamma=lambda x: specfun.log_gamma(x),
    digamma=lambda x: specfun.digamma(x),
    trigamma=lambda x: specfun.trigamma(x),
    stirling_ratio=lambda x: specfun.stirling_ratio(x),
    beta=lambda x: beta(x),
    delta_star=lambda x: delta_star(x),
    f=lambda u: aux_f(u),
    h=lambda t: aux_h(t),
    theta=lambda t: aux_theta(t),
    H=lambda x: aux_big_h(x),
    P=lambda x: aux_big_p(x),
    p=lambda x: aux_p(x),
)
