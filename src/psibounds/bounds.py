"""Closed-form bound arguments and two-sided evaluators for all families.

Each family is one row of ``FAMILIES``: the quantity it bounds, the start of
its domain and its (lower, upper) closed forms.  Each of the three targets
has one evaluator keyed by family, so that tightness comparisons are uniform:

  ``digamma_gap_bounds``    encloses log(x) - psi(x)
  ``stirling_ratio_bounds`` encloses Gamma(x) / (sqrt(2 pi) x^x e^-x)
  ``gamma_bounds``          encloses Gamma(x+1) (log forms available)

plus the proof-auxiliary functions, the monotone series representation of
the digamma gap, and ``FUNCTIONS``, the registry of every function that can
be evaluated by name.
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


@dataclass(frozen=True)
class Interval:
    """A two-sided enclosure (lower, upper) of a target quantity."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if math.isfinite(self.lower) and math.isfinite(self.upper):
            if not self.lower < self.upper:
                raise ValueError(f"degenerate interval [{self.lower}, {self.upper}]")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, v: float) -> bool:
        return self.lower < v < self.upper


# -- closed-form arguments ---------------------------------------------------

def alpha(x: float) -> float:
    """Lower-bound trigamma argument x + 1/3."""
    return _check_domain(x) + 1.0 / 3.0


def beta(x: float) -> float:
    """Upper-bound trigamma argument 1/sqrt(2/x - 2 log(1+1/x)).

    Strictly above x, approaches x + 1/3 from below as x grows.
    """
    x = _check_domain(x)
    return 1.0 / math.sqrt(2.0 * kernels.kernel_r(x))


def beta_refined(x: float) -> float:
    """x + 1/3 - 1/(12x+3): a closed-form argument lying in (x, beta(x))."""
    x = _check_domain(x)
    return x + 1.0 / 3.0 - 1.0 / (12.0 * x + 3.0)


def delta_star(x: float) -> float:
    """1 / (2 ((x+1) log(1+1/x) - 1)): the sharp upper Stirling argument."""
    x = _check_domain(x)
    return 0.5 / kernels.kernel_s(x)


def stirling_arg_upper(x: float) -> float:
    """x + 1/3 - 1/(18x+3): simple argument below delta_star."""
    x = _check_domain(x)
    return x + 1.0 / 3.0 - 1.0 / (18.0 * x + 3.0)


def gamma_arg_bounds(x: float) -> tuple[float, float, float]:
    """(lower_arg, upper_arg, refined_lower_arg) for the Gamma(x+1) bounds.

    lower_arg = x/log(x+1); upper_arg = x/2 + 1;
    refined_lower_arg = x/2 + 1 - x^2/(12+2x) < lower_arg for all x > 0.
    """
    x = _check_domain(x)
    lower_arg = x / math.log1p(x)
    upper_arg = 0.5 * x + 1.0
    refined_lower_arg = upper_arg - x * x / (12.0 + 2.0 * x)
    return lower_arg, upper_arg, refined_lower_arg


def tau(k: int, x: float) -> float:
    """[2/(x+k-1) - 2 log(1+1/(x+k-1))]^(-1/2) - k.

    Strictly increasing in k with x - 1 < tau(k, x) < x - 2/3; tau(1, x)
    equals beta(x) - 1.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise DomainError(f"k must be an integer >= 1, got {k!r}")
    x = _check_domain(x)
    y = x + k - 1.0
    # beta(y) - y is evaluated as the stable f auxiliary to dodge the large-y
    # cancellation in (beta(y)) - (k).
    return aux_f(y) + (x - 1.0)


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
#: every other family holds on all of (0, inf).  The closed forms look
#: their helpers up at call time, so a patched module attribute sees every
#: call.
FAMILIES = {
    BoundFamily.EQ4: _FamilyRow("ratio", 0.0, lambda x: (
        _exp_neg_half_digamma(x + 1.0 / 3.0), _exp_neg_half_digamma(x))),
    BoundFamily.EQ5: _FamilyRow("gap", 0.0, lambda x: (
        0.5 * specfun.trigamma(x + 1.0 / 3.0), 0.5 * specfun.trigamma(x))),
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
        0.5 * specfun.trigamma(alpha(x)), 0.5 * specfun.trigamma(beta(x)))),
    BoundFamily.THM22: _FamilyRow("gap", 0.0, lambda x: (
        0.5 * specfun.trigamma(x + 1.0 / 3.0), 0.5 * specfun.trigamma(beta_refined(x)))),
    BoundFamily.THM23: _FamilyRow("ratio", 0.0, lambda x: (
        _exp_neg_half_digamma(x + 1.0 / 3.0),
        _exp_neg_half_digamma(stirling_arg_upper(x)))),
    BoundFamily.THM24: _FamilyRow("gamma", 0.0, _thm24),
}


def _family_bounds(x: float, family: BoundFamily, target: str, what: str) -> Interval:
    x = _check_domain(x)
    row = FAMILIES[family]
    if x < row.domain_min:
        raise DomainError(
            f"{family.value} is only valid for x >= {row.domain_min}, got {x!r}"
        )
    if row.target != target:
        raise DomainError(f"{family.value} does not bound {what}")
    return Interval(*row.bounds(x))


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

    The partial sum is exact apart from rounding; the tail is bracketed by
    replacing tau(k) with its limits x - 2/3 (from above) and beta(x) - 1
    (from below), each summed in closed form via trigamma.  Width shrinks
    like 1/terms^2.
    """
    x = _check_domain(x)
    if not isinstance(terms, int) or isinstance(terms, bool) or terms < 1:
        raise DomainError(f"terms must be an integer >= 1, got {terms!r}")
    partial = 0.5 * math.fsum(
        (k + tau(k, x)) ** -2.0 for k in range(1, terms + 1)
    )
    k_next = terms + 1.0
    tail_low = 0.5 * specfun.trigamma(k_next + x - 2.0 / 3.0)
    tail_high = 0.5 * specfun.trigamma(k_next + beta(x) - 1.0)
    # Guard the enclosure against the few-ulp evaluation noise of the pieces.
    slack = 8.0 * math.ulp(partial + tail_high)
    return Interval(partial + tail_low - slack, partial + tail_high + slack)


# -- proof auxiliaries ---------------------------------------------------------

def aux_f(u: float) -> float:
    """f(u) = [2(1/u - log(1+1/u))]^(-1/2) - u: increasing from 0 to 1/3."""
    u = _check_domain(u, "u")
    r = kernels.kernel_r(u)
    b = 1.0 / math.sqrt(2.0 * r)
    if u < 1e4:
        return b - u
    # For large u the direct difference cancels; expand b = u(1+d)^(-1/2)
    # with d = 2 u^2 r - 1 = O(1/u).
    d = 2.0 * u * u * r - 1.0
    return u * math.expm1(-0.5 * math.log1p(d))


def aux_h(t: float) -> float:
    """h(t) = t - log(1+t) for t >= 0."""
    t = _check_nonnegative(t)
    if t == 0.0:
        return 0.0
    return kernels.u_minus_log1p(t)


def aux_theta(t: float) -> float:
    """theta(t) = h(t) - t^2 / (2 (t+1)^(2/3)): equals 0 at 0, negative after."""
    t = _check_nonnegative(t)
    if t == 0.0:
        return 0.0
    return aux_h(t) - t * t / (2.0 * (t + 1.0) ** (2.0 / 3.0))


def aux_big_h(x: float) -> float:
    """H(x) = log(1+1/x) - 1/x + 1/(2 (x + 1/3 - 1/(12x+3))^2): positive, decreasing."""
    x = _check_domain(x)
    b = beta_refined(x)
    return 0.5 / (b * b) - kernels.kernel_r(x)


def aux_big_p(x: float) -> float:
    """P(x) = log(1+1/x) - (1+12x+12x^2)/(6x(x+1)(2x+1)): negative, increasing."""
    x = _check_domain(x)
    if x < kernels.SERIES_CUTOFF:
        num = 1.0 + 12.0 * x + 12.0 * x * x
        den = 6.0 * x * (x + 1.0) * (2.0 * x + 1.0)
        return math.log1p(1.0 / x) - num / den
    # The rational part matches log(1+u) through u^4; work with the tails so
    # the ~ -u^5/120 result is not drowned by cancellation.
    u = 1.0 / x
    log_tail = math.fsum(
        (-1.0) ** (m + 1) * u**m / m for m in range(5, 17)
    )
    a_poly = (1.0 + u) * (1.0 + 0.5 * u)
    rational_tail = u**5 * (5.0 / 24.0 + u / 8.0) / a_poly
    return log_tail - rational_tail


def aux_p(x: float) -> float:
    """p(x) = log(x+1) - (x^2+6x)/(4x+6): zero at 0, strictly decreasing.

    The asserted sign is p < 0 on (0, inf), forced by p(0) = 0 together with
    p' = -x^2/((x+1)(2x+3)^2) < 0; statements of the opposite sign circulate
    but contradict that monotonicity.
    """
    x = _check_nonnegative(x, "x")
    if x == 0.0:
        return 0.0
    return math.log1p(x) - (x * x + 6.0 * x) / (4.0 * x + 6.0)


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


def aux_eval(name: str, t: float) -> float:
    """Evaluate a function of ``FUNCTIONS`` by name at t.

    The proof auxiliaries are f, h, theta, H, P and p.
    """
    return FUNCTIONS[name](t)
