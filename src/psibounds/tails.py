"""Two-sided enclosures for the tails of the series used in this package.

Every series summed here has completely monotone terms f(k) (derivatives of
alternating sign), so the Euler-Maclaurin correction sequence envelopes the
true tail: truncating after the -f'/12 term leaves a remainder between
f'''/720 and 0.  Each helper returns a rigorous (lo, hi) pair with

    lo = I + f(m)/2 - f'(m)/12 + f'''(m)/720
    hi = I + f(m)/2 - f'(m)/12

where I is the exact integral of f over [m, inf), evaluated in closed,
cancellation-free form.  The pair always sits strictly inside the coarse
integral-test bracket (I, I + f(m)), which the test suite asserts.
"""

from __future__ import annotations

from . import kernels


def _em2(integral: float, f0: float, d1: float, d3: float) -> tuple[float, float]:
    # d1, d3 <= 0 for completely monotone terms; -d1/12 raises the center,
    # d3/720 is the (negative) enveloped remainder.
    hi = integral + 0.5 * f0 - d1 / 12.0
    lo = hi + d3 / 720.0
    return lo, hi


def gap_tail(y0: float) -> tuple[float, float]:
    """Enclosure of sum_{j>=0} kernel_r(y0 + j)."""
    return _em2(
        kernels.kernel_s(y0),
        kernels.kernel_r(y0),
        kernels.kernel_r_d1(y0),
        kernels.kernel_r_d3(y0),
    )


def mu_tail(y0: float) -> tuple[float, float]:
    """Enclosure of sum_{j>=0} kernel_w(y0 + j)."""
    return _em2(
        kernels.kernel_w_integral(y0),
        kernels.kernel_w(y0),
        kernels.kernel_w_d1(y0),
        kernels.kernel_w_d3(y0),
    )


def polygamma_tail(m: float, n: int) -> tuple[float, float]:
    """Enclosure of sum_{j>=0} (m + j)^-(n+1) for n >= 1."""
    integral = m**-n / n
    f0 = m ** -(n + 1)
    d1 = -(n + 1) * m ** -(n + 2)
    d3 = -(n + 1) * (n + 2) * (n + 3) * m ** -(n + 4)
    return _em2(integral, f0, d1, d3)


def log_gamma_series_tail(m: float, a: float) -> tuple[float, float]:
    """Enclosure of sum_{k>=m} [a/k - log(1 + a/k)]."""
    integral = kernels.kernel_s_scaled(m, a)
    f0 = kernels.u_minus_log1p(a / m)
    d1 = -(a * a) / (m * m * (m + a))
    d3 = -2.0 * a * a * (6.0 * m * m + 8.0 * m * a + 3.0 * a * a) / (m**4 * (m + a) ** 3)
    return _em2(integral, f0, d1, d3)

