"""Enclosures of the tails of the fast path's gap series and the oracle's mu.

The gap tail is an Euler-Maclaurin pair.  Its terms f(k) are completely
monotone (derivatives of alternating sign), so the Euler-Maclaurin
correction sequence envelopes the true tail: truncating after the -f'/12
term leaves a remainder between f'''/720 and 0.  The tail lies between

    lo = I + f(m)/2 - f'(m)/12 + f'''(m)/720
    hi = I + f(m)/2 - f'(m)/12

where I is the exact integral of f over [m, inf), evaluated in closed,
cancellation-free form.  ``gap_tail`` returns the midpoint (lo + hi)/2 and
the half-width -f'''(m)/1440 rounded up (hi - lo loses it below an ulp of
hi).

mu's tail, sum_{j>=0} kernel_w(m + j), is mu(m) itself, and mu's Stirling
series envelopes for real m (DLMF 5.11(ii)): mu(m) lies between
1/(12m) - 1/(360m^3) and that plus the first omitted term, 1/(1260m^5).
"""

from __future__ import annotations

import math

from . import kernels


def gap_tail(y0: float) -> tuple[float, float]:
    """(midpoint, half-width) of sum_{j>=0} kernel_r(y0 + j)."""
    # d1, d3 <= 0: -d1/12 raises the center, d3/720 is the (negative)
    # enveloped remainder.
    d3 = kernels.kernel_r_d3(y0)
    hi = kernels.kernel_s(y0) + 0.5 * kernels.kernel_r(y0) - kernels.kernel_r_d1(y0) / 12.0
    lo = hi + d3 / 720.0
    return 0.5 * (lo + hi), math.nextafter(-d3 / 1440.0, math.inf)


def mu_tail(y0: float) -> tuple[float, float]:
    """(midpoint, half-width) of sum_{j>=0} kernel_w(y0 + j) = mu(y0).

    The midpoint 1/(12y) - 1/(360y^3) + 1/(2520y^5) in u = 1/y, and the
    half-width 1/(2520y^5), correctly rounded by an integer division at
    y = p/q and then rounded up (y**-5.0 / 2520 can be more than the one ulp
    that rounding up adds below it, as at y = 2.7133848983425094e19).
    """
    u = 1.0 / y0
    v = u * u
    p, q = y0.as_integer_ratio()
    return (((v / 2520.0 - 1.0 / 360.0) * v + 1.0 / 12.0) * u,
            math.nextafter(q**5 / (2520 * p**5), math.inf))
