"""The oracle's mu tail: sum_{j>=0} kernel_w(m + j) is mu(m) itself, and mu's
Stirling series envelopes for real m (DLMF 5.11(ii)), so mu(m) lies between
1/(12m) - 1/(360m^3) and that plus the first omitted term, 1/(1260m^5).
"""

from __future__ import annotations

import math


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
