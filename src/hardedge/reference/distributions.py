"""Classical closed forms of the smallest-eigenvalue density.

At the two lowest topologies, nu = 0 and nu = 2, the density has closed
forms in one or two Tricomi U functions and Laguerre polynomials.  The
general Pfaffian assembly of ``hardedge.distributions`` must reproduce
them; they are kept here as independent cross-checks.
"""

from __future__ import annotations

import math

from scipy.special import eval_genlaguerre, gammaln

from .specfun import LogScaled, log_sum, tricomi_u

__all__ = ["closed_form_k0", "closed_form_k1"]


def closed_form_k0(p: int, t: float) -> float:
    """Smallest-eigenvalue density at nu = 0 in its classical closed form.

    P(t) = p! / (2^(p-1/2) Gamma(p/2)) t^(-1/2) e^(-pt/2) U((p-1)/2, -1/2, t/2)
    """
    assert p >= 2, f"the closed form needs p >= 2, got {p}"
    if t <= 0.0:
        raise ValueError(f"the density needs t > 0, got {t}")
    ln_pre = gammaln(p + 1) - (p - 0.5) * math.log(2.0) - gammaln(p / 2) \
        - 0.5 * p * t - 0.5 * math.log(t)
    return tricomi_u((p - 1) / 2, -0.5, 0.5 * t).scaled(ln_pre).value


def closed_form_k1(p: int, t: float) -> float:
    """Smallest-eigenvalue density at nu = 2 in its classical closed form.

    P(t) = Gamma((p+1)/2)/sqrt(2 pi) sqrt(t) e^(-pt/2)
           [U((p-1)/2, -1/2, t/2) L_{p-1}^(2)(-t)
            + (t/2) U((p+1)/2, 1/2, t/2) L_{p-2}^(3)(-t)]
    """
    assert p >= 2, f"the closed form needs p >= 2, got {p}"
    if t <= 0.0:
        raise ValueError(f"the density needs t > 0, got {t}")
    first = tricomi_u((p - 1) / 2, -0.5, 0.5 * t) \
        * LogScaled.from_value(float(eval_genlaguerre(p - 1, 2, -t)))
    second = (tricomi_u((p + 1) / 2, 0.5, 0.5 * t)
              * LogScaled.from_value(float(eval_genlaguerre(p - 2, 3, -t)))
              ).scaled(math.log(0.5 * t))
    ln_pre = gammaln((p + 1) / 2) - 0.5 * math.log(2.0 * math.pi) \
        + 0.5 * math.log(t) - 0.5 * p * t
    return log_sum([first, second]).scaled(ln_pre).value
