"""Log-scaled special functions that only the reference routes use.

LogScaled numbers with their products, negation and signed sums; Tricomi U
as a LogScaled value; log-gamma; monic Laguerre polynomials and their
derivatives (the building blocks of the skew-orthogonal polynomials in
``sop``); and the Bessel functions I_n, J_n and K_{m+1/2} (the limiting
border entries).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from scipy.special import ive, jv

from .. import specfun

__all__ = [
    "LogScaled",
    "tricomi_u",
    "negated",
    "log_sum",
    "ln_gamma",
    "laguerre_monic",
    "laguerre_monic_deriv",
    "bessel_i",
    "bessel_j",
    "bessel_k_half",
]


@dataclass(frozen=True)
class LogScaled:
    """A real number stored as (log of magnitude, sign).

    ``sign == 0`` represents an exact zero; ``log_magnitude`` is ignored in
    that case.  Multiplication and division add or subtract logs and multiply
    signs; negation and sums are :func:`negated` and :func:`log_sum`.
    """

    log_magnitude: float
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"invalid sign {self.sign}")

    @classmethod
    def from_value(cls, x: float) -> "LogScaled":
        """Exact conversion of a finite float."""
        if x == 0.0:
            return cls(0.0, 0)
        return cls(math.log(abs(x)), 1 if x > 0 else -1)

    @classmethod
    def zero(cls) -> "LogScaled":
        return cls(0.0, 0)

    @property
    def value(self) -> float:
        """The represented number as a plain float (may over/underflow)."""
        if self.sign == 0:
            return 0.0
        if self.log_magnitude > 709.0:
            return math.inf * self.sign
        return self.sign * math.exp(self.log_magnitude)

    def __mul__(self, other: "LogScaled") -> "LogScaled":
        if self.sign == 0 or other.sign == 0:
            return LogScaled.zero()
        return LogScaled(self.log_magnitude + other.log_magnitude,
                         self.sign * other.sign)

    def __truediv__(self, other: "LogScaled") -> "LogScaled":
        if other.sign == 0:
            raise ZeroDivisionError("division by an exact LogScaled zero")
        if self.sign == 0:
            return LogScaled.zero()
        return LogScaled(self.log_magnitude - other.log_magnitude,
                         self.sign * other.sign)

    def scaled(self, log_factor: float) -> "LogScaled":
        """Multiply by exp(log_factor) without leaving the log domain."""
        if self.sign == 0:
            return self
        return LogScaled(self.log_magnitude + log_factor, self.sign)


def tricomi_u(a: float, b: float, t: float) -> LogScaled:
    """U(a, b, t) as a LogScaled value: the one-row pass of ``hardedge.specfun``,
    looked up at each call so that a patched quadrature is seen here too."""
    return LogScaled(specfun._ln_tricomi([(a, b, t)])[0], 1)


# Rescaling guards for recurrences that can leave the double range.
_BIGNO = 1e250
_BIGNI = 1e-250
_LOG_BIGNO = math.log(_BIGNO)


def negated(value: LogScaled) -> LogScaled:
    """-value, in the log domain."""
    return LogScaled(value.log_magnitude, -value.sign)


def log_sum(values: Iterable[LogScaled]) -> LogScaled:
    """Signed log-sum-exp of several :class:`LogScaled` values.

    The largest magnitude is factored out, the remaining terms are summed as
    plain floats (each at most 1 in magnitude), and the result is rescaled.
    """
    vals = [v for v in values if v.sign != 0]
    if not vals:
        return LogScaled.zero()
    top = max(v.log_magnitude for v in vals)
    acc = sum(v.sign * math.exp(v.log_magnitude - top) for v in vals)
    if acc == 0.0:
        return LogScaled.zero()
    return LogScaled(top + math.log(abs(acc)), 1 if acc > 0 else -1)


def ln_gamma(x: float) -> float:
    """Natural log of the Gamma function for positive real argument."""
    if x <= 0.0:
        raise ValueError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def laguerre_monic(a: int, mu: float, y: float) -> LogScaled:
    """Monic Laguerre polynomial L_a^(mu)(y) = y^a + ...

    Three-term recurrence
    ``L_{n+1} = (y - (2n + mu + 1)) L_n - n (n + mu) L_{n-1}`` seeded with
    ``L_0 = 1`` and the convention ``L_{-1} = 0`` (``a = -1`` returns zero).
    The running pair is rescaled whenever it leaves ``[1/BIGNO, BIGNO]`` so
    arbitrarily high orders are representable.
    """
    if a < -1:
        raise ValueError(f"order must be >= -1, got {a}")
    if a == -1:
        return LogScaled.zero()
    if a == 0:
        return LogScaled.from_value(1.0)
    shift = 0.0
    prev, cur = 1.0, y - (mu + 1.0)
    for n in range(1, a):
        prev, cur = cur, (y - (2 * n + mu + 1.0)) * cur - n * (n + mu) * prev
        mag = abs(cur)
        if mag > _BIGNO:
            prev *= _BIGNI
            cur *= _BIGNI
            shift += _LOG_BIGNO
        elif 0.0 < mag < _BIGNI:
            prev *= _BIGNO
            cur *= _BIGNO
            shift -= _LOG_BIGNO
    if cur == 0.0:
        return LogScaled.zero()
    return LogScaled(math.log(abs(cur)) + shift, 1 if cur > 0 else -1)


def laguerre_monic_deriv(a: int, mu: float, order: int, y: float) -> LogScaled:
    """order-th derivative of the monic Laguerre polynomial at y.

    Uses the exact identity
    ``d^m/dy^m L_a^(mu) = a!/(a-m)! L_{a-m}^(mu+m)``; zero when the order
    exceeds the degree.
    """
    assert order >= 0, "derivative order must be non-negative"
    if order == 0:
        return laguerre_monic(a, mu, y)
    if a - order < 0:
        return LogScaled.zero()
    base = laguerre_monic(a - order, mu + order, y)
    return base.scaled(math.lgamma(a + 1.0) - math.lgamma(a - order + 1.0))


# ------------------------------------------------------------------- Bessel

def bessel_i(n: int, x: float) -> LogScaled:
    """Modified Bessel function of the first kind, integer order n >= 0.

    Power series around the origin, exponentially scaled library evaluation
    (``ive``) elsewhere; both branches positive, so the log is always defined.
    """
    assert n >= 0, "bessel_i order must be non-negative"
    if x < 0.0:
        raise ValueError(f"bessel_i requires x >= 0, got {x}")
    if x == 0.0:
        return LogScaled.from_value(1.0 if n == 0 else 0.0)
    if x < 2.0:
        # I_n(x) = (x/2)^n sum_m (x^2/4)^m / (m! (n+m)!)
        q = 0.25 * x * x
        term = 1.0 / math.gamma(n + 1.0) if n < 170 else 0.0
        if term == 0.0:
            # n! overflows: factor the leading 1/n! into the log instead.
            acc, term_s = 0.0, 1.0
            for m in range(1, 40):
                term_s *= q / (m * (n + m))
                acc += term_s
            return LogScaled(n * math.log(0.5 * x) - math.lgamma(n + 1.0)
                             + math.log1p(acc), 1)
        acc = term
        for m in range(1, 40):
            term *= q / (m * (n + m))
            acc += term
            if term < 1e-18 * acc:
                break
        return LogScaled(n * math.log(0.5 * x) + math.log(acc), 1)
    scaled = ive(n, x)
    assert scaled > 0.0, f"ive({n}, {x}) underflowed"
    return LogScaled(math.log(scaled) + x, 1)


def bessel_j(n: int, x: float) -> float:
    """Bessel function of the first kind J_n(x), plain float."""
    assert n >= 0, "bessel_j order must be non-negative"
    if x < 0.0:
        raise ValueError(f"bessel_j requires x >= 0, got {x}")
    return float(jv(n, x))


def bessel_k_half(m: int, x: float) -> LogScaled:
    """Modified Bessel function of the second kind at half-integer order.

    Returns K_{m+1/2}(x) for integer m >= -1 via the closed forms
    K_{+-1/2}(x) = sqrt(pi/2x) e^(-x) and K_{3/2} = (1 + 1/x) K_{1/2},
    extended upward with K_{s+1} = K_{s-1} + (2s/x) K_s.  The recurrence is
    run on e^x-scaled values (all positive and growing, hence stable) with
    the usual overflow rescaling.
    """
    assert m >= -1, f"order must be m >= -1, got m={m}"
    if x <= 0.0:
        raise ValueError(f"bessel_k_half requires x > 0, got {x}")
    log_half = 0.5 * math.log(math.pi / (2.0 * x)) - x
    if m <= 0:
        return LogScaled(log_half, 1)
    shift = 0.0
    prev, cur = 1.0, 1.0 + 1.0 / x  # K_{1/2}, K_{3/2} over K_{1/2}
    for s_twice in range(3, 2 * m, 2):  # s = 3/2, 5/2, ... in half-integers
        prev, cur = cur, prev + (s_twice / x) * cur
        if cur > _BIGNO:
            prev *= _BIGNI
            cur *= _BIGNI
            shift += _LOG_BIGNO
    return LogScaled(log_half + math.log(cur) + shift, 1)
