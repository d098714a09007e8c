"""Log-scaled scalar special functions.

The finite-size kernels and distributions are assembled from the functions
in this module: log-scaled arithmetic and Tricomi's confluent
hypergeometric function U(a, b, t), singly or as a whole chain in a.  Its
order-doubling Gauss-Legendre loop is the only one in the package: the
hard-edge quadratures in ``microscopic`` run through it as well, each
caller with its own tolerance.  The functions only the reference routes
use (log-gamma, monic Laguerre polynomials, Bessel functions) live in
``hardedge.reference.specfun``.

Quantities such as Gamma[(p+k+1)/2] * U(...) pair enormous factors that cancel
only at the very end of an assembly, so every function that can leave the
floating-point range returns a :class:`LogScaled` value.  Conversion to a
plain float happens at final assembly where ratios are O(1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.linalg import solve_banded
from scipy.optimize import brentq

__all__ = [
    "LogScaled",
    "log_sum",
    "tricomi_u",
    "tricomi_u_chain",
]


@dataclass(frozen=True)
class LogScaled:
    """A real number stored as (log of magnitude, sign).

    ``sign == 0`` represents an exact zero; ``log_magnitude`` is ignored in
    that case.  Multiplication and division add or subtract logs and multiply
    signs; sums of several values go through :func:`log_sum`.
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

    def __neg__(self) -> "LogScaled":
        return LogScaled(self.log_magnitude, -self.sign)

    def scaled(self, log_factor: float) -> "LogScaled":
        """Multiply by exp(log_factor) without leaving the log domain."""
        if self.sign == 0:
            return self
        return LogScaled(self.log_magnitude + log_factor, self.sign)


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


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1], cached."""
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


# Highest Gauss-Legendre order tried before giving up.
_MAX_ORDER = 12288


def _settled_integral(integrand, order: int, tol: float, floor: float, what: str):
    """Integrate over [0, 1] by Gauss-Legendre, doubling the order from
    ``order`` until two successive values agree to tol * max(floor, |value|).

    The integrand may be array-valued, nodes on its last axis, as for a whole
    kernel matrix; the order doubles until every entry has settled.  Raises
    RuntimeError naming ``what`` once the order would pass 12288.
    """
    order, previous = max(order, 8), None
    while order <= _MAX_ORDER:
        nodes, weights = _gauss_legendre(order)
        current = integrand(0.5 * (nodes + 1.0)) @ (0.5 * weights)
        if previous is not None and np.all(
                np.abs(current - previous) <= tol * np.maximum(floor, np.abs(current))):
            return current
        previous, order = current, 2 * order
    raise RuntimeError(f"{what} did not settle up to order {_MAX_ORDER}")


# ----------------------------------------------------------------- Tricomi U


def tricomi_u(a: float, b: float, t: float) -> LogScaled:
    """Tricomi's confluent hypergeometric function U(a, b, t), log domain.

    Evaluates the integral representation

        U(a, b, t) = 1/Gamma(a) * int_0^inf z^(a-1) (1+z)^(b-a-1) e^(-t z) dz

    after the substitution z = e^v, which turns the integrand into
    exp(h(v)) with ``h(v) = a v + (b - a - 1) log(1 + e^v) - t e^v``.  For
    every (a, b) pair used here h has a single interior maximum (strictly so
    when b <= a + 1, where h is concave); Brent's method finds the peak as
    the root of h' and the two ends of the window where h has dropped 60 nats
    below it.  Both sides of the peak go through one Gauss-Legendre rule
    whose order doubles from 48 until two successive values agree to 5e-13.

    a = 0 returns 1 exactly (empty-product convention used by the
    skew-orthogonal norm at index 0).  Serves as the anchor of
    :func:`tricomi_u_chain`, so it is evaluated up to a ~ l/2 for l kernel
    polynomials; it is tested up to a = 2003 and t down to 1e-8, without
    overflow or underflow.  Raises RuntimeError if two successive values
    still disagree at order 12288.
    """
    if a == 0.0:
        return LogScaled.from_value(1.0)
    if a < 0.0 or t <= 0.0:
        raise ValueError(f"tricomi_u requires a >= 0 and t > 0, got a={a}, t={t}")

    c = b - a - 1.0

    def h(v: np.ndarray) -> np.ndarray:
        return a * v + c * np.log1p(np.exp(-np.abs(v))) + c * np.maximum(v, 0.0) \
            - t * np.exp(v)

    def h1(v: float) -> float:
        # Scalar twin of h for the peak and window searches, which evaluate
        # one point at a time and dominate the runtime if routed through numpy.
        return a * v + c * math.log1p(math.exp(-abs(v))) + c * max(v, 0.0) \
            - t * math.exp(v)

    def dh(v: float) -> float:
        sig = 1.0 / (1.0 + math.exp(-v))
        return a + c * sig - t * math.exp(v)

    # Bracket the peak: h' > 0 far left (h' -> a), h' < 0 far right.
    lo = math.log(max(a + min(c, 0.0), a / 2) / t) - 2.0
    hi = math.log((a + max(c, 0.0)) / t) + 2.0
    while dh(lo) <= 0.0:
        lo -= 4.0
    while dh(hi) >= 0.0:
        hi += 4.0
    peak = brentq(dh, lo, hi)
    h_peak = h1(peak)

    def window_edge(direction: float) -> float:
        # h is monotone on each side of the peak; step out until 60 nats down.
        step = 1.0
        while h1(peak + direction * step) - h_peak > -60.0:
            step *= 2.0
        return brentq(lambda v: h1(v) - h_peak + 60.0, peak, peak + direction * step)

    left, right = window_edge(-1.0), window_edge(+1.0)
    starts = np.array([[left], [peak]])
    widths = np.array([peak - left, right - peak])

    def integrand(s: np.ndarray) -> np.ndarray:
        # The two sides of the peak, each mapped onto [0, 1], summed.
        return widths @ np.exp(h(starts + widths[:, None] * s) - h_peak)

    total = _settled_integral(integrand, 48, 5e-13, 0.0,
                              f"Tricomi U quadrature for a={a}, b={b}, t={t}")
    return LogScaled(h_peak + math.log(total) - math.lgamma(a), 1)


def tricomi_u_chain(a0: float, b: float, t: float, n: int) -> tuple[np.ndarray, float]:
    """Tricomi U(a0 + i, b, t) for i = 0..n at once, in scaled form.

    Returns (w, log_scale) with

        U(a0 + i, b, t) = w[i] * exp(log_scale) / Gamma(a0 + i + 1),

    so ratios along the chain and between chains of equal length stay
    accurate where the log of U itself runs into the thousands.

    Only the two ends come from :func:`tricomi_u` (none for U(0, b, t) = 1).
    The interior solves the three-term recurrence in a (DLMF 13.3.7) as a
    boundary-value problem (Olver 1967; Gil, Segura and Temme 2007, ch. 4):
    with w_a = Gamma(a + 1) U(a, b, t) it reads

        a w_{a-1} + (b - 2a - t) w_a + a (a - b + 1) / (a + 1) w_{a+1} = 0,

    whose coefficients are O(a) and whose solutions vary at most like
    exp(+-2 sqrt(a t)) times powers of a, so nothing overflows.  The system
    is tridiagonal.  Its condition grows like n^2 as t -> 0, where both
    solutions of the recurrence become polynomial in a; one step of
    iterative refinement wins the lost digits back.  The residual for it is
    taken in extended precision and in the difference form

        a (w_{a+1} - 2 w_a + w_{a-1}) - a b / (a + 1) (w_{a+1} - w_a)
            + (b / (a + 1) - t) w_a,

    in which the small terms are explicit instead of left to cancel (the
    difference form alone already gains most of the digits where numpy's
    long double is plain double).
    """
    if a0 < 0.0 or n < 0:
        raise ValueError(f"tricomi_u_chain requires a0 >= 0 and n >= 0, got a0={a0}, n={n}")
    ln_lo = 0.0 if a0 == 0.0 else tricomi_u(a0, b, t).log_magnitude + math.lgamma(a0 + 1.0)
    if n == 0:
        return np.ones(1), ln_lo
    ln_hi = tricomi_u(a0 + n, b, t).log_magnitude + math.lgamma(a0 + n + 1.0)
    log_scale = max(ln_lo, ln_hi)
    w = np.empty(n + 1)
    w[0], w[-1] = math.exp(ln_lo - log_scale), math.exp(ln_hi - log_scale)
    if n <= 1:
        return w, log_scale
    a = a0 + np.arange(1.0, n)
    upper = a * (a - b + 1.0) / (a + 1.0)
    bands = np.zeros((3, n - 1))
    bands[0, 1:] = upper[:-1]
    bands[1] = b - 2.0 * a - t
    bands[2, :-1] = a[1:]
    rhs = np.zeros(n - 1)
    rhs[0] -= a[0] * w[0]
    rhs[-1] -= upper[-1] * w[-1]
    w[1:-1] = solve_banded((1, 1), bands, rhs, check_finite=False)

    wide = a.astype(np.longdouble)
    step = np.diff(w.astype(np.longdouble))
    residual = wide * np.diff(step) - wide * b / (wide + 1.0) * step[1:] \
        + (b / (wide + 1.0) - t) * w[1:-1]
    w[1:-1] -= solve_banded((1, 1), bands, residual.astype(float), check_finite=False)
    if not np.all(w > 0.0):
        raise RuntimeError(
            f"Tricomi U chain left the double range for a0={a0}, b={b}, t={t}, n={n}")
    return w, log_scale
