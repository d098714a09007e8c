"""Gap probability and smallest-eigenvalue density at finite matrix size.

The probability E_p(t) that the interval (0, t) holds no eigenvalue, and the
density P_p(t) = -dE_p/dt of the smallest eigenvalue, are assembled from a
Pfaffian of derivative kernel entries times a Tricomi-function prefactor.
Every power of t carried by the kernel entries is split off analytically and
recombined with the prefactor in the log domain, so the Pfaffian argument
stays O(1) and the assembly remains stable from t -> 0 up to the far tail
and from p = 1 into the thousands.

The prefactor's normalisation is one closed form (_ln_prefactor): of the
4k + 5 Gamma functions and the powers of p it is written with, every power
of p cancels, leaving Gamma((p+1)/2) and k(k-1)/2 ratios i/(p + i).

One assembly serves both quantities, the gap at weight power gamma = 0
and the density at gamma = 1, and every topology index: at k = 0 the
Pfaffian is empty and the assembly collapses, through a Kummer transform
of the prefactor, to the classical closed forms, which
hardedge.reference.distributions provides verbatim (closed_form_k0,
closed_form_k1) as independent cross-checks.

`tabulate` evaluates any of the four supported quantities on a grid and
returns a validated DistributionCurve ready for serialization.  It takes
the grid in batches of up to _BATCH plain floats.  A finite-p batch is
one Tricomi pass, one stacked chain solve, one Laguerre solve and one
kernel assembly (kernels.BulkTables), with only the prefactor and the
Pfaffian taken per point; a single FiniteSpec point is the batch of one,
and a point's value is the same bit for bit alone and inside any curve.
A limit batch is evaluated point by point.
"""

from __future__ import annotations

import functools
import logging
import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import specfun
from .kernels import BulkTables, border_column, kernel_matrix
from .microscopic import (VALUE_TOL, _count_factors, _in_range, _pfaffian_value,
                          gap_micro, smallest_micro)

__all__ = [
    "FiniteSpec",
    "DistributionCurve",
    "gap_finite",
    "smallest_finite",
    "tabulate",
]

logger = logging.getLogger(__name__)

GAP_QUANTITIES = ("gap", "gap_micro")
FINITE_QUANTITIES = ("gap", "smallest")


@dataclass(frozen=True)
class FiniteSpec:
    """Matrix dimensions and spectral point of one finite-size evaluation."""

    p: int
    """Number of eigenvalues, an integer, at least 1."""

    k: int
    """Half the topology index: nu = 2k, k a non-negative integer."""

    t: float
    """Spectral point, non-negative."""

    def __post_init__(self) -> None:
        if not (isinstance(self.p, numbers.Integral) and isinstance(self.k, numbers.Integral)
                and self.p >= 1 and self.k >= 0 and math.isfinite(self.t) and self.t >= 0.0):
            raise ValueError(f"need integers p >= 1, k >= 0 and a finite t >= 0, got {self}")


@dataclass(frozen=True)
class DistributionCurve:
    """A validated table of one distribution quantity over a grid.

    Gap-type curves must stay within [0, 1] and be non-increasing, with the
    value 1 at abscissa zero when the grid includes it; density-type curves
    must be non-negative.  Violations beyond rounding slack raise at
    construction, so a curve object is safe to serialize as-is.
    """

    quantity: str
    """One of gap, smallest, gap_micro, smallest_micro."""

    p: int | None
    """Matrix size for finite-size quantities, None in the limit."""

    k: int
    """Half the topology index: nu = 2k."""

    abscissae: tuple[float, ...]
    """Strictly increasing grid of spectral points."""

    values: tuple[float, ...]
    """Quantity values matching the grid pointwise."""

    def __post_init__(self) -> None:
        _check_request(self.quantity, self.p, self.k, self.abscissae)
        if len(self.abscissae) != len(self.values):
            raise ValueError("grid and values must have equal length")
        if self.quantity in GAP_QUANTITIES:
            self._check_gap_invariants()
        else:
            self._check_density_invariants()

    def _check_gap_invariants(self) -> None:
        for x, v in zip(self.abscissae, self.values):
            if not _in_range(v, 0):
                raise ValueError(f"gap value {v} outside [0, 1] at t={x}")
        for i in range(len(self.values) - 1):
            if self.values[i + 1] > self.values[i] + VALUE_TOL:
                raise ValueError(
                    f"gap values increase at t={self.abscissae[i + 1]}")
        if self.abscissae[0] == 0.0 and abs(self.values[0] - 1.0) > VALUE_TOL:
            raise ValueError(f"gap value at 0 must be 1, got {self.values[0]}")

    def _check_density_invariants(self) -> None:
        for x, v in zip(self.abscissae, self.values):
            if not _in_range(v, 1):
                raise ValueError(f"density value {v} negative or not finite at t={x}")


def _ln_prefactor(gamma: int, p: int, k: int, t: float) -> float:
    """Log of the normalisation N of U(a, 3/2 + gamma, t/2) times the
    Pfaffian, with o = k mod 2, a = (p + k + 1 + gamma - o)/2 and F_k from
    microscopic._count_factors:

        ln N = ln Gamma((p+1)/2) - ln(pi)/2 - sum_{i in F_k} ln(1 + p/i)
               - p t/2 + (1/2 + gamma (k + 1/2)) ln t
               + (k - 1 - gamma - o (1 + 2 gamma))/2 ln 2,

    plus ln(a - 1) = ln((p + k)/2) when gamma = 1 and o = 0.
    """
    odd = k % 2
    terms = [math.lgamma((p + 1) / 2), -0.5 * math.log(math.pi), -0.5 * p * t,
             (0.5 + gamma * (k + 0.5)) * math.log(t),
             (k - 1 - gamma - odd * (1 + 2 * gamma)) / 2 * math.log(2.0)]
    terms += [-math.log1p(p / i) for i in _count_factors(k)]
    if gamma == 1 and not odd:
        terms.append(math.log((p + k) / 2))
    return math.fsum(terms)


def _finite_curve(gamma: int, p: int, k: int, ts: Sequence[float]) -> list[float]:
    """Gap probabilities (gamma = 0) or smallest-eigenvalue densities
    (gamma = 1) at a batch of points ts of one (p, k), p >= 1 and k >= 0.

    Each t must be finite and non-negative, and positive for the density,
    else ValueError; the gap is 1 at t = 0.  At t > 0 each value is
    N U(a, 3/2 + gamma, t/2) times the Pfaffian of the t-balanced kernel
    block, bordered when k is odd, combined in the log domain; ln N
    (_ln_prefactor) already holds the powers of t the block carries.  At
    k >= 1 the blocks, borders and U come from one BulkTables for the
    batch; k = 0 has no ladder and takes U from one Tricomi pass with a row
    a point.  The prefactor and the Pfaffian are taken point by point.
    """
    for x in ts:
        if not (math.isfinite(x) and x >= 0.0):
            raise ValueError(f"need a finite t >= 0, got t={x}")
        if gamma == 1 and x <= 0.0:
            raise ValueError(f"the density needs t > 0, got {x}")
    if gamma == 1 and p == 1 and k >= 2 and k % 2 == 0:
        # The kernel draws on polynomial orders up to k, which a single
        # eigenvalue supplies only for k <= 1 or for the bordered odd path.
        raise ValueError(f"the density at p=1 needs k odd or k <= 1, got k={k}")
    inner = [x for x in ts if x > 0.0]
    if not inner:
        return [1.0] * len(ts)
    odd = k % 2
    a = (p + k + 1 + gamma - odd) / 2
    matrices, borders = np.zeros((len(inner), 0, 0)), [None] * len(inner)
    if k > 0:
        # Far in the tail the entries overflow; _pfaffian_value reports it.
        with np.errstate(over="ignore", invalid="ignore"):
            tables = BulkTables(gamma, p + k - gamma + odd, inner, k)
            matrices = kernel_matrix(tables)
            if odd:
                borders = border_column(tables)
        ln_u = tables.ln_u(a, 1.5 + gamma).tolist()
    else:
        ln_u = specfun._ln_tricomi([(a, 1.5 + gamma, 0.5 * x) for x in inner])
    values = iter([_pfaffian_value(gamma, matrix, border, _ln_prefactor(gamma, p, k, x) + ln,
                                   "finite-p", p=p, k=k, t=x)
                   for x, matrix, border, ln in zip(inner, matrices, borders, ln_u)])
    return [next(values) if x > 0.0 else 1.0 for x in ts]


def gap_finite(spec: FiniteSpec) -> float:
    """Probability that (0, t) holds no eigenvalue at size p, topology 2k."""
    return _finite_curve(0, spec.p, spec.k, [spec.t])[0]


def smallest_finite(spec: FiniteSpec) -> float:
    """Density of the smallest eigenvalue in t, at size p and topology 2k."""
    return _finite_curve(1, spec.p, spec.k, [spec.t])[0]


# Curve functions by quantity, all called as (p, k, xs) on a batch of
# abscissae xs; the limit quantities take no p and go point by point.
_CURVES = {
    "gap": functools.partial(_finite_curve, 0),
    "smallest": functools.partial(_finite_curve, 1),
    "gap_micro": lambda p, k, us: [gap_micro(k, u) for u in us],
    "smallest_micro": lambda p, k, us: [smallest_micro(k, u) for u in us],
}

# Points a batch holds at most.  Measured per point on 64-point density
# curves (one BLAS thread, CPU time), against 440-730 us for lone points:
# batches of 8 cost 126 us at p = 20, 174-181 at p = 500, 309-371 at
# p = 1000 and 474-572 at p = 2000; batches of 16 cost 101-110 at p <= 40
# but no less at p >= 500, and raise the peak RSS of a 200-point p = 2000
# curve from 64.5 MB to 67.4 MB (62.3 MB point by point).
_BATCH = 8


def _check_request(quantity: str, p: int | None, k: int,
                   abscissae: tuple[float, ...]) -> None:
    """Reject a curve request that no evaluation can meet: an unknown
    quantity, a p that does not fit its regime, a k that is not a
    non-negative integer, or a grid that is empty, not strictly increasing
    or outside the domain."""
    if quantity not in _CURVES:
        raise ValueError(f"unknown quantity {quantity!r}")
    if quantity in FINITE_QUANTITIES:
        if not isinstance(p, numbers.Integral) or p < 1:
            raise ValueError(f"{quantity} requires an integer matrix size p >= 1, got {p!r}")
    elif p is not None:
        raise ValueError(f"{quantity} is a limit quantity, p must be None")
    if not isinstance(k, numbers.Integral) or k < 0:
        raise ValueError(f"k must be a non-negative integer, got {k!r}")
    if not abscissae:
        raise ValueError("grid must not be empty")
    if not all(lo < hi for lo, hi in zip(abscissae[:-1], abscissae[1:])):
        raise ValueError("grid must be strictly increasing")
    low = abscissae[0]
    if quantity in GAP_QUANTITIES:
        if low < 0.0:
            raise ValueError(f"gap grid must be non-negative, got {low}")
    elif low <= 0.0:
        raise ValueError(f"density grid must be positive, got {low}")


def tabulate(quantity: str, k: int, grid: Sequence[float],
             p: int | None = None) -> DistributionCurve:
    """Evaluate one quantity over a grid into a validated curve, the one
    way the package evaluates a grid (mc's CDF and selftest's stencil too)
    but for the CLI's `micro --quantity density`: the level density is no
    curve quantity, since curves carry k = nu/2 and it also takes odd nu.

    The grid must be strictly increasing, non-negative for gap quantities
    and strictly positive for densities.  Points are evaluated in grid
    order in the calling thread, in batches of up to _BATCH plain floats.
    A failure at any single point, a non-finite one included, is re-raised
    naming the quantity and the first offending abscissa: as a ValueError
    when the point was out of range, else as a RuntimeError.  Values that
    break a curve invariant raise RuntimeError as well.
    """
    abscissae = tuple(float(x) for x in grid)
    _check_request(quantity, p, k, abscissae)
    curve = _CURVES[quantity]

    def evaluate(x: float) -> float:
        try:
            return curve(p, k, [x])[0]
        except Exception as exc:
            kind = ValueError if isinstance(exc, ValueError) else RuntimeError
            raise kind(
                f"{quantity} evaluation failed at abscissa {x!r}: {exc}") from exc

    values: list[float] = []
    for start in range(0, len(abscissae), _BATCH):
        batch = abscissae[start:start + _BATCH]
        try:
            values += curve(p, k, batch)
        except Exception:
            # A failed batch does not say where it failed: a point that
            # leaves the double range spills NaN into its neighbours'
            # stacked solves.  Point by point, in grid order, the first
            # failing point raises its own error.
            values += [evaluate(x) for x in batch]
    logger.debug("tabulated %s at %d points", quantity, len(abscissae))
    try:
        return DistributionCurve(quantity=quantity, p=p, k=k,
                                 abscissae=abscissae, values=tuple(values))
    except ValueError as exc:
        raise RuntimeError(f"computed {quantity} curve is invalid: {exc}") from exc
