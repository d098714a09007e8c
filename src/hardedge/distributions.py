"""Gap probability and smallest-eigenvalue density at finite matrix size.

The probability E_p(t) that the interval (0, t) holds no eigenvalue, and the
density P_p(t) = -dE_p/dt of the smallest eigenvalue, are assembled from a
Pfaffian of derivative kernel entries times a Tricomi-function prefactor.
Every power of t carried by the kernel entries is split off analytically and
recombined with the prefactor in the log domain, so the Pfaffian argument
stays O(1) and the assembly remains stable from t -> 0 up to the far tail
and from p = 1 into the thousands.

One assembly serves both quantities, the gap at weight power gamma = 0
and the density at gamma = 1, and every topology index: at k = 0 the
Pfaffian is empty and the assembly collapses, through a Kummer transform
of the prefactor, to the classical closed forms, which
hardedge.reference.distributions provides verbatim (closed_form_k0,
closed_form_k1) as independent cross-checks.

`tabulate` evaluates any of the five supported quantities on a grid, one
point after another, and returns a validated DistributionCurve ready for
serialization.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .kernels import BulkTables, border_column, kernel_matrix
from .microscopic import gap_micro, micro_density, smallest_micro
from .pfaffian import AntisymmetricMatrix, bordered_pfaffian, pfaffian
from .specfun import LogScaled, tricomi_u

__all__ = [
    "FiniteSpec",
    "DistributionCurve",
    "gap_finite",
    "smallest_finite",
    "tabulate",
]

logger = logging.getLogger(__name__)

GAP_QUANTITIES = ("gap", "gap_micro")
DENSITY_QUANTITIES = ("smallest", "smallest_micro", "density")
FINITE_QUANTITIES = ("gap", "smallest")

# Numerical slack for curve invariants: values are accurate to ~1e-10
# relative, so violations beyond this are structural, not rounding.
_CURVE_TOL = 1e-9


@dataclass(frozen=True)
class FiniteSpec:
    """Matrix dimensions and spectral point of one finite-size evaluation."""

    p: int
    """Number of eigenvalues, at least 1."""

    k: int
    """Half the topology index: nu = 2k, non-negative."""

    t: float
    """Spectral point, non-negative."""

    def __post_init__(self) -> None:
        if self.p < 1 or self.k < 0 or not (math.isfinite(self.t) and self.t >= 0.0):
            raise ValueError(f"need p >= 1, k >= 0 and a finite t >= 0, got {self}")

    @property
    def nu(self) -> int:
        """Topology index nu = 2k."""
        return 2 * self.k


@dataclass(frozen=True)
class DistributionCurve:
    """A validated table of one distribution quantity over a grid.

    Gap-type curves must stay within [0, 1] and be non-increasing, with the
    value 1 at abscissa zero when the grid includes it; density-type curves
    must be non-negative.  Violations beyond rounding slack raise at
    construction, so a curve object is safe to serialize as-is.
    """

    quantity: str
    """One of gap, smallest, gap_micro, smallest_micro, density."""

    p: int | None
    """Matrix size for finite-size quantities, None in the limit."""

    k: int
    """Half the topology index: nu = 2k."""

    abscissae: tuple[float, ...]
    """Strictly increasing grid of spectral points."""

    values: tuple[float, ...]
    """Quantity values matching the grid pointwise."""

    def __post_init__(self) -> None:
        if self.quantity not in GAP_QUANTITIES + DENSITY_QUANTITIES:
            raise ValueError(f"unknown quantity {self.quantity!r}")
        if self.quantity in FINITE_QUANTITIES:
            if self.p is None or self.p < 1:
                raise ValueError(f"{self.quantity} requires p >= 1")
        elif self.p is not None:
            raise ValueError(f"{self.quantity} is a limit curve, p must be None")
        if self.k < 0:
            raise ValueError(f"k must be non-negative, got {self.k}")
        if len(self.abscissae) != len(self.values) or not self.abscissae:
            raise ValueError("grid and values must be non-empty and equal length")
        pairs = zip(self.abscissae[:-1], self.abscissae[1:])
        if not all(lo < hi for lo, hi in pairs):
            raise ValueError("abscissae must be strictly increasing")
        if self.quantity in GAP_QUANTITIES:
            self._check_gap_invariants()
        else:
            self._check_density_invariants()

    def _check_gap_invariants(self) -> None:
        if self.abscissae[0] < 0.0:
            raise ValueError("gap abscissae must be non-negative")
        for x, v in zip(self.abscissae, self.values):
            if not -_CURVE_TOL <= v <= 1.0 + _CURVE_TOL:
                raise ValueError(f"gap value {v} outside [0, 1] at t={x}")
        for i in range(len(self.values) - 1):
            if self.values[i + 1] > self.values[i] + _CURVE_TOL:
                raise ValueError(
                    f"gap values increase at t={self.abscissae[i + 1]}")
        if self.abscissae[0] == 0.0 and abs(self.values[0] - 1.0) > _CURVE_TOL:
            raise ValueError(f"gap value at 0 must be 1, got {self.values[0]}")

    def _check_density_invariants(self) -> None:
        if self.abscissae[0] <= 0.0:
            raise ValueError("density abscissae must be positive")
        for x, v in zip(self.abscissae, self.values):
            if not (math.isfinite(v) and v >= -_CURVE_TOL):
                raise ValueError(f"density value {v} negative or not finite at t={x}")

    @property
    def regime(self) -> str:
        """Evaluation regime: finite, microscopic, or density."""
        if self.quantity in FINITE_QUANTITIES:
            return "finite"
        if self.quantity == "density":
            return "density"
        return "microscopic"

    @property
    def nu(self) -> int:
        """Topology index nu = 2k."""
        return 2 * self.k


# ln 2 enters the combinatorial constant as -(k + shift) / 2 times ln 2, with
# shift indexed by [gamma][k % 2].
_LN2_SHIFT = ((0, 3), (5, 6))


def _ln_constant(p: int, k: int, gamma: int) -> float:
    """Log of the combinatorial constant in the gap (gamma = 0) or the
    smallest-eigenvalue (gamma = 1) assembly."""
    lnp = math.log(p)
    total = 0.0
    for j in range(k):
        total += (j + 1) * math.log(4.0) + gammaln(2 * j + 1) \
            + gammaln(p + j + 2) + (j - 1) * lnp \
            - gammaln(j + 1) - gammaln(p + 2 * j + 1)
    total += -0.5 * math.log(math.pi) + gammaln(p + 1) + gammaln((p + 1) / 2) \
        - gammaln(p + k + 1)
    ln2 = -((k + _LN2_SHIFT[gamma][k % 2]) / 2) * math.log(2.0)
    if (k + gamma) % 2 == 0:
        total += ln2 + 1.5 * k * lnp - gammaln((p + k + 1) / 2)
    else:
        total += ln2 + (3 * k - 1) / 2 * lnp - gammaln((p + k) / 2)
    return total


def _finite_value(gamma: int, spec: FiniteSpec) -> float:
    """Gap probability (gamma = 0) or smallest-eigenvalue density (gamma = 1).

    Both are a Tricomi prefactor U(a, 3/2 + gamma, t/2) times the Pfaffian
    of the t-balanced kernel block, bordered when k is odd, combined in the
    log domain with the power of t the block carries.
    """
    p, k, t = spec.p, spec.k, spec.t
    odd = k % 2
    l = p + k - gamma + odd
    a_half = (p + k + 1 + gamma - odd) / 2
    power = (1.0 if (k + gamma) % 2 else 0.5) - k * k / 2.0
    # The raw kernel block is pf * t^tpow; at k = 0 it is empty.
    tpow = k * (gamma + 0.5) + k * (k - 1) / 2.0
    pf = 1.0
    if k > 0:
        # Far in the tail the entries overflow; the check below reports it.
        with np.errstate(over="ignore", invalid="ignore"):
            tables = BulkTables(gamma, l, t)
            stripped = kernel_matrix(tables, k)
            if odd:
                pf = bordered_pfaffian(stripped, border_column(tables, k))
                tpow = tpow + gamma - 0.5
            else:
                pf = pfaffian(AntisymmetricMatrix(data=stripped))
    if not math.isfinite(pf):
        raise RuntimeError(f"kernel Pfaffian is {pf} at gamma={gamma}, "
                           f"p={p}, k={k}, t={t}")
    ln_pre = _ln_constant(p, k, gamma) + gammaln(a_half) - 0.5 * p * t \
        + power * math.log(4.0 * p * t) + tpow * math.log(t)
    if gamma == 0:
        ln_pre = ln_pre - math.log(2.0 * math.sqrt(2.0 * p))
    else:
        ln_pre = ln_pre - math.log(2.0) - 1.5 * math.log(2.0 * p) + math.log(4.0 * p)
    value = tricomi_u(a_half, 1.5 + gamma, 0.5 * t) * LogScaled.from_value(pf)
    return value.scaled(ln_pre).value


def gap_finite(spec: FiniteSpec) -> float:
    """Probability that (0, t) holds no eigenvalue at size p, topology 2k."""
    if spec.t == 0.0:
        return 1.0
    return _finite_value(0, spec)


def smallest_finite(spec: FiniteSpec) -> float:
    """Density of the smallest eigenvalue in t, at size p and topology 2k."""
    p, k, t = spec.p, spec.k, spec.t
    if t <= 0.0:
        raise ValueError(f"the density needs t > 0, got {t}")
    if p == 1 and k >= 2 and k % 2 == 0:
        # The kernel draws on polynomial orders up to k, which a single
        # eigenvalue supplies only for k <= 1 or for the bordered odd path.
        raise ValueError(f"the density at p=1 needs k odd or k <= 1, got k={k}")
    return _finite_value(1, spec)


def _point_evaluator(quantity: str, p: int | None, k: int):
    if quantity in FINITE_QUANTITIES:
        if p is None:
            raise ValueError(f"{quantity} requires a matrix size p")
        if quantity == "gap":
            return lambda t: gap_finite(FiniteSpec(p=p, k=k, t=t))
        return lambda t: smallest_finite(FiniteSpec(p=p, k=k, t=t))
    if p is not None:
        raise ValueError(f"{quantity} is a limit quantity, p must be None")
    if quantity == "gap_micro":
        return lambda u: gap_micro(k, u)
    if quantity == "smallest_micro":
        return lambda u: smallest_micro(k, u)
    if quantity == "density":
        return lambda u: micro_density(2 * k, u)
    raise ValueError(f"unknown quantity {quantity!r}")


def tabulate(quantity: str, k: int, grid: Sequence[float],
             p: int | None = None) -> DistributionCurve:
    """Evaluate one quantity over a grid into a validated curve.

    The grid must be strictly increasing, non-negative for gap quantities
    and strictly positive for densities.  Points are evaluated in grid
    order in the calling thread.  A failure at any single point is
    re-raised naming the quantity and the offending abscissa: as a
    ValueError when the point was out of range, else as a RuntimeError.
    """
    abscissae = tuple(float(x) for x in grid)
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
    point = _point_evaluator(quantity, p, k)

    def evaluate(x: float) -> float:
        try:
            return point(x)
        except Exception as exc:
            kind = ValueError if isinstance(exc, ValueError) else RuntimeError
            raise kind(
                f"{quantity} evaluation failed at abscissa {x!r}: {exc}") from exc

    values = tuple(evaluate(x) for x in abscissae)
    logger.debug("tabulated %s at %d points", quantity, len(abscissae))
    return DistributionCurve(quantity=quantity, p=p, k=k,
                             abscissae=abscissae, values=values)
