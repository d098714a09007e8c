"""Reference evaluations of the hard-edge limiting kernel entries.

The limits of the finite-p border entries xi_a^(gamma, l)(t) and
derivative kernel entries Xi_ab, one entry at a time, at u = 4 p t:
xi_small_lim as a log-scaled Bessel-I bracket, xi_big_lim as an entry of
the balanced kernel matrix that ``hardedge.microscopic`` assembles its
Pfaffians from, with the power of u restored.  The tests compare them with
the finite-p entries at large p.

gap_fredholm_mp and smallest_fredholm_mp take the Fredholm determinant of
``hardedge.microscopic`` in mpmath: the same Nystrom matrix and trace
formula at any working precision, the yardstick of the double route and of
tails no double route reaches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..microscopic import _matrix_balanced
from .specfun import LogScaled, bessel_i, bessel_k_half, log_sum

__all__ = ["MicroSpec", "xi_small_lim", "xi_big_lim", "gap_fredholm_mp",
           "smallest_fredholm_mp"]


@dataclass(frozen=True)
class MicroSpec:
    """Topology index and rescaled spectral point of one limit evaluation."""

    k: int
    """Half the topology index: nu = 2k."""

    u: float
    """Rescaled spectral variable u = 4 p t, non-negative."""

    def __post_init__(self) -> None:
        assert self.k >= 0, f"k must be non-negative, got {self.k}"
        assert self.u >= 0.0, f"u must be non-negative, got {self.u}"

    @property
    def nu(self) -> int:
        """Topology index nu = 2k."""
        return 2 * self.k


def xi_small_lim(a: int, gamma: int, u: float) -> float:
    """Limiting border entry xi_a^(gamma, infinity)(u).

    Evaluates (u/4)^((2 gamma + a)/2) [I_{2 gamma + a}(sqrt u) +
    ratio * I_{2 gamma + a + 1}(sqrt u)] where the mixing ratio is the
    half-integer Bessel-K quotient K_{gamma-1/2}/K_{gamma+1/2} at sqrt(u)/2;
    the quotient is exactly 1 for gamma = 0 and z/(z+1) for gamma = 1.
    """
    assert a >= 0, f"order must be non-negative, got {a}"
    assert gamma >= 0, f"gamma must be non-negative, got {gamma}"
    if u < 0.0:
        raise ValueError(f"u must be non-negative, got {u}")
    if u == 0.0:
        return 1.0 if 2 * gamma + a == 0 else 0.0
    root = math.sqrt(u)
    ratio = (bessel_k_half(gamma - 1, root / 2.0)
             / bessel_k_half(gamma, root / 2.0)).value
    bracket = log_sum([
        bessel_i(2 * gamma + a, root),
        bessel_i(2 * gamma + a + 1, root) * LogScaled.from_value(ratio),
    ])
    return bracket.scaled((2 * gamma + a) / 2.0 * math.log(u / 4.0)).value


def xi_big_lim(a: int, b: int, gamma: int, u: float) -> float:
    """Limiting derivative kernel entry Xi_ab^(gamma, infinity)(u)."""
    assert a >= 0 and b >= 0, f"orders must be non-negative, got {a}, {b}"
    if u <= 0.0:
        raise ValueError(f"u must be positive, got {u}")
    power = a + b + 1 + 2 * gamma
    return _matrix_balanced(gamma, max(a, b) + 1, u)[a, b] * u ** power


def _gauss_legendre_mp(m: int, mp) -> tuple[list, list]:
    """The m-point Gauss-Legendre rule on (0, 1) at mp's precision: numpy's
    leggauss nodes polished by Newton steps on P_m."""
    nodes, weights = [], []
    for start in np.polynomial.legendre.leggauss(m)[0]:
        x = mp.mpf(float(start))
        for _ in range(20):
            low, high = mp.one, x
            for n in range(1, m):
                low, high = high, ((2 * n + 1) * x * high - n * low) / (n + 1)
            slope = m * (x * high - low) / (x * x - 1)
            step = high / slope
            x -= step
            if abs(step) <= mp.eps:
                break
        nodes.append((x + 1) / 2)
        weights.append(1 / ((1 - x * x) * slope * slope))
    return nodes, weights


def _forward(lower, b, n: int, mp) -> list:
    """The first n entries of the solution of lower y = b, lower triangular."""
    y = []
    for i in range(n):
        y.append((b[i] - mp.fsum(lower[i, k] * y[k] for k in range(i))) / lower[i, i])
    return y


def _fredholm_mp(nu: int, u: float, m: int, dps: int, density: bool):
    """E = det(I - A_u), or -dE/du = E tr((I - A_u)^-1 dA/du), on the m-node
    Nystrom matrix of hardedge.microscopic._fredholm_value, at dps digits."""
    import mpmath

    assert nu >= 0 and m >= 1 and dps >= 15, (nu, m, dps)
    with mpmath.workdps(dps):
        mp = mpmath.mp
        x, w = _gauss_legendre_mp(m, mp)
        root = mp.sqrt(mp.mpf(u))
        kernel, derivative = mp.matrix(m, m), mp.matrix(m, m)
        for i in range(m):
            for j in range(i, m):
                r, scale = mp.sqrt(x[i] * x[j]), mp.sqrt(w[i] * w[j])
                bessel = mp.besselj(nu, root * r)
                kernel[i, j] = kernel[j, i] = (i == j) - root / 2 * bessel * scale
                if density:
                    derivative[i, j] = derivative[j, i] = \
                        ((1 + nu) / root * bessel - r * mp.besselj(nu + 1, root * r)) * scale / 4
        factor = mp.cholesky(kernel)
        gap = mp.fprod(factor[i, i] for i in range(m)) ** 2
        if not density:
            return gap
        # tr(L^-T L^-1 D) = tr(L^-1 (L^-1 D)^T) for the symmetric D.
        half = [_forward(factor, derivative.column(j), m, mp) for j in range(m)]
        trace = mp.fsum(_forward(factor, [half[j][i] for j in range(m)], i + 1, mp)[i]
                        for i in range(m))
        return gap * trace


def gap_fredholm_mp(nu: int, u: float, m: int, dps: int):
    """The limiting gap probability det(I - A_u) at topology nu, on m
    Gauss-Legendre nodes at dps digits, as an mpmath number."""
    return _fredholm_mp(nu, u, m, dps, density=False)


def smallest_fredholm_mp(nu: int, u: float, m: int, dps: int):
    """The limiting smallest-eigenvalue density -dE/du at topology nu, on m
    Gauss-Legendre nodes at dps digits, as an mpmath number."""
    return _fredholm_mp(nu, u, m, dps, density=True)
