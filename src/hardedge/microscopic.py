"""Hard-edge limits: limiting kernels, gap probability, and level density.

In the limit p -> infinity at fixed u = 4 p t the finite-p Pfaffian
structures converge entry by entry: the border entries xi_a^(gamma, l)(t)
tend to Bessel-I brackets and the derivative kernel entries Xi_ab tend to
one-dimensional integrals of Bessel-I products.  This module assembles
the limiting gap probability, smallest-eigenvalue density, and the Bessel
level density from those limits; the entries one at a time (xi_small_lim,
xi_big_lim) live in hardedge.reference.microscopic.

All kernel entries are handled in a u-balanced normalization in which the
matrix is O(1) down to u -> 0; the exact powers of u cancel analytically
against the prefactors, so the assemblies stay finite at the origin where
the raw entries vanish like u^(a+b+1).
"""

from __future__ import annotations

import logging
import math

import numpy as np
from scipy.special import gammaln, ive, jv

from .pfaffian import AntisymmetricMatrix, bordered_pfaffian, pfaffian
from .specfun import LogScaled, _gauss_legendre

__all__ = ["gap_micro", "smallest_micro", "micro_density"]

logger = logging.getLogger(__name__)

# Doubling past this order means the integrand was not the smooth Bessel
# product the error model assumes.
_MAX_ORDER = 6144


def _unit_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights transplanted to [0, 1]."""
    nodes, weights = _gauss_legendre(order)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def _settled_integral(integrand, start_order: int) -> float:
    """Integrate over [0, 1], doubling the order until two values agree."""
    order = max(start_order, 8)
    nodes, weights = _unit_nodes(order)
    previous = float(np.dot(weights, integrand(nodes)))
    while order <= _MAX_ORDER:
        order *= 2
        nodes, weights = _unit_nodes(order)
        current = float(np.dot(weights, integrand(nodes)))
        if abs(current - previous) <= 1e-11 * max(1.0, abs(current)):
            return current
        previous = current
    raise RuntimeError(
        f"quadrature did not settle below order {_MAX_ORDER}")


def _bessel_i_reduced(n: int, x: np.ndarray) -> np.ndarray:
    """Values of I_n(x) / (x/2)^n, the entire part of the Bessel function.

    The reduced function equals 1/n! at x = 0 and stays O(e^x / x^n), so no
    spurious zeros or infinities appear at the lower integration endpoint.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < 0.5
    if np.any(small):
        quarter = 0.25 * x[small] ** 2
        term = np.full_like(quarter, 1.0 / math.gamma(n + 1))
        acc = term.copy()
        for m in range(1, 12):
            term = term * quarter / (m * (n + m))
            acc += term
        out[small] = acc
    if np.any(~small):
        big = x[~small]
        out[~small] = np.exp(big + np.log(ive(n, big)) - n * np.log(0.5 * big))
    return out


def _k_ratio_pair(gamma: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half-integer Bessel-K quotients entering the limiting kernel.

    Returns R = K_{gamma-1/2}(x)/K_{gamma+1/2}(x) and the combination
    x^2 (R^2 - S) with S = K_{gamma-3/2}(x)/K_{gamma+1/2}(x); both quotients
    are rational for the two weights that occur.
    """
    if gamma == 0:
        return np.ones_like(x), -x
    if gamma == 1:
        return x / (x + 1.0), -x ** 3 / (x + 1.0) ** 2
    raise ValueError(f"no limiting kernel for gamma={gamma}")


def _alpha_row(a: int, gamma: int, x: np.ndarray,
               ratio: np.ndarray) -> np.ndarray:
    """Reduced limiting even-polynomial factor at Bessel order 2*gamma + a."""
    return _bessel_i_reduced(2 * gamma + a, 2.0 * x) \
        + x * ratio * _bessel_i_reduced(2 * gamma + a + 1, 2.0 * x)


def _beta_row(a: int, gamma: int, x: np.ndarray, ratio: np.ndarray,
              cross: np.ndarray) -> np.ndarray:
    """Reduced limiting odd-polynomial factor at Bessel order 2*gamma + a.

    The term proportional to the even factor is dropped here: it cancels
    identically in the antisymmetrized kernel combination.
    """
    down = 2 * gamma + a - 1
    if down < 0:
        lead = x * x * _bessel_i_reduced(1, 2.0 * x)
    else:
        lead = _bessel_i_reduced(down, 2.0 * x)
    return 2.0 * (lead + x * ratio * _bessel_i_reduced(down + 1, 2.0 * x)) \
        + cross * _bessel_i_reduced(down + 2, 2.0 * x)


def _matrix_entry_balanced(a: int, b: int, gamma: int, u: float) -> float:
    """Balanced kernel entry Xi_ab^(gamma, infinity)(u) / u^(a+b+1+2*gamma).

    The integral over (0, sqrt(u)/2) is transplanted to the unit interval
    with the Bessel power parts pulled out, leaving a smooth positive-radius
    integrand handled by Gauss-Legendre with order doubling.
    """
    if a == b:
        return 0.0
    root_half = 0.5 * math.sqrt(u)

    def integrand(s: np.ndarray) -> np.ndarray:
        x = root_half * s
        ratio, cross = _k_ratio_pair(gamma, x)
        alpha_a = _alpha_row(a, gamma, x, ratio)
        alpha_b = _alpha_row(b, gamma, x, ratio)
        beta_a = _beta_row(a, gamma, x, ratio, cross)
        beta_b = _beta_row(b, gamma, x, ratio, cross)
        return s ** (2 * (a + b) + 4 * gamma + 1) \
            * (beta_b * alpha_a - beta_a * alpha_b)

    scale = 4.0 ** (-(2 * gamma + a + b + 2))
    order = math.ceil(20.0 + 3.0 * math.sqrt(u))
    return scale * _settled_integral(integrand, order)


def _matrix_balanced(gamma: int, k: int, u: float) -> np.ndarray:
    data = np.zeros((k, k))
    for a in range(k):
        for b in range(a + 1, k):
            value = _matrix_entry_balanced(a, b, gamma, u)
            data[a, b] = value
            data[b, a] = -value
    return data


def _border_balanced(gamma: int, k: int, u: float) -> np.ndarray:
    """Balanced border entries: the even factor at the endpoint x = sqrt(u)/2."""
    x = np.array([0.5 * math.sqrt(u)])
    ratio, _ = _k_ratio_pair(gamma, x)
    out = np.empty(k)
    for a in range(k):
        out[a] = 4.0 ** (-(a + 2 * gamma)) * _alpha_row(a, gamma, x, ratio)[0]
    return out


def _ln_count_constant(k: int) -> float:
    """Log of the product prod_{l=0}^{k-1} 4^(l+1) (2l)! / l!."""
    total = 0.0
    for l in range(k):
        total += (l + 1) * math.log(4.0) + gammaln(2 * l + 1) - gammaln(l + 1)
    return total


def gap_micro(k: int, u: float) -> float:
    """Limiting gap probability at topology nu = 2k.

    The balanced Pfaffian carries no powers of u; the exact power from the
    unbalancing determinant cancels the u^(-k^2/2) prefactor analytically,
    so the value tends to 1 as u -> 0.
    """
    assert k >= 0, f"k must be non-negative, got {k}"
    if u < 0.0:
        raise ValueError(f"u must be non-negative, got {u}")
    if u == 0.0:
        return 1.0
    root = math.sqrt(u)
    decay = -u / 8.0 - root / 2.0
    if decay < -740.0:
        return 0.0
    ln_scale = _ln_count_constant(k) + decay
    if k % 2 == 0:
        pf = pfaffian(AntisymmetricMatrix(data=_matrix_balanced(0, k, u)))
    else:
        pf = bordered_pfaffian(_matrix_balanced(0, k, u),
                               _border_balanced(0, k, u))
        ln_scale += math.log(0.25)
    return LogScaled.from_value(pf).scaled(ln_scale).value


def smallest_micro(k: int, u: float) -> float:
    """Limiting smallest-eigenvalue density at topology nu = 2k.

    Both parities reduce to the same exact power u^((2k-1)/2) after
    balancing, which reproduces the u^(k - 1/2) vanishing at the origin.
    """
    assert k >= 0, f"k must be non-negative, got {k}"
    if u <= 0.0:
        raise ValueError(f"u must be positive, got {u}")
    root = math.sqrt(u)
    decay = -u / 8.0 - root / 2.0
    if decay < -740.0:
        return 0.0
    ln_scale = _ln_count_constant(k) - math.log(8.0) + math.log(root + 2.0) \
        + (2 * k - 1) / 2.0 * math.log(u) + decay
    if k % 2 == 0:
        pf = pfaffian(AntisymmetricMatrix(data=_matrix_balanced(1, k, u)))
    else:
        pf = bordered_pfaffian(_matrix_balanced(1, k, u),
                               _border_balanced(1, k, u))
    return LogScaled.from_value(pf).scaled(ln_scale).value


def micro_density(nu: int, u: float) -> float:
    """Microscopic level density rho_nu(u) at the hard edge.

    Bessel-J bilinear part plus the resolvent-like term with the partial
    integral of J_nu; the J_{-1} case folds in through J_{-1} = -J_1.
    """
    assert nu >= 0, f"nu must be non-negative, got {nu}"
    if u <= 0.0:
        raise ValueError(f"u must be positive, got {u}")
    root = math.sqrt(u)
    j_mid = jv(nu, root)
    j_down = jv(nu - 1, root)
    j_up = jv(nu + 1, root)

    def integrand(s: np.ndarray) -> np.ndarray:
        return jv(nu, root * s)

    order = math.ceil(20.0 + 2.0 * root)
    partial = root * _settled_integral(integrand, order)
    return 0.25 * (j_mid * j_mid - j_down * j_up) \
        + j_mid * (1.0 - partial) / (4.0 * root)
