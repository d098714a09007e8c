"""Reference evaluations of the hard-edge limiting kernel entries.

The limits of the finite-p border entries xi_a^(gamma, l)(t) and
derivative kernel entries Xi_ab, one entry at a time, at u = 4 p t:
xi_small_lim as a log-scaled Bessel-I bracket, xi_big_lim as an entry of
the balanced kernel matrix that ``hardedge.microscopic`` assembles its
Pfaffians from, with the power of u restored.  The tests compare them with
the finite-p entries at large p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..microscopic import _matrix_balanced
from .specfun import LogScaled, bessel_i, bessel_k_half, log_sum

__all__ = ["MicroSpec", "xi_small_lim", "xi_big_lim"]


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
