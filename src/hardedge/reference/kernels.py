"""Reference routes for the kernel entries of ``hardedge.kernels``.

The derivative kernel entries Xi_ab and the two-point kernel K_l(xa, xb)
are evaluated here term by term on the skew-orthogonal polynomial
combinations of ``hardedge.reference.sop``, in log-scaled arithmetic and
with every Tricomi U from its own quadrature (xi_big, kernel_sum).  The
closed Christoffel-Darboux form (kernel_cd) provides a third route for
even l that bypasses the polynomial sum entirely.  These routes are
independent of the bulk route (kernel_matrix, border_column) and serve
as its oracles; xi_small only rescales the bulk border column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..kernels import BulkTables, border_column
from .sop import (
    WeightParams,
    partition_z_t,
    sop_even,
    sop_moment,
    sop_norm,
    sop_odd,
)
from .specfun import LogScaled, laguerre_monic, log_sum, negated, tricomi_u

__all__ = [
    "KernelSpec",
    "xi_big",
    "xi_small",
    "kernel_sum",
    "kernel_cd",
]


@dataclass(frozen=True)
class KernelSpec:
    """Weight power, polynomial count, and shift of one kernel family."""

    gamma: int
    """Weight power: 0 for gap-probability matrices, 1 for density ones."""

    l: int
    """Number of polynomials paired by the kernel; odd counts switch the sum
    to the hatted polynomial set."""

    t: float
    """Positive shift of the weight; derivative entries are taken at -t."""

    parity: str = field(init=False)
    """'even' or 'odd', derived from l."""

    def __post_init__(self) -> None:
        assert self.gamma >= 0, f"gamma must be non-negative, got {self.gamma}"
        assert self.l >= 2, f"need at least two polynomials, got l={self.l}"
        assert self.t > 0.0, f"t must be positive, got {self.t}"
        object.__setattr__(self, "parity",
                           "even" if self.l % 2 == 0 else "odd")

    @property
    def weight_params(self) -> WeightParams:
        """Weight parameters shared with the polynomial constructors."""
        return WeightParams(gamma=self.gamma, t=self.t)


# --------------------------------------------------------------------------
# reference route: log-scaled sums over polynomial couples


def _bilinear_sum(spec: KernelSpec, first: tuple[int, float],
                  second: tuple[int, float]) -> LogScaled:
    """Antisymmetrized pair sum with (order, point) slots.

    Evaluates sum_j [O_j(first) E_j(second) - O_j(second) E_j(first)] / r_j
    where O_j, E_j are the odd/even polynomials of the family (hatted when l
    is odd) and each slot applies derivative_scaled(order, point).
    """
    params = spec.weight_params
    hatted = spec.parity == "odd"
    if hatted:
        top_index = spec.l - 1
        top = sop_even(top_index // 2, params)
        m_top = sop_moment(top_index, params)
        top_first = top.derivative_scaled(*first)
        top_second = top.derivative_scaled(*second)
    j_max = (spec.l - 3) // 2 if hatted else (spec.l - 2) // 2
    values: list[LogScaled] = []
    swapped: list[LogScaled] = []
    for j in range(j_max + 1):
        odd = sop_odd(j, params)
        even = sop_even(j, params)
        r_j = sop_norm(j, params)
        if hatted:
            c_odd = sop_moment(2 * j + 1, params) / m_top
            c_even = sop_moment(2 * j, params) / m_top
            o_1 = log_sum([odd.derivative_scaled(*first), negated(c_odd * top_first)])
            o_2 = log_sum([odd.derivative_scaled(*second), negated(c_odd * top_second)])
            e_1 = log_sum([even.derivative_scaled(*first), negated(c_even * top_first)])
            e_2 = log_sum([even.derivative_scaled(*second), negated(c_even * top_second)])
        else:
            o_1 = odd.derivative_scaled(*first)
            o_2 = odd.derivative_scaled(*second)
            e_1 = even.derivative_scaled(*first)
            e_2 = even.derivative_scaled(*second)
        values.append(o_1 * e_2 / r_j)
        swapped.append(o_2 * e_1 / r_j)
    # Summing each half on its own makes swapping the slots negate the sum
    # exactly, whatever the rounding of the terms.
    return log_sum([log_sum(values), negated(log_sum(swapped))])


def xi_big(a: int, b: int, spec: KernelSpec) -> float:
    """Derivative kernel entry Xi_ab^(gamma, l)(t).

    Reference route: the polynomial pair sum in log-scaled arithmetic.
    Exact for every admissible order but factorial-laden; kernel_matrix
    builds the same entries factorial-free for bulk work.
    """
    assert 0 <= a <= spec.l - 2, f"order a={a} outside 0..{spec.l - 2}"
    assert 0 <= b <= spec.l - 2, f"order b={b} outside 0..{spec.l - 2}"
    total = _bilinear_sum(spec, (a, -spec.t), (b, -spec.t))
    sign = -1.0 if (a + b) % 2 else 1.0
    power = (2 * spec.gamma + a + b + 1) * math.log(spec.t)
    return sign * total.scaled(power).value


def kernel_sum(xa: float, xb: float, spec: KernelSpec) -> float:
    """Two-point kernel K_l(xa, xb) by the direct polynomial pair sum."""
    return _bilinear_sum(spec, (0, xa), (0, xb)).value


def xi_small(a: int, spec: KernelSpec) -> float:
    """Border entry xi_a^(gamma, l)(t), strictly positive."""
    assert 0 <= a <= spec.l - 2, f"order a={a} outside 0..{spec.l - 2}"
    beta = border_column(BulkTables(spec.gamma, spec.l, [spec.t], a + 1))[0, a]
    return spec.t ** (2 * spec.gamma + a) * beta


# --------------------------------------------------------------------------
# closed route: Christoffel-Darboux form for even l


def _difference_terms(terms: list[tuple[int, int, int, int, float]]
                      ) -> list[tuple[int, int, int, int, float]]:
    """Apply (d_a - d_b) to a sum of products M_m^(mu)(xa) M_n^(nu)(xb)."""
    out: list[tuple[int, int, int, int, float]] = []
    for (m, mu_m, n, mu_n, c) in terms:
        if m >= 1:
            out.append((m - 1, mu_m + 1, n, mu_n, c * m))
        if n >= 1:
            out.append((m, mu_m, n - 1, mu_n + 1, -c * n))
    return out


def _evaluate_terms(terms: list[tuple[int, int, int, int, float]],
                    xa: float, xb: float) -> LogScaled:
    values = []
    for (m, mu_m, n, mu_n, c) in terms:
        if c == 0.0:
            continue
        product = laguerre_monic(m, mu_m, xa) * laguerre_monic(n, mu_n, xb)
        values.append(product * LogScaled.from_value(c))
    return log_sum(values)


def kernel_cd(xa: float, xb: float, gamma: int, l: int, t: float) -> float:
    """Two-point kernel K_l(xa, xb) by the Christoffel-Darboux route.

    For even l the polynomial pair sum telescopes into second divided
    differences of one bilinear combination of degree-l monic Laguerre
    polynomials with a partition-function ratio in front.  The divided
    difference degenerates at coincident points, which is rejected, and it
    cancels catastrophically in a shrinking neighborhood of coincidence, so
    keep the arguments well separated.
    """
    if l < 4 or l % 2:
        raise ValueError(f"the closed form needs even l >= 4, got l={l}")
    if xa == xb:
        raise ValueError("coincident arguments degenerate the divided difference")
    assert t > 0.0, f"t must be positive, got {t}"
    a_top = gamma + (l - 1) / 2.0
    u_den = tricomi_u(a_top, gamma + 1.5, t / 2.0)
    rho_t = (tricomi_u(a_top, gamma + 0.5, t / 2.0) / u_den).value
    sig_t = (tricomi_u(a_top, gamma - 0.5, t / 2.0) / u_den).value
    base: list[tuple[int, int, int, int, float]] = [
        (l, 2 * gamma - 2, l, 2 * gamma - 2, 1.0),
        (l - 1, 2 * gamma - 1, l, 2 * gamma - 2, -rho_t * l),
        (l, 2 * gamma - 2, l - 1, 2 * gamma - 1, -rho_t * l),
        (l - 1, 2 * gamma - 1, l - 1, 2 * gamma - 1, sig_t * l * l),
    ]
    first = _difference_terms(base)
    second = _difference_terms(first)
    delta = LogScaled.from_value(xa - xb)
    inner = log_sum([
        _evaluate_terms(second, xa, xb) / delta,
        negated(_evaluate_terms(first, xa, xb) / (delta * delta)).scaled(math.log(2.0)),
    ])
    z_ratio = partition_z_t(l - 2, gamma, t) / partition_z_t(l, gamma, t)
    return (z_ratio * inner).value
