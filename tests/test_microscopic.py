"""Tests for the hard-edge limiting kernels, gap, density, and level density."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import jv

from hardedge import microscopic, specfun
from hardedge.kernels import BulkTables, kernel_matrix
from hardedge.microscopic import (_matrix_balanced, _pfaffian_value, gap_micro, micro_density,
                                  smallest_micro)
from hardedge.reference.kernels import KernelSpec, xi_small
from hardedge.reference.microscopic import (MicroSpec, gap_fredholm_mp, smallest_fredholm_mp,
                                           xi_big_lim, xi_small_lim)

# Bessel-bracket values frozen from mpmath: besseli(0,2)+besseli(1,2) and
# besseli(2,2)+besseli(3,2)/2.
BORDER_GAMMA0_U4 = 3.8702221569733963308194588658112
BORDER_GAMMA1_U4 = 0.79531842731866453169112721249983

# Level density at nu=0, u=1, frozen from an mpmath evaluation of the
# Bessel-J formula with exact partial integral.
DENSITY_NU0_U1 = 0.21014853050709881693858209620535


def finite_kernel_entry(a: int, b: int, gamma: int, u: float, big_l: int) -> float:
    """Finite-size derivative kernel entry at the microscopic scale point."""
    t = u / (8.0 * big_l)
    stripped = kernel_matrix(BulkTables(gamma, 2 * big_l, [t], max(a, b) + 1))[0]
    return stripped[a, b] * t ** (2 * gamma + a + b + 1)


def test_micro_spec_validation() -> None:
    spec = MicroSpec(k=2, u=3.5)
    assert spec.nu == 4
    with pytest.raises(AssertionError):
        MicroSpec(k=-1, u=1.0)
    with pytest.raises(AssertionError):
        MicroSpec(k=0, u=-1.0)


def test_border_limit_pinned_values() -> None:
    assert xi_small_lim(0, 0, 4.0) == pytest.approx(BORDER_GAMMA0_U4, rel=1e-12)
    # the gamma=1 prefactor (u/4)^((2+0)/2) equals 1 at u=4
    assert xi_small_lim(0, 1, 4.0) == pytest.approx(BORDER_GAMMA1_U4, rel=1e-12)


def test_border_limit_origin_conventions() -> None:
    assert xi_small_lim(0, 0, 0.0) == 1.0
    assert xi_small_lim(1, 0, 0.0) == 0.0
    assert xi_small_lim(0, 1, 0.0) == 0.0
    with pytest.raises(ValueError):
        xi_small_lim(0, 0, -1.0)


def test_border_limit_is_reached_by_finite_size_entries() -> None:
    want = xi_small_lim(1, 0, 4.0)
    errors = []
    for big_l in (128, 512):
        t = 4.0 / (8.0 * big_l)
        got = xi_small(1, KernelSpec(gamma=0, l=2 * big_l, t=t))
        errors.append(abs(got - want) / want)
    assert errors[1] <= 2e-2, f"L=512 error {errors[1]:.2e} too large"
    assert errors[1] < errors[0], "finite-size error must shrink with L"


def test_kernel_limit_is_reached_by_finite_size_entries() -> None:
    for gamma in (0, 1):
        for a, b, u in ((0, 1, 4.0), (1, 2, 16.0)):
            want = xi_big_lim(a, b, gamma, u)
            errors = []
            for big_l in (128, 512):
                got = finite_kernel_entry(a, b, gamma, u, big_l)
                errors.append(abs(got - want) / abs(want))
            assert errors[1] <= 2e-2, (
                f"gamma={gamma} (a,b)=({a},{b}) u={u}: error {errors[1]:.2e}")
            assert errors[1] < errors[0]


def test_kernel_limit_antisymmetry() -> None:
    for gamma in (0, 1):
        assert xi_big_lim(1, 1, gamma, 3.0) == 0.0
        plus = xi_big_lim(0, 2, gamma, 3.0)
        minus = xi_big_lim(2, 0, gamma, 3.0)
        assert plus == pytest.approx(-minus, rel=1e-14)


def _factors_mp(gamma: int, order: int, x: mpmath.mpf) -> tuple[mpmath.mpf, mpmath.mpf]:
    """The even and odd limiting factors at Bessel order `order` and x > 0.

    With I~(n) = I_n(2x)/x^n, R = K_{gamma-1/2}(x)/K_{gamma+1/2}(x) and
    S = K_{gamma-3/2}(x)/K_{gamma+1/2}(x), they are
    alpha = I~(order) + x R I~(order + 1) and
    beta = 2 [I~(order - 1) + x R I~(order)] + x^2 (R^2 - S) I~(order + 1).
    """
    def reduced(n: int) -> mpmath.mpf:
        return mpmath.besseli(abs(n), 2 * x) / x ** n  # I_{-n} = I_n

    def bessel_k(nu: mpmath.mpf) -> mpmath.mpf:
        return mpmath.besselk(abs(nu), x)  # K_{-nu} = K_nu

    k_mid = bessel_k(gamma + mpmath.mpf(1) / 2)
    ratio = bessel_k(gamma - mpmath.mpf(1) / 2) / k_mid
    second = bessel_k(gamma - mpmath.mpf(3) / 2) / k_mid
    alpha = reduced(order) + x * ratio * reduced(order + 1)
    beta = 2 * (reduced(order - 1) + x * ratio * reduced(order)) \
        + x * x * (ratio * ratio - second) * reduced(order + 1)
    return alpha, beta


def _balanced_entry_mp(a: int, b: int, gamma: int, u: float) -> mpmath.mpf:
    """Balanced limiting entry Xi_ab / u^(a+b+1+2 gamma) by mpmath quadrature
    of the factors at x = s sqrt(u)/2."""
    half_root = mpmath.sqrt(mpmath.mpf(u)) / 2

    def integrand(s: mpmath.mpf) -> mpmath.mpf:
        x = half_root * s
        alpha_a, beta_a = _factors_mp(gamma, 2 * gamma + a, x)
        alpha_b, beta_b = _factors_mp(gamma, 2 * gamma + b, x)
        return s ** (2 * (a + b) + 4 * gamma + 1) * (beta_b * alpha_a - beta_a * alpha_b)

    return mpmath.quad(integrand, [0, 1]) / mpmath.mpf(4) ** (2 * gamma + a + b + 2)


@pytest.mark.parametrize("gamma", [0, 1])
def test_kernel_matrix_matches_mpmath(gamma: int) -> None:
    with mpmath.workdps(25):
        for u in (1.0, 100.0, 400.0):
            matrix = _matrix_balanced(gamma, 4, u)
            assert np.array_equal(matrix, -matrix.T), (gamma, u)
            assert np.all(np.diag(matrix) == 0.0), (gamma, u)
            for a in range(4):
                for b in range(a + 1, 4):
                    want = _balanced_entry_mp(a, b, gamma, u)
                    error = float(abs((matrix[a, b] - want) / want))
                    assert error <= 1e-11, f"gamma={gamma} u={u} ({a},{b}): {error:.2e}"


# The origin, both sides of the series switch at x = 0.25, and a bulk grid.
ROW_POINTS = np.concatenate([[0.0, 0.2499, 0.25, 0.2501], np.linspace(0.01, 12.0, 55)])


@pytest.mark.parametrize("gamma", [0, 1])
def test_rows_match_mpmath(gamma: int) -> None:
    # The downward recurrence must lose nothing against evaluating every
    # order on its own, whose worst error on these points was 5.9e-15.
    with mpmath.workdps(30):
        # At the origin alpha_a = R_(2 gamma + a)(0) and beta_a =
        # 2 R_(2 gamma + a - 1)(0), with R_n(0) = 1/n! and R_-1(0) = 0.
        want = [[(1 / mpmath.factorial(n), 2 / mpmath.factorial(n - 1) if n else 0)
                 for n in range(2 * gamma, 2 * gamma + 10)]]
        want += [[_factors_mp(gamma, n, mpmath.mpf(x)) for n in range(2 * gamma, 2 * gamma + 10)]
                 for x in ROW_POINTS[1:]]
    worst = 0.0
    for k in range(1, 11):
        alpha, beta = microscopic._rows(gamma, k, ROW_POINTS)
        for j, factors in enumerate(want):
            for a, (want_alpha, want_beta) in enumerate(factors[:k]):
                for got, exact in ((alpha[a, j], want_alpha), (beta[a, j], want_beta)):
                    error = abs(got - exact) / abs(exact) if exact else abs(got)
                    worst = max(worst, float(error))
    assert worst <= 4e-15, f"gamma={gamma}: {worst:.2e}"


@pytest.mark.parametrize("gamma", [0, 1])
def test_rows_evaluate_two_bessel_orders(monkeypatch, gamma: int) -> None:
    orders = []
    evaluate = microscopic._bessel_i_reduced

    def counted(n: int, x: np.ndarray) -> np.ndarray:
        orders.append(n)
        return evaluate(n, x)

    monkeypatch.setattr(microscopic, "_bessel_i_reduced", counted)
    for k in range(1, 11):
        orders.clear()
        microscopic._rows(gamma, k, ROW_POINTS)
        assert sorted(orders) == [2 * gamma + k - 1, 2 * gamma + k], (gamma, k)


def test_kernel_limit_small_u_power() -> None:
    # Xi_ab vanishes like u^(a+b+1+2*gamma); the reduced value must be
    # stable between two tiny abscissae.
    for gamma, a, b in ((0, 0, 1), (1, 0, 1)):
        power = a + b + 1 + 2 * gamma
        lo = xi_big_lim(a, b, gamma, 1e-6) * 1e6 ** power
        hi = xi_big_lim(a, b, gamma, 1e-4) * 1e4 ** power
        assert lo == pytest.approx(hi, rel=5e-2)


def test_kernel_limit_rejects_bad_arguments() -> None:
    with pytest.raises(ValueError):
        xi_big_lim(0, 1, 0, 0.0)
    with pytest.raises(ValueError):
        xi_big_lim(0, 1, 2, 1.0)


_exact_rule = specfun._gauss_legendre


def _never_settles(n):
    # Every node at the midpoint, with a total weight that grows with the
    # order: successive values never agree.  Only the ladder's orders (48
    # and up) break, so the Fredholm determinant's few nodes stay exact.
    if n < 48:
        return _exact_rule(n)
    return np.zeros(n), np.full(n, float(n))


# The guards below sit where E < 1e-5 (1.6e-7 at k = 2, u = 250; 2.3e-9 at
# k = 2, u = 300; 3.9e-9 at k = 3, u = 400), so the Fredholm determinant
# declines and the Pfaffian serves.
def test_unsettled_kernel_quadrature_raises(monkeypatch) -> None:
    monkeypatch.setattr(specfun, "_gauss_legendre", _never_settles)
    with pytest.raises(RuntimeError, match=r"gamma=0, k=3, u=400\.0.*order 768"):
        gap_micro(3, 400.0)


def _pair(pf: float) -> np.ndarray:
    return np.array([[0.0, pf], [-pf, 0.0]])


def test_pfaffian_value_scales_through_the_log() -> None:
    # A zero Pfaffian is an exact zero, whatever the scale.
    zero = _pfaffian_value(0, np.zeros((2, 2)), None, 800.0, "test", u=1.0)
    assert zero == 0.0 and math.copysign(1.0, zero) == 1.0
    # Past e^709 the value is infinite and fails the range check by name,
    # also where exp itself would raise OverflowError.
    for gamma in (0, 1):
        for ln_scale in (709.5, 1e6):
            with pytest.raises(RuntimeError, match=rf"test value inf is impossible "
                                                    rf"at gamma={gamma}, u=1\.0"):
                _pfaffian_value(gamma, _pair(1.0), None, ln_scale, "test", u=1.0)
    # A negative Pfaffian keeps its sign and is rejected.
    with pytest.raises(RuntimeError, match=rf"value {-math.exp(-1.0)} is impossible"):
        _pfaffian_value(1, _pair(-1.0), None, -1.0, "test", u=1.0)
    # In range: exp(ln|pf| + ln_scale), plain and bordered.
    for gamma, matrix, border, pf in ((0, _pair(0.75), None, 0.75),
                                      (1, np.zeros((1, 1)), np.array([0.25]), 0.25)):
        got = _pfaffian_value(gamma, matrix, border, -0.5, "test", u=1.0)
        assert got == math.exp(math.log(pf) - 0.5)


@pytest.mark.parametrize("k", [2, 3], ids=["plain", "bordered"])
def test_non_finite_limit_pfaffian_raises(monkeypatch, k: int) -> None:
    # A kernel block that breaks down must fail by name in the limit as at
    # finite p, whether or not the block is bordered.
    monkeypatch.setattr(microscopic, "_matrix_balanced",
                        lambda gamma, k, u: np.full((k, k), np.nan))
    with pytest.raises(RuntimeError,
                       match=rf"kernel Pfaffian is nan at gamma=0, k={k}, u=400\.0"):
        gap_micro(k, 400.0)


@pytest.mark.parametrize("evaluate, gamma", [(gap_micro, 0), (smallest_micro, 1)],
                         ids=["gap", "density"])
def test_negative_limit_pfaffian_raises(monkeypatch, evaluate, gamma: int) -> None:
    # A negated 2 x 2 block negates the Pfaffian, so the value leaves its
    # range for certain (the density, 1.4e-8, by more than VALUE_TOL); it
    # must fail by name and not leave the library.
    balanced = microscopic._matrix_balanced
    monkeypatch.setattr(microscopic, "_matrix_balanced",
                        lambda gamma, k, u: -balanced(gamma, k, u))
    with pytest.raises(RuntimeError, match=rf"hard-edge limit value -\S+ is "
                                            rf"impossible at gamma={gamma}, k=2, u=250\.0"):
        evaluate(2, 250.0)


@pytest.mark.parametrize("k, u, why", [
    (2, 300.0, r"E=2\.33e-09 is below 1e-05"),
    (8, 1200.0, r"has no measured node rule past nu=48 or u=1000"),
    (25, 1.0, r"has no measured node rule past nu=48 or u=1000"),
], ids=["small-gap", "large-u", "large-nu"])
def test_unserved_limit_point_names_both_routes(monkeypatch, k: int, u: float,
                                                why: str) -> None:
    # Where the determinant declines and the Pfaffian then fails, the error
    # names the route that failed, the point, and why the other declined.
    monkeypatch.setattr(microscopic, "_matrix_balanced",
                        lambda gamma, k, u: np.full((k, k), np.nan))
    for evaluate, gamma in ((gap_micro, 0), (smallest_micro, 1)):
        with pytest.raises(RuntimeError, match=rf"^Pfaffian route: .* at gamma={gamma}, "
                                                rf"k={k}, u={u}.*\(the Fredholm "
                                                rf"determinant {why}\)$"):
            evaluate(k, u)


def _pfaffian_route(monkeypatch, evaluate, k: int, u: float) -> float:
    with monkeypatch.context() as patch:
        patch.setattr(microscopic, "_FREDHOLM_MIN_GAP", math.inf)
        return evaluate(k, u)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_fredholm_meets_pfaffian_route(monkeypatch, k: int) -> None:
    # The two routes share no formula; where the determinant serves (E >=
    # 1e-5) the Pfaffian, accurate to ~1e-10 at k <= 4, must agree with it.
    served = 0
    for u in (1e-4, 0.5, 5.0, 20.0, 60.0, 100.0, 150.0, 200.0, 300.0, 380.0):
        try:
            gap = microscopic._fredholm_value(0, 2 * k, u)
        except microscopic._Declined:
            continue
        served += 1
        for evaluate in (gap_micro, smallest_micro):
            fredholm = evaluate(k, u)
            pfaffian = _pfaffian_route(monkeypatch, evaluate, k, u)
            assert fredholm == pytest.approx(pfaffian, rel=1e-9), (evaluate.__name__, u, gap)
    assert served >= 5, served


def _doubling(which: int):
    """_fredholm_rule with its node count (which = 0) or its Chebyshev count
    (which = 1) doubled, declining where the rule declines."""
    rule = microscopic._fredholm_rule

    def doubled(nu: int, u: float) -> tuple[int, int] | None:
        counts = rule(nu, u)
        if counts is None:
            return None
        return tuple(2 * n if i == which else n for i, n in enumerate(counts))
    return doubled


def test_gap_at_high_topology_near_origin(monkeypatch) -> None:
    # The Pfaffian route returned 3.79 here, which the range guard rejected
    # (test_impossible_values_raise forces that guard now); the determinant
    # serves the point and is settled in its nodes.
    value = gap_micro(14, 0.01)
    assert 0.0 <= value <= 1.0
    monkeypatch.setattr(microscopic, "_fredholm_rule", _doubling(0))
    assert abs(gap_micro(14, 0.01) - value) <= 1e-14


def test_fredholm_at_nu_one_is_exponential() -> None:
    # At nu = 1 the gap is exp(-u/8) and the density exp(-u/8)/8.
    for u in (0.01, 1.0, 10.0, 40.0, 80.0):
        want = math.exp(-u / 8.0)
        assert microscopic._fredholm_value(0, 1, u) == pytest.approx(want, rel=1e-11), u
        assert microscopic._fredholm_value(1, 1, u) == pytest.approx(want / 8.0,
                                                                     rel=1e-11), u


FREDHOLM_GRID = (1e-6, 1e-3, 0.3, 1.0, 4.0, 10.0, 30.0, 50.0, 80.0, 100.0, 200.0, 300.0,
                 400.0, 500.0, 700.0, 1000.0)


@pytest.mark.parametrize("which", [0, 1], ids=["nodes", "chebyshev"])
def test_fredholm_node_rule_is_converged(monkeypatch, which: int) -> None:
    # Twice the nodes of the rule, or twice the Chebyshev points of the Bessel
    # interpolant, must move E by at most 2e-14 absolute and P by at most
    # 1e-11 + 2e-14/E relative, at every nu the rule serves.
    served = []
    for nu in [1] + list(range(2, microscopic._FREDHOLM_MAX_NU + 1, 2)):
        for u in FREDHOLM_GRID:
            try:
                values = [microscopic._fredholm_value(gamma, nu, u) for gamma in (0, 1)]
            except microscopic._Declined:
                continue
            served.append((nu, u, values))
    with monkeypatch.context() as patch:
        patch.setattr(microscopic, "_fredholm_rule", _doubling(which))
        for nu, u, (gap, density) in served:
            assert abs(microscopic._fredholm_value(0, nu, u) - gap) <= 2e-14, (nu, u)
            doubled = microscopic._fredholm_value(1, nu, u)
            assert doubled == pytest.approx(density, rel=1e-11 + 2e-14 / gap, abs=0.0), (nu, u)
    assert len(served) >= 250, len(served)


def test_nystrom_entries_match_mpmath() -> None:
    # At the top u of each rung, J_nu and J_(nu+1) interpolated onto the
    # Nystrom triangle are within twice jv's own error against 30 digits,
    # both relative to max|J|.  jv's error is taken on the triangle and at
    # the interpolation points, whose jv values the interpolant carries, and
    # as at least one rounding of max|J| (2^-52): at u = 1 and nu <= 2 both
    # sit at the format's floor, 1-2 units in the last place of max|J|.
    for nu in (1, 2, 8, 24, 48):
        for u, _, _ in microscopic._FREDHOLM_RUNGS:
            r, _, _, points, interpolation = microscopic._nystrom(
                *microscopic._fredholm_rule(nu, u))
            orders, root = np.array([[nu], [nu + 1]]), math.sqrt(u)
            with mpmath.workdps(30):
                def exact(args):
                    return np.array([[float(mpmath.besselj(n, mpmath.sqrt(u) * x))
                                      for x in args] for n in (nu, nu + 1)])
                on_triangle, on_points = exact(r), exact(points)
            scale = np.abs(on_triangle).max(axis=1)
            at_points = jv(orders, root * points)
            jv_errors = [np.abs(jv(orders, root * r) - on_triangle).max(axis=1),
                         np.abs(at_points - on_points).max(axis=1), np.finfo(float).eps * scale]
            jv_error = np.max(jv_errors, axis=0) / scale
            error = np.abs(at_points @ interpolation.T - on_triangle).max(axis=1) / scale
            assert np.all(error <= 2.0 * jv_error), (nu, u, error, jv_error)


def test_barycentric_matrix_has_no_pole(monkeypatch) -> None:
    # The barycentric matrix divides by r - point, so no r of a layout may be
    # a Chebyshev point: at every (m, d) the rule gives and at the doubled m
    # and d that test_fredholm_node_rule_is_converged asks for.  The margin is
    # one ulp: at odd m the middle node gives r = 0.5 exactly on the diagonal,
    # and at odd d the middle point sin^2(pi/4) rounds to 0.5 +- 1.1e-16.
    monkeypatch.setattr(microscopic, "_NYSTROM", {})
    pairs = set()
    for nu in range(microscopic._FREDHOLM_MAX_NU + 1):
        for u, _, _ in microscopic._FREDHOLM_RUNGS:
            m, d = microscopic._fredholm_rule(nu, u)
            pairs |= {(m, d), (2 * m, d), (m, 2 * d)}
    for m, d in sorted(pairs):
        r, _, _, points, matrix = microscopic._nystrom(m, d)
        assert np.all(np.isfinite(matrix)), (m, d)
        assert np.abs(matrix.sum(axis=1) - 1.0).max() <= 1e-14, (m, d)
        assert not np.isin(r, points).any(), (m, d)


# Production's limit against the mpmath determinant on twice-or-more its
# nodes: (k, u), one of them at u = 1000 with nu = 24.
ORACLE_POINTS = ((1, 5.0), (4, 150.0), (12, 1000.0), (24, 0.5))


@pytest.mark.parametrize("k, u", ORACLE_POINTS)
def test_fredholm_matches_mpmath_oracle(k: int, u: float) -> None:
    # E to 2e-14 absolute and P to 1e-11 + 2e-14/E relative, the bounds of
    # the node rule.
    gap = float(gap_fredholm_mp(2 * k, u, 32, 30))
    density = float(smallest_fredholm_mp(2 * k, u, 32, 30))
    assert abs(gap_micro(k, u) - gap) <= 2e-14
    assert smallest_micro(k, u) == pytest.approx(density, rel=1e-11 + 2e-14 / gap, abs=0.0)


def test_fredholm_oracle_at_nu_one_is_exponential() -> None:
    # At nu = 1 the gap is exp(-u/8) and the density exp(-u/8)/8.  At
    # u = 400 the gap is 2e-22, far below any double route's reach; the
    # determinant's cancellation there costs ~12 of the 50 digits.
    with mpmath.workdps(50):
        want = mpmath.exp(-mpmath.mpf(400) / 8)
        assert abs(gap_fredholm_mp(1, 400.0, 30, 50) / want - 1) <= 1e-30
        assert abs(smallest_fredholm_mp(1, 400.0, 30, 50) * 8 / want - 1) <= 1e-30


@pytest.mark.parametrize("k", [6, 8, 10])
def test_fredholm_density_is_derivative_of_gap(k: int) -> None:
    # Where the Pfaffian missed P = -dE/du by up to O(1), the determinant
    # meets it to the 5-point stencil's own error (step 1e-3 u).
    for u in (200.0, 300.0, 500.0):
        h = 1e-3 * u
        e2m, e1m, e1p, e2p = (gap_micro(k, u + m * h) for m in (-2, -1, 1, 2))
        slope = -(e2m - 8.0 * e1m + 8.0 * e1p - e2p) / (12.0 * h)
        assert smallest_micro(k, u) == pytest.approx(slope, rel=1e-8), u


def test_gap_topology_zero_matches_closed_form() -> None:
    # E_0(u) = exp(-u/8 - sqrt(u)/2); the k=0 route goes through the
    # empty Pfaffian and must agree to rounding.
    for u in (0.5, 4.0, 20.0):
        want = math.exp(-u / 8.0 - math.sqrt(u) / 2.0)
        assert gap_micro(0, u) == pytest.approx(want, rel=1e-13)
    assert gap_micro(0, 4.0) == pytest.approx(math.exp(-1.5), rel=1e-13)


def test_gap_is_one_at_origin() -> None:
    for k in range(5):
        assert gap_micro(k, 0.0) == 1.0
        assert abs(gap_micro(k, 1e-8) - 1.0) <= 1e-3


def test_gap_monotone_and_bounded() -> None:
    for k in (1, 2):
        grid = np.linspace(0.0, 25.0, 40)
        values = [gap_micro(k, float(u)) for u in grid]
        assert all(0.0 <= v <= 1.0 + 1e-12 for v in values)
        assert all(values[i] >= values[i + 1] - 1e-12
                   for i in range(len(values) - 1))


def test_gap_rejects_negative_argument() -> None:
    with pytest.raises(ValueError):
        gap_micro(1, -0.5)


def test_smallest_topology_zero_matches_closed_form() -> None:
    # P_0(u) = (sqrt(u)+2)/(8 sqrt(u)) exp(-u/8 - sqrt(u)/2)
    for u in (0.3, 1.0, 9.0):
        root = math.sqrt(u)
        want = (root + 2.0) / (8.0 * root) * math.exp(-u / 8.0 - root / 2.0)
        assert smallest_micro(0, u) == pytest.approx(want, rel=1e-13)
    assert smallest_micro(0, 1.0) == pytest.approx(0.375 * math.exp(-0.625),
                                                   rel=1e-13)


def test_smallest_integrates_to_one() -> None:
    for k in range(4):
        value, _ = quad(lambda u: smallest_micro(k, u), 0.0, 400.0, limit=400)
        assert value == pytest.approx(1.0, rel=1e-6), f"k={k}: {value}"


def test_smallest_origin_power() -> None:
    # P_{2k}(u) vanishes like u^(k - 1/2), read off on a log-log chord.
    for k in range(4):
        lo = smallest_micro(k, 1e-6)
        hi = smallest_micro(k, 1e-4)
        slope = (math.log(hi) - math.log(lo)) / math.log(100.0)
        assert slope == pytest.approx(k - 0.5, abs=1e-2)


def test_smallest_rejects_non_positive_argument() -> None:
    with pytest.raises(ValueError):
        smallest_micro(1, 0.0)
    with pytest.raises(ValueError):
        smallest_micro(1, -2.0)


def test_smallest_is_derivative_of_gap() -> None:
    for k, u in ((0, 1.0), (1, 1.0), (2, 8.0), (3, 8.0)):
        h = 0.01 * math.sqrt(u)
        stencil = (
            8.0 * (gap_micro(k, u + h) - gap_micro(k, u - h))
            - (gap_micro(k, u + 2 * h) - gap_micro(k, u - 2 * h))
        ) / (12.0 * h)
        assert -stencil == pytest.approx(smallest_micro(k, u), rel=1e-5)


def test_density_pinned_value() -> None:
    assert micro_density(0, 1.0) == pytest.approx(DENSITY_NU0_U1, rel=1e-10)


def test_density_small_u_coefficient() -> None:
    # The resolvent-like term dominates as u -> 0: rho_nu(u) u^((1-nu)/2)
    # tends to 1/(2^(nu+2) nu!), checked at two abscissae.
    nu = 2
    want = 1.0 / (2.0 ** (nu + 2) * math.factorial(nu))
    for u in (1e-6, 1e-8):
        reduced = micro_density(nu, u) * u ** ((1 - nu) / 2.0)
        assert reduced == pytest.approx(want, rel=1e-2)
    ratio = (micro_density(nu, 1e-6) * 1e-6 ** ((1 - nu) / 2.0)) \
        / (micro_density(nu, 1e-8) * 1e-8 ** ((1 - nu) / 2.0))
    assert ratio == pytest.approx(1.0, abs=1e-2)


def test_density_tracks_smallest_at_small_u() -> None:
    # Near the origin the level density is exhausted by the smallest
    # eigenvalue, so the two curves agree closely at u = 0.01.
    for nu in (2, 4):
        rho = micro_density(nu, 0.01)
        dens = smallest_micro(nu // 2, 0.01)
        assert abs(rho - dens) / rho <= 1e-2


def _bessel_j_integral(nu: int, x: mpmath.mpf) -> mpmath.mpf:
    """int_0^x J_nu without quadrature: Abramowitz & Stegun 11.1.7 for
    nu = 0 (through Struve H), 1 - J_0(x) for nu = 1, then
    int J_(n+1) = int J_(n-1) - 2 J_n(x)."""
    j0, j1 = mpmath.besselj(0, x), mpmath.besselj(1, x)
    if nu % 2 == 0:
        total = x * j0 + mpmath.pi * x / 2 \
            * (j1 * mpmath.struveh(0, x) - j0 * mpmath.struveh(1, x))
    else:
        total = 1 - j0
    for n in range(nu % 2 + 1, nu, 2):
        total -= 2 * mpmath.besselj(n, x)
    return total


@pytest.mark.parametrize("nu", [0, 3, 4, 9])
def test_density_matches_closed_form_bessel_integral(nu: int) -> None:
    # Far out at the hard edge the partial integral of J_nu oscillates
    # over ~sqrt(u) / pi periods; its series must still sum to it.
    # u = 361.9 and 392.04 (sqrt(u) = 19.0-19.8) sit where
    # scipy.special.itj0y0 errs by up to 1e-9 absolute, so a closed-form
    # integral taken from it would fail here.  At u = 2e7 and 5e7 no
    # Gauss-Legendre order up to 768 settles on the integral.
    for u in (1.0, 1e2, 361.9, 392.04, 1e4, 1e6, 2e7, 5e7):
        with mpmath.workdps(30):
            x = mpmath.sqrt(u)
            down, mid, up = (mpmath.besselj(n, x) for n in (nu - 1, nu, nu + 1))
            want = (mid * mid - down * up) / 4 \
                + mid * (1 - _bessel_j_integral(nu, x)) / (4 * x)
        assert micro_density(nu, u) == pytest.approx(float(want), rel=1e-11), u


def test_density_takes_no_quadrature(monkeypatch) -> None:
    # The partial Bessel integral is a series, so no u asks the ladder for
    # a rule, however many periods the integrand would oscillate over.
    def no_rule(n):
        raise AssertionError(f"asked for a rule of order {n}")

    monkeypatch.setattr(specfun, "_gauss_legendre", no_rule)
    for u in (1e-4, 25.0, 1e6, 5e7):
        assert micro_density(4, u) > 0.0


@pytest.mark.parametrize("k, u", [(2, 300.0), (8, 1100.0), (16, 3000.0), (24, 5000.0)])
def test_limit_kernel_quadrature_settles_at_order_96(monkeypatch, k: int, u: float) -> None:
    # Points the Pfaffian serves: E < 1e-5 at k = 2, 16 and 24, and u past
    # the determinant's node rule at k = 8.  Its kernel quadrature settles
    # at order 96, which leaves the ladder's cap of 768 three rungs spare.
    asked = []

    def recorded(n):
        asked.append(n)
        return _exact_rule(n)

    monkeypatch.setattr(specfun, "_gauss_legendre", recorded)
    for gamma in (0, 1):
        asked.clear()
        _matrix_balanced(gamma, k, u)
        assert max(asked) == 96, (gamma, sorted(set(asked)))


@pytest.mark.parametrize("evaluate", [gap_micro, smallest_micro, micro_density])
def test_limit_rejects_non_finite_u(monkeypatch, evaluate) -> None:
    # Rejected before any quadrature, which would otherwise climb its
    # ladder on a NaN.
    def no_quadrature(*args):
        raise AssertionError("reached the quadrature")

    monkeypatch.setattr(microscopic, "_settled_integral", no_quadrature)
    for u in (math.nan, math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            evaluate(2, u)


def test_limit_rejects_non_finite_u_under_optimization() -> None:
    # The checks must not depend on assertions being enabled.
    script = (
        "import hardedge.microscopic as m\n"
        "def no_quadrature(*args):\n"
        "    raise SystemExit('reached the quadrature')\n"
        "m._settled_integral = no_quadrature\n"
        "for evaluate in (m.gap_micro, m.smallest_micro, m.micro_density):\n"
        "    for u in (float('nan'), float('inf')):\n"
        "        try:\n"
        "            evaluate(2, u)\n"
        "        except ValueError:\n"
        "            continue\n"
        "        raise SystemExit(f'{evaluate.__name__} accepted {u}')\n"
    )
    src = str(Path(microscopic.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stdout + done.stderr


def test_density_rejects_non_positive_argument() -> None:
    with pytest.raises(ValueError):
        micro_density(2, 0.0)
    # Past the largest u measured against the oracle the series would take
    # ever more orders, so the input is bounded there.
    assert micro_density(2, 1e8) > 0.0
    with pytest.raises(ValueError, match="at most 1e8"):
        micro_density(2, 1.0000001e8)
