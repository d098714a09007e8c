"""Kernel entries: reference sums, closed forms, and the bulk builder."""

import math

import numpy as np
import pytest
from scipy.integrate import dblquad

from hardedge.kernels import BulkTables, border_column, kernel_matrix
from hardedge.reference.kernels import KernelSpec, kernel_cd, kernel_sum, xi_big, xi_small
from hardedge.reference.sop import WeightParams, partition_z_t, weight
from hardedge.reference.specfun import laguerre_monic, tricomi_u


def _border_mixing(gamma: int, l: int, t: float) -> float:
    num = tricomi_u(gamma + (l - 1) / 2.0, gamma + 0.5, t / 2.0)
    den = tricomi_u(gamma + (l - 1) / 2.0, gamma + 1.5, t / 2.0)
    return (num / den).value


def _xi_small_alternating(a: int, gamma: int, l: int, t: float) -> float:
    # Border entry written with monic Laguerre values and explicit signs,
    # the form the positive-sum implementation must reproduce.
    mix = _border_mixing(gamma, l, t)
    term = laguerre_monic(l - a - 2, 2 * gamma + a, -t).value \
        / math.factorial(l - a - 2)
    if l - a - 3 >= 0:
        term -= mix * laguerre_monic(l - a - 3, 2 * gamma + a + 1, -t).value \
            / math.factorial(l - a - 3)
    return (-1.0) ** (a + l) * t ** (2 * gamma + a) * term


def test_spec_validation() -> None:
    spec = KernelSpec(gamma=0, l=6, t=1.0)
    assert spec.parity == "even"
    assert KernelSpec(gamma=1, l=7, t=0.5).parity == "odd"
    with pytest.raises(AssertionError):
        KernelSpec(gamma=-1, l=6, t=1.0)
    with pytest.raises(AssertionError):
        KernelSpec(gamma=0, l=1, t=1.0)
    with pytest.raises(AssertionError):
        KernelSpec(gamma=0, l=6, t=0.0)
    with pytest.raises(AssertionError):
        xi_big(0, 5, spec)
    with pytest.raises(AssertionError):
        xi_small(5, spec)


def test_xi_small_positive_form_matches_alternating_form() -> None:
    for gamma in (0, 1):
        for l in (4, 5, 6, 7):
            for t in (0.3, 1.0, 5.0):
                spec = KernelSpec(gamma=gamma, l=l, t=t)
                for a in range(min(l - 1, 5)):
                    want = _xi_small_alternating(a, gamma, l, t)
                    assert xi_small(a, spec) == pytest.approx(want, rel=1e-12), \
                        (gamma, l, t, a)


def test_xi_small_highest_order_is_pure_power() -> None:
    for gamma in (0, 1):
        for l in (4, 5, 9):
            for t in (0.25, 2.0):
                spec = KernelSpec(gamma=gamma, l=l, t=t)
                want = t ** (2 * gamma + l - 2)
                assert xi_small(l - 2, spec) == pytest.approx(want, rel=1e-14)


def test_xi_small_is_limit_of_two_point_kernel() -> None:
    # The border entry at order zero is the large-argument limit of the
    # two-point kernel, up to the partition-function ratio that converts the
    # kernel's average-of-characteristic-polynomial content back to monic form.
    far = 1e13
    for gamma, l, tol in ((0, 6, 1e-10), (1, 6, 1e-9), (0, 5, 1e-9), (1, 7, 1e-9)):
        t = 1.0
        spec = KernelSpec(gamma=gamma, l=l, t=t)
        limit = -kernel_sum(-t, far, spec) / far ** (l - 1)
        z_ratio = (partition_z_t(l, gamma, t) / partition_z_t(l - 2, gamma, t)).value
        got = (-1.0) ** l * t ** (2 * gamma) * limit * z_ratio \
            / (l * (l - 1) * math.factorial(l - 2))
        assert got == pytest.approx(xi_small(0, spec), rel=tol), (gamma, l)


def test_xi_small_matches_derivative_of_border_generator() -> None:
    # xi_a = (-1)^(a+l) t^(2 gamma + a) d^a Phi(-t) / (l-2)! where Phi is the
    # degree-(l-2) generator; check a = 1 against a central difference.
    def generator(kappa: float, gamma: int, l: int, t: float) -> float:
        mix = _border_mixing(gamma, l, t)
        return laguerre_monic(l - 2, 2 * gamma, kappa).value \
            - (l - 2) * mix * laguerre_monic(l - 3, 2 * gamma + 1, kappa).value

    step = 1e-4
    for gamma in (0, 1):
        l, t = 7, 0.5
        spec = KernelSpec(gamma=gamma, l=l, t=t)
        slope = (generator(-t + step, gamma, l, t)
                 - generator(-t - step, gamma, l, t)) / (2.0 * step)
        want = (-1.0) ** (1 + l) * t ** (2 * gamma + 1) * slope \
            / math.factorial(l - 2)
        assert xi_small(1, spec) == pytest.approx(want, rel=1e-6)


def test_xi_big_antisymmetry_and_zero_diagonal() -> None:
    spec = KernelSpec(gamma=0, l=6, t=1.0)
    assert xi_big(0, 1, spec) == -xi_big(1, 0, spec)
    for a in range(3):
        assert xi_big(a, a, spec) == 0.0
    matrix = kernel_matrix(BulkTables(0, 6, [1.0], 4))[0]
    assert np.array_equal(matrix, -matrix.T)
    assert np.all(np.diag(matrix) == 0.0)


def test_matrix_matches_reference_route() -> None:
    for gamma in (0, 1):
        for l in (4, 5, 6, 7, 12, 13):
            for t in (0.5, 2.0, 10.0):
                size = min(4, l - 1)
                matrix = kernel_matrix(BulkTables(gamma, l, [t], size))[0]
                spec = KernelSpec(gamma=gamma, l=l, t=t)
                for a in range(size):
                    for b in range(a + 1, size):
                        full = matrix[a, b] * t ** (2 * gamma + a + b + 1)
                        assert full == pytest.approx(xi_big(a, b, spec), rel=1e-11), \
                            (gamma, l, t, a, b)


def test_border_column_matches_xi_small() -> None:
    for gamma in (0, 1):
        for l in (5, 8, 13):
            t = 0.7
            spec = KernelSpec(gamma=gamma, l=l, t=t)
            column = border_column(BulkTables(gamma, l, [t], 4))[0]
            assert np.all(column > 0.0)
            for a in range(4):
                assert column[a] * t ** (2 * gamma + a) \
                    == pytest.approx(xi_small(a, spec), rel=1e-14)


def test_two_point_routes_agree_at_pinned_point() -> None:
    spec = KernelSpec(gamma=0, l=4, t=1.0)
    want = kernel_sum(-1.3, -0.7, spec)
    assert kernel_cd(-1.3, -0.7, 0, 4, 1.0) == pytest.approx(want, rel=1e-9)


def test_two_point_routes_agree_on_random_pairs() -> None:
    # Points are kept well separated: the divided difference in the closed
    # form cancels catastrophically as the arguments approach each other.
    rng = np.random.default_rng(20240819)
    for gamma in (0, 1):
        for l in (4, 6):
            for t in (0.5, 1.0):
                spec = KernelSpec(gamma=gamma, l=l, t=t)
                for _ in range(5):
                    xa = -rng.uniform(1.8, 3.0)
                    xb = -rng.uniform(0.2, 1.4)
                    want = kernel_sum(xa, xb, spec)
                    assert kernel_cd(xa, xb, gamma, l, t) \
                        == pytest.approx(want, rel=1e-9), (gamma, l, t, xa, xb)


def test_two_point_closed_form_rejects_bad_arguments() -> None:
    with pytest.raises(ValueError):
        kernel_cd(-1.0, -1.0, 0, 4, 1.0)
    with pytest.raises(ValueError):
        kernel_cd(-1.0, -0.5, 0, 5, 1.0)
    with pytest.raises(ValueError):
        kernel_cd(-1.0, -0.5, 0, 2, 1.0)


def test_two_point_kernel_average_representation() -> None:
    # For l = 4 the kernel is l (l-1) (xa - xb) / Z_4 times the integral of
    # det(X - xa) det(X - xb) over two eigenvalues with the shifted weight.
    for gamma in (0, 1):
        t = 1.0
        xa, xb = -1.1, -0.4
        params = WeightParams(gamma=gamma, t=t)

        def integrand(y: float, x: float) -> float:
            dets = (x - xa) * (y - xa) * (x - xb) * (y - xb)
            return (x - y) * weight(x, params) * weight(y, params) * dets

        ordered, _ = dblquad(integrand, 0.0, 140.0, 0.0, lambda x: x,
                             epsabs=1e-11, epsrel=1e-11)
        z_4 = partition_z_t(4, gamma, t)
        want = 12.0 * (xa - xb) * 2.0 * ordered / z_4.value
        spec = KernelSpec(gamma=gamma, l=4, t=t)
        assert kernel_sum(xa, xb, spec) == pytest.approx(want, rel=1e-5)


def test_matrix_and_border_stay_finite_across_scales() -> None:
    for gamma in (0, 1):
        for l in (6, 13, 40):
            for t in (1e-4, 0.1, 5.0, 50.0):
                matrix = kernel_matrix(BulkTables(gamma, l, [t], 3))[0]
                column = border_column(BulkTables(gamma, l, [t], 3))[0]
                assert np.all(np.isfinite(matrix)), (gamma, l, t)
                assert np.all(np.isfinite(column)), (gamma, l, t)
                assert np.all(column > 0.0), (gamma, l, t)


def test_recurrence_envelope_guard() -> None:
    with pytest.raises(ValueError):
        BulkTables(0, 4000, [100.0], 2)
    with pytest.raises(ValueError):
        BulkTables(0, 4, [1.0], 4)


def test_size_one_matrix_is_zero() -> None:
    # A 1 x 1 antisymmetric matrix is zero: the odd-k assembly at k = 1 reads
    # only the border.
    for gamma in (0, 1):
        for l in (4, 5, 1001):
            matrix = kernel_matrix(BulkTables(gamma, l, [0.3], 1))[0]
            assert matrix.shape == (1, 1) and matrix[0, 0] == 0.0, (gamma, l)
