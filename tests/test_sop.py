"""Tests for the skew-orthogonal polynomial machinery."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from hardedge.reference.sop import (
    LaguerreCombination,
    WeightParams,
    combination_weight_integral,
    half_power_average,
    partition_z,
    partition_z_t,
    skew_product_oracle,
    sop_even,
    sop_hat,
    sop_moment,
    sop_norm,
    sop_odd,
    weight,
    weight_moment,
)
from hardedge.reference.specfun import tricomi_u


def _poly(n: int, params: WeightParams) -> LaguerreCombination:
    return sop_even(n // 2, params) if n % 2 == 0 else sop_odd(n // 2, params)


def test_weight_values() -> None:
    assert weight(0.0, WeightParams(0, 1.0)) == pytest.approx(1.0)
    got = weight(2.0, WeightParams(1, 0.5))
    assert got == pytest.approx(2.0 * 2.5 ** -0.5 * math.exp(-1.0), rel=1e-12)
    assert got == pytest.approx(0.46534, rel=1e-4)
    assert weight(0.0, WeightParams(1, 1.0)) == 0.0
    with pytest.raises(ValueError):
        weight(-0.1, WeightParams(0, 1.0))


def test_weight_positive() -> None:
    for gamma in (0, 1):
        params = WeightParams(gamma, 2.0)
        for x in (1e-6, 0.5, 3.0, 40.0):
            assert weight(x, params) > 0.0


def test_weight_moment_structure() -> None:
    # gamma=0, m=0, t=2: Gamma(1) 2^(1/2) U(1, 3/2, 1)
    got = weight_moment(0, WeightParams(0, 2.0))
    want = tricomi_u(1.0, 1.5, 1.0).scaled(0.5 * math.log(2.0))
    assert got.value == pytest.approx(want.value, rel=1e-12)


def test_weight_moment_against_quadrature() -> None:
    params = WeightParams(0, 4.0)
    got = weight_moment(0, params).value
    want, _ = quad(lambda x: weight(x, params), 0.0, 300.0,
                   epsabs=1e-13, epsrel=1e-13, limit=200)
    assert got == pytest.approx(want, rel=1e-9)


def test_weight_moment_matches_single_eigenvalue_partition() -> None:
    for gamma in (0, 1):
        for t in (0.5, 2.0):
            lhs = weight_moment(0, WeightParams(gamma, t))
            rhs = partition_z_t(1, gamma, t)
            assert lhs.value == pytest.approx(rhs.value, rel=1e-11)


def test_partition_z_small_cases() -> None:
    assert partition_z(1, 1).value == pytest.approx(2.0, rel=1e-13)
    assert partition_z(1, 0).value == pytest.approx(math.sqrt(2.0 * math.pi),
                                                    rel=1e-13)


def test_partition_z_two_eigenvalues_quadrature() -> None:
    # Z_{2,0} = int int |x-y| (xy)^(-1/2) e^(-(x+y)/2), split at x=y.
    def integrand(y: float, x: float) -> float:
        return (x - y) * (x * y) ** -0.5 * math.exp(-(x + y) / 2.0)

    val, _ = dblquad(integrand, 0.0, 120.0, 0.0, lambda x: x,
                     epsabs=1e-9, epsrel=1e-9)
    assert partition_z(2, 0).value == pytest.approx(2.0 * val, rel=1e-6)


def test_partition_z_t_large_t_asymptote() -> None:
    # Z_{p,gamma}(t) ~ Z_{p,2 gamma+1} t^(-p/2) as t -> inf.
    t = 1e6
    for p in range(1, 7):
        for gamma in (0, 1):
            ratio = (partition_z_t(p, gamma, t) / partition_z(p, 2 * gamma + 1))
            assert ratio.value * t ** (p / 2.0) == pytest.approx(1.0, rel=1e-3)


def test_partition_z_t_two_eigenvalues_quadrature() -> None:
    params = WeightParams(0, 1.0)

    def integrand(y: float, x: float) -> float:
        return (x - y) * weight(x, params) * weight(y, params)

    val, _ = dblquad(integrand, 0.0, 120.0, 0.0, lambda x: x,
                     epsabs=1e-9, epsrel=1e-9)
    assert partition_z_t(2, 0, 1.0).value == pytest.approx(2.0 * val, rel=1e-6)


def test_half_power_average_quadrature() -> None:
    # p=1, nu=1: (1/Z_{1,1}) int (x+3)^(-1/2) e^(-x/2) dx.
    val, _ = quad(lambda x: (x + 3.0) ** -0.5 * math.exp(-x / 2.0),
                  0.0, 300.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    want = val / partition_z(1, 1).value
    assert half_power_average(1, 1, 3.0).value == pytest.approx(want, rel=1e-9)


def test_half_power_average_partition_consistency() -> None:
    # Z_{p,2 gamma+1} <det^(-1/2)(X+t)> = Z_{p,gamma}(t)
    for p, gamma, t in ((3, 0, 1.0), (4, 1, 2.0)):
        lhs = partition_z(p, 2 * gamma + 1) * half_power_average(p, 2 * gamma + 1, t)
        rhs = partition_z_t(p, gamma, t)
        assert lhs.value == pytest.approx(rhs.value, rel=1e-11)


def test_half_power_average_large_t() -> None:
    t = 1e6
    for p in (1, 3, 5):
        for nu in (0, 2, 4):
            got = half_power_average(p, nu, t).value * t ** (p / 2.0)
            assert got == pytest.approx(1.0, rel=1e-3)


def test_sop_even_structure() -> None:
    params = WeightParams(1, 0.7)
    r0 = sop_even(0, params)
    assert r0.terms == ((0, 2.0, 1.0),)
    assert r0.parity == "even"
    r4 = sop_even(2, params)
    assert r4.index == 4
    assert r4.terms[0] == (4, 2.0, 1.0)  # monic leading term
    assert len(r4.terms) == 2


def test_sop_odd_first_polynomial() -> None:
    # R_1(y) = L_1^(2 gamma)(y) = y - (2 gamma + 1); at gamma=0: y - 1.
    params = WeightParams(0, 1.0)
    r1 = sop_odd(0, params)
    assert r1.terms == ((1, 0.0, 1.0),)
    assert r1.evaluate(5.0) == pytest.approx(4.0, rel=1e-13)
    assert r1.evaluate(1.0) == pytest.approx(0.0, abs=1e-13)


def test_sop_monic() -> None:
    for gamma in (0, 1):
        params = WeightParams(gamma, 1.3)
        for n in range(7):
            comb = _poly(n, params)
            lead = [term for term in comb.terms if term[0] == n]
            assert len(lead) == 1 and lead[0][2] == 1.0, \
                f"R_{n} at gamma={gamma} is not monic"


def test_sop_norm_closed_form() -> None:
    # r_0 at gamma=0: 2 Gamma[2] U(1, 1/2, t/2); denominator U(0,.,.) = 1.
    t = 2.0
    want = 2.0 * tricomi_u(1.0, 0.5, 1.0).value
    assert sop_norm(0, WeightParams(0, t)).value == pytest.approx(want,
                                                                  rel=1e-12)


def test_sop_norm_partition_ratio() -> None:
    # r_j = Z_{2j+2,g}(t) / [(2j+2)(2j+1) Z_{2j,g}(t)] at (j,g,t)=(1,0,1).
    j, gamma, t = 1, 0, 1.0
    want = (partition_z_t(2 * j + 2, gamma, t)
            / partition_z_t(2 * j, gamma, t)).value / ((2 * j + 2) * (2 * j + 1))
    assert sop_norm(j, WeightParams(gamma, t)).value == pytest.approx(
        want, rel=1e-10)


def test_sop_norm_positive() -> None:
    for gamma in (0, 1):
        for t in (0.01, 1.0, 100.0):
            params = WeightParams(gamma, t)
            for j in range(7):
                assert sop_norm(j, params).sign == 1


def test_sop_norm_against_quadrature() -> None:
    j, params = 1, WeightParams(1, 1.0)
    got = skew_product_oracle(sop_odd(j, params), sop_even(j, params), params)
    assert got == pytest.approx(sop_norm(j, params).value, rel=1e-5)


def test_skew_product_antisymmetry() -> None:
    params = WeightParams(0, 1.0)
    f = sop_odd(1, params)
    g = sop_even(1, params)
    fg = skew_product_oracle(f, g, params)
    gf = skew_product_oracle(g, f, params)
    assert fg == pytest.approx(-gf, rel=1e-8)
    assert skew_product_oracle(f, f, params) == pytest.approx(0.0, abs=1e-9)


def test_skew_product_r3_r0() -> None:
    params = WeightParams(0, 1.0)
    got = skew_product_oracle(sop_odd(1, params), sop_even(0, params), params)
    scale = sop_norm(0, params).value
    assert abs(got) <= 1e-6 * scale


@pytest.mark.parametrize("gamma", [0, 1])
@pytest.mark.parametrize("t", [0.1, 1.0, 5.0])
def test_skew_orthogonality_table(gamma: int, t: float) -> None:
    # <R_{2j+1}, R_{2i}> = r_j delta_ij; even-even and odd-odd all vanish.
    params = WeightParams(gamma, t)
    scale = sop_norm(0, params).value
    for i in range(3):
        for j in range(3):
            odd_even = skew_product_oracle(sop_odd(j, params),
                                           sop_even(i, params), params)
            if i == j:
                want = sop_norm(j, params).value
                assert odd_even == pytest.approx(want, rel=1e-5), \
                    f"diagonal i=j={j}"
            else:
                assert abs(odd_even) <= 1e-6 * scale, f"odd-even i={i} j={j}"
            if i < j:
                ee = skew_product_oracle(sop_even(j, params),
                                         sop_even(i, params), params)
                oo = skew_product_oracle(sop_odd(j, params),
                                         sop_odd(i, params), params)
                assert abs(ee) <= 1e-6 * scale, f"even-even i={i} j={j}"
                assert abs(oo) <= 1e-6 * scale, f"odd-odd i={i} j={j}"


def test_partition_equals_norm_product() -> None:
    # Even p = 2m: Z = p! prod_{j<m} r_j; odd p = 2m+1 carries the extra
    # weight integral of R_{2m}.
    for p in (2, 3, 4):
        for gamma, t in ((0, 1.0), (1, 2.0)):
            params = WeightParams(gamma, t)
            m = p // 2
            acc = math.lgamma(p + 1.0)
            for j in range(m):
                acc += sop_norm(j, params).log_magnitude
            if p % 2 == 1:
                acc += sop_moment(2 * m, params).log_magnitude
            assert partition_z_t(p, gamma, t).log_magnitude == pytest.approx(
                acc, abs=1e-9)


def test_sop_moment_routes_agree() -> None:
    # Closed-form moments vs exact monomial expansion, both parities.
    for gamma, t in ((0, 1.0), (1, 0.5), (0, 5.0)):
        params = WeightParams(gamma, t)
        for n in range(7):
            closed = sop_moment(n, params)
            expanded = combination_weight_integral(_poly(n, params), params)
            assert closed.value == pytest.approx(expanded.value, rel=1e-11), \
                f"moment of R_{n} at gamma={gamma}, t={t}"


def test_sop_moment_against_quadrature() -> None:
    params = WeightParams(0, 1.0)
    for n in (1, 2, 3):
        comb = _poly(n, params)
        want, _ = quad(lambda x: weight(x, params) * comb.evaluate(x),
                       0.0, 250.0, epsabs=1e-12, epsrel=1e-12, limit=300)
        assert sop_moment(n, params).value == pytest.approx(want, rel=1e-8)


def test_sop_hat_weight_integrals() -> None:
    params = WeightParams(0, 1.0)
    K = 2
    top = sop_hat(2 * K, K, params)
    got = combination_weight_integral(top, params)
    assert got.value == pytest.approx(1.0, rel=1e-11)
    scale = weight_moment(0, params).value
    for j in (0, 1, 2):
        hat = sop_hat(j, K, params)
        val = combination_weight_integral(hat, params)
        assert abs(val.value) <= 1e-9 * scale, f"hat moment j={j}"


def test_sop_hat_preserves_norms() -> None:
    # <R-hat_1, R-hat_0> = r_0 by quadrature.
    params = WeightParams(0, 1.0)
    got = skew_product_oracle(sop_hat(1, 2, params), sop_hat(0, 2, params),
                              params)
    assert got == pytest.approx(sop_norm(0, params).value, rel=1e-5)


def test_sop_hat_index_validation() -> None:
    params = WeightParams(0, 1.0)
    with pytest.raises(AssertionError):
        sop_hat(5, 2, params)


def test_eta_fixed_to_one() -> None:
    with pytest.raises(AssertionError):
        WeightParams(0, 1.0, eta=2.0)
