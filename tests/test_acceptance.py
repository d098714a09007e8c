"""Acceptance suite: one test per headline guarantee of the package.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per guarantee.  The checks progress from exact algebra (closed forms,
Pfaffian identities, internal route consistency) through independent
quadrature oracles to seeded Monte-Carlo sampling of Wishart matrices,
including the correlated ensemble and the large-size limit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, dblquad, quad, tplquad
from scipy.interpolate import PchipInterpolator

from hardedge.distributions import FiniteSpec, gap_finite, smallest_finite
from hardedge.microscopic import gap_micro, micro_density, smallest_micro
from hardedge.montecarlo import (
    SamplerConfig,
    exponential_correlation,
    ks_distance,
    microscopic_rescale,
    sample_batch,
)
from hardedge.pfaffian import AntisymmetricMatrix, pfaffian
from hardedge.reference.distributions import closed_form_k0, closed_form_k1
from hardedge.reference.sop import (
    WeightParams,
    half_power_average,
    partition_z,
    skew_product_oracle,
    sop_even,
    sop_norm,
    sop_odd,
)


def _ln_norm(p: int, nu: int) -> float:
    """Log of the eigenvalue-density normalization at size p, topology nu."""
    total = p * (p + nu) / 2 * math.log(2.0)
    for j in range(p):
        total += math.lgamma((j + 3) / 2) + math.lgamma((j + nu + 1) / 2) \
            - math.lgamma(1.5)
    return total


def _gap_direct(p: int, nu: int, t: float) -> float:
    """Gap probability from direct quadrature of the eigenvalue density.

    Integrating over the ordered region and multiplying by p! keeps the
    Vandermonde factor sign-definite, so no absolute values enter and the
    integrand stays smooth for the adaptive rules.
    """
    e = (nu - 1) / 2
    hi = t + 70.0
    if p == 1:
        val, _ = quad(lambda x: x**e * math.exp(-0.5 * x), t, hi,
                      epsabs=1e-13, epsrel=1e-13, limit=300)
    elif p == 2:
        val, _ = dblquad(lambda y, x: 2.0 * (y - x) * (x * y)**e
                         * math.exp(-0.5 * (x + y)),
                         t, hi, lambda x: x, hi, epsabs=1e-12, epsrel=1e-12)
    else:
        val, _ = tplquad(lambda z, y, x: 6.0 * (y - x) * (z - x) * (z - y)
                         * (x * y * z)**e * math.exp(-0.5 * (x + y + z)),
                         t, hi, lambda x: x, hi, lambda x, y: y, hi,
                         epsabs=1e-11, epsrel=1e-9)
    return val / math.exp(_ln_norm(p, nu))


def _smallest_direct(p: int, nu: int, t: float) -> float:
    """Smallest-eigenvalue density from quadrature with one value pinned."""
    e = (nu - 1) / 2
    hi = t + 70.0
    if p == 1:
        val = t**e * math.exp(-0.5 * t)
    elif p == 2:
        val, _ = quad(lambda x: (x - t) * (x * t)**e * math.exp(-0.5 * (x + t)),
                      t, hi, epsabs=1e-13, epsrel=1e-13, limit=300)
    else:
        val, _ = dblquad(lambda y, x: 2.0 * (x - t) * (y - t) * (y - x)
                         * (x * y * t)**e * math.exp(-0.5 * (x + y + t)),
                         t, hi, lambda x: x, hi, epsabs=1e-12, epsrel=1e-12)
    return p * val / math.exp(_ln_norm(p, nu))


def _survival_cdf(gap_at, top: float, points: int = 240):
    """CDF interpolant built from a gap-probability callable; it takes arrays.

    The nodes are uniform in sqrt(t) because the topology-zero CDF has a
    square-root branch point at the origin that a uniform-in-t interpolant
    systematically misfits.
    """
    roots = np.linspace(0.0, math.sqrt(top), points)
    gaps = np.array([gap_at(s * s) for s in roots])
    interpolant = PchipInterpolator(roots, 1.0 - gaps)
    return lambda x: interpolant(np.sqrt(x))


def _density_cdf(density_at, top: float, points: int = 400):
    """CDF interpolant built by integrating a density callable; it takes arrays.

    Substituting t = s^2 turns the topology-zero inverse-square-root
    divergence into a smooth even integrand, so the cumulative trapezoid
    rule on a uniform s grid converges cleanly.
    """
    roots = np.linspace(0.0, math.sqrt(top), points)
    masses = np.array([2.0 * max(s, 1e-8)
                       * density_at(max(s, 1e-8) ** 2) for s in roots])
    cumulative = cumulative_trapezoid(masses, roots, initial=0.0)
    interpolant = PchipInterpolator(roots, cumulative)
    return lambda x: interpolant(np.sqrt(x))


def test_01_closed_forms_match_pfaffian_assembly() -> None:
    # The general even-topology machinery must reproduce the classical
    # closed forms for the two lowest topologies pointwise.
    for p in range(2, 13):
        for t in (0.1, 0.5, 1.0, 2.0, 5.0):
            general = smallest_finite(FiniteSpec(p=p, k=0, t=t))
            assert general == pytest.approx(closed_form_k0(p, t), rel=1e-10), \
                f"topology 0 closed form missed at p={p}, t={t}"
            general = smallest_finite(FiniteSpec(p=p, k=1, t=t))
            assert general == pytest.approx(closed_form_k1(p, t), rel=1e-10), \
                f"topology 2 closed form missed at p={p}, t={t}"


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_02_low_dimension_quadrature_oracle() -> None:
    # At p <= 3 the defining eigenvalue integrals are tractable directly,
    # giving an oracle that shares no code with the Pfaffian assembly.
    for p in (1, 2, 3):
        for nu in (0, 2):
            for t in (0.5, 2.0):
                gap = gap_finite(FiniteSpec(p=p, k=nu // 2, t=t))
                assert gap == pytest.approx(_gap_direct(p, nu, t), rel=1e-6), \
                    f"gap mismatch at p={p}, nu={nu}, t={t}"
                dens = smallest_finite(FiniteSpec(p=p, k=nu // 2, t=t))
                assert dens == pytest.approx(
                    _smallest_direct(p, nu, t), rel=1e-6), \
                    f"density mismatch at p={p}, nu={nu}, t={t}"


def test_03_density_normalizes_and_matches_gap_slope() -> None:
    # Substituting t = s^2 removes the topology-zero endpoint divergence,
    # so plain adaptive quadrature certifies unit mass; a fourth-order
    # stencil certifies that the density is minus the gap derivative.
    for p in range(4, 13):
        for k in range(5):
            total, _ = quad(
                lambda s: 2.0 * s
                * smallest_finite(FiniteSpec(p=p, k=k, t=s * s)),
                0.0, 15.0, limit=200)
            assert total == pytest.approx(1.0, rel=1e-6), \
                f"density mass differs from 1 at p={p}, k={k}"
            t, h = 0.5, 0.5e-3
            stencil = [gap_finite(FiniteSpec(p=p, k=k, t=t + m * h))
                       for m in (-2, -1, 1, 2)]
            slope = -(stencil[0] - 8 * stencil[1] + 8 * stencil[2]
                      - stencil[3]) / (12 * h)
            density = smallest_finite(FiniteSpec(p=p, k=k, t=t))
            assert density == pytest.approx(slope, rel=1e-6), \
                f"density is not -dE/dt at p={p}, k={k}"


def test_04_gap_two_route_consistency() -> None:
    # At topology zero the gap also equals a normalization ratio times the
    # average of an inverse-square-root characteristic polynomial, a route
    # that bypasses the Pfaffian entirely.
    for p in range(3, 9):
        for t in (0.1, 1.0, 5.0):
            direct = gap_finite(FiniteSpec(p=p, k=0, t=t))
            ratio = partition_z(p, 1) / partition_z(p, 0)
            other = (ratio * half_power_average(p, 1, t)).scaled(-0.5 * p * t)
            assert direct == pytest.approx(other.value, rel=1e-10), \
                f"routes disagree at p={p}, t={t}"


def test_05_skew_orthogonality_relations() -> None:
    # <R_{2j+1}, R_{2i}> = r_j delta_ij under the shifted square-root
    # weight; even-even and odd-odd products all vanish.  Verified by
    # nested adaptive quadrature for the first six polynomials.
    for gamma in (0, 1):
        for t in (0.1, 1.0, 5.0):
            params = WeightParams(gamma, t)
            scale = sop_norm(0, params).value
            for i in range(3):
                for j in range(3):
                    odd_even = skew_product_oracle(
                        sop_odd(j, params), sop_even(i, params), params)
                    if i == j:
                        want = sop_norm(j, params).value
                        assert odd_even == pytest.approx(want, rel=1e-5), \
                            f"norm missed at gamma={gamma}, t={t}, j={j}"
                    else:
                        assert abs(odd_even) <= 1e-6 * scale, \
                            f"odd-even i={i}, j={j} at gamma={gamma}, t={t}"
                    if i < j:
                        ee = skew_product_oracle(
                            sop_even(j, params), sop_even(i, params), params)
                        oo = skew_product_oracle(
                            sop_odd(j, params), sop_odd(i, params), params)
                        assert abs(ee) <= 1e-6 * scale, \
                            f"even-even i={i}, j={j} at gamma={gamma}, t={t}"
                        assert abs(oo) <= 1e-6 * scale, \
                            f"odd-odd i={i}, j={j} at gamma={gamma}, t={t}"


def test_06_pfaffian_squares_to_determinant() -> None:
    rng = np.random.Generator(
        np.random.Philox(key=np.array([2026, 0], dtype=np.uint64)))
    for index in range(200):
        dim = 2 * int(rng.integers(1, 7))
        raw = rng.standard_normal((dim, dim))
        matrix = AntisymmetricMatrix(data=raw - raw.T)
        square = pfaffian(matrix) ** 2
        determinant = float(np.linalg.det(raw - raw.T))
        assert square == pytest.approx(determinant, rel=1e-10), \
            f"pf^2 != det at draw {index}, dim {dim}"


def test_07_microscopic_closed_forms_and_normalization() -> None:
    # The topology-zero hard-edge limit has elementary closed forms; the
    # general assembly (via its empty-Pfaffian path) must hit them at
    # machine precision, and every limiting density carries unit mass.
    assert gap_micro(0, 0.0) == 1.0
    for u in (0.3, 1.0, 4.0, 9.0, 25.0):
        root = math.sqrt(u)
        want_gap = math.exp(-u / 8 - root / 2)
        assert gap_micro(0, u) == pytest.approx(want_gap, rel=1e-12), \
            f"limiting gap closed form missed at u={u}"
        want_density = (root + 2.0) / (8.0 * root) * want_gap
        assert smallest_micro(0, u) == pytest.approx(want_density,
                                                     rel=1e-12), \
            f"limiting density closed form missed at u={u}"
    for k in range(4):
        total, _ = quad(lambda s: 2.0 * s * smallest_micro(k, s * s),
                        1e-12, 20.0, limit=300)
        assert total == pytest.approx(1.0, rel=1e-6), \
            f"limiting density mass differs from 1 at k={k}"


def test_08_hard_edge_convergence_rate() -> None:
    # Rescaled finite-size densities approach the limiting law
    # monotonically in p; the p=131 curve sits within 0.01 everywhere.
    grid = np.linspace(0.2, 25.0, 100)
    limit_values = np.array([smallest_micro(2, u) for u in grid])
    deviations = []
    for p in (11, 51, 131):
        scaled = np.array(
            [smallest_finite(FiniteSpec(p=p, k=2, t=u / (4 * p))) / (4 * p)
             for u in grid])
        deviations.append(float(np.max(np.abs(scaled - limit_values))))
    assert deviations[0] > deviations[1] > deviations[2], \
        f"sup deviations not strictly decreasing: {deviations}"
    assert deviations[2] <= 0.01, \
        f"p=131 sup deviation too large: {deviations[2]}"


def test_09_small_argument_power_laws() -> None:
    # Near the origin the limiting density grows like u^(k - 1/2), the gap
    # probability flattens to 1, and the smallest-eigenvalue density merges
    # into the microscopic level density.
    for k in range(4):
        us = np.geomspace(1e-6, 1e-4, 9)
        values = np.array([smallest_micro(k, u) for u in us])
        slope = float(np.polyfit(np.log(us), np.log(values), 1)[0])
        assert slope == pytest.approx(k - 0.5, abs=1e-2), \
            f"power law missed at k={k}: slope {slope}"
        assert gap_micro(k, 1e-8) == pytest.approx(1.0, abs=1e-3), \
            f"gap does not flatten to 1 at k={k}"
    for nu in (2, 4):
        rho = micro_density(nu, 0.01)
        density = smallest_micro(nu // 2, 0.01)
        assert abs(rho - density) / rho <= 1e-2, \
            f"level density and smallest density split at nu={nu}"


def test_10_seeded_sampling_matches_finite_size_curves() -> None:
    # Philox-seeded Wishart batches at p=10 must track both analytic
    # routes: the gap probability (survival function) and the integrated
    # smallest-eigenvalue density.  0.02 is about twice the 95% point of
    # the Kolmogorov-Smirnov statistic at these sample sizes.
    for nu in (0, 2, 4, 6, 8):
        k = nu // 2
        gap_batch = sample_batch(
            SamplerConfig(p=10, n=10 + nu, num_samples=10000, seed=401 + nu))
        top = float(np.max(gap_batch.smallest_eigenvalues)) * 1.01
        survival = _survival_cdf(
            lambda t: gap_finite(FiniteSpec(p=10, k=k, t=t)), top)
        distance = ks_distance(gap_batch, survival)
        assert distance <= 0.02, \
            f"gap-route KS too large at nu={nu}: {distance}"
        density_batch = sample_batch(
            SamplerConfig(p=10, n=10 + nu, num_samples=20000, seed=501 + nu))
        top = float(np.max(density_batch.smallest_eigenvalues)) * 1.01
        integrated = _density_cdf(
            lambda t: smallest_finite(FiniteSpec(p=10, k=k, t=t)), top)
        distance = ks_distance(density_batch, integrated)
        assert distance <= 0.02, \
            f"density-route KS too large at nu={nu}: {distance}"


def test_11_correlated_sampling_collapses_to_microscopic_law() -> None:
    # With an exponentially decaying correlation matrix the rescaled
    # smallest eigenvalues of a p=200 ensemble must still follow the
    # universal hard-edge law; the correlation enters only through the
    # effective scale inside microscopic_rescale.
    correlation = exponential_correlation(200, 0.5)
    for nu, seed in ((0, 31), (2, 32), (4, 33)):
        config = SamplerConfig(p=200, n=200 + nu, num_samples=10000,
                               seed=seed, correlation=correlation)
        batch = microscopic_rescale(sample_batch(config))
        top = float(np.max(batch.smallest_eigenvalues)) * 1.01
        survival = _survival_cdf(lambda u: gap_micro(nu // 2, u), top)
        distance = ks_distance(batch, survival)
        assert distance <= 0.03, \
            f"correlated KS too large at nu={nu}: {distance}"


def test_12_parity_independence_of_limit() -> None:
    # Consecutive sizes p=512 and p=513 straddle the even/odd assembly
    # paths; both rescaled gaps must sit on the same limiting curve.
    for p in (512, 513):
        for u in (1.0, 5.0, 15.0):
            value = gap_finite(FiniteSpec(p=p, k=2, t=u / (4 * p)))
            limit = gap_micro(2, u)
            assert abs(value - limit) <= 3e-2, \
                f"limit missed at p={p}, u={u}: {value} vs {limit}"
