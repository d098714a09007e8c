"""Tests for the finite-size gap probability and smallest-eigenvalue density."""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from hardedge import distributions, microscopic
from hardedge.distributions import (
    DistributionCurve,
    FiniteSpec,
    gap_finite,
    smallest_finite,
    tabulate,
)
from hardedge.microscopic import gap_micro, smallest_micro
from hardedge.reference.distributions import closed_form_k0, closed_form_k1
from hardedge.reference.sop import half_power_average, partition_z


def _ln_norm(p: int, nu: int) -> float:
    """Log of the eigenvalue-density normalization at size p, topology nu."""
    total = p * (p + nu) / 2 * math.log(2.0)
    for j in range(p):
        total += math.lgamma((j + 3) / 2) + math.lgamma((j + nu + 1) / 2) \
            - math.lgamma(1.5)
    return total


def _gap_direct(p: int, nu: int, t: float) -> float:
    """Gap probability from direct quadrature of the eigenvalue density."""
    e = (nu - 1) / 2
    hi = 2 * p + nu + 90.0
    if p == 1:
        val, _ = quad(lambda x: x**e * math.exp(-0.5 * x), t, hi,
                      epsabs=1e-13, epsrel=1e-13, limit=300)
    else:
        val, _ = dblquad(lambda y, x: abs(x - y) * (x * y)**e
                         * math.exp(-0.5 * (x + y)),
                         t, hi, t, hi, epsabs=1e-12, epsrel=1e-12)
    return val / math.exp(_ln_norm(p, nu))


def _smallest_direct(p: int, nu: int, t: float) -> float:
    """Smallest-eigenvalue density from quadrature with one eigenvalue pinned."""
    e = (nu - 1) / 2
    hi = 2 * p + nu + 90.0
    if p == 1:
        val = t**e * math.exp(-0.5 * t)
    elif p == 2:
        val, _ = quad(lambda x: (x - t) * (x * t)**e * math.exp(-0.5 * (x + t)),
                      t, hi, epsabs=1e-13, epsrel=1e-13, limit=300)
    else:
        val, _ = dblquad(lambda y, x: (x - t) * (y - t) * abs(x - y)
                         * (x * y * t)**e * math.exp(-0.5 * (x + y + t)),
                         t, hi, t, hi, epsabs=1e-12, epsrel=1e-12)
    return p * val / math.exp(_ln_norm(p, nu))


def test_finite_spec_validation() -> None:
    FiniteSpec(p=4, k=2, t=1.5)
    with pytest.raises(ValueError):
        FiniteSpec(p=0, k=0, t=1.0)
    with pytest.raises(ValueError):
        FiniteSpec(p=3, k=-1, t=1.0)
    with pytest.raises(ValueError):
        FiniteSpec(p=3, k=0, t=-0.5)


@pytest.mark.parametrize("call", [
    lambda: FiniteSpec(p=10, k=2.5, t=0.3), lambda: FiniteSpec(p=10.5, k=2, t=0.3),
    lambda: gap_micro(2.5, 10.0), lambda: smallest_micro(1.5, 10.0),
    lambda: tabulate("gap_micro", 2.5, [1.0]), lambda: tabulate("gap", 2, [0.3], p=10.5),
    lambda: tabulate("smallest", 1.5, [0.3], p=10),
], ids=["spec-k", "spec-p", "gap-micro", "smallest-micro", "tabulate-k", "tabulate-p",
        "tabulate-finite-k"])
def test_non_integral_p_and_k_raise(call) -> None:
    # Odd topologies and fractional sizes are no input the package serves.
    with pytest.raises(ValueError, match="integer"):
        call()


def test_numpy_integer_p_and_k_pass() -> None:
    p, k = np.int64(10), np.int32(3)
    assert gap_finite(FiniteSpec(p=p, k=k, t=0.3)) == gap_finite(FiniteSpec(p=10, k=3, t=0.3))
    assert gap_micro(k, 10.0) == gap_micro(3, 10.0)
    assert tabulate("smallest", k, [0.3], p=p).values == tabulate("smallest", 3, [0.3], p=10).values


def test_validation_holds_under_optimization() -> None:
    # The checks must not depend on assertions being enabled.
    script = (
        "from hardedge.distributions import FiniteSpec, gap_finite\n"
        "from hardedge.microscopic import gap_micro, smallest_micro\n"
        "calls = (lambda: gap_finite(FiniteSpec(p=0, k=1, t=0.5)),\n"
        "         lambda: FiniteSpec(p=3, k=0, t=float('nan')),\n"
        "         lambda: gap_micro(-1, 2.0), lambda: gap_micro(-1, 0.0),\n"
        "         lambda: smallest_micro(-1, 1.0))\n"
        "for number, call in enumerate(calls):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit(f'call {number} accepted')\n"
    )
    src = str(Path(distributions.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stdout + done.stderr


def test_gap_is_one_at_zero() -> None:
    for p, k in ((4, 1), (5, 2), (10, 4)):
        assert gap_finite(FiniteSpec(p=p, k=k, t=0.0)) == 1.0
        near = gap_finite(FiniteSpec(p=p, k=k, t=1e-10))
        assert abs(near - 1.0) <= 1e-6, f"E(1e-10) far from 1 at p={p}, k={k}"


def test_gap_two_route_topology_zero() -> None:
    # Independent route: the gap at nu = 0 equals the normalization ratio
    # times the average of the inverse square-root characteristic polynomial.
    for p in range(3, 9):
        for t in (0.1, 1.0, 5.0):
            direct = gap_finite(FiniteSpec(p=p, k=0, t=t))
            ratio = partition_z(p, 1) / partition_z(p, 0)
            other = (ratio * half_power_average(p, 1, t)).scaled(-0.5 * p * t)
            assert direct == pytest.approx(other.value, rel=1e-10), \
                f"routes disagree at p={p}, t={t}"


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_gap_matches_direct_quadrature() -> None:
    for p in (1, 2):
        for k in (0, 1):
            for t in (0.5, 2.0):
                oracle = _gap_direct(p, 2 * k, t)
                value = gap_finite(FiniteSpec(p=p, k=k, t=t))
                assert value == pytest.approx(oracle, rel=1e-6), \
                    f"gap quadrature mismatch at p={p}, k={k}, t={t}"


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_smallest_matches_direct_quadrature() -> None:
    cases = [(2, 0), (1, 1), (2, 1), (3, 1)]
    for p, k in cases:
        for t in (0.5, 2.0):
            oracle = _smallest_direct(p, 2 * k, t)
            value = smallest_finite(FiniteSpec(p=p, k=k, t=t))
            assert value == pytest.approx(oracle, rel=1e-8), \
                f"density quadrature mismatch at p={p}, k={k}, t={t}"


def test_smallest_matches_closed_forms() -> None:
    machinery = smallest_finite(FiniteSpec(p=6, k=0, t=1.0))
    assert machinery == pytest.approx(closed_form_k0(6, 1.0), rel=1e-10)
    machinery = smallest_finite(FiniteSpec(p=5, k=1, t=0.7))
    assert machinery == pytest.approx(closed_form_k1(5, 0.7), rel=1e-10)


def test_smallest_single_eigenvalue_is_weight() -> None:
    # With one eigenvalue the smallest-eigenvalue density is the normalized
    # weight itself, which the general assembly must reproduce.
    for k in (0, 1, 3):
        nu = 2 * k
        norm = 2 ** ((1 + nu) / 2) * math.gamma((nu + 1) / 2)
        for t in (0.5, 2.0, 5.0):
            exact = t ** ((nu - 1) / 2) * math.exp(-0.5 * t) / norm
            got = smallest_finite(FiniteSpec(p=1, k=k, t=t))
            assert got == pytest.approx(exact, rel=1e-12), \
                f"p=1 density missed at k={k}, t={t}"


@pytest.mark.parametrize("k", [0, 1, 2])
def test_gap_single_eigenvalue_is_chi_square_survival(k: int) -> None:
    # With one eigenvalue, x ~ chi^2 with 2k + 1 degrees of freedom, so
    # E(t) = Q(k + 1/2, t/2).  At k >= 3 the tail loses digits to the
    # Pfaffian's conditioning (9e-10 at k = 3, t = 60; 2e-4 at k = 5), which
    # ROADMAP items 2 and 5 track; those k are left out here.
    for t in (1e-6, 0.01, 0.5, 2.0, 5.0, 20.0, 60.0):
        with mpmath.workdps(30):
            want = mpmath.gammainc(k + mpmath.mpf(1) / 2, mpmath.mpf(t) / 2, mpmath.inf,
                                   regularized=True)
        got = gap_finite(FiniteSpec(p=1, k=k, t=t))
        assert got == pytest.approx(float(want), rel=1e-12, abs=0.0), (k, t)


def test_smallest_is_minus_gap_derivative() -> None:
    for p, k, t in ((6, 1, 1.0), (7, 2, 0.5), (8, 3, 2.0)):
        h = 1e-3 * t
        stencil = [gap_finite(FiniteSpec(p=p, k=k, t=t + m * h))
                   for m in (-2, -1, 1, 2)]
        slope = -(stencil[0] - 8 * stencil[1] + 8 * stencil[2] - stencil[3]) \
            / (12 * h)
        density = smallest_finite(FiniteSpec(p=p, k=k, t=t))
        assert density == pytest.approx(slope, rel=1e-6), \
            f"density disagrees with -dE/dt at p={p}, k={k}, t={t}"


def test_smallest_normalization() -> None:
    # Substituting t = s^2 removes the k = 0 inverse-square-root endpoint,
    # so plain adaptive quadrature converges cleanly for every k.
    for p, k in ((4, 0), (5, 1), (9, 2), (6, 3), (12, 4)):
        total, _ = quad(
            lambda s: 2.0 * s * smallest_finite(FiniteSpec(p=p, k=k, t=s * s)),
            0.0, 15.0, limit=200)
        assert total == pytest.approx(1.0, rel=1e-6), \
            f"density does not normalize at p={p}, k={k}"


def test_smoothness_across_size_parity() -> None:
    # Consecutive log-differences in p keep one sign and drift slowly, so
    # even and odd sizes lie on one smooth trend.
    for k, t in ((1, 0.25), (2, 0.25)):
        gaps = [gap_finite(FiniteSpec(p=p, k=k, t=t)) for p in range(8, 14)]
        dens = [smallest_finite(FiniteSpec(p=p, k=k, t=t))
                for p in range(8, 14)]
        for series in (gaps, dens):
            steps = [math.log(series[i + 1]) - math.log(series[i])
                     for i in range(5)]
            assert all(s * steps[0] > 0.0 for s in steps), \
                f"sign flip across parity at k={k}"
            ratios = [steps[i + 1] / steps[i] for i in range(4)]
            assert all(0.5 < r < 1.5 for r in ratios), \
                f"parity jump at k={k}: ratios {ratios}"


def _ln_prefactor_gamma_ratios(gamma: int, p: int, k: int, t: float) -> mpmath.mpf:
    """The finite-p log normalisation as a sum of log-Gammas and powers of
    2, p and t, term by term, before any cancellation."""
    lg, ln = mpmath.loggamma, mpmath.log
    p, t, half = mpmath.mpf(p), mpmath.mpf(t), mpmath.mpf(1) / 2
    odd = k % 2
    total = -ln(mpmath.pi) / 2 + lg(p + 1) + lg((p + 1) / 2) - lg(p + k + 1)
    for l in range(k):
        total += (l + 1) * ln(4) + lg(2 * l + 1) - lg(l + 1) \
            + lg(p + l + 2) + (l - 1) * ln(p) - lg(p + 2 * l + 1)
    total -= (k + ((0, 3), (5, 6))[gamma][odd]) * half * ln(2)
    if (k + gamma) % 2 == 0:
        total += 3 * k * half * ln(p) - lg((p + k + 1) / 2)
    else:
        total += (3 * k - 1) * half * ln(p) - lg((p + k) / 2)
    power = (1 if (k + gamma) % 2 else half) - k * k * half
    t_power = k * (gamma + half) + k * (k - 1) * half + (gamma - half if odd else 0)
    total += lg((p + k + 1 + gamma - odd) / 2) - p * t / 2 \
        + power * ln(4 * p * t) + t_power * ln(t)
    if gamma == 0:
        return total - ln(2 * mpmath.sqrt(2 * p))
    return total - ln(2) - 3 * half * ln(2 * p) + ln(4 * p)


@pytest.mark.parametrize("p", [1, 2, 3, 10, 11, 100, 501, 1000, 2000])
def test_prefactor_closed_form_matches_gamma_ratios(p: int) -> None:
    # The closed form cancels every power of p and all but one Gamma
    # function analytically; it must agree with the uncancelled product,
    # taken in 40 digits, to 2e-12 absolute on the log up to p = 2000.
    with mpmath.workdps(40):
        for k in range(11):
            for gamma in (0, 1):
                for t in (1e-3, 0.3, 4.0):
                    want = _ln_prefactor_gamma_ratios(gamma, p, k, t)
                    got = distributions._ln_prefactor(gamma, p, k, t)
                    assert abs(got - want) <= 2e-12, (gamma, k, t)


def test_domain_errors() -> None:
    with pytest.raises(ValueError):
        smallest_finite(FiniteSpec(p=5, k=1, t=0.0))
    with pytest.raises(ValueError):
        smallest_finite(FiniteSpec(p=1, k=2, t=1.0))
    with pytest.raises(ValueError):
        closed_form_k0(6, 0.0)
    with pytest.raises(ValueError):
        closed_form_k1(6, -1.0)
    with pytest.raises(AssertionError):
        closed_form_k0(1, 1.0)
    with pytest.raises(AssertionError):
        closed_form_k1(1, 1.0)


def test_closed_form_k0_normalizes() -> None:
    total, _ = quad(lambda s: 2.0 * s * closed_form_k0(6, s * s),
                    0.0, 15.0, limit=200)
    assert total == pytest.approx(1.0, rel=1e-8)


def test_closed_form_k1_matches_defining_integral() -> None:
    oracle = _smallest_direct(2, 2, 1.0)
    assert closed_form_k1(2, 1.0) == pytest.approx(oracle, rel=1e-8)


def test_closed_form_k0_small_t_limit() -> None:
    # The density diverges like t^(-1/2); the coefficient is the t = 0 value
    # of the remaining factors.
    p = 6
    coefficient = math.factorial(p) * math.gamma(1.5) \
        / (2**(p - 0.5) * math.gamma(p / 2) * math.gamma((p + 2) / 2))
    t = 1e-8
    assert closed_form_k0(p, t) * math.sqrt(t) == pytest.approx(
        coefficient, rel=1e-6)


def test_curve_validation() -> None:
    DistributionCurve(quantity="gap", p=5, k=1,
                      abscissae=(0.0, 1.0, 2.0),
                      values=(1.0, 0.6, 0.3))
    DistributionCurve(quantity="gap_micro", p=None, k=0,
                      abscissae=(0.0, 4.0), values=(1.0, 0.2))
    DistributionCurve(quantity="smallest_micro", p=None, k=1,
                      abscissae=(1.0, 2.0), values=(0.1, 0.2))

    with pytest.raises(ValueError):
        DistributionCurve(quantity="spacing", p=5, k=0,
                          abscissae=(1.0,), values=(0.5,))
    with pytest.raises(ValueError):
        DistributionCurve(quantity="gap", p=None, k=0,
                          abscissae=(1.0,), values=(0.5,))
    with pytest.raises(ValueError):
        DistributionCurve(quantity="gap_micro", p=7, k=0,
                          abscissae=(1.0,), values=(0.5,))
    with pytest.raises(ValueError):
        DistributionCurve(quantity="gap", p=5, k=0,
                          abscissae=(1.0, 1.0), values=(0.5, 0.4))
    with pytest.raises(ValueError):
        DistributionCurve(quantity="gap", p=5, k=0,
                          abscissae=(0.5, 1.0), values=(0.5, 0.7))
    with pytest.raises(ValueError):
        DistributionCurve(quantity="gap", p=5, k=0,
                          abscissae=(0.0, 1.0), values=(0.8, 0.5))
    with pytest.raises(ValueError):
        DistributionCurve(quantity="gap", p=5, k=0,
                          abscissae=(0.5, 1.0), values=(1.2, 0.5))
    with pytest.raises(ValueError):
        DistributionCurve(quantity="smallest", p=5, k=0,
                          abscissae=(0.0, 1.0), values=(0.1, 0.2))
    with pytest.raises(ValueError):
        DistributionCurve(quantity="smallest", p=5, k=0,
                          abscissae=(0.5, 1.0), values=(-0.1, 0.2))


def test_tabulate_gap_curve_non_increasing() -> None:
    grid = np.linspace(1e-3, 3.0, 40)
    curve = tabulate("gap", 2, grid, p=10)
    diffs = np.diff(curve.values)
    assert np.all(diffs <= 0.0), "gap curve must fall monotonically"
    assert curve.values[0] > 0.999, "gap must start near 1 at small t"


def test_tabulate_smallest_integrates_to_one() -> None:
    s = np.linspace(0.01, 2.0, 420)
    curve = tabulate("smallest", 1, s * s, p=10)
    body = np.trapezoid(np.asarray(curve.values), np.asarray(curve.abscissae))
    # The tail falls off like e^(-pt/2); one decay length bounds it.
    tail = curve.values[-1] * 2.0 / 10
    assert body + tail == pytest.approx(1.0, rel=1e-4)


def test_tabulate_family_orders_by_topology() -> None:
    # Larger nu repels the smallest eigenvalue from the origin, so the mean
    # of the density moves up with k.
    s = np.linspace(0.05, 1.75, 60)
    grid = s * s
    means = []
    for k in range(5):
        curve = tabulate("smallest", k, grid, p=10)
        vals = np.asarray(curve.values)
        means.append(np.trapezoid(grid * vals, grid)
                     / np.trapezoid(vals, grid))
    assert all(a < b for a, b in zip(means[:-1], means[1:])), \
        f"means not increasing with topology: {means}"


def test_tabulate_limit_quantities() -> None:
    gap = tabulate("gap_micro", 1, (0.0, 2.0, 8.0))
    assert gap.values[0] == 1.0
    dens = tabulate("smallest_micro", 1, (0.5, 4.0, 12.0))
    assert all(v > 0.0 for v in dens.values)


def test_tabulate_names_failing_abscissa() -> None:
    with pytest.raises(ValueError, match="abscissa 20000.0"):
        tabulate("gap", 2, (1.0, 2.0e4), p=10)


@pytest.mark.parametrize("quantity", ["gap", "smallest"])
def test_overflowing_pfaffian_raises(quantity: str) -> None:
    # Far in the tail the kernel entries overflow long before l * t reaches
    # the recurrence envelope; the assembly must not return nan.
    evaluate = gap_finite if quantity == "gap" else smallest_finite
    with pytest.raises(RuntimeError, match="p=2000, k=4, t=4.1"):
        evaluate(FiniteSpec(p=2000, k=4, t=4.1))
    with pytest.raises(RuntimeError, match=f"{quantity} evaluation failed at abscissa 4.1"):
        tabulate(quantity, 4, (4.1,), p=2000)


def _negated_finite_block(monkeypatch) -> None:
    # Negating a 2 x 2 block negates its Pfaffian, and the gap there, 0.389,
    # carries about 13 digits, so the value is negative for certain.
    matrices = distributions.kernel_matrix
    monkeypatch.setattr(distributions, "kernel_matrix", lambda tables: -matrices(tables))


def _negated_limit_pfaffian(monkeypatch) -> None:
    # The determinant serves this point, so the Pfaffian route is forced.
    # Negating its 14 x 14 block negates the value, 3.79 here (itself out of
    # range by a rounding accident), so it is negative for certain.
    balanced = microscopic._matrix_balanced
    monkeypatch.setattr(microscopic, "_FREDHOLM_MIN_GAP", math.inf)
    monkeypatch.setattr(microscopic, "_matrix_balanced",
                        lambda gamma, k, u: -balanced(gamma, k, u))


@pytest.mark.parametrize("evaluate, point, force", [
    (lambda: gap_micro(14, 0.01), "gamma=0, k=14, u=0.01", _negated_limit_pfaffian),
    (lambda: gap_finite(FiniteSpec(p=1000, k=2, t=0.01)),
     "gamma=0, p=1000, k=2, t=0.01", _negated_finite_block),
], ids=["gap-limit-k14", "gap-finite-k8"])
def test_impossible_values_raise(monkeypatch, evaluate, point: str, force) -> None:
    # Where the assembly loses every digit it returns a probability outside
    # [0, 1] or a negative density; that must fail by name instead of
    # leaving the library.  Both guards are forced, since which wrong
    # values land outside the range is a rounding accident.  (The finite
    # case keeps the id of its old k = 8 point.)
    force(monkeypatch)
    with pytest.raises(RuntimeError, match="impossible at " + re.escape(point)):
        evaluate()


def test_curve_rejects_non_finite_values() -> None:
    for quantity, p in (("gap", 5), ("smallest", 5), ("smallest_micro", None)):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="not finite|outside"):
                DistributionCurve(quantity=quantity, p=p, k=1,
                                  abscissae=(0.5, 1.0), values=(0.5, bad))


def test_tabulate_rejects_bad_grids() -> None:
    with pytest.raises(ValueError):
        tabulate("gap", 1, (), p=5)
    with pytest.raises(ValueError):
        tabulate("gap", 1, (1.0, 0.5), p=5)
    with pytest.raises(ValueError):
        tabulate("gap", 1, (-1.0, 0.5), p=5)
    with pytest.raises(ValueError):
        tabulate("smallest", 1, (0.0, 0.5), p=5)
    with pytest.raises(ValueError):
        tabulate("gap", 1, (0.5, 1.0))
    with pytest.raises(ValueError):
        tabulate("gap_micro", 1, (0.5, 1.0), p=5)
    with pytest.raises(ValueError):
        tabulate("spacing", 1, (0.5, 1.0), p=5)
    # Grids that pass the request checks with a point no evaluation takes:
    # the batch rejects it, and the point-by-point rerun names it.
    for quantity, grid in (("gap", [0.5, math.inf]), ("smallest", [0.5, math.inf]),
                           ("gap", [math.nan])):
        with pytest.raises(ValueError, match=rf"{quantity} evaluation failed at "
                                             rf"abscissa {grid[-1]}: .*a finite t >= 0"):
            tabulate(quantity, 1, grid, p=5)


def test_tabulated_values_breaking_the_curve_raise_runtime_error(monkeypatch) -> None:
    # The request is valid and each point is in range; only the computed
    # values, forced to rise, break the curve.  That is a numerical failure,
    # where a curve built directly from bad values stays a ValueError
    # (test_curve_validation).
    monkeypatch.setitem(distributions._CURVES, "gap", lambda p, k, ts: list(ts))
    with pytest.raises(RuntimeError, match=r"computed gap curve is invalid: "
                                            r"gap values increase at t=0\.2"):
        tabulate("gap", 1, (0.1, 0.2), p=5)
