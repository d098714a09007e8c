"""Tests for the Wishart sampler and its empirical statistics."""

from __future__ import annotations

import math
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq
from scipy.stats import ks_2samp

from hardedge import montecarlo
from hardedge.distributions import FiniteSpec, gap_finite
from hardedge.microscopic import gap_micro
from hardedge.montecarlo import (
    SampleBatch,
    SamplerConfig,
    empirical_gap,
    exponential_correlation,
    hard_edge_scale,
    ks_distance,
    load_correlation,
    microscopic_rescale,
    sample_batch,
    trace_average,
    _Draws,
)


def test_config_validation() -> None:
    config = SamplerConfig(p=3, n=5, num_samples=10, seed=1)
    assert config.nu == 2, "nu must be n - p"
    with pytest.raises(ValueError):
        SamplerConfig(p=0, n=1, num_samples=1, seed=0)
    with pytest.raises(ValueError):
        SamplerConfig(p=4, n=3, num_samples=1, seed=0)
    with pytest.raises(ValueError):
        SamplerConfig(p=2, n=2, num_samples=0, seed=0)
    with pytest.raises(ValueError):
        SamplerConfig(p=2, n=2, num_samples=1, seed=2**64)
    with pytest.raises(ValueError):
        SamplerConfig(p=3, n=3, num_samples=1, seed=0,
                      correlation=np.eye(2))
    skew = np.eye(3)
    skew[0, 1] = 1e-6
    with pytest.raises(ValueError):
        SamplerConfig(p=3, n=3, num_samples=1, seed=0, correlation=skew)
    with pytest.raises(ValueError):
        SamplerConfig(p=2, n=2, num_samples=1, seed=0,
                      correlation=np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_batch_validation() -> None:
    config = SamplerConfig(p=2, n=2, num_samples=3, seed=0)
    with pytest.raises(ValueError):
        SampleBatch(config=config, smallest_eigenvalues=np.ones(2))
    with pytest.raises(ValueError):
        SampleBatch(config=config,
                    smallest_eigenvalues=np.array([1.0, -0.5, 2.0]))
    batch = SampleBatch(config=config,
                        smallest_eigenvalues=np.array([0.5, 1.0, 2.0]))
    assert batch.algorithm == "Philox4x64"
    assert batch.key_scheme == "(seed, sample_index)"


def test_validation_holds_under_optimization() -> None:
    # The checks must not depend on assertions being enabled.
    script = (
        "import numpy as np\n"
        "from hardedge.montecarlo import (SampleBatch, SamplerConfig,\n"
        "    empirical_gap, exponential_correlation)\n"
        "batch = SampleBatch(config=SamplerConfig(p=1, n=1, num_samples=1, seed=0),\n"
        "                    smallest_eigenvalues=np.ones(1))\n"
        "calls = (lambda: SamplerConfig(p=0, n=1, num_samples=1, seed=0),\n"
        "         lambda: SamplerConfig(p=3, n=2, num_samples=1, seed=0),\n"
        "         lambda: SamplerConfig(p=2, n=2, num_samples=0, seed=0),\n"
        "         lambda: SamplerConfig(p=2, n=2, num_samples=1, seed=-1),\n"
        "         lambda: SamplerConfig(p=2, n=2, num_samples=1, seed=2**64),\n"
        "         lambda: empirical_gap(batch, -1.0),\n"
        "         lambda: empirical_gap(batch, float('nan')),\n"
        "         lambda: exponential_correlation(0),\n"
        "         lambda: exponential_correlation(3, decay=1.0))\n"
        "for number, call in enumerate(calls):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit(f'call {number} accepted')\n"
    )
    src = str(Path(montecarlo.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, timeout=120, env={"PYTHONPATH": src})
    assert done.returncode == 0, done.stdout + done.stderr


@pytest.mark.parametrize("correlation", [None, 0.3 * np.eye(6),
                                         exponential_correlation(6)],
                         ids=["plain", "scalar", "dense"])
def test_batch_prefix_matches_shorter_batch(correlation) -> None:
    # Sample i depends only on (seed, i), so a batch's first samples are a
    # shorter batch of the same seed.
    full = sample_batch(SamplerConfig(p=6, n=8, num_samples=200, seed=42,
                                      correlation=correlation))
    head = sample_batch(SamplerConfig(p=6, n=8, num_samples=50, seed=42,
                                      correlation=correlation))
    assert np.array_equal(full.smallest_eigenvalues[:50],
                          head.smallest_eigenvalues)


def test_single_entry_is_chi_square() -> None:
    # At p = n = 1 the eigenvalue is g^2 with unit mean and variance 2.
    config = SamplerConfig(p=1, n=1, num_samples=100_000, seed=7)
    batch = sample_batch(config)
    mean = batch.smallest_eigenvalues.mean()
    assert abs(mean - 1.0) <= 3.0 * math.sqrt(2.0 / config.num_samples), \
        f"chi-square mean off: {mean}"


def test_scalar_correlation_rescales_samples() -> None:
    base = SamplerConfig(p=5, n=7, num_samples=50, seed=3)
    scaled = SamplerConfig(p=5, n=7, num_samples=50, seed=3,
                           correlation=2.5 * np.eye(5))
    ratio = sample_batch(scaled).smallest_eigenvalues \
        / sample_batch(base).smallest_eigenvalues
    assert np.max(np.abs(ratio / 2.5 - 1.0)) <= 1e-12, \
        "scalar correlation must rescale eigenvalues exactly"


def test_empirical_gap_endpoints_and_median() -> None:
    config = SamplerConfig(p=10, n=14, num_samples=4000, seed=2024)
    batch = sample_batch(config)
    assert empirical_gap(batch, 0.0) == (1.0, 0.0)
    beyond = float(batch.smallest_eigenvalues.max()) + 1.0
    assert empirical_gap(batch, beyond) == (0.0, 0.0)
    median = brentq(
        lambda t: gap_finite(FiniteSpec(p=10, k=2, t=t)) - 0.5, 1e-4, 3.0)
    estimate, error = empirical_gap(batch, median)
    assert abs(estimate - 0.5) <= 3.0 * error, \
        f"estimate {estimate} too far from analytic median"


def test_ks_against_own_empirical_cdf() -> None:
    config = SamplerConfig(p=4, n=6, num_samples=500, seed=9)
    batch = sample_batch(config)
    ordered = np.sort(batch.smallest_eigenvalues)

    def own_cdf(x: float) -> float:
        return float(np.searchsorted(ordered, x, side="right")) / ordered.size

    assert ks_distance(batch, own_cdf) <= 1.0 / ordered.size + 1e-12


def test_ks_self_consistency_by_inverse_transform() -> None:
    # Drawing directly from the analytic CDF must stay under the 99%
    # Kolmogorov quantile 1.63/sqrt(N).
    count = 20000
    rng = np.random.Generator(
        np.random.Philox(key=np.array([99, 0], dtype=np.uint64)))
    quantiles = rng.random(count)
    samples = np.array([
        brentq(lambda u: 1.0 - gap_micro(0, u) - q, 1e-12, 400.0)
        for q in quantiles])
    config = SamplerConfig(p=1, n=1, num_samples=count, seed=99)
    synthetic = SampleBatch(config=config, smallest_eigenvalues=samples)
    distance = ks_distance(synthetic, lambda u: 1.0 - gap_micro(0, u))
    assert distance < 1.63 / math.sqrt(count), f"KS too large: {distance}"


def test_ks_against_analytic_gap() -> None:
    config = SamplerConfig(p=10, n=14, num_samples=20000, seed=2024)
    batch = sample_batch(config)
    top = float(batch.smallest_eigenvalues.max()) * 1.01
    grid = np.linspace(0.0, top, 240)
    curve = np.array([gap_finite(FiniteSpec(p=10, k=2, t=t)) for t in grid])
    cdf = PchipInterpolator(grid, 1.0 - curve)
    assert ks_distance(batch, cdf) <= 0.02


def test_microscopic_rescale_round_trip() -> None:
    config = SamplerConfig(p=7, n=9, num_samples=100, seed=13)
    batch = sample_batch(config)
    rescaled = microscopic_rescale(batch)
    assert np.allclose(rescaled.smallest_eigenvalues,
                       28.0 * batch.smallest_eigenvalues, rtol=1e-15)
    back = microscopic_rescale(rescaled, inverse=True)
    assert np.allclose(back.smallest_eigenvalues,
                       batch.smallest_eigenvalues, rtol=1e-14)


def test_hard_edge_scale_accounts_for_correlation() -> None:
    plain = SamplerConfig(p=6, n=8, num_samples=40, seed=21)
    assert hard_edge_scale(plain) == 24.0
    shrunk = SamplerConfig(p=6, n=8, num_samples=40, seed=21,
                           correlation=0.5 * np.eye(6))
    assert hard_edge_scale(shrunk) == pytest.approx(48.0, rel=1e-14)
    # A scalar correlation rescales the eigenvalues and the hard-edge
    # factor inversely, so the microscopic variable is unchanged.
    u_plain = microscopic_rescale(sample_batch(plain)).smallest_eigenvalues
    u_shrunk = microscopic_rescale(sample_batch(shrunk)).smallest_eigenvalues
    assert np.allclose(u_shrunk, u_plain, rtol=1e-12)


def test_trace_moment_matches_correlation_diagonal() -> None:
    config = SamplerConfig(p=8, n=10, num_samples=4000, seed=11,
                           correlation=exponential_correlation(8))
    mean, error = trace_average(config)
    assert abs(mean - 1.0) <= 3.0 * error, \
        f"trace average {mean} off the diagonal mean 1.0"


def test_trace_moment_on_bidiagonal_path() -> None:
    config = SamplerConfig(p=8, n=10, num_samples=4000, seed=11)
    mean, error = trace_average(config)
    assert abs(mean - 1.0) <= 3.0 * error, \
        f"trace average {mean} off the identity diagonal 1.0"


def _smallest_eigenvalue_mp(diagonal, subdiagonal) -> mpmath.mpf:
    """Smallest eigenvalue of B B^T for the lower-bidiagonal B, by Sturm
    bisection in mpmath's working precision."""
    d = [mpmath.mpf(float(x)) for x in diagonal]
    e = [mpmath.mpf(0)] + [mpmath.mpf(float(x)) for x in subdiagonal]
    main = [d[i] ** 2 + e[i] ** 2 for i in range(len(d))]
    off_sq = [(d[i] * e[i + 1]) ** 2 for i in range(len(d) - 1)]

    def below(x):
        count, pivot = 0, main[0] - x
        for i in range(len(main)):
            if i:
                pivot = main[i] - x - off_sq[i - 1] / pivot
            count += pivot < 0
        return count

    # The squared Frobenius norm of B bounds every eigenvalue of B B^T.
    lo, hi = mpmath.mpf(0), sum(x ** 2 for x in d + e)
    while hi - lo > lo * mpmath.mpf(10) ** (-30):
        mid = (lo + hi) / 2
        if below(mid) >= 1:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


@pytest.mark.parametrize("nu", [0, 4])
def test_bidiagonal_smallest_matches_mpmath(nu: int) -> None:
    # Bisection at LAPACK's full-relative-accuracy tolerance must give the
    # smallest singular value of the drawn bidiagonal to a few ulps.
    config = SamplerConfig(p=200, n=200 + nu, num_samples=3, seed=77 + nu)
    batch = sample_batch(config)
    draws = _Draws(config)
    with mpmath.workdps(40):
        for index in range(config.num_samples):
            entries = np.sqrt(draws.squares(index))
            exact = mpmath.sqrt(
                _smallest_eigenvalue_mp(entries[0::2], entries[1::2]))
            sigma = math.sqrt(batch.smallest_eigenvalues[index])
            error = abs(mpmath.mpf(sigma) / exact - 1)
            assert error <= 1e-14, \
                f"sigma_min off by {float(error):.2e} at sample {index}"


def _dense_smallest(p: int, n: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    values = []
    for start in range(0, count, 2000):
        gauss = rng.standard_normal((min(2000, count - start), p, n))
        values.append(np.linalg.svd(gauss, compute_uv=False)[:, -1] ** 2)
    return np.concatenate(values)


@pytest.mark.parametrize("p, n, seed", [(10, 14, 611), (30, 32, 613)])
def test_bidiagonal_sampler_matches_dense_svd(p: int, n: int, seed: int) -> None:
    # Two-sample Kolmogorov-Smirnov at level 1e-3: 1.95 sqrt(2/N).
    count = 20000
    bidiagonal = sample_batch(
        SamplerConfig(p=p, n=n, num_samples=count, seed=seed))
    dense = _dense_smallest(p, n, count, seed + 1)
    statistic = ks_2samp(bidiagonal.smallest_eigenvalues, dense).statistic
    assert statistic <= 1.95 * math.sqrt(2.0 / count), \
        f"bidiagonal and dense samplers differ: KS {statistic}"


@pytest.mark.parametrize("p, n", [(1, 1), (1, 4), (2, 2), (50, 50)])
def test_bidiagonal_edge_sizes_are_positive(p: int, n: int) -> None:
    values = sample_batch(SamplerConfig(p=p, n=n, num_samples=500,
                                        seed=19)).smallest_eigenvalues
    assert np.all(np.isfinite(values)) and np.all(values > 0.0)


def test_scalar_correlation_is_exact_multiple_of_plain_batch() -> None:
    plain = SamplerConfig(p=9, n=13, num_samples=60, seed=23)
    scaled = SamplerConfig(p=9, n=13, num_samples=60, seed=23,
                           correlation=0.3 * np.eye(9))
    assert np.array_equal(sample_batch(scaled).smallest_eigenvalues,
                          0.3 * sample_batch(plain).smallest_eigenvalues)


def test_exponential_correlation_shape() -> None:
    corr = exponential_correlation(6, decay=0.5)
    assert corr.shape == (6, 6)
    assert np.all(np.diag(corr) == 1.0)
    assert corr[0, 3] == pytest.approx(0.125)
    np.linalg.cholesky(corr)


def test_load_correlation(tmp_path: Path) -> None:
    good = tmp_path / "corr.csv"
    matrix = exponential_correlation(4, decay=0.3)
    np.savetxt(good, matrix, delimiter=",")
    loaded = load_correlation(str(good), 4)
    assert np.allclose(loaded, matrix, atol=1e-12)

    wrong_size = tmp_path / "wrong.csv"
    np.savetxt(wrong_size, np.eye(3), delimiter=",")
    with pytest.raises(ValueError):
        load_correlation(str(wrong_size), 4)

    asymmetric = tmp_path / "asym.csv"
    skew = np.eye(4)
    skew[0, 1] = 1e-3
    np.savetxt(asymmetric, skew, delimiter=",")
    with pytest.raises(ValueError):
        load_correlation(str(asymmetric), 4)

    indefinite = tmp_path / "indef.csv"
    bad = np.eye(4)
    bad[0, 1] = bad[1, 0] = 2.0
    np.savetxt(indefinite, bad, delimiter=",")
    with pytest.raises(ValueError):
        load_correlation(str(indefinite), 4)
