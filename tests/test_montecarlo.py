"""Tests for the Wishart sampler and its empirical statistics."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator
from scipy.linalg.lapack import dstebz
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
    _Draws,
)
from hardedge.reference.montecarlo import trace_average


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
        "from hardedge.reference.montecarlo import trace_average\n"
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
        "         lambda: exponential_correlation(3, decay=1.0),\n"
        "         lambda: exponential_correlation(3.5),\n"
        "         lambda: SamplerConfig(p=3, n=5, num_samples=3, seed=1.5),\n"
        "         lambda: SamplerConfig(p=3, n=5.5, num_samples=3, seed=1),\n"
        "         lambda: SamplerConfig(p=3.0, n=5, num_samples=3, seed=1),\n"
        "         lambda: SamplerConfig(p=3, n=5, num_samples=2.5, seed=1),\n"
        "         lambda: trace_average(SamplerConfig(p=2, n=3, num_samples=1, seed=0)))\n"
        "for number, call in enumerate(calls):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit(f'call {number} accepted')\n"
    )
    src = str(Path(montecarlo.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
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

    def own_cdf(x: np.ndarray) -> np.ndarray:
        return np.searchsorted(ordered, x, side="right") / ordered.size

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
    distance = ks_distance(synthetic, np.vectorize(lambda u: 1.0 - gap_micro(0, u)))
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


def test_hard_edge_scale_accounts_for_correlation() -> None:
    plain = SamplerConfig(p=6, n=8, num_samples=40, seed=21)
    assert hard_edge_scale(plain) == 24.0
    shrunk = SamplerConfig(p=6, n=8, num_samples=40, seed=21,
                           correlation=0.5 * np.eye(6))
    assert hard_edge_scale(shrunk) == pytest.approx(48.0, rel=1e-14)
    correlation = exponential_correlation(30)
    banded = SamplerConfig(p=30, n=32, num_samples=1, seed=21, correlation=correlation)
    expected = 4.0 * np.trace(np.linalg.inv(correlation))
    assert hard_edge_scale(banded) == pytest.approx(expected, rel=1e-13)
    # A scalar correlation rescales the eigenvalues and the hard-edge
    # factor inversely, so the microscopic variable is unchanged.
    u_plain = microscopic_rescale(sample_batch(plain)).smallest_eigenvalues
    u_shrunk = microscopic_rescale(sample_batch(shrunk)).smallest_eigenvalues
    assert np.allclose(u_shrunk, u_plain, rtol=1e-12)


def test_correlation_is_decomposed_once(monkeypatch) -> None:
    # The configuration keeps the spectrum its check computes; the draws and
    # the hard-edge scale read it instead of factoring C again.
    calls = {"eigvalsh": 0, "inv": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(*args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    config = SamplerConfig(p=20, n=22, num_samples=3, seed=5,
                           correlation=exponential_correlation(20))
    microscopic_rescale(sample_batch(config))
    assert calls == {"eigvalsh": 1, "inv": 0}


def test_spectrum_is_derived_not_configured() -> None:
    correlation = exponential_correlation(4)
    config = SamplerConfig(p=4, n=6, num_samples=1, seed=0, correlation=correlation)
    assert np.array_equal(config.spectrum, np.linalg.eigvalsh(correlation))
    assert SamplerConfig(p=4, n=6, num_samples=1, seed=0).spectrum is None
    assert "spectrum" not in repr(config)
    with pytest.raises(TypeError):
        SamplerConfig(p=4, n=6, num_samples=1, seed=0, spectrum=np.ones(4))


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


@pytest.mark.parametrize("correlation", [None, exponential_correlation(2)],
                         ids=["plain", "triangular"])
def test_trace_average_needs_two_samples(correlation) -> None:
    # One sample has no standard error; it must not come back as NaN.
    with pytest.raises(ValueError):
        trace_average(SamplerConfig(p=2, n=3, num_samples=1, seed=0,
                                    correlation=correlation))


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


def _dense_smallest(p: int, n: int, count: int, seed: int,
                   correlation: np.ndarray | None = None) -> np.ndarray:
    # The literal model: W = L G with dense G and L the Cholesky factor of C.
    rng = np.random.default_rng(seed)
    values = []
    for start in range(0, count, 2000):
        gauss = rng.standard_normal((min(2000, count - start), p, n))
        if correlation is not None:
            gauss = np.linalg.cholesky(correlation) @ gauss
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


def _triangles(config: SamplerConfig) -> list[np.ndarray]:
    draws = _Draws(config)
    return [draws.triangle(i)[0] for i in range(config.num_samples)]


@pytest.mark.parametrize("p", [12, 40])
@pytest.mark.parametrize("nu", [0, 4])
def test_triangular_smallest_matches_mpmath(p: int, nu: int) -> None:
    # Lanczos on (T^T T)^-1 must give sigma_min of the drawn Bartlett factor
    # T = R D^1/2 to 1e-13 against a 40-digit SVD of the same T.
    config = SamplerConfig(p=p, n=p + nu, num_samples=3, seed=81 + nu,
                           correlation=exponential_correlation(p))
    batch = sample_batch(config)
    with mpmath.workdps(40):
        for index, triangle in enumerate(_triangles(config)):
            exact = min(mpmath.svd_r(mpmath.matrix(triangle.tolist()),
                                     compute_uv=False))
            sigma = math.sqrt(batch.smallest_eigenvalues[index])
            error = abs(mpmath.mpf(sigma) / exact - 1)
            assert error <= 1e-13, \
                f"sigma_min off by {float(error):.2e} at sample {index}"


def test_triangular_smallest_matches_svd_at_p200() -> None:
    # At nu = 0 LAPACK's own SVD of T loses up to ~2e-13 (eps times the
    # condition of T); at nu = 4 both routes agree to a few ulps.
    config = SamplerConfig(p=200, n=204, num_samples=20, seed=85,
                           correlation=exponential_correlation(200))
    batch = sample_batch(config)
    for index, triangle in enumerate(_triangles(config)):
        svd = np.linalg.svd(triangle, compute_uv=False)[-1] ** 2
        assert abs(batch.smallest_eigenvalues[index] / svd - 1.0) <= 1e-13, \
            f"Lanczos and SVD differ at sample {index}"


@pytest.mark.parametrize("p, n, seed", [(10, 14, 621), (30, 32, 623)])
def test_triangular_sampler_matches_dense_svd(p: int, n: int, seed: int) -> None:
    # Two-sample Kolmogorov-Smirnov at level 1e-3: 1.95 sqrt(2/N).
    count = 20000
    correlation = exponential_correlation(p, 0.5)
    triangular = sample_batch(SamplerConfig(p=p, n=n, num_samples=count,
                                            seed=seed, correlation=correlation))
    dense = _dense_smallest(p, n, count, seed + 1, correlation)
    statistic = ks_2samp(triangular.smallest_eigenvalues, dense).statistic
    assert statistic <= 1.95 * math.sqrt(2.0 / count), \
        f"triangular and dense samplers differ: KS {statistic}"


@pytest.mark.parametrize("p", [2, 3, 6])
def test_lanczos_exhausts_small_krylov_spaces(p: int) -> None:
    # At n = p the whole Krylov space is reached within p steps and the
    # last residual is zero up to rounding; every value must still settle.
    config = SamplerConfig(p=p, n=p, num_samples=500, seed=29,
                           correlation=exponential_correlation(p))
    draws = _Draws(config)
    values = sample_batch(config).smallest_eigenvalues
    assert np.all(np.isfinite(values)) and np.all(values > 0.0)
    for index in range(config.num_samples):
        triangle, stream = draws.triangle(index)
        theta = montecarlo._largest_inverse_eigenvalue(
            triangle, stream.standard_normal(p))
        assert theta is not None, f"Lanczos did not settle at sample {index}"
        svd = np.linalg.svd(triangle, compute_uv=False)[-1] ** 2
        assert abs(values[index] / svd - 1.0) <= 1e-13, \
            f"Lanczos and SVD differ at sample {index}"


def test_unsettled_lanczos_falls_back_to_svd(monkeypatch) -> None:
    config = SamplerConfig(p=6, n=8, num_samples=20, seed=31,
                           correlation=exponential_correlation(6))
    settled = sample_batch(config).smallest_eigenvalues
    calls = []
    svd = np.linalg.svd

    def counted_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "_LANCZOS_STEPS", 1)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    fallback = sample_batch(config).smallest_eigenvalues
    assert calls == [(6, 6)] * config.num_samples
    assert np.allclose(fallback, settled, rtol=1e-13, atol=0.0)


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


@pytest.mark.parametrize("call", [
    lambda: SamplerConfig(p=3, n=5, num_samples=3, seed=1.5),
    lambda: SamplerConfig(p=3, n=5.5, num_samples=3, seed=1),
    lambda: SamplerConfig(p=3.0, n=5, num_samples=3, seed=1),
    lambda: SamplerConfig(p=3, n=5, num_samples=2.5, seed=1),
    lambda: exponential_correlation(3.5),
], ids=["seed", "n", "p", "num_samples", "correlation_p"])
def test_non_integral_sampler_sizes_raise(call) -> None:
    # A fractional seed would truncate to another key, a fractional n would
    # draw chi variates no Wishart matrix has.
    with pytest.raises(ValueError):
        call()


def test_numpy_integer_sampler_sizes_are_accepted() -> None:
    config = SamplerConfig(p=np.int64(3), n=np.int32(5), num_samples=np.int64(4),
                           seed=np.uint64(1))
    plain = SamplerConfig(p=3, n=5, num_samples=4, seed=1)
    assert np.array_equal(sample_batch(config).smallest_eigenvalues,
                          sample_batch(plain).smallest_eigenvalues)
    assert np.array_equal(exponential_correlation(np.int64(4)), exponential_correlation(4))


def _columns(config: SamplerConfig) -> np.ndarray:
    """The squared bidiagonal entries of every sample, one column each."""
    draws = _Draws(config)
    return np.column_stack([draws.squares(i) for i in range(config.num_samples)])


def _dstebz_smallest(squares: np.ndarray) -> float:
    """lambda_min(B B^T) by bisection on the Golub-Kahan tridiagonal, as the
    sampler's fallback computes it."""
    p = (len(squares) + 1) // 2
    _, values, _, _, info = dstebz(np.zeros(2 * p), np.sqrt(squares), 2, 0.0, 0.0,
                                   p + 1, p + 1, 2.0 * np.finfo(float).tiny, "E")
    assert info == 0
    return float(values[0]) ** 2


def test_batch_prefix_crosses_chunk_boundary() -> None:
    chunk = montecarlo._CHUNK
    full = sample_batch(SamplerConfig(p=3, n=5, num_samples=chunk + 40, seed=5))
    for count in (chunk - 3, chunk, chunk + 17):
        head = sample_batch(SamplerConfig(p=3, n=5, num_samples=count, seed=5))
        assert np.array_equal(full.smallest_eigenvalues[:count], head.smallest_eigenvalues), \
            f"prefix of {count} samples differs"


def test_lone_sample_equals_its_value_in_batch() -> None:
    chunk = montecarlo._CHUNK
    config = SamplerConfig(p=20, n=24, num_samples=chunk + 10, seed=8)
    batch = sample_batch(config).smallest_eigenvalues
    draws = _Draws(config)
    for index in (0, 1, 137, chunk - 1, chunk, chunk + 9):
        alone = draws.bidiagonal_smallest(index, index + 1)
        assert alone.shape == (1,) and alone[0] == batch[index], \
            f"sample {index} alone differs from its batch value"


def test_scalar_correlation_multiple_across_chunks() -> None:
    count = montecarlo._CHUNK + 5
    plain = SamplerConfig(p=4, n=4, num_samples=count, seed=12)
    scaled = SamplerConfig(p=4, n=4, num_samples=count, seed=12,
                           correlation=1.7 * np.eye(4))
    assert np.array_equal(sample_batch(scaled).smallest_eigenvalues,
                          1.7 * sample_batch(plain).smallest_eigenvalues)


# Worst distance measured over 2,000 samples at each of four seeds: 5, 30, 9,
# 85 and 49 ulps; the bounds are 1.5 times that.  At p = 1, 2 and 200 both
# routes lie within 2-62 ulps of a 40-digit Sturm bisection, dstebz included.
@pytest.mark.parametrize("p, nu, bound", [(1, 0, 8), (2, 0, 45), (10, 4, 14),
                                          (200, 0, 128), (200, 4, 74)])
def test_laguerre_solve_matches_bisection(p: int, nu: int, bound: int) -> None:
    # Every certified value against LAPACK bisection on the same entries.
    config = SamplerConfig(p=p, n=p + nu, num_samples=2000, seed=300 + p + nu)
    squares = _columns(config)
    values = montecarlo._laguerre_smallest(squares)
    certified = np.flatnonzero(~np.isnan(values))
    assert certified.size >= 0.99 * config.num_samples, \
        f"only {certified.size} of {config.num_samples} values certified"
    reference = np.array([_dstebz_smallest(squares[:, j]) for j in certified])
    ulps = np.abs(values[certified] - reference) / np.spacing(reference)
    assert ulps.max() <= bound, f"{ulps.max():.0f} ulps from dstebz"


def test_laguerre_solve_matches_mpmath_at_p40() -> None:
    config = SamplerConfig(p=40, n=42, num_samples=20, seed=41)
    values = sample_batch(config).smallest_eigenvalues
    squares = _columns(config)
    assert not np.any(np.isnan(montecarlo._laguerre_smallest(squares)))
    with mpmath.workdps(40):
        for index in range(config.num_samples):
            entries = np.sqrt(squares[:, index])
            exact = _smallest_eigenvalue_mp(entries[0::2], entries[1::2])
            error = abs(mpmath.mpf(values[index]) / exact - 1)
            assert error <= 1e-14, \
                f"lambda_min off by {float(error):.2e} at sample {index}"


def test_certification_rejects_misplaced_values() -> None:
    # The two Sturm counts pass the solved values and fail the same values
    # moved by 1e-13 relative either way.
    squares = _columns(SamplerConfig(p=50, n=52, num_samples=40, seed=43))
    sweep = montecarlo._Sweep(squares[0::2], squares[1::2])
    values = montecarlo._laguerre_smallest(squares)
    assert sweep.certified(values).all()
    for factor in (1.0 - 1e-13, 1.0 + 1e-13):
        assert not sweep.certified(values * factor).any()


def _counted_dstebz(monkeypatch) -> list[int]:
    calls = []
    original = montecarlo.dstebz

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return original(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "dstebz", counted)
    return calls


@pytest.mark.parametrize("force", ["uncertified", "one_sweep"])
def test_forced_fallback_gives_bisection_values(monkeypatch, force: str) -> None:
    config = SamplerConfig(p=30, n=33, num_samples=50, seed=17)
    expected = np.array([_dstebz_smallest(column) for column in _columns(config).T])
    if force == "uncertified":
        monkeypatch.setattr(montecarlo._Sweep, "certified",
                            lambda sweep, tau: np.zeros(tau.shape, dtype=bool))
    else:
        monkeypatch.setattr(montecarlo, "_LAGUERRE_SWEEPS", 1)
    calls = _counted_dstebz(monkeypatch)
    values = sample_batch(config).smallest_eigenvalues
    assert calls == [2 * config.p - 1] * config.num_samples
    assert np.array_equal(values, expected)


@pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan])
def test_non_finite_correlation_is_named(tmp_path: Path, entry: float) -> None:
    # Checked before symmetry, whose subtraction would warn on inf and NaN
    # and then misreport the matrix as asymmetric.
    matrix = np.eye(3)
    matrix[0, 0] = matrix[1, 2] = entry
    named = rf"non-finite entries: \[0, 0\] = {entry}, \[1, 2\] = {entry}$"
    with pytest.raises(ValueError, match=named):
        SamplerConfig(p=3, n=3, num_samples=1, seed=0, correlation=matrix)
    path = tmp_path / "corr.csv"
    np.savetxt(path, matrix, delimiter=",")
    with pytest.raises(ValueError, match=named):
        load_correlation(str(path), 3)
    with pytest.raises(ValueError, match=r"\[1, 0\] = nan and 5 more$"):
        SamplerConfig(p=3, n=3, num_samples=1, seed=0, correlation=np.full((3, 3), math.nan))


def _fresh(seed: int, index: int) -> np.random.Generator:
    """A new generator on the stream of sample `index`."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5, 2**64 - 1])
def test_rekeyed_streams_equal_fresh_generators(seed: int) -> None:
    # Each draw re-keys one bit generator; the stream must be that of a new
    # Philox keyed by (seed, index), bit for bit, in any order of indices.
    p = 7
    plain = _Draws(SamplerConfig(p=p, n=p + 3, num_samples=1, seed=seed))
    correlated = _Draws(SamplerConfig(p=p, n=p + 3, num_samples=1, seed=seed,
                                      correlation=exponential_correlation(p)))
    for index in (5, 0, 2**40 + 1, 3, 5, 1):
        expected = _fresh(seed, index).chisquare(plain.dof)
        assert np.array_equal(plain.squares(index), expected), f"squares({index})"
        fresh = _fresh(seed, index)
        expected = np.zeros((p, p))
        expected.flat[::p + 1] = np.sqrt(fresh.chisquare(correlated.dof[0::2]))
        expected[correlated.above] = fresh.standard_normal(p * (p - 1) // 2)
        expected *= correlated.root
        triangle, stream = correlated.triangle(index)
        assert np.array_equal(triangle, expected), f"triangle({index})"
        assert np.array_equal(stream.standard_normal(p), fresh.standard_normal(p)), \
            f"Lanczos start vector of sample {index}"


def test_two_draws_used_alternately_do_not_disturb_each_other() -> None:
    first = _Draws(SamplerConfig(p=5, n=9, num_samples=1, seed=1))
    second = _Draws(SamplerConfig(p=5, n=9, num_samples=1, seed=2,
                                  correlation=exponential_correlation(5)))
    for index in (3, 0, 3, 1):
        _, stream = second.triangle(index)
        squares = first.squares(index)
        start = stream.standard_normal(5)
        fresh = _fresh(2, index)
        fresh.chisquare(second.dof[0::2])
        fresh.standard_normal(10)
        assert np.array_equal(start, fresh.standard_normal(5)), f"sample {index}"
        assert np.array_equal(squares, _fresh(1, index).chisquare(first.dof)), \
            f"sample {index}"


# Measured over 40 samples at each of ten seeds at nu = 0 and 4 and twenty at
# nu = 2: both errors stay within 3.7 eps kappa / (1 - tau / lambda_min), the
# error that eigvalsh's absolute accuracy, eps lambda_max, puts into
# 1/(lambda_min - tau).
@pytest.mark.parametrize("p", [1, 2, 10, 50])
@pytest.mark.parametrize("fraction", [0.0, 0.5, 1.0 - 1e-6])
def test_sweep_derivatives_match_eigenvalue_sums(p: int, fraction: float) -> None:
    # One sweep's G and H against sum 1/(lambda_j - tau) and its square.
    config = SamplerConfig(p=p, n=p + 2, num_samples=40, seed=50 + p)
    squares = _columns(config)
    q, e = squares[0::2], squares[1::2]
    eigenvalues = np.array([
        np.linalg.eigvalsh(bidiagonal @ bidiagonal.T)
        for bidiagonal in (np.diag(np.sqrt(q[:, j])) + np.diag(np.sqrt(e[:, j]), -1)
                           for j in range(config.num_samples))]).T
    tau = fraction * eigenvalues[0]
    low, g, h = montecarlo._Sweep(q, e)(tau)
    inverse = 1.0 / (eigenvalues - tau)
    bound = 5.0 * np.finfo(float).eps * eigenvalues[-1] / (eigenvalues[0] - tau)
    assert np.all(low > 0.0), "a pivot is not positive below lambda_min"
    assert np.all(np.abs(g / inverse.sum(axis=0) - 1.0) <= bound), "G"
    assert np.all(np.abs(h / (inverse ** 2).sum(axis=0) - 1.0) <= bound), "H"


def _counted_thread_starts(monkeypatch) -> list[threading.Thread]:
    """The threads started from now on, recorded as they start."""
    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


def _force_workers(monkeypatch, workers: int) -> None:
    """Make every triangular batch run on `workers` (1 or 2) workers."""
    monkeypatch.setattr(montecarlo, "_PARALLEL_P", 1 if workers == 2 else 2**62)
    monkeypatch.setattr(montecarlo, "_PARALLEL_SAMPLES", 1)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)


# The thread tests (`-k workers`) are also run with a multi-threaded BLAS in CI.
@pytest.mark.parametrize("p, count, seed", [(200, 201, 3), (800, 24, 2**64 - 9)])
def test_two_workers_equal_one_worker(monkeypatch, p: int, count: int, seed: int) -> None:
    config = SamplerConfig(p=p, n=p + 4, num_samples=count, seed=seed,
                           correlation=exponential_correlation(p))
    started = _counted_thread_starts(monkeypatch)
    _force_workers(monkeypatch, 1)
    serial = sample_batch(config).smallest_eigenvalues
    assert started == []
    _force_workers(monkeypatch, 2)
    parallel = sample_batch(config).smallest_eigenvalues
    assert len(started) == 1 and not started[0].is_alive()
    assert np.array_equal(parallel, serial)


def test_two_workers_raise_the_serial_error(monkeypatch) -> None:
    # Every sample falls back to an SVD that fails: both halves fail, and the
    # error is the serial loop's, at sample 0, with no thread left running.
    config = SamplerConfig(p=6, n=8, num_samples=20, seed=31,
                           correlation=exponential_correlation(6))

    def failing_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(montecarlo, "_LANCZOS_STEPS", 1)
    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    messages = []
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            sample_batch(config)
        assert threading.active_count() == before
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
        messages.append(str(info.value))
    assert messages == ["singular values failed at sample 0"] * 2


def test_two_workers_raise_the_lowest_failing_index(monkeypatch) -> None:
    # Only the second half fails, at samples 12 and 17: the error is 12's.
    config = SamplerConfig(p=6, n=8, num_samples=20, seed=31,
                           correlation=exponential_correlation(6))
    original = _Draws.triangular_smallest

    def failing(draws, index):
        if index in (12, 17):
            raise RuntimeError(f"sample {index} failed")
        return original(draws, index)

    monkeypatch.setattr(_Draws, "triangular_smallest", failing)
    _force_workers(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="^sample 12 failed$"):
        sample_batch(config)


def test_workers_start_no_thread_below_thresholds(monkeypatch) -> None:
    p, count = montecarlo._PARALLEL_P, montecarlo._PARALLEL_SAMPLES
    started = _counted_thread_starts(monkeypatch)
    for size, samples in ((p - 1, count), (p, count - 1)):
        sample_batch(SamplerConfig(p=size, n=size + 2, num_samples=samples, seed=1,
                                   correlation=exponential_correlation(size)))
    sample_batch(SamplerConfig(p=p, n=p + 2, num_samples=count, seed=1))
    sample_batch(SamplerConfig(p=p, n=p + 2, num_samples=count, seed=1,
                               correlation=0.5 * np.eye(p)))
    assert started == []
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)
    sample_batch(SamplerConfig(p=p, n=p + 2, num_samples=count, seed=1,
                               correlation=exponential_correlation(p)))
    assert started == []
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    sample_batch(SamplerConfig(p=p, n=p + 2, num_samples=count, seed=1,
                               correlation=exponential_correlation(p)))
    assert len(started) == 1
