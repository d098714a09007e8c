"""Monte-Carlo sampling of real Wishart matrices.

Draws W = L G with G a p x n standard Gaussian matrix and L the lower
Cholesky factor of a row correlation matrix C (identity when absent), and
records the smallest eigenvalue of W W^T as the square of the smallest
singular value of W.  Neither path forms W W^T, which would square the
condition number exactly where the smallest eigenvalue lives.

Without a correlation, G is never drawn: its singular values are exactly
those of a p x p bidiagonal matrix with independent chi entries
(Dumitriu-Edelman, J. Math. Phys. 43, 5830, 2002), and the smallest one is
the (p+1)-th eigenvalue of the 2p x 2p Golub-Kahan tridiagonal, found by
bisection to full relative accuracy (Demmel-Kahan, SIAM J. Sci. Stat.
Comput. 11, 873, 1990).  That costs O(p) per sample.  A scalar correlation
C = c 1 takes the same path, since then W = sqrt(c) G.  Any other
correlation draws W = L G densely and takes its singular values.

Samples are drawn serially, each on its own counter-based Philox stream
keyed by (seed, sample index), so the first m samples of any batch equal
the batch of m samples with the same parameters and seed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dstebz

__all__ = [
    "SamplerConfig",
    "SampleBatch",
    "sample_batch",
    "empirical_gap",
    "ks_distance",
    "hard_edge_scale",
    "microscopic_rescale",
    "trace_average",
    "exponential_correlation",
    "load_correlation",
]

logger = logging.getLogger(__name__)

RNG_ALGORITHM = "Philox4x64"
RNG_KEY_SCHEME = "(seed, sample_index)"

# LAPACK's absolute tolerance for bisection to full relative accuracy.
_BISECTION_TOL = 2.0 * np.finfo(float).tiny


def _check_correlation(matrix: np.ndarray, p: int) -> np.ndarray:
    arr = np.asarray(matrix, dtype=float)
    if arr.shape != (p, p):
        raise ValueError(f"correlation must be {p}x{p}, got {arr.shape}")
    if not np.all(np.abs(arr - arr.T) <= 1e-12):
        raise ValueError("correlation matrix is not symmetric to 1e-12")
    try:
        np.linalg.cholesky(arr)
    except np.linalg.LinAlgError as exc:
        raise ValueError("correlation matrix is not positive definite") from exc
    return arr


@dataclass(frozen=True)
class SamplerConfig:
    """Parameters of one Wishart sampling run."""

    p: int
    """Number of matrix rows (eigenvalues), at least 1."""

    n: int
    """Number of matrix columns, at least p; nu = n - p."""

    num_samples: int
    """How many independent matrices to draw, at least 1."""

    seed: int
    """64-bit unsigned base key of the per-sample Philox streams."""

    correlation: np.ndarray | None = None
    """Optional symmetric positive-definite p x p row correlation."""

    def __post_init__(self) -> None:
        if not 1 <= self.p <= self.n:
            raise ValueError(f"need 1 <= p <= n, got p={self.p}, n={self.n}")
        if self.num_samples < 1:
            raise ValueError(f"num_samples must be at least 1, got {self.num_samples}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit an unsigned 64-bit integer, got {self.seed}")
        if self.correlation is not None:
            object.__setattr__(
                self, "correlation", _check_correlation(self.correlation, self.p))

    @property
    def nu(self) -> int:
        """Topology index nu = n - p."""
        return self.n - self.p


@dataclass(frozen=True)
class SampleBatch:
    """Smallest eigenvalues of one sampling run, with RNG provenance."""

    config: SamplerConfig
    """The configuration that produced the batch."""

    smallest_eigenvalues: np.ndarray
    """One strictly positive eigenvalue per sample, in sample order."""

    algorithm: str = RNG_ALGORITHM
    """Name of the counter-based RNG behind the streams."""

    key_scheme: str = RNG_KEY_SCHEME
    """How each sample's stream key was derived."""

    def __post_init__(self) -> None:
        values = np.asarray(self.smallest_eigenvalues, dtype=float)
        object.__setattr__(self, "smallest_eigenvalues", values)
        if values.shape != (self.config.num_samples,):
            raise ValueError(
                f"expected {self.config.num_samples} eigenvalues, got {values.shape}")
        if not np.all(np.isfinite(values)) or np.any(values <= 0.0):
            raise ValueError("smallest eigenvalues must be finite and positive")


def _stream(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _scalar_correlation(correlation: np.ndarray | None) -> float | None:
    """The c of a correlation equal to c 1 (1.0 when absent), else None."""
    if correlation is None:
        return 1.0
    c = float(correlation[0, 0])
    if np.array_equal(correlation, c * np.eye(correlation.shape[0])):
        return c
    return None


class _Draws:
    """The per-sample matrices of one configuration.

    On the bidiagonal path a sample is the vector of squared Golub-Kahan
    off-diagonal entries, chi-square variables with the degrees of freedom
    n, p-1, n-1, p-2, ..., n-p+1 interleaved; on the dense path it is
    W = L G itself.
    """

    def __init__(self, config: SamplerConfig) -> None:
        p, n = config.p, config.n
        self.seed = config.seed
        self.shape = (p, n)
        self.scale = _scalar_correlation(config.correlation)
        self.dense = self.scale is None
        if self.dense:
            self.factor = np.linalg.cholesky(config.correlation)
        else:
            self.dof = np.empty(2 * p - 1)
            self.dof[0::2] = np.arange(n, n - p, -1)
            self.dof[1::2] = np.arange(p - 1, 0, -1)
            self.diagonal = np.zeros(2 * p)

    def squares(self, index: int) -> np.ndarray:
        """Squared bidiagonal entries of sample `index`."""
        return _stream(self.seed, index).chisquare(self.dof)

    def matrix(self, index: int) -> np.ndarray:
        """Dense W = L G of sample `index`."""
        gauss = _stream(self.seed, index).standard_normal(self.shape)
        return self.factor @ gauss

    def smallest(self, index: int) -> float:
        """Smallest eigenvalue of W W^T for sample `index`."""
        if self.dense:
            try:
                singular = np.linalg.svd(self.matrix(index), compute_uv=False)
            except np.linalg.LinAlgError as exc:
                raise RuntimeError(
                    f"singular values failed at sample {index}") from exc
            return float(singular[-1]) ** 2
        p = self.shape[0]
        off = np.sqrt(self.squares(index))
        _, values, _, _, info = dstebz(self.diagonal, off, 2, 0.0, 0.0,
                                       p + 1, p + 1, _BISECTION_TOL, "E")
        if info != 0:
            raise RuntimeError(
                f"bidiagonal bisection failed at sample {index} (info={info})")
        return self.scale * float(values[0]) ** 2

    def trace(self, index: int) -> float:
        """tr(W W^T) of sample `index`.

        Bidiagonalization is orthogonal, so on the bidiagonal path this is
        the sum of the squared entries, a chi-square with p n degrees of
        freedom.
        """
        if self.dense:
            w = self.matrix(index)
            return float(np.sum(w * w))
        return self.scale * float(np.sum(self.squares(index)))


def sample_batch(config: SamplerConfig) -> SampleBatch:
    """Draw the configured batch of smallest Wishart eigenvalues.

    Samples are drawn one after another in index order: uncorrelated and
    scalar-correlated batches on the O(p) bidiagonal path, any other
    correlation on the dense path.
    """
    draws = _Draws(config)
    count = config.num_samples
    values = np.fromiter((draws.smallest(i) for i in range(count)),
                         dtype=float, count=count)
    logger.debug("sampled %d matrices at p=%d, nu=%d on the %s path",
                 count, config.p, config.nu,
                 "dense" if draws.dense else "bidiagonal")
    return SampleBatch(config=config, smallest_eigenvalues=values)


def empirical_gap(batch: SampleBatch, t: float) -> tuple[float, float]:
    """Fraction of samples with smallest eigenvalue above t, with its
    binomial standard error."""
    if not t >= 0.0:
        raise ValueError(f"t must be non-negative, got {t}")
    values = batch.smallest_eigenvalues
    count = values.size
    estimate = float(np.count_nonzero(values > t)) / count
    error = math.sqrt(estimate * (1.0 - estimate) / count)
    return estimate, error


def ks_distance(batch: SampleBatch, analytic_cdf) -> float:
    """Sup-norm distance between the empirical CDF and an analytic one.

    The analytic CDF is evaluated at every sample point and compared
    against both one-sided empirical steps.
    """
    values = np.sort(batch.smallest_eigenvalues)
    count = values.size
    analytic = np.asarray([analytic_cdf(x) for x in values], dtype=float)
    upper = np.arange(1, count + 1) / count
    lower = np.arange(0, count) / count
    return float(np.max(np.maximum(np.abs(analytic - upper),
                                   np.abs(analytic - lower))))


def hard_edge_scale(config: SamplerConfig) -> float:
    """Factor mapping an eigenvalue to the hard-edge variable u.

    Without correlation this is the familiar 4p.  A correlation matrix
    stretches the eigenvalue density at the origin by the harmonic mean of
    its spectrum, so the scale generalizes to 4 tr(C^-1); only under this
    rescaling is the limiting law independent of C.  A scalar correlation
    C = c 1 gives 4p/c, which exactly undoes the sampler's scaling of the
    eigenvalues, leaving u invariant.
    """
    if config.correlation is None:
        return 4.0 * config.p
    return 4.0 * float(np.trace(np.linalg.inv(config.correlation)))


def microscopic_rescale(batch: SampleBatch, inverse: bool = False) -> SampleBatch:
    """Map each eigenvalue to the hard-edge variable u = hard_edge_scale * lambda.

    With `inverse` the map is undone, so applying both directions returns
    the original values up to rounding.
    """
    scale = hard_edge_scale(batch.config)
    values = batch.smallest_eigenvalues / scale if inverse \
        else batch.smallest_eigenvalues * scale
    return SampleBatch(config=batch.config, smallest_eigenvalues=values,
                       algorithm=batch.algorithm, key_scheme=batch.key_scheme)


def trace_average(config: SamplerConfig) -> tuple[float, float]:
    """Mean of tr(W W^T)/(p n) over the batch, with its standard error.

    Uses the same per-sample draws as `sample_batch`, so the matrices
    agree draw for draw.  The expectation equals the mean diagonal entry
    of the correlation matrix.
    """
    draws = _Draws(config)
    scale = config.p * config.n
    traces = np.array([draws.trace(i) / scale
                       for i in range(config.num_samples)])
    mean = float(np.mean(traces))
    error = float(np.std(traces, ddof=1) / math.sqrt(config.num_samples))
    return mean, error


def exponential_correlation(p: int, decay: float = 0.5) -> np.ndarray:
    """Correlation matrix with exponentially decaying bands C_ij = decay^|i-j|.

    Its eigenvalues stay bounded away from zero for |decay| < 1, which
    keeps the Cholesky factor well conditioned at any p.
    """
    if p < 1 or not abs(decay) < 1.0:
        raise ValueError(f"need p >= 1 and |decay| < 1, got p={p}, decay={decay}")
    indices = np.arange(p)
    return decay ** np.abs(np.subtract.outer(indices, indices))


def load_correlation(path: str, p: int) -> np.ndarray:
    """Read a p x p correlation matrix from CSV and validate it.

    The file must hold p rows of p comma-separated reals, symmetric to
    1e-12 and positive definite.
    """
    arr = np.atleast_2d(np.loadtxt(path, delimiter=",", dtype=float))
    return _check_correlation(arr, p)
