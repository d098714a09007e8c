"""Monte-Carlo sampling of real Wishart matrices.

Samples W = L G, with G a p x n standard Gaussian matrix and L L^T = C a
row correlation (identity when absent), and records the smallest eigenvalue
of W W^T as a squared singular value, never forming W W^T, which would
square the condition number, or drawing G densely.

Without a correlation, the singular values of G are those of a p x p
bidiagonal matrix B with independent chi entries (Dumitriu-Edelman, J. Math.
Phys. 43, 5830, 2002).  Up to _CHUNK such samples are solved together:
Laguerre steps on the differential stationary qd transform of B B^T - tau I
(Dhillon-Parlett, Linear Algebra Appl. 387, 1, 2004), vectorized along the
sample axis, approach lambda_min from below and converge cubically, a few
O(p) sweeps per sample.  Two Sturm counts of the same transform certify
each value to 1e-14 relative; a value they do not certify is the (p+1)-th
eigenvalue of the Golub-Kahan tridiagonal, found by LAPACK bisection
(`dstebz`) to full relative accuracy (Demmel-Kahan, SIAM J. Sci. Stat.
Comput. 11, 873, 1990).  A scalar correlation C = c 1 takes the same path,
since then W = sqrt(c) G.
Any other C = V D V^T takes the triangular path: W W^T has the spectrum of
D^1/2 G G^T D^1/2, and G G^T the law of R^T R, R upper triangular with
R_ii = chi_(n-i+1) and N(0, 1) above the diagonal (Bartlett; Muirhead 1982,
section 3.2).  Lanczos finds sigma_min(T)^2, T = R D^1/2, in O(p^2) per
step, and an SVD of T where it does not settle.

Samples are drawn serially, each on its own counter-based Philox stream
keyed by (seed, sample index), and no sample's value depends on the samples
solved with it, so the first m samples of any batch equal the batch of m
samples with the same parameters and seed, bit for bit.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.linalg.lapack import dstebz, dstev, dtrtrs

__all__ = [
    "SamplerConfig",
    "SampleBatch",
    "sample_batch",
    "empirical_gap",
    "ks_distance",
    "hard_edge_scale",
    "microscopic_rescale",
    "exponential_correlation",
    "load_correlation",
]

logger = logging.getLogger(__name__)

RNG_ALGORITHM = "Philox4x64"
RNG_KEY_SCHEME = "(seed, sample_index)"

# LAPACK's absolute tolerance for bisection to full relative accuracy.
_BISECTION_TOL = 2.0 * np.finfo(float).tiny

# Bidiagonal samples solved together; their draws fill one (2p - 1) x _CHUNK
# array, 3.3 MB at p = 200.  Measured at p = 200, the solve takes 36-43,
# 22-26 and 18-20 us a sample in chunks of 512, 1,024 and 2,048, as numpy's
# per-call cost spreads over more samples, and 1.9, 1.2 and 1.0 us at p = 10.
_CHUNK = 1024
# Laguerre sweeps before a sample takes the bisection; a sample settles once its
# step is at most _SETTLE tau, and tau is certified by Sturm counts at
# tau (1 -/+ _CERTIFY).
_LAGUERRE_SWEEPS, _SETTLE, _CERTIFY = 16, 1e-15, 1e-14

# Lanczos steps before the SVD takes over; relative error of an accepted Ritz value.
_LANCZOS_STEPS, _RITZ_TOL = 40, 1e-15


def _check_correlation(matrix: np.ndarray, p: int) -> np.ndarray:
    arr = np.asarray(matrix, dtype=float)
    if arr.shape != (p, p):
        raise ValueError(f"correlation must be {p}x{p}, got {arr.shape}")
    if not np.all(np.abs(arr - arr.T) <= 1e-12):
        raise ValueError("correlation matrix is not symmetric to 1e-12")
    if not np.linalg.eigvalsh(arr)[0] > 0.0:
        raise ValueError("correlation matrix is not positive definite")
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
        for name in ("p", "n", "num_samples", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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

    algorithm: ClassVar[str] = RNG_ALGORITHM
    """Name of the counter-based RNG behind the streams."""

    key_scheme: ClassVar[str] = RNG_KEY_SCHEME
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
    return c if np.array_equal(correlation, c * np.eye(len(correlation))) else None


def _largest_inverse_eigenvalue(triangle: np.ndarray, start: np.ndarray) -> float | None:
    """Largest eigenvalue of (T^T T)^-1 for upper-triangular T by Lanczos, or None.

    Full reorthogonalization; two triangular solves per step read T^T from the
    Fortran-ordered T.T.  The top Ritz value theta, with residual r and gap g
    to the next, is accepted once r^2 <= tol theta g (Kato-Temple error bound).
    """
    steps = min(_LANCZOS_STEPS, start.size)
    basis = np.empty((steps + 1, start.size))
    alpha, beta = np.zeros(steps), np.zeros(steps)
    basis[0] = start / math.sqrt(start @ start)
    for j in range(steps):
        half, info = dtrtrs(triangle.T, basis[j], lower=1)
        w, info_t = dtrtrs(triangle.T, half, lower=1, trans=1)
        for _ in range(2):  # classical Gram-Schmidt, twice
            coefficients = basis[:j + 1] @ w
            w -= coefficients @ basis[:j + 1]
            alpha[j] += coefficients[j]
        residual = math.sqrt(w @ w)
        ritz, vectors, info_v = dstev(alpha[:j + 1], beta[:max(j, 1)])
        if info or info_t or info_v:
            return None
        gap = ritz[-1] - ritz[-2] if j else ritz[-1]
        if (residual * vectors[-1, -1]) ** 2 <= _RITZ_TOL * ritz[-1] * gap:
            return float(ritz[-1])
        beta[j] = residual
        basis[j + 1] = w / residual
    return None


def _laguerre_smallest(squares: np.ndarray) -> np.ndarray:
    """lambda_min(B B^T) of every column's bidiagonal; NaN where not certified.

    Column j holds a_1^2, b_1^2, a_2^2, ..., a_p^2: B has the diagonal a and
    the subdiagonal b, and B B^T = L D L^T with D = diag(a^2).  One sweep of
    the differential stationary qd transform (Dhillon-Parlett, Linear
    Algebra Appl. 387, 1, 2004) gives the pivots D+_i of B B^T - tau I, and
    with their derivatives in tau, G = sum 1/(lambda_j - tau) and
    H = sum 1/(lambda_j - tau)^2.  Laguerre steps from tau = 0,

        tau <- tau + p / (G + sqrt((p - 1)(p H - G^2))),

    approach lambda_min from below and converge cubically.  A sweep is a few
    numpy operations per row over all columns, and every decision is taken
    per column, so a column's value does not depend on its neighbours.  A
    column stops after a step of at most _SETTLE tau, or stays at its tau
    when a pivot is not positive or the step is negative or not finite.  Two
    Sturm counts of the same transform certify the result: no eigenvalue
    below tau (1 - _CERTIFY), one below tau (1 + _CERTIFY).
    """
    q, e = squares[0::2], squares[1::2]
    p, count = q.shape
    tau = np.zeros(count)
    active = np.ones(count, dtype=bool)
    s, ds, dds, g, h, low = (np.empty(count) for _ in range(6))
    pivot, inverse, u, square, ratio, work = (np.empty(count) for _ in range(6))
    # Bound once: a sweep makes 7p of these calls.
    add, divide, multiply, minimum = np.add, np.divide, np.multiply, np.minimum
    with np.errstate(all="ignore"):
        for _ in range(_LAGUERRE_SWEEPS):
            np.negative(tau, out=s)
            ds.fill(-1.0)
            for array in (dds, g, h):
                array.fill(0.0)
            low.fill(np.inf)
            for i in range(p):
                add(q[i], s, out=pivot)
                minimum(low, pivot, out=low)
                divide(1.0, pivot, out=inverse)
                multiply(ds, inverse, out=u)  # u = s'/D+
                g -= u
                multiply(u, u, out=square)
                multiply(dds, inverse, out=work)
                work -= square
                h -= work  # H += u^2 - s''/D+
                if i == p - 1:
                    break
                # s <- e s / D+ - tau, s'' <- (e q / D+)(s''/D+ - 2 u^2),
                # s' <- (e q / D+^2) s' - 1.
                work -= square
                multiply(e[i], inverse, out=ratio)
                s *= ratio
                s -= tau
                ratio *= q[i]
                multiply(ratio, work, out=dds)
                ratio *= inverse
                ds *= ratio
                ds -= 1.0
            np.multiply(h, p, out=work)
            work -= g * g
            np.maximum(work, 0.0, out=work)
            work *= p - 1
            np.sqrt(work, out=work)
            work += g
            step = p / work
            # A pivot <= 0, or a step that is negative or not finite, stops a
            # column at its tau.
            moving = active & (low > 0.0) & (step >= 0.0) & (step < np.inf)
            active &= moving & (step > _SETTLE * tau)
            np.add(tau, step, out=tau, where=moving)
            if not active.any():
                break
        certified = ~active & _certified(q, e, tau)
    return np.where(certified, tau, np.nan)


def _certified(q: np.ndarray, e: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Whether B B^T - x I has no negative pivot at x = tau (1 - _CERTIFY)
    and exactly one, with the rest positive, at x = tau (1 + _CERTIFY)."""
    p = len(q)
    shift = np.multiply.outer([1.0 - _CERTIFY, 1.0 + _CERTIFY], tau)
    s = -shift
    positive = np.zeros(shift.shape, dtype=np.int64)
    negative = np.zeros(shift.shape, dtype=np.int64)
    for i in range(p):
        pivot = q[i] + s
        positive += pivot > 0.0
        negative += pivot < 0.0
        if i < p - 1:
            s *= e[i]
            s /= pivot
            s -= shift
    return (positive[0] == p) & (positive[1] == p - 1) & (negative[1] == 1)


class _Draws:
    """The per-sample matrices of one configuration.

    On the bidiagonal path a sample is the vector of squared Golub-Kahan
    off-diagonal entries, chi-square variables with the degrees of freedom
    `dof` = n, p-1, n-1, p-2, ..., n-p+1 interleaved; on the triangular
    path it is T = R D^1/2, whose diagonal takes the `dof[0::2]`.
    """

    def __init__(self, config: SamplerConfig) -> None:
        p, n = config.p, config.n
        self.seed, self.p = config.seed, p
        self.scale = _scalar_correlation(config.correlation)
        self.triangular = self.scale is None
        self.dof = np.empty(2 * p - 1)
        self.dof[0::2] = np.arange(n, n - p, -1)
        self.dof[1::2] = np.arange(p - 1, 0, -1)
        if self.triangular:
            self.root = np.sqrt(np.linalg.eigvalsh(config.correlation))
            self.above = np.triu(np.ones((p, p), dtype=bool), 1)
        else:
            self.diagonal = np.zeros(2 * p)

    def squares(self, index: int) -> np.ndarray:
        """Squared bidiagonal entries of sample `index`."""
        return _stream(self.seed, index).chisquare(self.dof)

    def triangle(self, index: int) -> tuple[np.ndarray, np.random.Generator]:
        """T = R D^1/2 of sample `index`, with its stream positioned after T."""
        stream = _stream(self.seed, index)
        triangle = np.zeros((self.p, self.p))
        triangle.flat[::self.p + 1] = np.sqrt(stream.chisquare(self.dof[0::2]))
        triangle[self.above] = stream.standard_normal(self.p * (self.p - 1) // 2)
        triangle *= self.root
        return triangle, stream

    def triangular_smallest(self, index: int) -> float:
        """Smallest eigenvalue of W W^T for sample `index` on the triangular path."""
        triangle, stream = self.triangle(index)
        theta = _largest_inverse_eigenvalue(triangle, stream.standard_normal(self.p))
        if theta is not None:
            return 1.0 / theta
        logger.debug("Lanczos did not settle at sample %d; taking the SVD", index)
        try:
            singular = np.linalg.svd(triangle, compute_uv=False)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"singular values failed at sample {index}") from exc
        return float(singular[-1]) ** 2

    def bidiagonal_smallest(self, start: int, stop: int) -> np.ndarray:
        """Smallest eigenvalues of W W^T for samples start..stop-1 on the
        bidiagonal path: one Laguerre solve, bisection where it is not certified."""
        squares = np.empty((2 * self.p - 1, stop - start))
        for column, index in enumerate(range(start, stop)):
            squares[:, column] = self.squares(index)
        values = _laguerre_smallest(squares)
        uncertified = np.flatnonzero(np.isnan(values))
        if uncertified.size:
            logger.debug("bisecting %d of samples %d..%d", uncertified.size, start, stop - 1)
        for column in uncertified:
            _, found, _, _, info = dstebz(self.diagonal, np.sqrt(squares[:, column]), 2,
                                          0.0, 0.0, self.p + 1, self.p + 1, _BISECTION_TOL, "E")
            if info != 0:
                raise RuntimeError(f"bidiagonal bisection failed at sample {start + column} "
                                   f"(info={info})")
            values[column] = float(found[0]) ** 2
        return self.scale * values


def sample_batch(config: SamplerConfig) -> SampleBatch:
    """Draw the configured batch of smallest Wishart eigenvalues.

    Uncorrelated and scalar-correlated batches take the bidiagonal path:
    up to _CHUNK samples at a time are drawn into one array and solved
    together by vectorized Laguerre steps, each value certified by two
    Sturm counts or else found by LAPACK bisection (`dstebz`).  Any other
    correlation takes the triangular path, one sample after another,
    O(p^2) per Lanczos step.
    """
    draws = _Draws(config)
    count = config.num_samples
    if draws.triangular:
        values = np.fromiter((draws.triangular_smallest(i) for i in range(count)),
                             dtype=float, count=count)
    else:
        values = np.concatenate([
            draws.bidiagonal_smallest(start, min(start + _CHUNK, count))
            for start in range(0, count, _CHUNK)])
    logger.debug("sampled %d matrices at p=%d, nu=%d on the %s path",
                 count, config.p, config.nu,
                 "triangular" if draws.triangular else "bidiagonal")
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

    The analytic CDF takes an array: it is evaluated once, on the sorted
    sample points, and compared against both one-sided empirical steps.
    """
    values = np.sort(batch.smallest_eigenvalues)
    count = values.size
    analytic = np.asarray(analytic_cdf(values), dtype=float)
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


def microscopic_rescale(batch: SampleBatch) -> SampleBatch:
    """Map each eigenvalue to the hard-edge variable u = hard_edge_scale * lambda."""
    values = batch.smallest_eigenvalues * hard_edge_scale(batch.config)
    return SampleBatch(config=batch.config, smallest_eigenvalues=values)


def exponential_correlation(p: int, decay: float = 0.5) -> np.ndarray:
    """Correlation matrix with exponentially decaying bands C_ij = decay^|i-j|.

    Its eigenvalues stay bounded away from zero for |decay| < 1, which
    keeps C well conditioned at any p.
    """
    if not isinstance(p, numbers.Integral) or p < 1 or not abs(decay) < 1.0:
        raise ValueError(f"need an integer p >= 1 and |decay| < 1, got p={p!r}, decay={decay}")
    indices = np.arange(p)
    return decay ** np.abs(np.subtract.outer(indices, indices))


def load_correlation(path: str, p: int) -> np.ndarray:
    """Read a p x p correlation matrix from CSV and validate it.

    The file must hold p rows of p comma-separated reals, symmetric to
    1e-12 and positive definite.
    """
    arr = np.atleast_2d(np.loadtxt(path, delimiter=",", dtype=float))
    return _check_correlation(arr, p)
