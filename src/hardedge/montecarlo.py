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
O(p) sweeps per sample.  A sweep runs three first-order recurrences row by
row over all samples, the pivots and their first two tau-derivatives over
the pivots, 8 numpy calls a row; its sums over the rows are whole-array
operations.  Two Sturm counts on the sweep's pivot rows, 4 calls a row
each, certify each value to 1e-14 relative; a value they do not certify is
the (p+1)-th eigenvalue of the Golub-Kahan tridiagonal, found by LAPACK
bisection (`dstebz`) to full relative accuracy (Demmel-Kahan, SIAM J. Sci.
Stat. Comput. 11, 873, 1990).  A scalar correlation C = c 1 takes the same
path, since then W = sqrt(c) G.  Any other C = V D V^T takes the
triangular path: W W^T has the spectrum of D^1/2 G G^T D^1/2, D the
spectrum found when C was validated, and G G^T the law of R^T R, R upper
triangular with R_ii = chi_(n-i+1) and N(0, 1) above the diagonal
(Bartlett; Muirhead 1982, section 3.2).  Lanczos finds sigma_min(T)^2,
T = R D^1/2, in O(p^2) per step, and an SVD of T where it does not settle.

Each sample draws from its own counter-based Philox stream keyed by
(seed, sample index): one bit generator per worker, re-keyed for each
sample, draws what a new generator on that key would.  No sample's value
depends on the samples solved with it, so the first m samples of any batch
equal the batch of m samples with the same parameters and seed, bit for
bit.  A large triangular batch is therefore split over two threads, each
with its own bit generator, without changing a value; everything else is
drawn serially.  Seeded triangular values repeat bit for bit only at a
fixed BLAS thread count: `eigvalsh` of C, whose spectrum gives D^1/2,
rounds differently on one and on two OpenBLAS threads.
"""

from __future__ import annotations

import logging
import math
import numbers
import os
import threading
from dataclasses import dataclass, field
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
]

logger = logging.getLogger(__name__)

# Philox's counter and output buffer at the start of every stream.
_ZERO_WORDS = np.zeros(4, dtype=np.uint64)

# LAPACK's absolute tolerance for bisection to full relative accuracy.
_BISECTION_TOL = 2.0 * np.finfo(float).tiny

# Bidiagonal samples solved together; their draws fill one (2p - 1) x _CHUNK
# array, 3.3 MB at p = 200, and a sweep's rows four p x _CHUNK ones.  Measured
# (solve alone, best of 3, two runs), the solve takes 35-51, 30-40, 27-36 and
# 28-42 us a sample at p = 200 in chunks of 256, 512, 1,024 and 2,048, and
# 209-239, 199-223, 186-219 and 215-259 us at p = 1000: past 1,024 the rows'
# element cost outgrows the per-call cost saved.  At p = 10 it is 3.3-4.1,
# 2.1-2.5, 1.4-1.7 and 1.2-1.3 us.
_CHUNK = 1024
# Laguerre sweeps before a sample takes the bisection; a sample settles once its
# step is at most _SETTLE tau, after which the next, cubically smaller, step
# would lie below rounding, and tau is certified by Sturm counts at
# tau (1 -/+ _CERTIFY).
_LAGUERRE_SWEEPS, _SETTLE, _CERTIFY = 16, 1e-9, 1e-14

# Lanczos steps before the SVD takes over; relative error of an accepted Ritz value.
_LANCZOS_STEPS, _RITZ_TOL = 40, 1e-15

# Triangular batches run on two workers, one thread each, from p = _PARALLEL_P
# and _PARALLEL_SAMPLES samples, given two usable CPUs; the Philox fills and
# the triangular solves run mostly outside the GIL.  Measured (wall time,
# median of 9-15 alternating rounds, 2 vCPUs, nu = 4, exponential C), two
# workers are 0.60-0.81, 0.68-0.85 and 0.73-1.17x as fast as one at p = 50,
# 100 and 150 on 2 to 200 samples.  At p = 175 and 200 they are 1.14-1.48x
# as fast from 50 samples with BLAS on one thread (1.03-1.28x on 10 to 32),
# and with BLAS at its default 0.94-0.99x below 100 samples, 1.00-1.37x from
# 100.  At p = 800 they are 1.96-2.13x as fast on 200 samples.
_PARALLEL_P, _PARALLEL_SAMPLES = 175, 100


def _check_correlation(matrix: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(matrix, dtype=float)
    if arr.shape != (p, p):
        raise ValueError(f"correlation must be {p}x{p}, got {arr.shape}")
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        named = ", ".join(f"[{i}, {j}] = {arr[i, j]}" for i, j in bad[:4])
        more = f" and {len(bad) - 4} more" if len(bad) > 4 else ""
        raise ValueError(f"correlation has non-finite entries: {named}{more}")
    if not np.all(np.abs(arr - arr.T) <= 1e-12):
        raise ValueError("correlation matrix is not symmetric to 1e-12")
    if not (spectrum := np.linalg.eigvalsh(arr))[0] > 0.0:
        raise ValueError("correlation matrix is not positive definite")
    return arr, spectrum


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

    spectrum: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    """Ascending eigenvalues of `correlation`, kept from its validation; None without one."""

    def __post_init__(self) -> None:
        for name in ("p", "n", "num_samples", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 1 <= self.p <= self.n:
            raise ValueError(f"need 1 <= p <= n, got p={self.p}, n={self.n}")
        if self.correlation is not None:
            for name, value in zip(("correlation", "spectrum"),
                                   _check_correlation(self.correlation, self.p)):
                object.__setattr__(self, name, value)
        if self.num_samples < 1:
            raise ValueError(f"num_samples must be at least 1, got {self.num_samples}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit an unsigned 64-bit integer, got {self.seed}")

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

    algorithm: ClassVar[str] = "Philox4x64"
    """Name of the counter-based RNG behind the streams."""

    key_scheme: ClassVar[str] = "(seed, sample_index)"
    """How each sample's stream key was derived."""

    def __post_init__(self) -> None:
        values = np.asarray(self.smallest_eigenvalues, dtype=float)
        object.__setattr__(self, "smallest_eigenvalues", values)
        if values.shape != (self.config.num_samples,):
            raise ValueError(
                f"expected {self.config.num_samples} eigenvalues, got {values.shape}")
        if not np.all(np.isfinite(values)) or np.any(values <= 0.0):
            raise ValueError("smallest eigenvalues must be finite and positive")


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


def _pivots(q: list[np.ndarray], e: list[np.ndarray], shift: np.ndarray,
            pivots: list[np.ndarray]) -> None:
    """Write the pivots of B B^T - shift I into the rows `pivots`.

    The differential stationary qd transform (Dhillon-Parlett, Linear
    Algebra Appl. 387, 1, 2004): D+_i = q_i + s_i, r_i = e_i / D+_i and
    s_(i+1) = r_i s_i - shift from s_1 = -shift, four numpy calls a row on
    the row views q, e and pivots.
    """
    s, ratio = np.negative(shift), np.empty_like(shift)
    add, divide, multiply, subtract = np.add, np.divide, np.multiply, np.subtract
    for qi, ei, di in zip(q, e, pivots):
        add(qi, s, out=di)
        divide(ei, di, out=ratio)
        multiply(ratio, s, out=s)
        subtract(s, shift, out=s)
    add(q[-1], s, out=pivots[-1])


class _Sweep:
    """One Laguerre sweep over every column of a chunk, on preallocated rows.

    Three first-order recurrences run row by row over all columns at once,
    on (p x count) buffers addressed through lists of row views: the qd
    pivots D+_i (`_pivots`, 4 calls a row), u_i = s'_i / D+_i and
    v_i = s''_i / D+_i, the pivots' first two tau-derivatives over the
    pivots (2 calls a row each),

        u_1 = -1/D+_1,  u_(i+1) = K_i u_i - 1/D+_(i+1),
        v_1 = 0,        v_(i+1) = K_i (v_i - 2 u_i^2),

    with K_i = e_i q_i / (D+_i D+_(i+1)).  Everything else is whole-array
    operations, a few calls a sweep: 1/D+, the pivot minimum, K,
    2 K_i u_i^2, G = -sum u and H = sum u^2 - sum v.
    """

    def __init__(self, q: np.ndarray, e: np.ndarray) -> None:
        p, count = q.shape
        self.q, self.e = q, e
        # pivots holds D+, 1/D+, then v; u holds u, u^2, 2 K u^2, then certified's signs.
        self.pivots, self.u = np.empty((p, count)), np.empty((p, count))
        self.k = np.empty((p - 1, count))
        self.q_rows, self.e_rows, self.pivot_rows, self.u_rows, self.k_rows = (
            list(array) for array in (q, e, self.pivots, self.u, self.k))

    def __call__(self, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The smallest pivot of B B^T - tau I, G = sum 1/(lambda_j - tau)
        and H = sum 1/(lambda_j - tau)^2 of every column at its tau."""
        pivots, u, k = self.pivots, self.u, self.k
        rows, u_rows, k_rows = self.pivot_rows, self.u_rows, self.k_rows
        multiply, subtract = np.multiply, np.subtract
        _pivots(self.q_rows, self.e_rows, tau, rows)
        low = pivots.min(axis=0)
        np.divide(1.0, pivots, out=pivots)
        np.multiply(self.e, pivots[:-1], out=k)
        k *= self.q[:-1]
        k *= pivots[1:]
        np.negative(rows[0], out=u_rows[0])
        for ki, ui, un, inverse in zip(k_rows, u_rows, u_rows[1:], rows[1:]):
            multiply(ki, ui, out=un)
            subtract(un, inverse, out=un)
        g = -u.sum(axis=0)
        u *= u
        h = u.sum(axis=0)
        u[:-1] *= k
        u += u
        rows[0].fill(0.0)  # the rows of 1/D+ now take v
        for ki, twice, vi, vn in zip(k_rows, u_rows, rows, rows[1:]):
            multiply(ki, vi, out=vn)
            subtract(vn, twice, out=vn)
        h -= pivots.sum(axis=0)
        return low, g, h

    def certified(self, tau: np.ndarray) -> np.ndarray:
        """Whether B B^T - x I has no negative pivot at x = tau (1 - _CERTIFY)
        and exactly one, the rest positive, at x = tau (1 + _CERTIFY), on
        the sweep's own rows: one `_pivots` pass a shift, the signs in u."""
        pivots, signs, p = self.pivots, self.u, len(self.pivots)
        _pivots(self.q_rows, self.e_rows, tau * (1.0 - _CERTIFY), self.pivot_rows)
        below = pivots.min(axis=0) > 0.0
        _pivots(self.q_rows, self.e_rows, tau * (1.0 + _CERTIFY), self.pivot_rows)
        one = np.less(pivots, 0.0, out=signs).sum(axis=0) == 1
        return below & one & (np.greater(pivots, 0.0, out=signs).sum(axis=0) == p - 1)


def _laguerre_smallest(squares: np.ndarray) -> np.ndarray:
    """lambda_min(B B^T) of every column's bidiagonal; NaN where not certified.

    Column j holds a_1^2, b_1^2, a_2^2, ..., a_p^2: B has the diagonal a and
    the subdiagonal b, and B B^T = L D L^T with D = diag(a^2).  One sweep
    (`_Sweep`: three row-by-row recurrences, 8 numpy calls a row over all
    columns, and whole-array sums) gives the pivots of B B^T - tau I and
    G = sum 1/(lambda_j - tau), H = sum 1/(lambda_j - tau)^2.  Laguerre
    steps from tau = 0,

        tau <- tau + p / (G + sqrt((p - 1)(p H - G^2))),

    approach lambda_min from below and converge cubically.  Every decision
    is taken per column, so a column's value does not depend on its
    neighbours.  A column stops after a step of at most _SETTLE tau, or
    stays at its tau when a pivot is not positive or the step is negative
    or not finite.  Two Sturm counts of the same transform, on the sweep's
    pivot rows, certify the result (`_Sweep.certified`): no eigenvalue below
    tau (1 - _CERTIFY), one below tau (1 + _CERTIFY).
    """
    q, e = squares[0::2], squares[1::2]
    p, count = q.shape
    tau = np.zeros(count)
    active = np.ones(count, dtype=bool)
    with np.errstate(all="ignore"):
        sweep = _Sweep(q, e)
        for _ in range(_LAGUERRE_SWEEPS):
            low, g, h = sweep(tau)
            work = h * p
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
        certified = ~active & sweep.certified(tau)
    return np.where(certified, tau, np.nan)


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
        self.bits = np.random.Philox(key=np.array([config.seed, 0], dtype=np.uint64))
        self.generator = np.random.Generator(self.bits)
        self.scale = _scalar_correlation(config.correlation)
        self.triangular = self.scale is None
        self.dof = np.empty(2 * p - 1)
        self.dof[0::2] = np.arange(n, n - p, -1)
        self.dof[1::2] = np.arange(p - 1, 0, -1)
        if self.triangular:
            self.root = np.sqrt(config.spectrum)
            self.above = np.triu(np.ones((p, p), dtype=bool), 1)
        else:
            self.diagonal = np.zeros(2 * p)

    def _stream(self, index: int) -> np.random.Generator:
        """The generator at the start of sample `index`'s stream.

        The one bit generator is re-keyed to (seed, index) with counter 0
        and nothing buffered, the state a new Philox(key=(seed, index))
        starts in, without the OS entropy its construction draws.
        """
        self.bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZERO_WORDS,
                      "key": np.array([self.seed, index], dtype=np.uint64)},
            "buffer": _ZERO_WORDS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        return self.generator

    def squares(self, index: int) -> np.ndarray:
        """Squared bidiagonal entries of sample `index`."""
        return self._stream(index).chisquare(self.dof)

    def triangle(self, index: int) -> tuple[np.ndarray, np.random.Generator]:
        """T = R D^1/2 of sample `index`, with its stream positioned after T
        (until the next draw of this `_Draws`, which re-keys it)."""
        stream = self._stream(index)
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


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _triangular_values(config: SamplerConfig, draws: _Draws, workers: int) -> np.ndarray:
    """Triangular-path values of the batch, by `workers` (1 or 2) workers.

    Two workers take the two halves of the sample indices: this thread the
    first with `draws`, one started thread the second with a `_Draws` of its
    own, both writing into one array.  The thread is joined before this
    returns or raises; an error is that of the lowest failing sample index,
    the one the serial loop raises.
    """
    count = config.num_samples
    values = np.empty(count)
    errors: list[BaseException | None] = [None, None]

    def fill(worker: int, draws: _Draws, start: int, stop: int) -> None:
        try:
            for index in range(start, stop):
                if errors[0] is not None:  # the second half's values are moot
                    return
                values[index] = draws.triangular_smallest(index)
        except BaseException as exc:
            errors[worker] = exc

    if workers == 1:
        fill(0, draws, 0, count)
    else:
        half = count // 2
        thread = threading.Thread(target=fill, args=(1, _Draws(config), half, count))
        thread.start()
        try:
            fill(0, draws, 0, half)
        finally:
            thread.join()
    for error in errors:
        if error is not None:
            raise error
    return values


def sample_batch(config: SamplerConfig) -> SampleBatch:
    """Draw the configured batch of smallest Wishart eigenvalues.

    Uncorrelated and scalar-correlated batches take the bidiagonal path:
    up to _CHUNK samples at a time are drawn into one array and solved
    together by vectorized Laguerre steps, each value certified by two
    Sturm counts or else found by LAPACK bisection (`dstebz`).  Any other
    correlation takes the triangular path, O(p^2) per Lanczos step, one
    sample after another, or on two threads, each over one half of the
    samples, from p = _PARALLEL_P and _PARALLEL_SAMPLES samples when two
    CPUs are usable.  Either way every value is the same, at a fixed BLAS
    thread count: the spectrum of C (`eigvalsh`) rounds differently on one
    and on two OpenBLAS threads, and with it every triangular value.
    """
    draws = _Draws(config)
    count = config.num_samples
    workers = 1
    if draws.triangular:
        if (config.p >= _PARALLEL_P and count >= _PARALLEL_SAMPLES
                and _usable_cpus() >= 2):
            workers = 2
        values = _triangular_values(config, draws, workers)
    else:
        values = np.concatenate([
            draws.bidiagonal_smallest(start, min(start + _CHUNK, count))
            for start in range(0, count, _CHUNK)])
    logger.debug("sampled %d matrices at p=%d, nu=%d on the %s path, %d worker(s)",
                 count, config.p, config.nu,
                 "triangular" if draws.triangular else "bidiagonal", workers)
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
    its spectrum, so the scale generalizes to 4 tr(C^-1) = 4 sum 1/lambda_j
    over the configuration's spectrum; only under this rescaling is the
    limiting law independent of C.  A scalar correlation C = c 1 gives
    4p/c, which exactly undoes the sampler's scaling of the eigenvalues,
    leaving u invariant.
    """
    if config.spectrum is None:
        return 4.0 * config.p
    return 4.0 * float(np.sum(1.0 / config.spectrum))


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
