"""Kernel matrices entering the Pfaffian eigenvalue formulas.

Two families of quantities are built from the skew-orthogonal polynomials of
the shifted Laguerre weight.  The two-point kernel

    K_l(xa, xb) = sum_j [R_{2j+1}(xa) R_{2j}(xb) - R_{2j+1}(xb) R_{2j}(xa)] / r_j

pairs polynomial couples up to degree l-1 (the hatted set when l is odd), and
the antisymmetric derivative matrix

    Xi_ab = (-1)^(a+b) t^(2 gamma + a + b + 1) *
            sum_j [d^a R_{2j+1} d^b R_{2j} - d^b R_{2j+1} d^a R_{2j}](-t) / r_j

collects its mixed derivatives at the left spectral edge, together with a
border column xi_a of single derivatives.  Gap probabilities and smallest
eigenvalue densities are Pfaffians of small matrices with these entries.

The entries are built over standard Laguerre values L_n^(mu)(-t), which
are positive and come from a coupled forward recurrence that only adds
positive terms, so matrices remain accurate for polynomial counts in the
thousands where factorial-laden expressions overflow.  Every Tricomi U
ratio is read off whole chains U(1/2 + i, b, t/2), one call of
specfun.tricomi_u_chain (one block-diagonal tridiagonal solve) per batch
of evaluation points; an integer-a value is a ladder value times a power
of t/2 (Kummer's transformation).  The chains are built with the
Laguerre rows, one banded solve for the batch, in one BulkTables per
batch, and every table, matrix and column carries a leading point axis;
each point's values are the ones it has in a batch of its own.  What the
points share, everything without t, the ladder's chain layout included,
is one read-only layout per (gamma, l), cached (_layout).
The independent routes the tests check these entries against (the
polynomial pair sum and the closed Christoffel-Darboux form) live in
hardedge.reference.kernels.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.linalg.blas import dtbsv

from .specfun import _ChainLayout, _frozen, tricomi_u_chain

__all__ = ["BulkTables", "kernel_matrix", "border_column"]

# The forward Laguerre recurrence at argument -t grows like e^(2 sqrt(n t));
# beyond this product the values leave the double range.
_RECURRENCE_ENVELOPE = 1.2e5


# Layouts kept at once.  A finite-p curve or CDF reuses one, a
# `converge` call one per size, and a benchmark workload at most six.
_LAYOUTS = 32


class _Layout:
    """The t-free arrays of the bulk route at one (gamma, l), all read-only,
    for every t and size: the band of the Laguerre recurrence without its
    t entries (:func:`_laguerre_rows`), kernel_matrix's index coefficients
    and rising factorials, and the layout of BulkTables' ladder (`chain`).
    Each array is the expression its reader would otherwise evaluate per
    point, so every value is unchanged.
    """

    def __init__(self, gamma: int, l: int) -> None:
        # Unknown 2n is L_n^(mu), unknown 2n + 1 is L_n^(mu+1); band row d
        # holds the entries d places below the diagonal, and the entries
        # [1, 1:-1:2] hold -t.  Row 0 sets L_0^(mu) = 1, whence row 1 gives
        # L_0^(mu+1) = 1.  Fortran order spares the copy BLAS would
        # otherwise take of the band.
        n = np.arange(l + 1.0)
        n[0] = 1.0
        self.band = np.zeros((3, 2 * l + 2), order="F")
        self.band[0, 0::2], self.band[0, 1::2] = n, 1.0
        self.band[1, 0::2] = -1.0
        self.band[2, 0:-2:2], self.band[2, 1:-2:2] = -(n[1:] + 2 * gamma), -1.0

        # kernel_matrix pairs j < count; the hatted set of odd l adds its
        # top polynomial, with moments up to j = count.
        self.hatted, self.count = l % 2 == 1, l // 2
        self.js = js = np.arange(self.count)
        self.two_j, self.two_j_next, self.odd = 2.0 * js, 2.0 * (js + 1), 2.0 * js + 1.0
        self.coupling = 2.0 * (gamma + js)
        self.coupling_over_odd = 2.0 * (gamma + js) / (2 * js + 1)
        # (x)_gamma and (x)_(2 gamma) as exact products, scipy's poch to the bit.
        x = 2.0 * np.arange(self.count + 1.0) + 2.0
        rising = x * (x + 1.0) if gamma else np.ones(self.count + 1)
        self.norm_poch = rising[:-1]
        if self.hatted:
            self.moment_poch = np.arange(self.count + 1) + 1.5 if gamma else rising
            self.js_half = js + 0.5
            self.top_poch = float(rising[-1])
        _frozen(*[x for x in vars(self).values() if isinstance(x, np.ndarray)])
        low = min(gamma - 0.5, 0.5 - gamma) if self.hatted else gamma - 0.5
        self.chain = _ChainLayout(0.5, low, gamma + l // 2)


@functools.lru_cache(maxsize=_LAYOUTS)
def _layout(gamma: int, l: int) -> _Layout:
    return _Layout(gamma, l)


def _laguerre_rows(gamma: int, l: int, t: np.ndarray, count: int) -> np.ndarray:
    """Standard Laguerre values L_n^(2 gamma + m)(-t[q]) at [q, m, n],
    m < count, n = 0..l, for count >= 2.

    Rows 0 and 1 come from one banded lower-triangular solve (BLAS dtbsv) of
    the coupled recurrence (DLMF 18.9.13-14 at x = -t)

        n L_n^(mu) = (n + mu) L_{n-1}^(mu) + t L_{n-1}^(mu+1),
        L_n^(mu+1) = L_{n-1}^(mu+1) + L_n^(mu),

    whose forward substitution only adds positive terms; each further row is
    the running sum of the one before.  No row carries cancellation.  The
    band holds one block a point, the cached one of :class:`_Layout` with
    the point's t filled in; the band's entries that would couple a block
    to the next are zero, so each block is solved as it would be alone
    (while the one before it is finite: 0 * inf spills NaN forward).
    """
    # The band's columns, block by block: C order here is the Fortran
    # order of the band, which BLAS then reads without a copy.
    columns = np.empty((len(t), 2 * l + 2, 3))
    columns[...] = _layout(gamma, l).band.T
    columns[:, 1:-1:2, 1] = -t[:, None]
    rhs = np.zeros(columns.shape[:2])
    rhs[:, 0] = 1.0
    pairs = dtbsv(2, columns.reshape(-1, 3).T, rhs.reshape(-1), lower=1).reshape(rhs.shape)
    rows = np.empty((len(t), count, l + 1))
    rows[:, 0], rows[:, 1] = pairs[:, 0::2], pairs[:, 1::2]
    for m in range(2, count):
        np.add.accumulate(rows[:, m - 1], axis=1, out=rows[:, m])
    return rows


class BulkTables:
    """The Tricomi U ratios and Laguerre rows the bulk route reads for one
    (gamma, l, size) at a batch of points t, all built at construction.

    Every U that kernel_matrix and border_column use is U(a, b, z) at
    z = t/2 with a an integer or a half-integer.  The half-integer values
    lie on one ladder U(1/2 + i, b, z), up to i = gamma + l // 2, for the
    consecutive b from gamma - 1/2 up to gamma + 3/2, extended down to
    h = 1/2 - gamma for the hatted set of odd l, in one tricomi_u_chain
    call for the whole batch: one block-diagonal tridiagonal solve, and one
    quadrature pass for the anchors of all chains and points together, in
    which a point integrates two of its 3 or 4 chain tops (the others
    follow by the contiguous relation in b) and its ladder bottom only past
    t/2 = 32 (below it, closed forms).  The
    integer-a values map onto it through Kummer's transformation (DLMF
    13.2.40)

        U(a, b, z) = z^(1 - b) U(a - b + 1, 2 - b, z),

    which at the b = h and h + 1 the route reads lands on half-integer a
    and on b = gamma + 3/2 and gamma + 1/2: a ladder value times z^(1 - b).
    The prefactor U(a, gamma + 3/2, t/2) of the finite-p assembly lies on
    the ladder too (ln_u): at even l directly, at odd l through the same
    map onto b = h.
    The Laguerre rows L_n^(2 gamma + m)(-t), m <= size, are laid out once
    in the skewed copy that the kernel reads in strided blocks.  Every read
    carries a leading axis over the points, in the order of t, and each
    point's values are the ones it has in a batch of its own.  A table is
    made per batch and shared by the kernel matrices and border columns.

    gamma is the weight power (0 for gap matrices, 1 for density ones), l
    the number of polynomials paired (odd counts switch to the hatted set),
    t a non-empty 1-D array of positive shifts and size in 1..l-1 the order
    of the matrices and columns read; invalid values raise ValueError,
    naming the first offending point.
    """

    def __init__(self, gamma: int, l: int, t: np.ndarray, size: int) -> None:
        t = np.array(t, dtype=float)
        if gamma not in (0, 1):
            raise ValueError(f"gamma must be 0 or 1, got {gamma}")
        if l < 2:
            raise ValueError(f"need at least two polynomials, got l={l}")
        if t.ndim != 1 or not len(t):
            raise ValueError(f"t must be a non-empty 1-D array, got shape {t.shape}")
        for x in t.tolist():
            if not x > 0.0:
                raise ValueError(f"t must be positive, got {x}")
            if l * x > _RECURRENCE_ENVELOPE:
                raise ValueError(
                    f"l * t = {l * x:.3g} exceeds the stable range {_RECURRENCE_ENVELOPE:.3g} "
                    "of the Laguerre forward recurrence")
        if not 1 <= size <= l - 1:
            raise ValueError(f"size must lie in 1..l-1 = {l - 1}, got {size}")
        self.gamma, self.l, self.t, self.size = gamma, l, t, size
        self._layout = _layout(gamma, l)
        low = self._layout.chain.b
        chains, self._log_scale = tricomi_u_chain(self._layout.chain, t / 2.0,
                                                  int(gamma + 2.5 - low))
        self._chains = {low + j: w for j, w in enumerate(chains)}
        # Per point, the log of z, whose powers Kummer reads carry: floats,
        # in math's rounding, as is the log scale all chains share.
        self._ln_z = [math.log(x / 2.0) for x in t.tolist()]
        rows = _laguerre_rows(gamma, l, t, size + 1)
        self._skewed = np.zeros((len(t), size + 1, l + size + 3))
        for m in range(size + 1):
            self._skewed[:, m, m + 2:m + l + 3] = rows[:, m]

    def _segment(self, a: float, b: float,
                 count: int) -> tuple[np.ndarray, float, float]:
        """U(a + i, b, z[q]) = w[q, i] z[q]^e exp(log_scale[q]) / Gamma(a' + i + 1),
        i < count, as (w, e, a'): e = 0 and a' = a on the ladder, e = 1 - b
        and a' = a - b + 1 for a Kummer read."""
        if a % 1.0 == 0.0:
            w, _, a_half = self._segment(a - b + 1.0, 2.0 - b, count)
            return w, 1.0 - b, a_half
        w = self._chains[b]
        start = int(a)
        if start + count > w.shape[1]:
            raise IndexError(f"U({a} + {count - 1}, {b}) is past the chain top")
        return w[:, start:start + count], 0.0, a

    def ln_u(self, a: float, b: float) -> np.ndarray:
        """ln U(a, b, t/2) read off the ladder at each point; a an integer
        or half-integer."""
        w, e, a_read = self._segment(a, b, 1)
        ln_gamma = math.lgamma(a_read + 1.0)
        return np.array([math.log(x) + (s + e * ln_z) - ln_gamma
                         for x, s, ln_z in zip(w[:, 0].tolist(), self._log_scale, self._ln_z)])

    def quotient(self, num: tuple[float, float], den: tuple[float, float],
                 count: int) -> np.ndarray:
        """U(a_n + i, b_n, t/2) / U(a_d + i, b_d, t/2) at [q, i], i < count.

        num = (a_n, b_n) and den = (a_d, b_d); a_n and a_d are integers or
        half-integers whose ladder values a' (_segment) lie at most one step
        apart, so that the Gamma ratio between the reads is one factor; else
        ValueError.
        """
        w_num, e_num, a_num = self._segment(*num, count)
        w_den, e_den, a_den = self._segment(*den, count)
        if abs(a_num - a_den) > 1.0:
            raise ValueError(f"U{num} / U{den} reads the ladder at a = {a_num} and "
                             f"{a_den}, more than one step apart")
        ratio = w_num / w_den
        if e_num != e_den:
            ratio *= np.array([math.exp((e_num - e_den) * ln_z) for ln_z in self._ln_z])[:, None]
        if a_num > a_den:
            ratio /= a_num + np.arange(count)
        elif a_num < a_den:
            ratio *= a_den + np.arange(count)
        return ratio

    def border_mix(self) -> np.ndarray:
        """U(a, gamma + 1/2, t/2) / U(a, gamma + 3/2, t/2) at a = gamma + (l-1)/2,
        the coefficient mixing the two border terms, at each point."""
        a = self.gamma + (self.l - 1) / 2.0
        return self.quotient((a, self.gamma + 0.5), (a, self.gamma + 1.5), 1)[:, 0]

    def laguerre_block(self, c: int, d: int, count: int) -> np.ndarray:
        """L_(2j + c - a)^(2 gamma + a + d)(-t[q]) at [q, a, j], a < size,
        j < count, zero where the degree is negative (c >= -2).

        A strided view of the skewed copy of the Laguerre rows: entry
        [q, m, n + m + 2] holds L_n^(2 gamma + m)(-t[q]), zeros elsewhere,
        so the block is the slice [:, d:d + size, 2 + c + d::2].
        """
        start = 2 + c + d
        return self._skewed[:, d:d + self.size, start:start + 2 * count:2]


def kernel_matrix(tables: BulkTables) -> np.ndarray:
    """Power-stripped derivative kernel matrices M at [q, a, b], each
    antisymmetric size x size, one per point of `tables`.

    The full entries factor as Xi_ab = t^(2 gamma + a + b + 1) * M_ab; the
    stripped matrix stays O(1) down to t -> 0, so callers can keep the exact
    power in a log-domain prefactor.  Entries are assembled from positive
    Laguerre values, with the scaled polynomial norms folded in through
    rising factorials instead of raw factorials.  (gamma, l, t, size) are
    those of `tables`; a size-1 matrix is zero.
    """
    gamma, t, size = tables.gamma, tables.t, tables.size
    if size < 2:
        return np.zeros((len(t), size, size))
    layout = tables._layout
    hatted, count, js = layout.hatted, layout.count, layout.js
    two_j, odd = layout.two_j, layout.odd
    half, h = gamma + 0.5, 0.5 - gamma

    def block(c: int, d: int) -> np.ndarray:
        return tables.laguerre_block(c, d, count)

    # rho_j, sigma_j: b-shifts of U(j + gamma + 1/2, ., t/2); at j = 0 they
    # multiply Laguerre values of negative degree only.  The hatted set also
    # reads rho at j = count, for its top polynomial.
    rho_all = tables.quotient((half, half), (half, half + 1.0), count + hatted)
    rho = rho_all[:, None, :count]
    sig = tables.quotient((half, half - 1.0), (half, half + 1.0), count)[:, None]
    even_vals = block(0, 0) + rho * block(-1, 1)
    mid = (rho + two_j * rho ** 2 - layout.two_j_next * sig) / odd
    odd_vals = block(1, 0) - layout.coupling_over_odd * block(-1, 0) + mid * block(-1, 1) \
        + two_j * rho / odd * block(0, 1) - layout.coupling * rho / odd * block(-2, 1)

    u = tables.quotient((1.0, h), (0.0, h), count)
    norm_w = 0.5 / (u * layout.norm_poch)
    matrix = odd_vals @ (norm_w[:, None] * even_vals).swapaxes(1, 2)
    matrix = matrix.swapaxes(1, 2) - matrix

    if hatted:
        big_k = count
        top_vals = tables.laguerre_block(2 * big_k, 0, 1)[:, :, 0] \
            + rho_all[:, big_k, None] * tables.laguerre_block(2 * big_k - 1, 1, 1)[:, :, 0]
        # Even-polynomial moments up to a common factor: U(j + 1/2, h)/U(j, h)
        # times Gamma(j + 3/2)/Gamma(j + gamma + 3/2), for j = 0..big_k.
        moments = tables.quotient((0.5, h), (0.0, h), big_k + 1) / layout.moment_poch
        even_w = moments[:, :count] / (moments[:, big_k, None] * layout.top_poch * 2.0 * u)
        odd_over_even = t[:, None] * (
            layout.js_half * tables.quotient((1.5, h + 1.0), (0.5, h), count)
            - js * tables.quotient((1.0, h + 1.0), (0.0, h), count))
        odd_w = even_w * odd_over_even / odd
        mixed = odd_vals @ even_w[:, :, None] + even_vals @ odd_w[:, :, None]
        top = top_vals[:, None]
        matrix += mixed * top - top.swapaxes(1, 2) * mixed.swapaxes(1, 2)

    return matrix


def border_column(tables: BulkTables) -> np.ndarray:
    """Power-stripped border entries beta at [q, a], with
    xi_a = t^(2 gamma + a) beta_a at point q.

    Each entry is a sum of two positive Laguerre values, so the column is
    strictly positive and cancellation-free at every admissible order.
    (gamma, l, t, size) are those of `tables`.
    """
    l = tables.l
    return tables.laguerre_block(l - 2, 0, 1)[:, :, 0] \
        + tables.border_mix()[:, None] * tables.laguerre_block(l - 3, 1, 1)[:, :, 0]
