"""Tricomi U in the log domain, and the package's one quadrature loop.

The finite-size kernels and distributions are assembled from Tricomi's
confluent hypergeometric function U(a, b, t), as whole chains in a
(:func:`tricomi_u_chain`) and as the logs of single values.  U is a closed
form at the chain bottoms a = 1/2 and otherwise a quadrature over a window
found without a root finder: the peak in closed form, the edges by
doubling out from the Laplace estimate.  One pass evaluates any number of
rows (a, b, t), each in its own window, through one order-doubling loop:
the chains of a batch of points evaluate all their anchors in one pass,
and so does the k = 0 prefactor of the finite-p assembly.  Each row
settles and is contracted on its own, so its value does not depend on the
rows beside it.  The lowest chains of a batch are one block-diagonal
tridiagonal solve.  That Gauss-Legendre loop is the only one in the
package: the limiting kernel quadrature in ``microscopic`` runs through it
as well, with its own tolerance, both on one ladder of the five orders 48,
96, ..., 768.  A chain's arrays without t are one read-only layout per
(a0, b, n) (:class:`_ChainLayout`), which its caller builds and keeps.
The oracles' own special functions live in ``hardedge.reference.specfun``.

Quantities such as Gamma((p+1)/2) * U(...) pair enormous factors that cancel
only at the very end of an assembly, so U leaves this module as a plain
log (:func:`_ln_tricomi`) or as chains sharing one log scale.  Conversion
to a plain float happens at final assembly where ratios are O(1).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.special import erfcx

__all__ = ["tricomi_u_chain"]


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only.  Every module cache holds its arrays so:
    an in-place edit by a caller raises instead of corrupting later points."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1], cached read-only."""
    if n not in _GL_CACHE:
        _GL_CACHE[n] = _frozen(*np.polynomial.legendre.leggauss(n))
    return _GL_CACHE[n]


# Highest Gauss-Legendre order tried: the ladder 48, 96, ..., 768 of five rules.
_MAX_ORDER = 768


def _settled_integral(integrand, tol: float, floor: float, describe):
    """Integrate over [0, 1] by Gauss-Legendre, doubling the order from 48
    until two successive values agree to tol * max(floor, |value|).

    The integrand may be array-valued, nodes on its last axis, as for a whole
    kernel matrix or several Tricomi U rows.  It is called as
    integrand(s, live) and returns the entries live selects: all of them
    (live = slice(None)) until one has settled, then the indices of those
    still unsettled.  Each entry is summed over the nodes on its own (a
    matrix-vector product would round a row by how many rows share it) and
    keeps the first value that agrees with its previous one, so it settles
    to the bit as it would alone.  Every caller climbs the same ladder, so
    the rule cache holds at most five rules.  Once the order would pass 768
    it raises RuntimeError naming ``describe(live)``.
    """
    order, live, previous = 48, slice(None), None
    while order <= _MAX_ORDER:
        nodes, weights = _gauss_legendre(order)
        current = (integrand(0.5 * (nodes + 1.0), live) * (0.5 * weights)).sum(axis=-1)
        if previous is None:
            values = current
        else:
            late = np.abs(current - previous) > tol * np.maximum(floor, np.abs(current))
            values[live] = current
            if not late.any():
                return values
            live, current = np.arange(len(values))[live][late], current[late]
        previous, order = current, 2 * order
    raise RuntimeError(f"{describe(live)} did not settle up to order {_MAX_ORDER}")


# ----------------------------------------------------------------- Tricomi U


# Nats the integrand of a U quadrature falls from its peak to either window edge.
_WINDOW_DROP = 60.0


def _half_anchor(b: float, t: float) -> float | None:
    """ln U(1/2, b, t) in closed form where one exists without cancellation.

    A bulk ladder evaluates only the bottom of its lowest chain: b = -1/2
    at gamma = 0 and at gamma = 1 with odd l, b = 1/2 at gamma = 1 with even
    l.  b = 3/2 serves the skew-orthogonal oracle; no caller takes 5/2.
    U(a, a + 1, t) = t^-a and U(1/2, 1/2, t) = sqrt(pi)
    erfcx(sqrt(t)) (DLMF 13.6); the contiguous relation

        (b - a - 1) U(a, b - 1, t) + (1 - b - t) U(a, b, t) + t U(a, b + 1, t) = 0

    (DLMF 13.3) gives U(1/2, 5/2, t) = (t + 1/2) t^(-3/2) and
    U(1/2, -1/2, t) = (1/2 - t) sqrt(pi) erfcx(sqrt(t)) + sqrt(t), a sum of
    two positive terms only for t <= 1/2.  Returns None otherwise.
    """
    root = math.sqrt(t)
    if b == 1.5:
        return -0.5 * math.log(t)
    if b == 2.5:
        return math.log(t + 0.5) - 1.5 * math.log(t)
    if b == 0.5:
        return math.log(math.sqrt(math.pi) * erfcx(root))
    if b == -0.5 and t <= 0.5:
        return math.log((0.5 - t) * math.sqrt(math.pi) * erfcx(root) + root)
    return None


def _exponent(a, c, t, v):
    """h(v) = a v + c log(1 + e^v) - t e^v, the log of the U integrand, on
    the quadrature nodes; :func:`_window` walks the same h on floats."""
    # The cap keeps exp finite where a window reaches far right.
    x = np.exp(np.minimum(v, 700.0))
    return a * v + c * np.log1p(x) - t * x


def _window(a: float, b: float, t: float) -> tuple[float, float, float, float]:
    """(h_peak, left, peak, right): the peak of h and the window edges of
    one U(a, b, t) quadrature (:func:`_ln_tricomi`), for a > 0.

    h (:func:`_exponent`, with c = b - a - 1) has a single maximum for
    every a > 0: h'(v) = 0 is a quadratic in x = e^v,
    t x^2 - (b - 1 - t) x - a = 0, whose one positive root is the peak.
    Each window edge starts at the Laplace estimate peak -+ sqrt(120 / |h''|),
    with h'' = c sigma (1 - sigma) - t e^v and sigma the logistic function
    of v.  Its distance from the peak doubles until h is 60 nats down
    there, and quarters while a quarter is still that far down (the plateau
    of h at b ~ 1 and small t).  h is monotone on each side of the peak, so
    the window holds all mass above the drop; where neither step is taken
    the edge is the Laplace estimate, smooth in a.  The walk evaluates h
    with ``math`` on floats, the same operations as :func:`_exponent`.
    """
    c = b - a - 1.0
    # The peak, x = e^v: the positive root of t x^2 - m x - a, cancellation-free.
    m = b - 1.0 - t
    disc = math.sqrt(m * m + 4.0 * a * t)
    x = (m + disc) / (2.0 * t) if m >= 0.0 else 2.0 * a / (disc - m)
    peak = math.log(x)
    h_peak = a * peak + c * math.log1p(x) - t * x
    curvature = t * x - c * x / (1.0 + x) ** 2
    floor = h_peak - _WINDOW_DROP

    def h(v: float) -> float:
        # The cap keeps exp finite far right; t e^v may still overflow to
        # inf there, which a float product returns without raising.
        x = math.exp(min(v, 700.0))
        return a * v + c * math.log1p(x) - t * x

    def window_edge(direction: float) -> float:
        edge = peak + direction * math.sqrt(2.0 * _WINDOW_DROP / curvature)
        while h(edge) > floor:
            edge = peak + 2.0 * (edge - peak)
        while h(peak + 0.25 * (edge - peak)) <= floor:
            edge = peak + 0.25 * (edge - peak)
        return edge

    return h_peak, window_edge(-1.0), peak, window_edge(+1.0)


def _ln_tricomi(rows: list[tuple[float, float, float]]) -> list[float]:
    """ln U(a, b, t) for every (a, b, t) of rows, in one pass.

    Each row integrates

        U(a, b, t) = 1/Gamma(a) * int_0^inf z^(a-1) (1+z)^(b-a-1) e^(-t z) dz

    as exp(h(v)) in v = ln z over the window :func:`_window` finds, both
    sides of its peak through one Gauss-Legendre rule.  a = 0 gives ln U = 0
    exactly (the empty-product convention of the skew-orthogonal norm at
    index 0), and the closed-form chain bottoms (:func:`_half_anchor`) take
    no quadrature; all other rows share one order-doubling loop, in which
    each row keeps the first order at which it settles to 5e-13, as it
    would alone.  Tested up to a = 2003 and t down to 1e-8 without overflow
    or underflow.  Raises ValueError naming the first row with a non-finite
    argument, a < 0 or t <= 0, before any quadrature, and RuntimeError
    naming every row not settled by order 768.
    """
    logs = []
    for a, b, t in rows:
        if not (a >= 0.0 and t > 0.0 and all(map(math.isfinite, (a, b, t)))):
            raise ValueError("Tricomi U requires finite a >= 0, b and t > 0, "
                             f"got a={a}, b={b}, t={t}")
        logs.append(0.0 if a == 0.0 else _half_anchor(b, t) if a == 0.5 else None)
    pending = [i for i, ln in enumerate(logs) if ln is None]
    if not pending:
        return logs

    a, b, t = np.array([rows[i] for i in pending]).T
    c = b - a - 1.0
    windows = np.array([_window(*rows[i]) for i in pending])
    h_peak = windows[:, 0]
    # Per row, the two sides of the peak: starts and widths of shape (rows, 2, 1).
    starts = windows[:, 1:3, None]
    widths = (windows[:, 2:] - windows[:, 1:3])[:, :, None]
    a, c, t = a[:, None, None], c[:, None, None], t[:, None, None]

    def integrand(s: np.ndarray, live) -> np.ndarray:
        # Both sides of each row's peak, mapped onto [0, 1] and summed.
        values = np.exp(_exponent(a[live], c[live], t[live], starts[live] + widths[live] * s)
                        - h_peak[live, None, None])
        return (widths[live] * values).sum(axis=1)

    def describe(unsettled: np.ndarray) -> str:
        return "Tricomi U quadrature for " + "; ".join(
            "a={}, b={}, t={}".format(*rows[pending[i]]) for i in unsettled)

    totals = _settled_integral(integrand, 5e-13, 0.0, describe)
    for i, peak, total in zip(pending, h_peak, totals):
        logs[i] = float(peak + math.log(total) - math.lgamma(rows[i][0]))
    return logs


class _ChainLayout:
    """The t-free arrays of the chains U(a0 + i, b + j, t), i = 0..n, all
    read-only: a = a0 + i, and at n >= 2 the lowest chain's interior rows.

    Those are the recurrence's superdiagonal a (a - b + 1) / (a + 1), the
    n - 1 rows of one point's block of the tridiagonal system without t
    (the diagonal b - 2a, from which a point subtracts its t, and the
    off-diagonals, each closed by the zero that couples the block to the
    next point's), and the long-double coefficients of the refinement
    residual: wide = a, wide b / (wide + 1) and b / (wide + 1).  The bulk
    route keeps one in each cached kernels._Layout.
    """

    def __init__(self, a0: float, b: float, n: int) -> None:
        self.a0, self.b, self.n = a0, b, n
        self.a = a0 + np.arange(n + 1.0)
        if n >= 2:
            a = self.a[1:-1]
            self.upper = a * (a - b + 1.0) / (a + 1.0)
            self.diagonal = b - 2.0 * a
            self.below, self.above = np.zeros(n - 1), np.zeros(n - 1)
            self.below[:-1] = a[1:]
            self.above[:-1] = self.upper[:-1]
            self.wide = a.astype(np.longdouble)
            above_wide = self.wide + 1.0
            self.wide_b = self.wide * b / above_wide
            self.b_over = b / above_wide
        _frozen(*[x for x in vars(self).values() if isinstance(x, np.ndarray)])


def tricomi_u_chain(layout: _ChainLayout, t: np.ndarray,
                    count: int) -> tuple[np.ndarray, list[float]]:
    """Tricomi U(a0 + i, b + j, t) for i = 0..n and j = 0..count-1 at once,
    at every point of the 1-D array t, in scaled form; (a0, b, n) and the
    arrays without t are those of `layout`.

    Returns the chains w at [j, q, i] and one log scale per point, with

        U(a0 + i, b + j, t[q]) = w[j, q, i] * exp(log_scale[q]) / Gamma(a0 + i + 1),

    so ratios along the chain and between chains of equal length stay
    accurate where the log of U itself runs into the thousands.  All chains
    of a point share the log scale of its lowest one.

    Only the anchors are evaluated, every point's in one pass of
    :func:`_ln_tricomi`: both ends of the lowest chain and the top of each
    further one, count + 1 rows a point (count at n = 0), one
    order-doubling loop for them all.  The bottoms U(0, b, t) = 1 and the
    closed-form U(1/2, b, t) take no quadrature.  The interior of the
    lowest chain solves the three-term recurrence in a (DLMF 13.3.7) as a
    boundary-value problem (Olver 1967; Gil, Segura and Temme 2007, ch. 4):
    with w_a = Gamma(a + 1) U(a, b, t) it reads

        a w_{a-1} + (b - 2a - t) w_a + a (a - b + 1) / (a + 1) w_{a+1} = 0,

    whose coefficients are O(a) and whose solutions vary at most like
    exp(+-2 sqrt(a t)) times powers of a, so nothing overflows.  Each
    point's system is tridiagonal; the points' systems are the blocks of
    one block-diagonal system (:func:`_solved_chain`), factored once
    (LAPACK's dgttrf) for both solves.
    Its condition grows like n^2 as t -> 0, where both solutions of the
    recurrence become polynomial in a; one step of iterative refinement
    wins the lost digits back.  The residual for it is taken in extended
    precision and in the difference form

        a (w_{a+1} - 2 w_a + w_{a-1}) - a b / (a + 1) (w_{a+1} - w_a)
            + (b / (a + 1) - t) w_a,

    in which the small terms are explicit instead of left to cancel (the
    difference form alone already gains most of the digits where numpy's
    long double is plain double).

    Each further chain follows from the one below it by DLMF 13.3.9,
    U(a, b) = U(a, b - 1) + a U(a + 1, b), unrolled up to the top a0 + n:

        w_a(b) = w_a(b - 1) + a S_{a+1},
        S_i = sum_{j=i}^{a0+n-1} w_j(b - 1) / j + w_{a0+n}(b) / (a0 + n),

    one reverse cumulative sum of positive terms, with no solve.  Every
    value of a point is the one it has in a batch of its own.  Raises
    RuntimeError, naming the first chain and point, if a chain leaves the
    double range; in a batch that point may be an innocent neighbour of
    the one that left it (see :func:`_solved_chain`).
    """
    a0, b, n = layout.a0, layout.b, layout.n
    t = np.asarray(t, dtype=float)
    if a0 < 0.0 or n < 0 or count < 1 or t.ndim != 1 or not len(t):
        raise ValueError("tricomi_u_chain requires a0 >= 0, n >= 0, count >= 1 and "
                         f"a non-empty 1-D t, got a0={a0}, n={n}, count={count}, "
                         f"t of shape {t.shape}")
    top_a = a0 + n
    # Per point, the lowest chain's bottom, then the top of every chain (the
    # bottom is also the lowest top at n = 0), as ln w = ln U + ln Gamma(a + 1).
    anchors = [(a0, b)] + [(top_a, b + j) for j in range(0 if n else 1, count)]
    rows = [(a, b_row, x) for x in t.tolist() for a, b_row in anchors]
    ln_w = [ln_u + math.lgamma(a + 1.0) for (a, _, _), ln_u in zip(rows, _ln_tricomi(rows))]
    # Per point, the logs of its bottom and of its chains' tops.
    ends = [ln_w[i:i + len(anchors)] for i in range(0, len(ln_w), len(anchors))]
    tops = [point_ends[-count:] for point_ends in ends]
    chains = np.empty((count, len(t), n + 1))
    log_scale = _solved_chain(layout, t, [point_ends[0] for point_ends in ends],
                              [point_tops[0] for point_tops in tops], chains[0])
    a = layout.a
    # The further chains, each built in place from the one below it.
    for j in range(1, count):
        chain, below = chains[j], chains[j - 1]
        for row, point_tops, scale in zip(chain, tops, log_scale):
            row[-1] = math.exp(point_tops[j] - scale)
        chain[:, 1:-1] = below[:, 1:-1]
        # S_{a+1} for a = a0..a0+n-1, as a reverse cumulative sum (empty at n = 0).
        tail = chain[:, 1:] / a[1:]
        np.add.accumulate(tail[:, ::-1], axis=1, out=tail[:, ::-1])
        tail *= a[:-1]
        np.add(below[:, :-1], tail, out=chain[:, :-1])
    if not (chains[1:] > 0.0).all():
        for j in range(1, count):
            _check_range(chains[j], a0, b + j, t, n)
    return chains, log_scale


def _check_range(w: np.ndarray, a0: float, b: float, t: np.ndarray, n: int) -> None:
    """Raise naming the first point whose row of w is not all positive."""
    if not (w > 0.0).all():
        outside = ~(w > 0.0).all(axis=1)
        raise RuntimeError("Tricomi U chain left the double range for "
                           f"a0={a0}, b={b}, t={float(t[outside.argmax()])}, n={n}")


def _solved_chain(layout: _ChainLayout, t: np.ndarray, ln_lo: list[float],
                  ln_hi: list[float], w: np.ndarray) -> list[float]:
    """The lowest chains of :func:`tricomi_u_chain`, written to w, one row
    a point, from the logs of their end anchors w_a0 and w_(a0+n); returns
    their log scales.  The tridiagonal solves between the ends run on the
    rows of `layout`, the :class:`_ChainLayout` of (a0, b, n).

    The points' systems are the blocks of one block-diagonal system, padded
    with identity rows to the three that LAPACK's wrappers need at least.
    Every coupling between blocks is zero, so elimination and both
    substitutions give each block the values it has alone, as long as its
    neighbours are finite: a non-finite block spills NaN into the others
    (0 * inf), the earlier ones through the back substitution.
    """
    a0, b, n = layout.a0, layout.b, layout.n
    points = len(t)
    if n == 0:
        w[...] = 1.0
        return ln_lo
    log_scale = [max(lo, hi) for lo, hi in zip(ln_lo, ln_hi)]
    for w_q, lo, hi, scale in zip(w, ln_lo, ln_hi, log_scale):
        w_q[0], w_q[-1] = math.exp(lo - scale), math.exp(hi - scale)
    if n <= 1:
        return log_scale
    rows = points * (n - 1)
    size = max(rows, 3)
    below, diagonal, above = np.zeros((3, size))
    diagonal[rows:] = 1.0
    below[:rows].reshape(points, n - 1)[...] = layout.below
    above[:rows].reshape(points, n - 1)[...] = layout.above
    np.subtract(layout.diagonal, t[:, None], out=diagonal[:rows].reshape(points, n - 1))
    factors = dgttrf(below[:-1], diagonal, above[:-1],
                     overwrite_dl=1, overwrite_d=1, overwrite_du=1)
    if factors[-1] != 0:
        raise RuntimeError(
            "Tricomi U chain recurrence is singular for "
            f"a0={a0}, b={b}, t={float(t[(factors[-1] - 1) // (n - 1)])}, n={n}")
    rhs = np.zeros(size)
    a_low, upper_top = float(layout.a[1]), float(layout.upper[-1])
    for first, lo, hi in zip(range(0, rows, n - 1), w[:, 0].tolist(), w[:, -1].tolist()):
        rhs[first] -= a_low * lo
        rhs[first + n - 2] -= upper_top * hi
    w[:, 1:-1] = dgttrs(*factors[:-1], rhs)[0][:rows].reshape(points, n - 1)

    wide_w = w.astype(np.longdouble)
    step = wide_w[:, 1:] - wide_w[:, :-1]
    residual = np.zeros(size)
    residual[:rows] = (layout.wide * (step[:, 1:] - step[:, :-1]) - layout.wide_b * step[:, 1:]
                       + (layout.b_over - t[:, None]) * w[:, 1:-1]).ravel()
    w[:, 1:-1] -= dgttrs(*factors[:-1], residual)[0][:rows].reshape(points, n - 1)
    _check_range(w, a0, b, t, n)
    return log_scale
