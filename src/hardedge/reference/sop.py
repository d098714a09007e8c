"""Skew-orthogonal polynomials for the shifted Laguerre weight.

The central objects are the weight w_gamma(x, t) = x^gamma (x+t)^(-1/2)
e^(-x/2) on (0, inf), its moments and partition functions, and the monic
polynomials R_j that are skew-orthogonal under the antisymmetric product

    <f, g>_t = int_{0 < y < x} w(x) w(y) [f(x) g(y) - f(y) g(x)] dy dx,

normalized so that <R_{2j+1}, R_{2j}>_t = r_j > 0 and all other pairings
vanish.  Every polynomial is stored as a short linear combination of monic
Laguerre polynomials with mixed superscripts (2*gamma and 2*gamma+1), whose
coefficients are ratios of Tricomi U functions; evaluation and
differentiation are term-wise exact.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field

from scipy.integrate import IntegrationWarning, quad
from scipy.special import gammaln

from .specfun import LogScaled, laguerre_monic_deriv, log_sum, negated, tricomi_u

__all__ = [
    "WeightParams",
    "LaguerreCombination",
    "weight",
    "weight_moment",
    "partition_z",
    "partition_z_t",
    "half_power_average",
    "sop_even",
    "sop_odd",
    "sop_norm",
    "sop_hat",
    "combination_weight_integral",
    "skew_product_oracle",
    "sop_moment",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class WeightParams:
    """Parameters of the weight x^gamma (x+t)^(-1/2) e^(-eta x / 2)."""

    gamma: int
    """Power of x: 0 for the gap probability, 1 for the density."""

    t: float
    """Positive shift of the square-root factor."""

    eta: float = 1.0
    """Exponential rate; a formal device for generating the odd polynomials,
    fixed to 1 at evaluation time (the rate derivative is already resolved
    analytically into the odd-polynomial coefficients)."""

    def __post_init__(self) -> None:
        assert self.gamma >= 0, f"gamma must be non-negative, got {self.gamma}"
        assert self.t > 0.0, f"t must be positive, got {self.t}"
        assert self.eta == 1.0, "the weight is only evaluated at eta = 1"


@dataclass(frozen=True)
class LaguerreCombination:
    """A polynomial stored as sum_i coeff_i * L_{a_i}^(mu_i)(y).

    The L's are monic Laguerre polynomials; terms with order -1 contribute
    zero by convention.  For the un-hatted skew-orthogonal polynomials the
    leading term has order equal to the polynomial index and coefficient 1.
    """

    terms: tuple[tuple[int, float, float], ...]
    """(order, superscript, coefficient) triples."""

    gamma: int
    """Weight power the combination was built for."""

    t: float
    """Weight shift the coefficients were evaluated at."""

    index: int
    """Polynomial index j, the degree of the leading term."""

    parity: str = field(init=False)
    """'even' or 'odd', derived from the index."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "parity",
                           "even" if self.index % 2 == 0 else "odd")
        for order, _, _ in self.terms:
            assert order >= -1, f"invalid Laguerre order {order}"

    def derivative_scaled(self, order: int, y: float) -> LogScaled:
        """order-th derivative at y in the log domain (exact term-wise)."""
        parts = []
        for a, mu, coeff in self.terms:
            if coeff == 0.0 or a < 0:
                continue
            parts.append(laguerre_monic_deriv(a, mu, order, y)
                         * LogScaled.from_value(coeff))
        return log_sum(parts)

    def evaluate(self, y: float) -> float:
        """Value at y as a plain float."""
        return self.derivative_scaled(0, y).value


def weight(x: float, params: WeightParams) -> float:
    """The weight x^gamma (x+t)^(-1/2) e^(-x/2), with 0^0 = 1 at x = 0."""
    if x < 0.0:
        raise ValueError(f"weight is defined on x >= 0, got {x}")
    if x == 0.0:
        return 0.0 if params.gamma > 0 else (params.t) ** -0.5
    return x ** params.gamma / math.sqrt(x + params.t) * math.exp(-x / 2.0)


def weight_moment(m: int, params: WeightParams) -> LogScaled:
    """m-th moment of the weight, int_0^inf x^(gamma+m) w_0-style.

    The substitution x = t*r turns the integral into a Tricomi U:
    Gamma(gamma+m+1) t^(gamma+m+1/2) U(gamma+m+1, gamma+m+3/2, t/2).
    """
    assert m >= 0, f"moment order must be non-negative, got {m}"
    g, t = params.gamma, params.t
    a = g + m + 1.0
    u = tricomi_u(a, a + 0.5, t / 2.0)
    return u.scaled(math.lgamma(a) + (a - 0.5) * math.log(t))


def partition_z(p: int, nu: int) -> LogScaled:
    """Partition function of the nu-Laguerre ensemble of p eigenvalues.

    Z_{p,nu} = 2^(p(p+nu)/2) prod_{j=0}^{p-1}
               Gamma[(j+3)/2] Gamma[(j+nu+1)/2] / Gamma[3/2].
    """
    assert p >= 1, f"p must be >= 1, got {p}"
    assert nu >= -1, f"nu must be >= -1, got {nu}"
    s = p * (p + nu) / 2.0 * math.log(2.0)
    for j in range(p):
        s += float(gammaln((j + 3) / 2.0)) + float(gammaln((j + nu + 1) / 2.0)) \
            - float(gammaln(1.5))
    return LogScaled(s, 1)


def partition_z_t(p: int, gamma: int, t: float) -> LogScaled:
    """Partition function with the shifted weight w_gamma(x, t).

    Z_{p,gamma}(t) = 2^(p(p+2 gamma)/2) *
        (prod_{j=0}^{p-1} Gamma[(j+3)/2] Gamma[(j+2 gamma+2)/2] / Gamma[3/2])
        * U(p/2, (1-2 gamma)/2, t/2).
    """
    assert p >= 1, f"p must be >= 1, got {p}"
    assert gamma >= 0, f"gamma must be non-negative, got {gamma}"
    s = p * (p + 2 * gamma) / 2.0 * math.log(2.0)
    for j in range(p):
        s += math.lgamma((j + 3) / 2.0) + math.lgamma((j + 2 * gamma + 2) / 2.0) \
            - math.lgamma(1.5)
    u = tricomi_u(p / 2.0, (1.0 - 2.0 * gamma) / 2.0, t / 2.0)
    return u.scaled(s)


def half_power_average(p: int, nu: int, t: float) -> LogScaled:
    """Ensemble average of det^(-1/2)(X + t) over the nu-Laguerre ensemble.

    Equals 2^(-p/2) U(p/2, (2-nu)/2, t/2), one of the two building blocks of
    every gap-probability assembly.
    """
    assert p >= 1, f"p must be >= 1, got {p}"
    assert nu >= 0, f"nu must be non-negative, got {nu}"
    u = tricomi_u(p / 2.0, (2.0 - nu) / 2.0, t / 2.0)
    return u.scaled(-p / 2.0 * math.log(2.0))


def _rho(j: int, params: WeightParams) -> float:
    """Coefficient ratio U(j+g+1/2, g+1/2, t/2) / U(j+g+1/2, g+3/2, t/2)."""
    g, t = params.gamma, params.t
    num = tricomi_u(j + g + 0.5, g + 0.5, t / 2.0)
    den = tricomi_u(j + g + 0.5, g + 1.5, t / 2.0)
    return (num / den).value


def _sigma(j: int, params: WeightParams) -> float:
    """Coefficient ratio U(j+g+1/2, g-1/2, t/2) / U(j+g+1/2, g+3/2, t/2)."""
    g, t = params.gamma, params.t
    num = tricomi_u(j + g + 0.5, g - 0.5, t / 2.0)
    den = tricomi_u(j + g + 0.5, g + 1.5, t / 2.0)
    return (num / den).value


def sop_even(j: int, params: WeightParams) -> LaguerreCombination:
    """Monic skew-orthogonal polynomial of even index, R_{2j}.

    R_{2j} = L_{2j}^(2g) - 2j rho_j L_{2j-1}^(2g+1) with rho_j a ratio of
    Tricomi U's; R_0 = 1.
    """
    assert j >= 0, f"index must be non-negative, got {j}"
    g = params.gamma
    if j == 0:
        terms: tuple[tuple[int, float, float], ...] = ((0, 2.0 * g, 1.0),)
    else:
        terms = ((2 * j, 2.0 * g, 1.0),
                 (2 * j - 1, 2.0 * g + 1.0, -2.0 * j * _rho(j, params)))
    return LaguerreCombination(terms=terms, gamma=g, t=params.t, index=2 * j)


def sop_odd(j: int, params: WeightParams) -> LaguerreCombination:
    """Monic skew-orthogonal polynomial of odd index, R_{2j+1}.

    A five-term combination; the free additive multiple of R_{2j} is fixed
    so that the L_{2j}^(2g) term drops out, leaving

        R_{2j+1} = L_{2j+1}^(2g) - 4j(g+j) L_{2j-1}^(2g)
                   + d1 L_{2j}^(2g+1) + d2 L_{2j-1}^(2g+1) + d3 L_{2j-2}^(2g+1)

    with d1 = -2j rho_j, d2 = -d1 + d1^2 - 4j(j+1) sigma_j and
    d3 = -2(2j-1)(g+j) d1.  At j = 0 everything but the leading term
    vanishes and R_1 = L_1^(2g).
    """
    assert j >= 0, f"index must be non-negative, got {j}"
    g = params.gamma
    if j == 0:
        return LaguerreCombination(terms=((1, 2.0 * g, 1.0),),
                                   gamma=g, t=params.t, index=1)
    d1 = -2.0 * j * _rho(j, params)
    d2 = -d1 + d1 * d1 - 4.0 * j * (j + 1) * _sigma(j, params)
    d3 = -2.0 * (2 * j - 1) * (g + j) * d1
    raw = ((2 * j + 1, 2.0 * g, 1.0),
           (2 * j - 1, 2.0 * g, -4.0 * j * (g + j)),
           (2 * j, 2.0 * g + 1.0, d1),
           (2 * j - 1, 2.0 * g + 1.0, d2),
           (2 * j - 2, 2.0 * g + 1.0, d3))
    terms = tuple((a, mu, c) for a, mu, c in raw if c != 0.0 and a >= -1)
    return LaguerreCombination(terms=terms, gamma=g, t=params.t,
                               index=2 * j + 1)


def sop_norm(j: int, params: WeightParams) -> LogScaled:
    """Skew-orthogonality normalization r_j = <R_{2j+1}, R_{2j}>_t.

    r_j = 2 (2j)! Gamma[2j+2g+2] U(j+1, 1/2-g, t/2) / U(j, 1/2-g, t/2),
    with U(0, ., .) = 1 so the j = 0 denominator is trivial.
    """
    assert j >= 0, f"index must be non-negative, got {j}"
    g, t = params.gamma, params.t
    num = tricomi_u(j + 1.0, 0.5 - g, t / 2.0)
    den = tricomi_u(float(j), 0.5 - g, t / 2.0)
    pref = math.log(2.0) + math.lgamma(2 * j + 1.0) + math.lgamma(2 * j + 2 * g + 2.0)
    return (num / den).scaled(pref)


def _monomial_coefficient(a: int, mu: float, i: int) -> LogScaled:
    """Coefficient of y^i in the monic Laguerre polynomial L_a^(mu)."""
    log_mag = math.lgamma(a + 1.0) - math.lgamma(i + 1.0) \
        - math.lgamma(a - i + 1.0) + math.lgamma(a + mu + 1.0) \
        - math.lgamma(mu + i + 1.0)
    return LogScaled(log_mag, 1 if (a - i) % 2 == 0 else -1)


def combination_weight_integral(comb: LaguerreCombination,
                                params: WeightParams) -> LogScaled:
    """int_0^inf w(x) comb(x) dx, from the weight moments.

    Each monic Laguerre term is expanded into monomials,

        L_a^(mu)(y) = sum_i (-1)^(a-i) binom(a, i) (mu + i + 1)_(a-i) y^i,

    and the monomial moments (weight_moment) are summed.  The terms
    alternate in sign and cancel by up to ~1e4 at the orders tested, so the
    coefficients are exact and the sum is taken in 50-digit arithmetic
    (mpmath): the result is as accurate as the moments themselves.
    """
    import mpmath

    with mpmath.workdps(50):
        total, largest = mpmath.mpf(0), mpmath.mpf(0)
        for a, mu, coeff in comb.terms:
            if coeff == 0.0 or a < 0:
                continue
            for i in range(a + 1):
                moment = weight_moment(i, params)
                part = (-1) ** (a - i) * mpmath.binomial(a, i) \
                    * mpmath.rf(mpmath.mpf(mu) + i + 1, a - i) * coeff \
                    * moment.sign * mpmath.exp(moment.log_magnitude)
                total += part
                largest = max(largest, abs(part))
        if total == 0:
            return LogScaled.zero()
        if largest > 1e13 * abs(total):
            logger.warning("weight integral lost %.1f digits to cancellation",
                           float(mpmath.log10(largest / abs(total))))
        return LogScaled(float(mpmath.log(abs(total))), 1 if total > 0 else -1)


def sop_hat(j: int, K: int, params: WeightParams) -> LaguerreCombination:
    """Moment-projected polynomial R-hat_j used at odd kernel sizes.

    For j < 2K: R-hat_j = R_j - (m_j / m_{2K}) R_{2K} where m_i is the
    weight integral of R_i, so every R-hat_j has vanishing weight integral.
    For j = 2K: R-hat_{2K} = R_{2K} / m_{2K}, normalized to weight integral
    one.  The skew products of the R-hat_j with j < 2K coincide with those
    of the R_j.
    """
    assert 0 <= j <= 2 * K, f"need 0 <= j <= 2K, got j={j}, K={K}"

    def poly(n: int) -> LaguerreCombination:
        return sop_even(n // 2, params) if n % 2 == 0 else sop_odd(n // 2, params)

    top = poly(2 * K)
    m_top = combination_weight_integral(top, params)
    if m_top.sign == 0:
        raise ValueError("weight integral of the normalizing polynomial "
                         "vanished; the hat projection is degenerate")
    if j == 2 * K:
        scale = (LogScaled.from_value(1.0) / m_top).value
        terms = tuple((a, mu, c * scale) for a, mu, c in top.terms)
        return LaguerreCombination(terms=terms, gamma=params.gamma,
                                   t=params.t, index=j)
    base = poly(j)
    ratio = (combination_weight_integral(base, params) / m_top).value
    merged: dict[tuple[int, float], float] = {}
    for a, mu, c in base.terms:
        merged[(a, mu)] = merged.get((a, mu), 0.0) + c
    for a, mu, c in top.terms:
        merged[(a, mu)] = merged.get((a, mu), 0.0) - ratio * c
    terms = tuple((a, mu, c) for (a, mu), c in sorted(merged.items())
                  if c != 0.0)
    return LaguerreCombination(terms=terms, gamma=params.gamma, t=params.t,
                               index=j)


def _monomial_floats(comb: LaguerreCombination) -> list[float]:
    """Monomial coefficients of the combination, highest power first.

    Exact only while the expansion does not cancel catastrophically, which
    holds for the modest degrees the quadrature oracle is used with.
    """
    degree = max((a for a, _, c in comb.terms if c != 0.0), default=0)
    coeffs = [0.0] * (degree + 1)
    for a, mu, coeff in comb.terms:
        if coeff == 0.0 or a < 0:
            continue
        for i in range(a + 1):
            mono = _monomial_coefficient(a, mu, i)
            coeffs[i] += coeff * mono.value
    return coeffs[::-1]


def skew_product_oracle(f: LaguerreCombination, g: LaguerreCombination,
                        params: WeightParams, upper: float = 150.0) -> float:
    """<f, g>_t by nested adaptive quadrature; test oracle, not a fast path.

    Integrates w(x) w(y) [f(x) g(y) - f(y) g(x)] over the ordered region
    0 < y < x < upper, the orientation under which <R_{2j+1}, R_{2j}> = +r_j.
    The weight's e^(-x/2) decay makes the cutoff error negligible for the
    polynomial degrees this oracle is used with.
    """
    cf = _monomial_floats(f)
    cg = _monomial_floats(g)
    gam, t = params.gamma, params.t

    def horner(coeffs: list[float], x: float) -> float:
        acc = 0.0
        for c in coeffs:
            acc = acc * x + c
        return acc

    def wval(x: float) -> float:
        if x == 0.0:
            return 0.0 if gam > 0 else t ** -0.5
        return x ** gam / math.sqrt(x + t) * math.exp(-x / 2.0)

    def inner(x: float) -> float:
        wx = wval(x)
        if wx == 0.0:
            return 0.0
        fx, gx = horner(cf, x), horner(cg, x)

        def integrand(y: float) -> float:
            return wval(y) * (fx * horner(cg, y) - horner(cf, y) * gx)

        val, _ = quad(integrand, 0.0, x, epsabs=1e-12, epsrel=1e-10, limit=100)
        return wx * val

    with warnings.catch_warnings():
        # Convergence is judged by the returned error estimate below, so the
        # library's roundoff warnings at these tight tolerances are noise.
        warnings.simplefilter("ignore", IntegrationWarning)
        value, err = quad(inner, 0.0, upper, epsabs=1e-10, epsrel=1e-9,
                          limit=200)
    if err > 1e-6 * max(1.0, abs(value)):
        raise RuntimeError(
            f"skew-product quadrature did not converge: value={value}, "
            f"error estimate={err}")
    return float(value)


def _moment_even(j: int, params: WeightParams) -> LogScaled:
    """Weight integral of R_{2j}: Z_{2j+1,g}(t) / ((2j+1) Z_{2j,g}(t))."""
    if j == 0:
        return weight_moment(0, params)
    g, t = params.gamma, params.t
    num = partition_z_t(2 * j + 1, g, t)
    den = partition_z_t(2 * j, g, t)
    return (num / den).scaled(-math.log(2 * j + 1.0))


def _moment_odd(j: int, params: WeightParams) -> LogScaled:
    """Weight integral of R_{2j+1}, equal to -2t d/dt[weight integral of R_{2j}].

    The t-derivative acts only on the U-ratio of the even moment, via
    dU(a, b, t/2)/dt = -(a/2) U(a+1, b+1, t/2), giving

        m_{2j+1} = m_{2j} * t * [ (j+1/2) U(j+3/2, b+1, t/2)/U(j+1/2, b, t/2)
                                  - j U(j+1, b+1, t/2)/U(j, b, t/2) ]

    with b = (1 - 2g)/2.
    """
    g, t = params.gamma, params.t
    b = (1.0 - 2.0 * g) / 2.0
    a1 = j + 0.5
    term1 = (tricomi_u(a1 + 1.0, b + 1.0, t / 2.0)
             / tricomi_u(a1, b, t / 2.0)).scaled(math.log(a1))
    parts = [term1]
    if j > 0:
        term2 = (tricomi_u(j + 1.0, b + 1.0, t / 2.0)
                 / tricomi_u(float(j), b, t / 2.0)).scaled(math.log(float(j)))
        parts.append(negated(term2))
    bracket = log_sum(parts)
    return (_moment_even(j, params) * bracket).scaled(math.log(t))


def sop_moment(n: int, params: WeightParams) -> LogScaled:
    """Weight integral of R_n in closed form (Tricomi U ratios).

    Agrees with combination_weight_integral applied to the polynomial; this
    route stays exact at large n where the monomial expansion cancels badly.
    """
    assert n >= 0, f"index must be non-negative, got {n}"
    if n % 2 == 0:
        return _moment_even(n // 2, params)
    return _moment_odd(n // 2, params)
