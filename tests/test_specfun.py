"""Tests for the log-scaled special functions."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import hyperu

from hardedge.reference.specfun import (
    LogScaled,
    bessel_i,
    bessel_j,
    bessel_k_half,
    laguerre_monic,
    laguerre_monic_deriv,
    ln_gamma,
    log_sum,
    negated,
    tricomi_u,
)
from hardedge import specfun

# Reference values from 40-digit arbitrary-precision evaluations.
PINNED_U_2_HALF_1 = 0.14042614619562631318882920028594
PINNED_K_5HALF_1 = 3.2274795311352619090770311171299


def test_log_scaled_round_trip() -> None:
    # exp(log(x)) loses ~|log x| ulps, so the tolerance scales with magnitude.
    for x in (3.75, -0.025, 1e-200, -4e180):
        assert LogScaled.from_value(x).value == pytest.approx(x, rel=1e-13)
    assert LogScaled.from_value(0.0).sign == 0
    assert LogScaled.from_value(0.0).value == 0.0


def test_log_scaled_arithmetic() -> None:
    a = LogScaled.from_value(-3.0)
    b = LogScaled.from_value(0.5)
    assert (a * b).value == pytest.approx(-1.5)
    assert (a / b).value == pytest.approx(-6.0)
    assert negated(a).value == pytest.approx(3.0)
    assert (a * LogScaled.zero()).sign == 0
    total = log_sum([LogScaled.from_value(v) for v in (2.0, -0.5, 3.25)])
    assert total.value == pytest.approx(4.75, rel=1e-14)
    cancel = log_sum([LogScaled.from_value(1.0), LogScaled.from_value(-1.0)])
    assert cancel.sign == 0


def test_log_scaled_checks_hold_under_optimization() -> None:
    # An invalid sign and division by an exact zero must raise also when
    # assertions are stripped.
    script = (
        "from hardedge.reference.specfun import LogScaled\n"
        "calls = ((lambda: LogScaled(0.0, 2), ValueError),\n"
        "         (lambda: LogScaled.from_value(2.0) / LogScaled.zero(), ZeroDivisionError))\n"
        "for number, (call, kind) in enumerate(calls):\n"
        "    try:\n"
        "        call()\n"
        "    except kind:\n"
        "        continue\n"
        "    raise SystemExit(f'call {number} accepted')\n"
    )
    src = str(Path(specfun.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stdout + done.stderr

def test_ln_gamma_against_math() -> None:
    for x in (0.5, 1.0, 7.3, 400.0):
        assert ln_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-15)
    with pytest.raises(ValueError):
        ln_gamma(0.0)
    with pytest.raises(ValueError):
        ln_gamma(-2.5)


def test_ln_gamma_duplication() -> None:
    # Gamma(2z) = 2^(2z-1)/sqrt(pi) Gamma(z) Gamma(z+1/2)
    for z in (0.7, 3.2, 41.5):
        lhs = ln_gamma(2 * z)
        rhs = (2 * z - 1) * math.log(2.0) - 0.5 * math.log(math.pi) \
            + ln_gamma(z) + ln_gamma(z + 0.5)
        assert lhs == pytest.approx(rhs, rel=1e-13)


def test_laguerre_monic_low_orders() -> None:
    # L_1^(mu)(y) = y - (mu + 1): at mu=2, y=5 this is 2.
    assert laguerre_monic(1, 2.0, 5.0).value == pytest.approx(2.0, rel=1e-14)
    assert laguerre_monic(0, 3.0, -7.0).value == 1.0
    assert laguerre_monic(-1, 0.0, 1.0).sign == 0
    with pytest.raises(ValueError):
        laguerre_monic(-2, 0.0, 1.0)


def test_laguerre_monic_leading_coefficient() -> None:
    # Monic normalization: L_a(y) / y^a -> 1 for huge y.
    val = laguerre_monic(6, 1.0, 1e8)
    assert val.value / 1e48 == pytest.approx(1.0, rel=1e-5)


def test_laguerre_monic_sign_at_negative_argument() -> None:
    # All roots lie on the positive axis, so at y = -t < 0 the sign is (-1)^a.
    for a in (1, 7, 50, 300):
        for mu in (0.0, 2.0, 5.0):
            assert laguerre_monic(a, mu, -2.5).sign == (-1) ** a


def test_laguerre_monic_against_scipy() -> None:
    # scipy's generalized Laguerre has leading coefficient (-1)^a / a!.
    from scipy.special import eval_genlaguerre

    for a in (2, 5, 11):
        for mu in (0.0, 1.0, 3.0):
            for y in (-4.0, 0.3, 9.0):
                want = eval_genlaguerre(a, mu, y) * (-1) ** a * math.factorial(a)
                got = laguerre_monic(a, mu, y).value
                assert got == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_laguerre_monic_deriv_examples() -> None:
    # d/dy L_2^(1)(y) = 2y - 6, so at y = 0 the slope is -6.
    got = laguerre_monic_deriv(2, 1.0, 1, 0.0)
    assert got.value == pytest.approx(-6.0, rel=1e-14)
    assert laguerre_monic_deriv(2, 0.0, 3, 1.0).sign == 0
    assert laguerre_monic_deriv(3, 1.0, 0, 2.0).value == pytest.approx(
        laguerre_monic(3, 1.0, 2.0).value)


def test_laguerre_monic_deriv_against_finite_differences() -> None:
    # Roundoff in an order-m central difference grows like h^(-m), so the
    # step widens with the order and the tolerance is kept modest.
    for a in (3, 9, 15):
        for order, h in ((1, 1e-5), (2, 1e-4), (3, 2e-3)):
            for y in (-3.0, 0.7, 12.0):
                exact = laguerre_monic_deriv(a, 2.0, order, y).value
                if order == 1:
                    fd = (laguerre_monic(a, 2.0, y + h).value
                          - laguerre_monic(a, 2.0, y - h).value) / (2 * h)
                elif order == 2:
                    fd = (laguerre_monic(a, 2.0, y + h).value
                          - 2 * laguerre_monic(a, 2.0, y).value
                          + laguerre_monic(a, 2.0, y - h).value) / h**2
                else:
                    fd = (laguerre_monic(a, 2.0, y + 2 * h).value
                          - 2 * laguerre_monic(a, 2.0, y + h).value
                          + 2 * laguerre_monic(a, 2.0, y - h).value
                          - laguerre_monic(a, 2.0, y - 2 * h).value) / (2 * h**3)
                assert exact == pytest.approx(fd, rel=1e-3, abs=1e-2)


def test_tricomi_u_closed_form() -> None:
    # U(a, a+1, t) = t^(-a): here U(3.5, 4.5, 2) = 2^(-3.5).
    got = tricomi_u(3.5, 4.5, 2.0)
    assert got.value == pytest.approx(2.0 ** -3.5, rel=1e-12)
    assert got.value == pytest.approx(0.0883883476483184, rel=1e-12)


def test_tricomi_u_empty_index_convention() -> None:
    assert tricomi_u(0.0, 0.5, 3.0).value == 1.0


def test_tricomi_u_pinned_value() -> None:
    # U(2, 0.5, 1.0) to 32 digits from an arbitrary-precision evaluation.
    want = PINNED_U_2_HALF_1
    assert tricomi_u(2.0, 0.5, 1.0).value == pytest.approx(want, rel=1e-12)


def test_tricomi_u_kummer_relation_spot() -> None:
    # U(a, b, t) = t^(1-b) U(a - b + 1, 2 - b, t)
    lhs = tricomi_u(5.5, 1.5, 0.8)
    rhs = tricomi_u(5.0, 0.5, 0.8).scaled(-0.5 * math.log(0.8))
    assert lhs.value == pytest.approx(rhs.value, rel=1e-9)


@pytest.mark.parametrize("a", [0.5, 3.0, 17.5, 80.0, 200.0])
@pytest.mark.parametrize("b", [-1.5, -0.5, 0.5, 1.5, 2.5])
@pytest.mark.parametrize("t", [1e-6, 0.03, 1.0, 50.0])
def test_tricomi_u_kummer_relation_grid(a: float, b: float, t: float) -> None:
    if a - b + 1.0 < 0.0:
        pytest.skip("transformed index a - b + 1 leaves the domain")
    lhs = tricomi_u(a, b, t)
    rhs = tricomi_u(a - b + 1.0, 2.0 - b, t).scaled((1.0 - b) * math.log(t))
    assert lhs.sign == 1 and rhs.sign == 1
    assert lhs.log_magnitude == pytest.approx(rhs.log_magnitude, abs=1e-9)


def test_tricomi_u_against_scipy_moderate_range() -> None:
    # scipy.special.hyperu is reliable away from extreme underflow.
    for a in (1.0, 4.5, 30.0, 120.0):
        for b in (-0.5, 0.5, 1.5):
            for t in (0.05, 1.0, 20.0):
                want = float(hyperu(a, b, t))
                if not math.isfinite(want):
                    continue  # library value underflows inside hyperu
                assert tricomi_u(a, b, t).value == pytest.approx(want, rel=1e-11)


def test_tricomi_u_extreme_arguments() -> None:
    # Large a with tiny t: the value is finite in the log domain and obeys
    # the Kummer relation even where plain float evaluation underflows.
    val = tricomi_u(500.0, 0.5, 1e-8)
    assert math.isfinite(val.log_magnitude) and val.sign == 1
    kum = tricomi_u(500.5, 1.5, 1e-8).scaled(0.5 * math.log(1e-8))
    assert val.log_magnitude == pytest.approx(kum.log_magnitude, abs=1e-9)


def test_bessel_i_small_and_large() -> None:
    from scipy.special import ive, iv

    assert bessel_i(0, 0.0).value == 1.0
    assert bessel_i(3, 0.0).sign == 0
    for n in (0, 1, 5):
        for x in (0.01, 1.7, 30.0):
            assert bessel_i(n, x).value == pytest.approx(float(iv(n, x)),
                                                         rel=1e-12)
    # Large argument: compare logs against the exponentially scaled value.
    big = bessel_i(2, 800.0)
    assert big.log_magnitude == pytest.approx(
        800.0 + math.log(float(ive(2, 800.0))), rel=1e-14)


def test_bessel_i_high_order_log_domain() -> None:
    # I_n(x) = (x/2)^n/n! [1 + q/(n+1) + q^2/(2(n+1)(n+2)) + ...], q = x^2/4;
    # n=150 underflows plain floats.
    n, x = 150, 0.5
    q = 0.25 * x * x
    got = bessel_i(n, x)
    want_log = n * math.log(0.5 * x) - math.lgamma(n + 1.0) \
        + math.log1p(q / (n + 1) + q * q / (2 * (n + 1) * (n + 2)))
    assert got.log_magnitude == pytest.approx(want_log, abs=1e-9)
    assert got.sign == 1


def test_bessel_j_recurrence() -> None:
    # J_{n-1}(x) + J_{n+1}(x) = (2n/x) J_n(x)
    n, x = 3, 7.1
    lhs = bessel_j(n - 1, x) + bessel_j(n + 1, x)
    rhs = (2 * n / x) * bessel_j(n, x)
    assert lhs == pytest.approx(rhs, abs=1e-11)


def test_bessel_k_half_closed_forms() -> None:
    # K_{1/2}(x) = sqrt(pi/2x) e^(-x); at x=2 this is 0.1199377....
    x = 2.0
    want_half = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
    assert bessel_k_half(0, x).value == pytest.approx(want_half, rel=1e-14)
    assert bessel_k_half(-1, x).value == pytest.approx(want_half, rel=1e-14)
    assert bessel_k_half(0, 2.0).value == pytest.approx(0.11993777196806145,
                                                        rel=1e-12)
    # K_{3/2}(x) = (1 + 1/x) K_{1/2}(x) = 0.1799066... at x=2.
    assert bessel_k_half(1, 2.0).value == pytest.approx(1.5 * want_half,
                                                        rel=1e-14)


def test_bessel_k_half_pinned_value() -> None:
    # K_{5/2}(1) pinned from the integral int_0^inf e^(-cosh s) cosh(5s/2) ds.
    want = PINNED_K_5HALF_1
    assert bessel_k_half(2, 1.0).value == pytest.approx(want, rel=1e-12)


def test_bessel_k_half_positive_decreasing_in_x() -> None:
    for m in (0, 1, 4, 9):
        prev = math.inf
        for x in (0.5, 1.0, 2.0, 5.0, 20.0):
            cur = bessel_k_half(m, x)
            assert cur.sign == 1
            assert cur.value < prev
            prev = cur.value


def test_bessel_k_half_against_scipy() -> None:
    from scipy.special import kv

    for m in (-1, 0, 1, 2, 5, 12):
        for x in (0.3, 1.0, 6.0):
            want = float(kv(m + 0.5, x))
            assert bessel_k_half(m, x).value == pytest.approx(want, rel=1e-12)


def test_bessel_i_laguerre_limit() -> None:
    # (p^(-mu) / p!) * L_p^(mu)(-u/(4p)) -> (u/4)^(-mu/2) I_mu(sqrt(u))
    # in monic form: L monic has leading coeff 1, and the classical limit
    # L_p^(mu),classical(-x/p) -> x^(-mu/2) Gamma(mu+1) ... easier stated as
    # laguerre_monic(p, mu, -u/(4p)) / p^(p ...)
    p, mu, u = 4096, 2.0, 4.0
    mono = laguerre_monic(p, mu, -u / (4 * p))
    # classical L = (-1)^p / p! * monic, and p^(-mu) L_p^(mu)(-u/4p) -> ...
    log_classical = mono.log_magnitude - math.lgamma(p + 1.0)
    want = bessel_i(int(mu), 2.0)  # I_mu(sqrt(u)) with sqrt(4) = 2
    got_log = log_classical - mu * math.log(p) + (mu / 2) * math.log(u / 4.0)
    assert got_log == pytest.approx(want.log_magnitude, abs=1e-2)
