"""Tricomi U chains and the bulk route built on them.

The chains are checked against mpmath's hyperu at 30 digits; the finite-p
assembly is checked against the same assembly with every U ratio taken
from mpmath instead of the chains.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgttrf

from hardedge import kernels, specfun
from hardedge.distributions import FiniteSpec, gap_finite, smallest_finite, tabulate
from hardedge.kernels import BulkTables
from hardedge.reference.specfun import tricomi_u
from hardedge.specfun import _ChainLayout, tricomi_u_chain

mpmath = pytest.importorskip("mpmath")

CHAIN_LENGTH = 1003
CHAIN_SAMPLES = (0, 1, 2, 10, 100, 500, 1002)


def _hyperu(a: float, b: float, z: float):
    with mpmath.workdps(30):
        return mpmath.hyperu(a, b, z)


def _chains(a0: float, b: float, z: float, n: int, count: int = 1):
    # The chains of the one point z, as (w, log_scale) rows, on a layout
    # built for the call.
    chains, log_scale = tricomi_u_chain(_ChainLayout(a0, b, n), [z], count)
    return [(w[0], log_scale[0]) for w in chains]


@pytest.mark.parametrize("a0", [0.0, 0.5])
@pytest.mark.parametrize("z", [5e-9, 1e-4, 0.00375, 0.0875, 1.0, 100.0])
@pytest.mark.parametrize("b", [-0.5, 0.5, 1.5, 2.5])
def test_chain_matches_mpmath(a0: float, z: float, b: float) -> None:
    # Every b above -1/2 is checked twice: solved as the lowest chain, and
    # derived from b = -1/2 by DLMF 13.3.9.
    chains = _chains(a0, b, z, CHAIN_LENGTH)
    if b > -0.5:
        chains.append(_chains(a0, -0.5, z, CHAIN_LENGTH, int(b + 1.5))[-1])
    indices = sorted({i + d for i in CHAIN_SAMPLES for d in (0, 1)})
    ref = {i: _hyperu(a0 + i, b, z) for i in indices}
    for w, log_scale in chains:
        assert w.shape == (CHAIN_LENGTH + 1,) and np.all(w > 0.0)
        for i in indices:
            got = math.log(w[i]) + log_scale - math.lgamma(a0 + i + 1.0)
            want = float(mpmath.log(ref[i]))
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (i, got, want)
        for i in CHAIN_SAMPLES:
            ratio = w[i + 1] / (w[i] * (a0 + i + 1.0))
            want = float(ref[i + 1] / ref[i])
            assert ratio == pytest.approx(want, rel=1e-12, abs=0.0), i


@pytest.mark.parametrize("n", [1, 2, 3])
def test_short_chains_match_mpmath(n: int) -> None:
    for a0, b, z in ((0.0, 0.5, 0.3), (0.5, -0.5, 2.0), (0.5, 2.5, 1e-4)):
        chains = _chains(a0, b, z, n, 2)
        assert len(chains) == 2
        for j, (w, log_scale) in enumerate(chains):
            assert len(w) == n + 1
            for i in range(n + 1):
                got = w[i] * math.exp(log_scale - math.lgamma(a0 + i + 1.0))
                assert got == pytest.approx(float(_hyperu(a0 + i, b + j, z)), rel=1e-12)


@pytest.mark.parametrize("a", [1003.5, 2003.0, 2003.5])
@pytest.mark.parametrize("b", [-0.5, 0.5, 1.5, 2.5])
@pytest.mark.parametrize("z", [5e-9, 0.00375, 1.0])
def test_anchor_at_large_a_matches_mpmath(a: float, b: float, z: float) -> None:
    # ln U reaches -13300 here, where one ulp of the log is 1.8e-12 of U;
    # the bound allows about five.
    got = tricomi_u(a, b, z)
    want = mpmath.log(_hyperu(a, b, z))
    assert got.sign == 1
    assert abs(float(mpmath.expm1(got.log_magnitude - want))) <= 1e-11


def _random_arguments() -> list[tuple[float, float, float]]:
    rng = np.random.default_rng(2026)
    a = rng.uniform(0.5, 2000.0, 300)
    b = rng.choice([-1.5, -0.5, 0.5, 1.0, 1.5, 2.0, 2.5], 300)
    t = np.exp(rng.uniform(math.log(1e-8), math.log(30.0), 300))
    # Integer b at tiny t makes h flat around a far-off peak (c = -a): a
    # window search without a bracket walks off there, and at small a the
    # Laplace estimate lands 10 to 60 times too far out on each side.
    return [(679.5, 1.0, 3.3e-8), (121.0, 1.0, 1.2e-7), (1.0, 1.0, 1e-8),
            (4.3, 1.0, 8.2e-8)] + list(zip(a.tolist(), b.tolist(), t.tolist()))


def test_tricomi_u_matches_mpmath_on_random_arguments() -> None:
    # Rounding sets the bound: the worst error is reached where ln U ~ -1e4,
    # so that one ulp of the log is ~2e-12 of U.
    worst = 0.0
    for a, b, t in _random_arguments():
        got = tricomi_u(a, b, t)
        assert got.sign == 1
        want = mpmath.log(_hyperu(a, b, t))
        worst = max(worst, abs(float(mpmath.expm1(got.log_magnitude - want))))
    assert worst <= 2.7e-12


def test_shared_pass_matches_tricomi_u_and_mpmath() -> None:
    # Each random argument heads a pass of three rows at its t and two at
    # 2t.  Every row settles and is summed on its own, so it equals
    # tricomi_u, its pass of one, to the bit.  Near ln U = -1.3e4 one ulp of
    # the log is 1.8e-12 of U, and the row (1998.9, 3.5, 8.4) is off by
    # two, 3.6e-12, in tricomi_u as well.
    worst = 0.0
    for a, b, t in _random_arguments():
        rows = [(a, b, t), (a, b + 1.0, t), (a + 0.5, b, t), (a, b, 2.0 * t),
                (a + 0.5, b + 1.0, 2.0 * t)]
        for (ra, rb, rt), got in zip(rows, specfun._ln_tricomi(rows)):
            assert got == tricomi_u(ra, rb, rt).log_magnitude, (ra, rb, rt)
            if rt == t:
                want = mpmath.log(_hyperu(ra, rb, rt))
                worst = max(worst, abs(float(mpmath.expm1(got - want))))
    assert worst <= 3.7e-12


def _u_integral(a: float, b: float, z: float):
    # The integral representation, for arguments where hyperu's series
    # does not converge (such as b = -1/2, z = 1/2).
    with mpmath.workdps(30):
        integrand = lambda s: mpmath.exp(-z * s) * s ** (a - 1) * (1 + s) ** (b - a - 1)
        return mpmath.quad(integrand, [0, 1, mpmath.inf]) / mpmath.gamma(a)


@pytest.mark.parametrize("b", [-0.5, 0.5, 1.5])
def test_half_anchors_match_mpmath(b: float) -> None:
    eps = np.finfo(float).eps
    for z in np.geomspace(1e-6, 0.5, 13).tolist():
        got = tricomi_u(0.5, b, z)
        want = mpmath.log(_u_integral(0.5, b, z))
        assert got.sign == 1
        assert abs(float(got.log_magnitude - want)) <= 8 * eps * max(1.0, abs(float(want))), z


def test_half_anchor_past_one_half_matches_mpmath() -> None:
    # Past z = 1/2 the closed form of U(1/2, -1/2, z) is a difference that
    # cancels to about z^(-1/2).  Measured on 4,000 geometric z up to 32:
    # at most 1.6e-14, against 1.6-1.7e-13 for the quadrature, which this
    # bound would refuse.
    for z in np.geomspace(0.5, 32.0, 13)[1:].tolist():
        got = tricomi_u(0.5, -0.5, z).log_magnitude
        want = mpmath.log(_u_integral(0.5, -0.5, z))
        assert abs(float(mpmath.expm1(got - want))) <= 2e-14, z


REACH = specfun._HALF_ANCHOR_REACH


@pytest.mark.parametrize("z", [0.25, 0.5, float(np.nextafter(0.5, 1.0)), 0.75, 16.0, REACH,
                               float(np.nextafter(REACH, math.inf)), 48.0])
def test_half_anchor_switch_agrees_with_quadrature(z: float, monkeypatch) -> None:
    # U(1/2, -1/2, z) is closed-form up to the reach and a quadrature above:
    # both sides of the switch agree with mpmath to the quadrature's
    # tolerance, and so does the quadrature where the closed form serves,
    # also where the closed form turns from a sum into a difference (z = 1/2).
    got = tricomi_u(0.5, -0.5, z).log_magnitude
    assert abs(float(mpmath.expm1(got - mpmath.log(_u_integral(0.5, -0.5, z))))) <= 5e-13
    monkeypatch.setattr(specfun, "_half_anchor", lambda b, t: None)
    assert abs(math.expm1(tricomi_u(0.5, -0.5, z).log_magnitude - got)) <= 5e-13


def _u_value(a: float, b: float, z: float):
    # hyperu, or the integral where its series does not converge.
    try:
        return _hyperu(a, b, z)
    except ValueError:
        return _u_integral(a, b, z)


@pytest.mark.parametrize("count", [3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 250])
@pytest.mark.parametrize("b", [-1.5, -0.5])
def test_derived_tops_match_mpmath(count: int, n: int, b: float) -> None:
    # At count >= 3 two tops are integrated and the others derived by the
    # contiguous relation in b.  The pair moves at z = 1/2 (both b) and at
    # z = 3/2 (b = -3/2, count 4); it is clamped to the lowest pair at
    # z = 100, and to the highest at z = 1e-6 for b = -3/2, count 3.
    a0 = 0.5
    indices = sorted({0, 1, n // 2, n - 1, n})
    for z in (1e-6, 0.4, 0.6, 1.4, 1.6, 100.0):
        for j, (w, log_scale) in enumerate(_chains(a0, b, z, n, count)):
            assert np.all(w > 0.0)
            ref = {i: _u_value(a0 + i, b + j, z) for i in indices}
            for i in indices:
                got = math.log(w[i]) + log_scale - math.lgamma(a0 + i + 1.0)
                want = float(mpmath.log(ref[i]))
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (z, j, i, got, want)
            for i in (i for i in indices if i + 1 in ref):
                ratio = w[i + 1] / (w[i] * (a0 + i + 1.0))
                want = float(ref[i + 1] / ref[i])
                assert ratio == pytest.approx(want, rel=1e-12, abs=0.0), (z, j, i)


def test_pass_integrates_two_tops_and_a_bottom_only_past_the_reach(monkeypatch) -> None:
    # One pass a call: per point the two tops of the pair, and the bottom
    # U(1/2, -1/2, z), which is a quadrature only past the closed form's reach.
    passes, windows = [], []
    ln_tricomi, window = specfun._ln_tricomi, specfun._window

    def recorded(rows):
        passes.append(rows)
        return ln_tricomi(rows)

    def walked(a, b, t):
        windows.append((a, b, t))
        return window(a, b, t)

    monkeypatch.setattr(specfun, "_ln_tricomi", recorded)
    monkeypatch.setattr(specfun, "_window", walked)
    zs = [1e-6, 0.3, 0.5, 0.7, 5.0, REACH, 2.0 * REACH]
    for count in (3, 4):
        passes.clear()
        windows.clear()
        tricomi_u_chain(_ChainLayout(0.5, -0.5, 20), zs, count)
        assert len(passes) == 1
        for z in zs:
            tops = [b for a, b, t in windows if t == z and a == 20.5]
            bottoms = [b for a, b, t in windows if t == z and a == 0.5]
            assert len(tops) == 2 and tops[1] == tops[0] + 1.0, (count, z)
            assert bottoms == ([-0.5] if z > REACH else []), (count, z)
        assert len(passes[0]) == 3 * len(zs)


def test_mixed_batch_chains_equal_lone_chains() -> None:
    # The pair is chosen per point, so a batch whose points straddle z = 1/2
    # (where the pair moves) and the reach gives each point its lone chains.
    zs = [0.1, 0.49, 0.5, float(np.nextafter(0.5, 1.0)), 0.51, 3.0, REACH, 40.0]
    for b, count in ((-0.5, 3), (-0.5, 4), (0.5, 3)):
        layout = _ChainLayout(0.5, b, 12)
        chains, log_scale = tricomi_u_chain(layout, zs, count)
        for q, z in enumerate(zs):
            alone, alone_scale = tricomi_u_chain(layout, [z], count)
            assert log_scale[q] == alone_scale[0]
            assert chains[:, q].tobytes() == alone[:, 0].tobytes(), (b, count, z)


def test_chain_rejects_bad_arguments() -> None:
    with pytest.raises(ValueError):
        _chains(-0.5, 0.5, 1.0, 4)
    with pytest.raises(ValueError):
        _chains(0.5, 0.5, 1.0, -1)
    with pytest.raises(ValueError):
        _chains(0.5, 0.5, 1.0, 4, 0)


@pytest.mark.parametrize("a0, b, n, count", [(0.5, -0.5, 0, 2), (0.0, 0.5, 0, 1),
                                             (0.5, 0.5, 1, 4), (0.5, 1.5, 1, 4)])
def test_chain_refuses_shapes_without_a_bottom_or_derived_tops(a0: float, b: float, n: int,
                                                               count: int) -> None:
    # A chain needs n >= 1, and at count >= 3 a0 + n + 3 > b + count, so that
    # its bottom is a row of the pass and its tops follow from two.
    with pytest.raises(ValueError, match=rf"a0={a0}, b={b}, n={n}, count={count}"):
        _chains(a0, b, 1.0, n, count)


def test_chain_leaving_the_double_range_names_its_b(monkeypatch) -> None:
    # The further chains share one range check, which names the first b
    # whose chain left the double range: here the top chain, whose top
    # anchor underflows to 0.
    ln_tricomi = specfun._ln_tricomi

    def underflowing_top(rows):
        logs = ln_tricomi(rows)
        return logs[:-1] + [logs[-1] - 800.0]

    monkeypatch.setattr(specfun, "_ln_tricomi", underflowing_top)
    with pytest.raises(RuntimeError, match=r"double range for a0=0\.5, b=1\.5, t=0\.3, n=20$"):
        _chains(0.5, -0.5, 0.3, 20, 3)


def _never_settles(n):
    # Every node at the midpoint, with a total weight that grows with the
    # order: successive values never agree.
    return np.zeros(n), np.full(n, float(n))


def test_tricomi_u_nonconvergence_raises(monkeypatch) -> None:
    monkeypatch.setattr(specfun, "_gauss_legendre", _never_settles)
    with pytest.raises(RuntimeError, match=r"a=2\.5, b=0\.5, t=0\.25.*order 768"):
        tricomi_u(2.5, 0.5, 0.25)


def test_unsettled_pass_names_every_row(monkeypatch) -> None:
    # The chain's two integrated tops share one pass; the top at b = 2.5,
    # derived from them, and the closed-form bottom U(1/2, 1/2, t) take
    # none and are not named.
    monkeypatch.setattr(specfun, "_gauss_legendre", _never_settles)
    with pytest.raises(RuntimeError) as raised:
        tricomi_u_chain(_ChainLayout(0.5, 0.5, 4), [2.0], 3)
    message = str(raised.value)
    for b in ("0.5", "1.5"):
        assert f"a=4.5, b={b}, t=2.0" in message
    assert "b=2.5" not in message
    assert "a=0.5" not in message and "order 768" in message


def test_tricomi_u_nonconvergence_raises_under_optimization() -> None:
    # Under python -O an assert would vanish and the order would double
    # without bound; the error must not depend on assertions being enabled.
    script = (
        "import numpy as np\n"
        "import hardedge.specfun as s\n"
        "from hardedge.reference.specfun import tricomi_u\n"
        "s._gauss_legendre = lambda n: (np.zeros(n), np.full(n, float(n)))\n"
        "try:\n"
        "    tricomi_u(2.5, 0.5, 0.25)\n"
        "except RuntimeError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    raise SystemExit('no error raised')\n"
    )
    src = str(Path(specfun.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert "order 768" in done.stdout


NAN, INF = math.nan, math.inf
# Past a < 0 and t <= 0, a non-finite argument anywhere, also where a
# shortcut (a = 0, a closed-form anchor at a = 1/2) would otherwise answer.
BAD_TRICOMI = ((-1.0, 0.5, 1.0), (2.5, 0.5, 0.0), (2.5, 0.5, -1.0),
               (NAN, 0.5, 1.0), (INF, 0.5, 1.0), (2.5, NAN, 1.0), (2.5, -INF, 1.0),
               (2.5, 0.5, NAN), (2.5, 0.5, INF), (0.0, NAN, 1.0), (0.0, 0.5, INF),
               (0.5, 1.5, NAN), (0.5, 0.5, INF))


def test_tricomi_u_rejects_bad_arguments(monkeypatch) -> None:
    # Rejected before any quadrature: a NaN would otherwise climb the
    # order-doubling loop to its 768-node cap.
    def no_quadrature(*args):
        raise AssertionError("reached the quadrature")

    monkeypatch.setattr(specfun, "_settled_integral", no_quadrature)
    for args in BAD_TRICOMI:
        with pytest.raises(ValueError):
            tricomi_u(*args)


def test_tricomi_u_rejects_bad_arguments_under_optimization() -> None:
    # The checks must not depend on assertions being enabled.
    script = (
        "import hardedge.specfun as s\n"
        "from hardedge.reference.specfun import tricomi_u\n"
        "nan, inf = float('nan'), float('inf')\n"
        "def no_quadrature(*args):\n"
        "    raise SystemExit('reached the quadrature')\n"
        "s._settled_integral = no_quadrature\n"
        f"for args in {BAD_TRICOMI!r}:\n"
        "    try:\n"
        "        tricomi_u(*args)\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit(f'accepted {args}')\n"
    )
    src = str(Path(specfun.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stdout + done.stderr


# ------------------------------------------------------------ bulk route


BAD_TABLES = ((0, 1, [0.5], 1), (0, 12, [-0.5], 1), (-1, 12, [0.5], 1), (0, 12, [0.5], 0),
              (0, 12, [0.5], 12))


def test_tables_reject_bad_parameters() -> None:
    for args in BAD_TABLES:
        with pytest.raises(ValueError):
            BulkTables(*args)


def test_tables_reject_bad_parameters_under_optimization() -> None:
    # The checks must not depend on assertions being enabled.
    script = (
        "from hardedge.kernels import BulkTables\n"
        f"for args in {BAD_TABLES!r}:\n"
        "    try:\n"
        "        BulkTables(*args)\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit(f'accepted {args}')\n"
    )
    src = str(Path(kernels.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stdout + done.stderr



def test_reading_past_the_chain_top_raises_under_optimization() -> None:
    # A ratio run longer than the chain must not silently come back short.
    script = (
        "from hardedge.kernels import BulkTables\n"
        "try:\n"
        "    BulkTables(0, 12, [0.5], 1).quotient((0.0, 0.5), (0.0, 0.5), 100)\n"
        "except IndexError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    raise SystemExit('read past the chain top')\n"
    )
    src = str(Path(kernels.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stdout + done.stderr
    assert "past the chain top" in done.stdout


def test_quotient_rejects_reads_two_steps_apart() -> None:
    # A quotient applies at most one Gamma factor of the ladder's a; a
    # farther read fails by name instead of coming back a factor short.
    tables = BulkTables(0, 12, [0.5], 1)
    with pytest.raises(ValueError, match=r"U\(2\.5, 0\.5\) / U\(0\.5, 0\.5\)"):
        tables.quotient((2.5, 0.5), (0.5, 0.5), 1)
    # So does an integer-a read two steps off its denominator's ladder a.
    with pytest.raises(ValueError, match="more than one step apart"):
        tables.quotient((2.0, 0.5), (0.5, 0.5), 1)


@pytest.mark.parametrize("gamma", [0, 1])
@pytest.mark.parametrize("l", [12, 13, 404, 405])
@pytest.mark.parametrize("z", [1e-4, 0.1, 5.0])
def test_integer_a_reads_match_mpmath(gamma: int, l: int, z: float) -> None:
    # The integer-a values come off the half-integer ladder through Kummer's
    # transformation.  test_assembly_matches_mpmath_ratios replaces quotient
    # wholesale, so only this test checks the values it reads.
    tables = BulkTables(gamma, l, [2.0 * z], 1)
    h, odd = 0.5 - gamma, l % 2
    count = (l - 1) // 2 if odd else l // 2
    reads = [((1.0, h), (0.0, h), count), ((1.0, h + 1.0), (0.0, h), count)]
    if odd:
        reads.append(((0.5, h), (0.0, h), count + 1))
    for num, den, n in reads:
        got = tables.quotient(num, den, n)[0]
        for i in sorted({0, 1, n // 2, n - 1}):
            want = _hyperu(num[0] + i, num[1], z) / _hyperu(den[0] + i, den[1], z)
            assert got[i] == pytest.approx(float(want), rel=1e-12, abs=0.0), (num, den, i)
    a = gamma + (l - 1) / 2.0
    want = _hyperu(a, gamma + 0.5, z) / _hyperu(a, gamma + 1.5, z)
    assert tables.border_mix()[0] == pytest.approx(float(want), rel=1e-12, abs=0.0)


# The four finite_large cases, plain Pfaffian at k = 4 and bordered at k = 3.
FINITE_LARGE = ((gap_finite, 500, 4), (gap_finite, 1000, 3),
                (smallest_finite, 500, 4), (smallest_finite, 1000, 3))


def test_finite_point_needs_few_quadratures(monkeypatch) -> None:
    # One order-doubling loop per point at k >= 1: the ladder's anchors
    # share one pass and the prefactor is read off the ladder.  The
    # converge point (p = 40, k = 4, u = 375) has its ladder bottom
    # U(1/2, -1/2, t/2 > 1/2) in closed form.
    loops = []
    settled = specfun._settled_integral

    def counted(*args):
        loops.append(args)
        return settled(*args)

    monkeypatch.setattr(specfun, "_settled_integral", counted)
    points = [(quantity, p, k, 50.0 / (4 * p)) for quantity, p, k in FINITE_LARGE]
    points.append((smallest_finite, 40, 4, 375.0 / 160))
    for quantity, p, k, t in points:
        loops.clear()
        quantity(FiniteSpec(p=p, k=k, t=t))
        assert len(loops) == 1, (quantity.__name__, p, k)


@pytest.fixture
def settling_orders(monkeypatch) -> list[int]:
    """The order at which each Tricomi quadrature pass settles: the highest
    Gauss-Legendre order one pass asks for (closed forms ask for none)."""
    settled, asked = [], []
    gauss_legendre, plain = specfun._gauss_legendre, specfun._ln_tricomi

    def recorded(n):
        asked.append(n)
        return gauss_legendre(n)

    def ln_u(rows):
        asked.clear()
        value = plain(rows)
        if asked:
            settled.append(max(asked))
        return value

    monkeypatch.setattr(specfun, "_gauss_legendre", recorded)
    monkeypatch.setattr(specfun, "_ln_tricomi", ln_u)
    return settled


def test_finite_point_quadratures_settle_at_order_96(settling_orders) -> None:
    # The bulk u = 4pt of the four finite_large cases: the window is tight
    # enough that orders 48 and 96 already agree.
    for quantity, p, k in FINITE_LARGE:
        for u in np.linspace(30.0, 350.0, 10):
            quantity(FiniteSpec(p=p, k=k, t=u / (4 * p)))
    assert settling_orders and set(settling_orders) == {96}


def test_converge_quadratures_settle_at_order_96(settling_orders) -> None:
    # The density curves of `hardedge converge` at p = 10, 20, 40 over the
    # bulks of k = 3 and 4: every bottom U(1/2, -1/2, t/2) lies within the
    # closed form's reach, and the two integrated tops settle at 96.
    for k, low, high in ((3, 20.0, 250.0), (4, 40.0, 400.0)):
        for p in (10, 20, 40):
            tabulate("smallest", k, np.linspace(low, high, 3) / (4 * p), p=p)
    assert settling_orders and set(settling_orders) == {96}


def test_random_argument_quadratures_settle_by_order_768(settling_orders) -> None:
    # Flat integrands (b = 1, tiny t) need the highest orders.  The cap
    # turns a window that needs more into a quick RuntimeError.
    for args in _random_arguments():
        tricomi_u(*args)
    assert max(settling_orders) <= 768


def test_finite_point_factors_one_tridiagonal_system_per_point(monkeypatch) -> None:
    # One ladder and one banded Laguerre solve per point at k >= 1, none at
    # k = 0: a table built twice would double either count.
    factorisations, chains, solves = [], [], []

    def counted(*args, **kwargs):
        factorisations.append(args)
        return dgttrf(*args, **kwargs)

    def chain(*args):
        chains.append(args)
        return tricomi_u_chain(*args)

    def solve(*args, **kwargs):
        solves.append(args)
        return dtbsv(*args, **kwargs)

    monkeypatch.setattr(specfun, "dgttrf", counted)
    monkeypatch.setattr(kernels, "tricomi_u_chain", chain)
    monkeypatch.setattr(kernels, "dtbsv", solve)
    points = [*FINITE_LARGE, (gap_finite, 500, 0), (smallest_finite, 1000, 0),
              (gap_finite, 50, 1), (smallest_finite, 10, 2)]
    for quantity, p, k in points:
        factorisations.clear()
        chains.clear()
        solves.clear()
        quantity(FiniteSpec(p=p, k=k, t=50.0 / (4 * p)))
        want = 1 if k else 0
        assert (len(factorisations), len(chains), len(solves)) == (want,) * 3, \
            (quantity.__name__, p, k)


def test_prefactor_read_off_the_ladder_matches_mpmath(monkeypatch) -> None:
    # At k >= 1 the assembly reads U(a, 3/2 + gamma, t/2) off the point's
    # ladder, at odd l through Kummer's transformation.  Measured: at most
    # 1.5e-12 (1.8e-13 at p <= 3), against 9.2e-13 for tricomi_u itself.
    reads, ln_u = [], BulkTables.ln_u

    def recorded(self, a, b):
        value = ln_u(self, a, b)
        reads.extend((a, b, z, got) for z, got in zip((self.t / 2.0).tolist(), value.tolist()))
        return value

    monkeypatch.setattr(BulkTables, "ln_u", recorded)
    for p in (1, 2, 3, 10, 500, 2000):
        for k in range(1, 7):
            for u in (0.5, 5.0, 50.0, 300.0):
                gap_finite(FiniteSpec(p=p, k=k, t=u / (4 * p)))
                if not (p == 1 and k % 2 == 0):
                    smallest_finite(FiniteSpec(p=p, k=k, t=u / (4 * p)))
    assert {b for _, b, _, _ in reads} == {1.5, 2.5}
    worst = 0.0
    for a, b, z, got in reads:
        want = mpmath.log(_hyperu(a, b, z))
        worst = max(worst, abs(float(mpmath.expm1(got - want))))
    assert worst <= 2e-12


def _laguerre_mp(n: int, mu: int, t: float):
    with mpmath.workdps(40):
        return mpmath.laguerre(n, mu, -mpmath.mpf(t))


@pytest.mark.parametrize("gamma", [0, 1])
@pytest.mark.parametrize("l", [12, 504, 1004, 4004])
def test_laguerre_rows_match_mpmath(l: int, gamma: int) -> None:
    # The three-term recurrence missed by 1.3e-12 at l = 504, t = 0.0075
    # and by 2.6e-10 at l = 4004, t = 1e-8.
    degrees = sorted({0, 1, 2, 3, l // 3, l // 2, l - 2, l - 1, l})
    for t in (1e-8, 1e-4, 0.0075, 0.1, 0.5, 1.9):
        if l * t > 7000.0:
            continue
        rows = kernels._laguerre_rows(gamma, l, np.array([t]), 4)[0]
        assert rows.shape == (4, l + 1)
        for m in range(4):
            for n in degrees:
                want = _laguerre_mp(n, 2 * gamma + m, t)
                assert abs(float(rows[m, n] / want - 1)) <= 1e-14, (t, m, n)


@pytest.fixture
def mpmath_ratios(monkeypatch):
    """Route every U ratio of the bulk route through mpmath's hyperu."""
    cache: dict[tuple[float, float, float], object] = {}

    def u(a: float, b: float, z: float):
        if (a, b, z) not in cache:
            cache[a, b, z] = _hyperu(a, b, z)
        return cache[a, b, z]

    def quotient(self, num, den, count):
        return np.array([[float(u(num[0] + i, num[1], z) / u(den[0] + i, den[1], z))
                          for i in range(count)] for z in (self.t / 2.0).tolist()])

    def border_mix(self):
        a = self.gamma + (self.l - 1) / 2.0
        return np.array([float(u(a, self.gamma + 0.5, z) / u(a, self.gamma + 1.5, z))
                         for z in (self.t / 2.0).tolist()])

    def install() -> None:
        monkeypatch.setattr(BulkTables, "quotient", quotient)
        monkeypatch.setattr(BulkTables, "border_mix", border_mix)

    return install


@pytest.mark.parametrize("p, k, t", [(500, 4, 0.015), (500, 4, 0.17), (1000, 3, 0.0075),
                                     (1000, 3, 0.085), (20, 4, 5.0), (10, 2, 1e-6)])
def test_assembly_matches_mpmath_ratios(p: int, k: int, t: float, mpmath_ratios) -> None:
    spec = FiniteSpec(p=p, k=k, t=t)
    got = (gap_finite(spec), smallest_finite(spec))
    mpmath_ratios()
    want = (gap_finite(spec), smallest_finite(spec))
    assert got == pytest.approx(want, rel=1e-8, abs=0.0)


def _rows_mp(gamma, l, ts, count):
    # The three-term recurrence at 30 digits, which covers the digits it
    # loses to cancellation, and running sums for the higher orders.
    mu = 2 * gamma
    points = []
    with mpmath.workdps(30):
        for t in ts.tolist():
            t = mpmath.mpf(t)
            row = [mpmath.mpf(1), mu + 1 + t]
            for n in range(1, l):
                row.append(((2 * n + mu + 1 + t) * row[n] - (n + mu) * row[n - 1]) / (n + 1))
            rows = [row[:l + 1]]
            for _ in range(1, count):
                rows.append(list(np.cumsum(rows[-1])))
            points.append([[float(x) for x in r] for r in rows])
    return np.array(points)


@pytest.mark.parametrize("p, k, t", [(2000, 2, 0.0075), (2000, 2, 0.04), (2000, 1, 0.02),
                                     (1000, 1, 0.0075), (1000, 2, 0.085), (500, 1, 0.015),
                                     (50, 1, 1.0), (10, 2, 1e-6)])
def test_assembly_matches_mpmath_rows(p: int, k: int, t: float, monkeypatch) -> None:
    # At k <= 2 the Pfaffian is well conditioned, so the values follow the
    # rows to rounding; the three-term recurrence was off by up to 1e-11.
    spec = FiniteSpec(p=p, k=k, t=t)
    got = (gap_finite(spec), smallest_finite(spec))
    monkeypatch.setattr(kernels, "_laguerre_rows", _rows_mp)
    want = (gap_finite(spec), smallest_finite(spec))
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)
