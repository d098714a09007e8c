"""Finite-p curves evaluated in batches.

`tabulate` takes a finite-p grid in batches of up to `_BATCH` points: one
Tricomi pass, one stacked chain solve, one Laguerre solve and one kernel
assembly per batch.  A point's value must not depend on the batch it is
in, a batch must cost one of each of those calls, and a failing curve must
name the point that fails alone, in grid order.  The analytic CDF of
`hardedge mc` is such a curve too.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgttrf

from hardedge import distributions, kernels, specfun
from hardedge.cli import main
from hardedge.distributions import FiniteSpec, gap_finite, smallest_finite, tabulate
from hardedge.specfun import tricomi_u_chain

POINT = {"gap": gap_finite, "smallest": smallest_finite}
# p = 10 and 11 give both the plain (even l) and the hatted (odd l) kernel
# at each of gap and density; k = 3 is bordered.
INVARIANCE_CASES = [(quantity, p, k) for quantity in POINT for p in (10, 11, 40)
                    for k in (0, 1, 3, 4)] + [(quantity, 1000, k) for quantity in POINT
                                              for k in (3, 4)]


@pytest.mark.parametrize("quantity, p, k", INVARIANCE_CASES)
def test_curve_values_equal_lone_points(quantity: str, p: int, k: int) -> None:
    # More points than one batch holds, so that a batch boundary falls
    # inside the bulk; the gap grid starts at t = 0, where E = 1 exactly.
    count = distributions._BATCH + 5
    low = 0.0 if quantity == "gap" else 2.0
    grid = np.linspace(low, 380.0, count) / (4 * p)
    curve = tabulate(quantity, k, grid, p=p).values
    alone = [POINT[quantity](FiniteSpec(p=p, k=k, t=float(t))) for t in grid]
    assert [v.hex() for v in curve] == [v.hex() for v in alone]


def test_converge_curves_equal_lone_points() -> None:
    # The grids of `hardedge converge --k 4 --p 10,20,40` at its defaults.
    grid = np.linspace(0.2, 25.0, 100)
    for p in (10, 20, 40):
        ts = grid / (4.0 * p)
        curve = tabulate("smallest", 4, ts, p=p).values
        alone = [smallest_finite(FiniteSpec(p=p, k=4, t=float(t))) for t in ts]
        assert [v.hex() for v in curve] == [v.hex() for v in alone], p


def test_curve_makes_one_of_each_call_per_batch(monkeypatch) -> None:
    # One ladder (one tricomi_u_chain, one dgttrf), one banded Laguerre
    # solve and one quadrature loop per batch at k >= 1; at k = 0 only the
    # loop of the prefactor pass.
    calls: dict[str, int] = {}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(specfun, "dgttrf", counted("dgttrf", dgttrf))
    monkeypatch.setattr(kernels, "tricomi_u_chain", counted("chain", tricomi_u_chain))
    monkeypatch.setattr(kernels, "dtbsv", counted("dtbsv", dtbsv))
    monkeypatch.setattr(specfun, "_settled_integral",
                        counted("loop", specfun._settled_integral))
    batches = 3
    for quantity, p, k in (("smallest", 500, 4), ("gap", 1000, 3), ("gap", 20, 0),
                           ("smallest", 11, 2)):
        calls.clear()
        grid = np.linspace(30.0, 350.0, 2 * distributions._BATCH + 1) / (4 * p)
        tabulate(quantity, k, grid, p=p)
        want = {"loop": batches}
        if k:
            want.update(dgttrf=batches, chain=batches, dtbsv=batches)
        assert calls == want, (quantity, p, k)


def test_mc_finite_cdf_makes_one_loop_per_batch(monkeypatch, tmp_path) -> None:
    # The analytic CDF of `mc --compare finite` samples its 33 Chebyshev
    # nodes as one curve: ceil(33 / 8) batches, each one quadrature loop
    # (the batch holding t = 0 takes it for its other points).  Point by
    # point it would take one loop per node at t > 0, 32.
    loops = []
    settled = specfun._settled_integral

    def counted(*args, **kwargs):
        loops.append(args)
        return settled(*args, **kwargs)

    monkeypatch.setattr(specfun, "_settled_integral", counted)
    monkeypatch.setenv("HARDEDGE_OUTDIR", str(tmp_path))
    assert main(["mc", "--p", "10", "--nu", "4", "--samples", "2000", "--seed", "42",
                 "--compare", "finite"]) == 0
    manifest = (tmp_path / "mc_p10_nu4.csv.manifest").read_text()
    assert "note: cdf_interpolation: 33 nodes," in manifest
    assert len(loops) == math.ceil(33 / distributions._BATCH) == 5


# Past t ~ 4 at p = 2000, k = 4 the kernel entries overflow and the Pfaffian
# is nan; at t = 80 the Laguerre recurrence leaves its range (l t > 1.2e5),
# which BulkTables rejects before any quadrature.
@pytest.mark.parametrize("quantity, grid, message", [
    ("gap", [1.0, 2.0, 4.1], r"gap evaluation failed at abscissa 4\.1: kernel Pfaffian is nan "
                             r"at gamma=0, p=2000, k=4, t=4\.1$"),
    ("smallest", [4.1, 80.0], r"smallest evaluation failed at abscissa 4\.1: kernel Pfaffian "
                              r"is nan at gamma=1, p=2000, k=4, t=4\.1$"),
    ("gap", [*np.linspace(1.0, 3.9, 15).tolist(), 4.1],
     r"gap evaluation failed at abscissa 4\.1: kernel Pfaffian is nan"),
])
def test_failing_curve_names_the_first_point_that_fails_alone(
        quantity: str, grid: list[float], message: str) -> None:
    # A batch fails as a whole; the curve reports the first point of the
    # grid that fails on its own, with its own error and class.
    with pytest.raises(RuntimeError, match=message):
        tabulate(quantity, 4, grid, p=2000)
