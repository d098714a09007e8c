"""Command-line front end for the hard-edge distribution toolkit.

Subcommands tabulate the analytic curves (gap, smallest, micro), run
Monte-Carlo comparisons against them (mc), study the approach to the
hard-edge limit (converge), and run a built-in identity suite (selftest).
All tabular output is CSV with 17 significant digits so values round-trip
exactly, and every output file gets a plain-text manifest sidecar that
records the command, parameters, seeds, version, and elapsed time.

Exit codes: 0 success, 2 parameter error, 3 numerical-validation failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import logging
import math
import os
import sys
import time

import numpy as np
from numpy.polynomial.chebyshev import chebfit, chebpts2, chebval

from . import __version__
from .distributions import FiniteSpec, gap_finite, smallest_finite, tabulate
from .microscopic import gap_micro, micro_density, smallest_micro
from .montecarlo import (
    SamplerConfig,
    _read_matrix,
    empirical_gap,
    ks_distance,
    microscopic_rescale,
    sample_batch,
)
from .pfaffian import AntisymmetricMatrix, pfaffian

__all__ = ["main"]

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_VALIDATION = 3
EXIT_IO = 4

OUTDIR_VARIABLE = "HARDEDGE_OUTDIR"


def _emit(args: argparse.Namespace, default_name: str, header: tuple[str, ...],
          rows: list[tuple[float, ...]], parameters: dict[str, object],
          seeds: tuple[int, ...] = (), notes: tuple[str, ...] = ()) -> None:
    """Write the CSV and its manifest sidecar, then report both on stdout."""
    out = args.out or default_name
    if not os.path.isabs(out):
        out = os.path.join(os.environ.get(OUTDIR_VARIABLE, "."), out)
    with open(out, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([f"{x:.17g}" for x in row] for row in rows)
    lines = [f"command: {args.command}"]
    lines += [f"parameter {key}: {parameters[key]}" for key in sorted(parameters)]
    lines += [f"seeds: {','.join(str(s) for s in seeds) or 'none'}",
              f"version: {__version__}",
              f"duration_seconds: {time.perf_counter() - args.start:.3f}",
              f"output: {out}"]
    lines += [f"note: {note}" for note in notes]
    with open(out + ".manifest", "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"wrote {out} ({len(rows)} rows)")
    for note in notes:
        print(note)


def _grid(args: argparse.Namespace, axis: str) -> np.ndarray:
    low, high = getattr(args, f"{axis}_min"), getattr(args, f"{axis}_max")
    if args.points < 1:
        raise ValueError(f"points must be at least 1, got {args.points}")
    if not low < high:
        raise ValueError(f"{axis}-min must lie below {axis}-max")
    return np.linspace(low, high, args.points)


def _cmd_finite_curve(args: argparse.Namespace) -> int:
    curve = tabulate(args.command, args.k, _grid(args, "t"), p=args.p)
    _emit(args, f"{args.command}_p{args.p}_k{args.k}.csv", ("t", "value"),
          list(zip(curve.abscissae, curve.values)),
          {"p": args.p, "k": args.k, "t_min": args.t_min, "t_max": args.t_max,
           "points": args.points})
    return EXIT_OK


def _cmd_micro(args: argparse.Namespace) -> int:
    if args.k is None and args.nu is None:
        raise ValueError("one of --k or --nu is required")
    nu = args.nu if args.k is None else 2 * args.k
    if args.quantity != "density" and nu % 2 != 0:
        raise ValueError(f"{args.quantity} supports only even topology, got nu={nu}")
    grid = _grid(args, "u") if args.u is None else (args.u,)
    if args.quantity == "density":
        # The level density is not a tabulate curve: curves carry k = nu/2,
        # and the density also takes odd nu.
        values = tuple(micro_density(nu, u) for u in grid)
    else:
        values = tabulate(f"{args.quantity}_micro", nu // 2, grid).values
    if args.u is not None:
        print(f"{values[0]:.17g}")
        return EXIT_OK
    _emit(args, f"micro_{args.quantity}_nu{nu}.csv", ("u", "value"),
          list(zip(grid, values)),
          {"quantity": args.quantity, "nu": nu, "u_min": args.u_min,
           "u_max": args.u_max, "points": args.points})
    return EXIT_OK


# The tail bound keeps the interpolation error below half a unit of the
# sixth decimal that mc prints its ks_distance to.
CDF_TAIL = 1e-7
CDF_MAX_NODES = 257


def _interpolated_cdf(curve, top: float, label: str):
    """Chebyshev interpolant of 1 - E(x) on [0, top], where curve maps an
    increasing list of abscissae to their gap values E.

    The CDF rises like sqrt(x) at nu = 0, so the curve is interpolated in
    s = sqrt(x), where it is smooth, at second-kind Chebyshev points.  The
    largest of the last three coefficients estimates the interpolation
    error (Battles & Trefethen, SIAM J. Sci. Comput. 25 (2004) 1743); the
    node count goes 33, 65, 129, 257 until that tail is at most CDF_TAIL.
    These point sets nest, so each doubling evaluates only the new points.
    Each set is sampled with one call of curve: the first holds x = 0, and
    each doubling passes the new odd-indexed points, increasing too.
    Returns the CDF, which takes a point or an array of them, its node
    count and its tail.
    """
    half = 0.5 * math.sqrt(top)

    def sample(points):
        # Squared one by one: an array square rounds some x apart by a bit.
        return 1.0 - np.array(curve([(half * (z + 1.0)) ** 2 for z in points]))

    nodes = 33
    points = chebpts2(nodes)
    values = sample(points)
    while True:
        coef = chebfit(points, values, nodes - 1)
        tail = float(np.max(np.abs(coef[-3:])))
        if tail <= CDF_TAIL:
            break
        if nodes >= CDF_MAX_NODES:
            raise RuntimeError(f"sample CDF for {label}, top={top:.6g} does not "
                               f"settle: tail {tail:.1e} at {nodes} Chebyshev nodes")
        nodes = 2 * nodes - 1
        points = chebpts2(nodes)
        fine = np.empty(nodes)
        fine[::2] = values
        fine[1::2] = sample(points[1::2])
        values = fine

    def cdf(x):
        return chebval(np.sqrt(x) / half - 1.0, coef)

    return cdf, nodes, tail


def _cmd_mc(args: argparse.Namespace) -> int:
    if args.nu % 2 != 0:
        raise ValueError(f"only even topology is supported, got nu={args.nu}")
    # The configuration validates the file's matrix, once, and before the
    # comparison is checked, so a bad file is reported first.
    config = SamplerConfig(p=args.p, n=args.p + args.nu,
                           num_samples=args.samples, seed=args.seed,
                           correlation=None if args.c_file is None
                           else _read_matrix(args.c_file))
    if args.c_file is not None and args.compare != "micro":
        raise ValueError("--c-file needs --compare micro: the finite-p law "
                         "holds only for uncorrelated samples")
    batch = sample_batch(config)
    k = args.nu // 2

    if args.compare == "finite":
        quantity, p = "gap", args.p
        scale_note = "lambda scale (finite-size comparison)"
    else:
        batch = microscopic_rescale(batch)
        quantity, p = "gap_micro", None
        scale_note = "u = 4 p lambda scale (hard-edge comparison)"
    values = batch.smallest_eigenvalues
    top = float(values.max()) * 1.01
    cdf, nodes, tail = _interpolated_cdf(
        lambda xs: tabulate(quantity, k, xs, p=p).values, top,
        f"--compare {args.compare} (k={k}, p={args.p})")

    distance = ks_distance(batch, cdf)
    estimate, error = empirical_gap(batch, float(np.median(values)))
    _emit(args, f"mc_p{args.p}_nu{args.nu}.csv",
          ("sample_index", "smallest_eigenvalue"),
          [(float(i), v) for i, v in enumerate(values)],
          {"p": args.p, "nu": args.nu, "samples": args.samples,
           "compare": args.compare, "c_file": args.c_file},
          seeds=(args.seed,),
          notes=(f"ks_distance: {distance:.6f}",
                 f"gap_at_empirical_median: {estimate:.6f} +- {error:.6f}",
                 f"scale: {scale_note}",
                 f"cdf_interpolation: {nodes} nodes, tail {tail:.1e}"))
    return EXIT_OK


def _cmd_converge(args: argparse.Namespace) -> int:
    sizes = [int(s) for s in args.p.split(",") if s]
    if not sizes or any(p < 1 for p in sizes):
        raise ValueError(f"p-list must hold positive integers, got {args.p!r}")
    grid = _grid(args, "u")
    limit = np.array(tabulate("smallest_micro", args.k, grid).values)
    # Deviations are relative, so that a density of 1e-30 is judged as
    # closely as one of order 1; they are taken where the limit is positive.
    positive = limit > 0.0
    if not positive.any():
        raise RuntimeError(f"the limit density of k={args.k} underflows to 0 at "
                           f"every u in [{args.u_min}, {args.u_max}]")
    columns = [grid, limit]
    deviations = []
    for p in sizes:
        # The density in u carries the Jacobian of t = u / (4p).
        scaled = np.array(tabulate("smallest", args.k, grid / (4.0 * p), p=p).values) \
            / (4.0 * p)
        columns.append(scaled)
        deviations.append(float(np.max(np.abs(scaled[positive] / limit[positive] - 1.0))))

    _emit(args, f"converge_k{args.k}.csv",
          ("u", "limit") + tuple(f"p={p}" for p in sizes), list(zip(*columns)),
          {"k": args.k, "p_list": args.p, "u_min": args.u_min,
           "u_max": args.u_max, "points": args.points},
          notes=tuple(f"max_rel_deviation p={p}: {d:.3e}"
                      for p, d in zip(sizes, deviations)))
    if len(sizes) >= 2:
        ordered = all(a > b for a, b in zip(deviations[:-1], deviations[1:]))
        if not ordered:
            print("deviation sequence is not strictly decreasing",
                  file=sys.stderr)
            return EXIT_VALIDATION
        print("deviations strictly decreasing")
    return EXIT_OK


def _selftest_items() -> list[tuple[str, bool, str]]:
    # The oracles are loaded only here, so that no other command imports them.
    from .reference.distributions import closed_form_k0, closed_form_k1
    from .reference.sop import WeightParams, skew_product_oracle, sop_even, sop_norm, sop_odd
    from .reference.specfun import tricomi_u

    results = []

    def record(name: str, passed: bool, detail: str) -> None:
        results.append((name, passed, detail))

    rng = np.random.Generator(np.random.Philox(key=np.array([17, 0],
                                                            dtype=np.uint64)))
    worst = 0.0
    for dim in (2, 4, 6, 8, 10):
        for _ in range(4):
            raw = rng.standard_normal((dim, dim))
            anti = raw - raw.T
            pf = pfaffian(AntisymmetricMatrix(data=anti))
            det = float(np.linalg.det(anti))
            worst = max(worst, abs(pf * pf - det) / max(abs(det), 1e-300))
    record("pfaffian-squared-equals-determinant", worst <= 1e-10,
           f"worst relative error {worst:.2e}")

    p, t = 5, 1.2
    closed = tricomi_u(p / 2, 0.5, 0.5 * t).scaled(
        math.lgamma((p + 1) / 2) - 0.5 * math.log(math.pi) - 0.5 * p * t).value
    machinery = gap_finite(FiniteSpec(p=p, k=0, t=t))
    rel = abs(machinery / closed - 1.0)
    record("gap-closed-form-topology-0", rel <= 1e-10, f"relative error {rel:.2e}")

    rel = abs(smallest_finite(FiniteSpec(p=6, k=0, t=1.0))
              / closed_form_k0(6, 1.0) - 1.0)
    record("smallest-closed-form-topology-0", rel <= 1e-10,
           f"relative error {rel:.2e}")

    rel = abs(smallest_finite(FiniteSpec(p=5, k=1, t=0.7))
              / closed_form_k1(5, 0.7) - 1.0)
    record("smallest-closed-form-topology-2", rel <= 1e-10,
           f"relative error {rel:.2e}")

    params = WeightParams(gamma=0, t=1.0)
    norm = sop_norm(0, params).value
    diagonal = skew_product_oracle(sop_odd(0, params), sop_even(0, params),
                                  params)
    off = skew_product_oracle(sop_even(0, params), sop_even(1, params), params)
    ok = abs(diagonal / norm - 1.0) <= 1e-5 and abs(off) <= 1e-6 * norm
    record("skew-orthogonality-spot-check", ok,
           f"diagonal off by {abs(diagonal / norm - 1.0):.2e}, "
           f"off-diagonal {abs(off):.2e}")

    rel = abs(gap_micro(0, 4.0) / math.exp(-1.5) - 1.0)
    record("micro-gap-closed-form", rel <= 1e-12, f"relative error {rel:.2e}")

    expected = 0.375 * math.exp(-0.625)
    rel = abs(smallest_micro(0, 1.0) / expected - 1.0)
    record("micro-smallest-closed-form", rel <= 1e-12,
           f"relative error {rel:.2e}")

    h = 1e-3
    stencil = tabulate("gap", 1, [1.0 + m * h for m in (-2, -1, 1, 2)], p=6).values
    slope = -(stencil[0] - 8 * stencil[1] + 8 * stencil[2] - stencil[3]) / (12 * h)
    rel = abs(smallest_finite(FiniteSpec(p=6, k=1, t=1.0)) / slope - 1.0)
    record("density-is-minus-gap-derivative", rel <= 1e-6,
           f"relative error {rel:.2e}")

    return results


def _cmd_selftest(args: argparse.Namespace) -> int:
    results = _selftest_items()
    failures = 0
    for name, passed, detail in results:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        failures += 0 if passed else 1
    if failures:
        print(f"{failures} of {len(results)} checks failed", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardedge",
        description="Hard-edge eigenvalue distributions of real Wishart "
                    "matrices: analytic curves, limits, and Monte-Carlo "
                    "comparisons.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, blurb in (("gap", "probability of an eigenvalue-free (0, t)"),
                        ("smallest", "density of the smallest eigenvalue")):
        cmd = sub.add_parser(name, help=blurb)
        cmd.set_defaults(handler=_cmd_finite_curve)
        cmd.add_argument("--p", type=_positive_int, required=True)
        cmd.add_argument("--k", type=_non_negative_int, required=True)
        cmd.add_argument("--t-min", type=float, default=1e-3)
        cmd.add_argument("--t-max", type=float, default=3.0)
        cmd.add_argument("--points", type=int, default=200)
        cmd.add_argument("--out", type=str, default=None)

    micro = sub.add_parser("micro", help="hard-edge limit curves")
    micro.set_defaults(handler=_cmd_micro)
    micro.add_argument("--quantity", choices=("gap", "smallest", "density"),
                       required=True)
    group = micro.add_mutually_exclusive_group()
    group.add_argument("--k", type=_non_negative_int, default=None)
    group.add_argument("--nu", type=_non_negative_int, default=None)
    micro.add_argument("--u", type=float, default=None,
                       help="print the value at one point instead of a CSV")
    micro.add_argument("--u-min", type=float, default=0.1)
    micro.add_argument("--u-max", type=float, default=25.0)
    micro.add_argument("--points", type=int, default=200)
    micro.add_argument("--out", type=str, default=None)

    mc = sub.add_parser("mc", help="Monte-Carlo comparison run")
    mc.set_defaults(handler=_cmd_mc)
    mc.add_argument("--p", type=_positive_int, required=True)
    mc.add_argument("--nu", type=_non_negative_int, required=True)
    mc.add_argument("--samples", type=_positive_int, required=True)
    mc.add_argument("--seed", type=_non_negative_int, default=0)
    mc.add_argument("--c-file", type=str, default=None,
                    help="CSV with a p x p correlation matrix")
    mc.add_argument("--compare", choices=("finite", "micro"),
                    default="finite")
    mc.add_argument("--out", type=str, default=None)

    conv = sub.add_parser("converge", help="approach to the hard-edge limit")
    conv.set_defaults(handler=_cmd_converge)
    conv.add_argument("--k", type=_non_negative_int, required=True)
    conv.add_argument("--p", type=str, required=True,
                      help="comma-separated list of matrix sizes")
    conv.add_argument("--u-min", type=float, default=0.2)
    conv.add_argument("--u-max", type=float, default=25.0)
    conv.add_argument("--points", type=int, default=100)
    conv.add_argument("--out", type=str, default=None)

    sub.add_parser("selftest", help="run the built-in identity suite").set_defaults(
        handler=_cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    args.start = time.perf_counter()
    logger.debug("dispatching %s", args.command)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except RuntimeError as exc:
        print(f"numerical validation failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
