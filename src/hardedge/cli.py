"""Command-line front end for the hard-edge distribution toolkit.

Subcommands tabulate the analytic curves (gap, smallest, micro), run
Monte-Carlo comparisons against them (mc), study the approach to the
hard-edge limit (converge), and run a built-in identity suite (selftest).
All tabular output is CSV with 17 significant digits so values round-trip
exactly, and every output file gets a plain-text manifest sidecar that
records the command, parameters, seeds, version, and wall-clock time.

Exit codes: 0 success, 2 parameter error, 3 numerical-validation failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import logging
import math
import os
import sys
import time
from dataclasses import dataclass, field
from importlib.metadata import PackageNotFoundError, version as package_version

import numpy as np
from scipy.interpolate import PchipInterpolator

from .distributions import FiniteSpec, gap_finite, smallest_finite, tabulate
from .microscopic import gap_micro, micro_density, smallest_micro
from .montecarlo import (
    SamplerConfig,
    empirical_gap,
    ks_distance,
    load_correlation,
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


def _tool_version() -> str:
    try:
        return package_version("hardedge")
    except PackageNotFoundError:
        return "unknown"


def _resolve(path: str) -> str:
    if os.path.isabs(path):
        return path
    return os.path.join(os.environ.get(OUTDIR_VARIABLE, "."), path)


@dataclass
class RunManifest:
    """Reproducibility record written alongside every output file."""

    command: str
    parameters: dict[str, object]
    seeds: tuple[int, ...]
    outputs: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def write(self, duration: float) -> None:
        lines = [f"command: {self.command}"]
        for key in sorted(self.parameters):
            lines.append(f"parameter {key}: {self.parameters[key]}")
        lines.append(f"seeds: {','.join(str(s) for s in self.seeds) or 'none'}")
        lines.append(f"version: {_tool_version()}")
        lines.append(f"duration_seconds: {duration:.3f}")
        for name in self.outputs:
            lines.append(f"output: {name}")
        for note in self.notes:
            lines.append(f"note: {note}")
        for name in self.outputs:
            with open(name + ".manifest", "w", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")


def _write_csv(path: str, header: tuple[str, ...],
               rows: list[tuple[float, ...]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{x:.17g}" for x in row])


def _grid(args: argparse.Namespace) -> np.ndarray:
    if args.points < 1:
        raise ValueError(f"points must be at least 1, got {args.points}")
    if not args.t_min < args.t_max:
        raise ValueError("t-min must lie below t-max")
    return np.linspace(args.t_min, args.t_max, args.points)


def _cmd_finite_curve(args: argparse.Namespace, quantity: str) -> int:
    start = time.time()
    grid = _grid(args)
    curve = tabulate(quantity, args.k, grid, p=args.p)
    out = _resolve(args.out or f"{quantity}_p{args.p}_k{args.k}.csv")
    _write_csv(out, ("t", "value"), list(zip(curve.abscissae, curve.values)))
    manifest = RunManifest(
        command=quantity,
        parameters={"p": args.p, "k": args.k, "t_min": args.t_min,
                    "t_max": args.t_max, "points": args.points},
        seeds=(), outputs=[out])
    manifest.write(time.time() - start)
    print(f"wrote {out} ({args.points} rows)")
    return EXIT_OK


def _micro_values(quantity: str, k: int, nu: int, grid) -> tuple[float, ...]:
    # The level density is not a tabulate curve: curves carry k = nu/2, and
    # the density also takes odd nu.
    if quantity == "density":
        return tuple(micro_density(nu, u) for u in grid)
    return tabulate(f"{quantity}_micro", k, grid).values


def _cmd_micro(args: argparse.Namespace) -> int:
    start = time.time()
    if args.k is None and args.nu is None:
        raise ValueError("one of --k or --nu is required")
    if args.k is not None:
        k, nu = args.k, 2 * args.k
    else:
        nu = args.nu
        if args.quantity != "density" and nu % 2 != 0:
            raise ValueError(
                f"{args.quantity} supports only even topology, got nu={nu}")
        k = nu // 2
    if args.u is not None:
        print(f"{_micro_values(args.quantity, k, nu, (args.u,))[0]:.17g}")
        return EXIT_OK
    if not args.u_min < args.u_max:
        raise ValueError("u-min must lie below u-max")
    grid = np.linspace(args.u_min, args.u_max, args.points)
    rows = list(zip(grid, _micro_values(args.quantity, k, nu, grid)))
    out = _resolve(args.out or f"micro_{args.quantity}_nu{nu}.csv")
    _write_csv(out, ("u", "value"), rows)
    manifest = RunManifest(
        command="micro",
        parameters={"quantity": args.quantity, "nu": nu,
                    "u_min": args.u_min, "u_max": args.u_max,
                    "points": args.points},
        seeds=(), outputs=[out])
    manifest.write(time.time() - start)
    print(f"wrote {out} ({args.points} rows)")
    return EXIT_OK


def _interpolated_cdf(evaluate, top: float, points: int = 240):
    # The CDF rises like sqrt(x) at nu = 0; interpolating against sqrt(x)
    # keeps the node spacing fine where that branch point lives.
    roots = np.linspace(0.0, math.sqrt(top), points)
    gaps = np.array([evaluate(s * s) for s in roots])
    interpolant = PchipInterpolator(roots, 1.0 - gaps)

    def cdf(x: float) -> float:
        return float(interpolant(math.sqrt(x)))

    return cdf


def _cmd_mc(args: argparse.Namespace) -> int:
    start = time.time()
    if args.nu % 2 != 0:
        raise ValueError(f"only even topology is supported, got nu={args.nu}")
    correlation = None
    if args.c_file is not None:
        correlation = load_correlation(args.c_file, args.p)
    config = SamplerConfig(p=args.p, n=args.p + args.nu,
                           num_samples=args.samples, seed=args.seed,
                           correlation=correlation)
    batch = sample_batch(config)
    k = args.nu // 2

    if args.compare == "finite":
        values = batch.smallest_eigenvalues
        top = float(values.max()) * 1.01
        cdf = _interpolated_cdf(
            lambda t: gap_finite(FiniteSpec(p=args.p, k=k, t=t)), top)
        scale_note = "lambda scale (finite-size comparison)"
    else:
        batch = microscopic_rescale(batch)
        values = batch.smallest_eigenvalues
        top = float(values.max()) * 1.01
        cdf = _interpolated_cdf(lambda u: gap_micro(k, u), top)
        scale_note = "u = 4 p lambda scale (hard-edge comparison)"

    distance = ks_distance(batch, cdf)
    median = float(np.median(values))
    estimate, error = empirical_gap(batch, median)

    out = _resolve(args.out or f"mc_p{args.p}_nu{args.nu}.csv")
    rows = [(float(i), v) for i, v in enumerate(values)]
    _write_csv(out, ("sample_index", "smallest_eigenvalue"), rows)
    summary = [
        f"ks_distance: {distance:.6f}",
        f"gap_at_empirical_median: {estimate:.6f} +- {error:.6f}",
        f"scale: {scale_note}",
    ]
    manifest = RunManifest(
        command="mc",
        parameters={"p": args.p, "nu": args.nu, "samples": args.samples,
                    "compare": args.compare, "c_file": args.c_file},
        seeds=(args.seed,), outputs=[out], notes=summary)
    manifest.write(time.time() - start)
    print(f"wrote {out} ({args.samples} rows)")
    for line in summary:
        print(line)
    return EXIT_OK


def _cmd_converge(args: argparse.Namespace) -> int:
    start = time.time()
    sizes = [int(s) for s in args.p.split(",") if s]
    if not sizes or any(p < 1 for p in sizes):
        raise ValueError(f"p-list must hold positive integers, got {args.p!r}")
    if not 0.0 < args.u_min < args.u_max:
        raise ValueError("u range must satisfy 0 < u-min < u-max")
    grid = np.linspace(args.u_min, args.u_max, args.points)
    limit = np.array([smallest_micro(args.k, u) for u in grid])
    columns = [grid, limit]
    deviations = []
    for p in sizes:
        # The density in u carries the Jacobian of t = u / (4p).
        scaled = np.array([
            smallest_finite(FiniteSpec(p=p, k=args.k, t=u / (4.0 * p)))
            / (4.0 * p) for u in grid])
        columns.append(scaled)
        deviations.append(float(np.max(np.abs(scaled - limit))))

    out = _resolve(args.out or f"converge_k{args.k}.csv")
    header = ("u", "limit") + tuple(f"p={p}" for p in sizes)
    _write_csv(out, header, list(zip(*columns)))
    summary = [f"max_abs_deviation p={p}: {d:.6f}"
               for p, d in zip(sizes, deviations)]
    manifest = RunManifest(
        command="converge",
        parameters={"k": args.k, "p_list": args.p, "u_min": args.u_min,
                    "u_max": args.u_max, "points": args.points},
        seeds=(), outputs=[out], notes=summary)
    manifest.write(time.time() - start)
    print(f"wrote {out} ({args.points} rows)")
    for line in summary:
        print(line)
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

    from .specfun import tricomi_u
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
    stencil = [gap_finite(FiniteSpec(p=6, k=1, t=1.0 + m * h))
               for m in (-2, -1, 1, 2)]
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
        cmd.add_argument("--p", type=_positive_int, required=True)
        cmd.add_argument("--k", type=_non_negative_int, required=True)
        cmd.add_argument("--t-min", type=float, default=1e-3)
        cmd.add_argument("--t-max", type=float, default=3.0)
        cmd.add_argument("--points", type=int, default=200)
        cmd.add_argument("--out", type=str, default=None)

    micro = sub.add_parser("micro", help="hard-edge limit curves")
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
    conv.add_argument("--k", type=_non_negative_int, required=True)
    conv.add_argument("--p", type=str, required=True,
                      help="comma-separated list of matrix sizes")
    conv.add_argument("--u-min", type=float, default=0.2)
    conv.add_argument("--u-max", type=float, default=25.0)
    conv.add_argument("--points", type=int, default=100)
    conv.add_argument("--out", type=str, default=None)

    sub.add_parser("selftest", help="run the built-in identity suite")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "gap": lambda a: _cmd_finite_curve(a, "gap"),
        "smallest": lambda a: _cmd_finite_curve(a, "smallest"),
        "micro": _cmd_micro,
        "mc": _cmd_mc,
        "converge": _cmd_converge,
        "selftest": _cmd_selftest,
    }
    logger.debug("dispatching %s", args.command)
    try:
        return handlers[args.command](args)
    except (ValueError, AssertionError) as exc:
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
