"""Benchmark of the `hardedge` command line, driven in-process.

    python3 bench/run.py --workload {finite_large,hard_edge,mc_validate}
                         --seed N --seconds S --trace {0,1}

Run from anywhere; the package is imported from `src/` next to this
directory.  One run:

1. set-up: pins BLAS to one thread, imports `hardedge.cli`, writes the
   correlation file (mc_validate) and makes one untimed warm-up invocation
   of each kind, which fills the quadrature caches;
2. timed pass: repeats the workload's cycle of `hardedge.cli.main(argv)`
   calls, each timed from outside with tracing off, until S seconds are
   spent (whole cycles, at least one);
3. with --trace 1, replays the first cycle with spans around the public
   functions of every layer (see tracing.py), each traced invocation
   between two untraced ones;
4. checks every output (see checks.py), outside the timed pass.

The last line of standard output is one JSON object: `correct`,
`attempted` and `failed` count invocations (an invocation fails on a
non-zero exit code or a failed check), and `metrics` holds the end-to-end
metrics with --trace 0 and the per-layer metrics with --trace 1.  Rates
and set-up times are reported at the reference speed of calibration.py;
the raw figures, the failure table, every invocation's timing and the
environment go to `.bench/results/`, the spans of a traced run beside them.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import median

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _variable in THREAD_VARIABLES:
    os.environ[_variable] = "1"

import numpy as np  # noqa: E402  (after the thread pinning above)

import calibration  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".bench" / "results"
SETUP_REPEATS = 3
SETUP_ROUNDS = 9
CALIBRATION_SHARE = 0.1
TRICOMI_SPOT_CHECKS = 64
TRACED_CYCLE = -1
BEFORE_CYCLE = -2
AFTER_CYCLE = -3
CYCLE_NAMES = {None: "all", TRACED_CYCLE: "traced", BEFORE_CYCLE: "replay before",
               AFTER_CYCLE: "replay after"}


@dataclass
class Record:
    cycle: int
    slot: int
    seconds: float
    rc: int
    message: str
    out: str
    bytes: int


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    return parser.parse_args(argv)


def _import_cli():
    src = ROOT / "src"
    if not (src / "hardedge" / "cli.py").is_file():
        raise SystemExit(f"no hardedge sources under {src}")
    sys.path.insert(0, str(src))
    import hardedge.cli

    if Path(hardedge.cli.__file__).resolve().parent != src / "hardedge":
        raise SystemExit(f"hardedge imported from {hardedge.cli.__file__}, not {src}")
    return hardedge.cli


def _invoke(cli, argv: list[str], out: str, cycle: int = 0, slot: int = 0) -> Record:
    """One timed `hardedge.cli.main` call; its printed output is discarded."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            rc = cli.main([*argv, "--out", out])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed invocation, not a failed run
        rc = -1
        sink.write(repr(exc))
    seconds = time.perf_counter() - start
    path = os.path.join(os.environ["HARDEDGE_OUTDIR"], out)
    size = sum(os.path.getsize(name) for name in (path, path + ".manifest")
               if os.path.exists(name))
    lines = sink.getvalue().strip().splitlines()
    return Record(cycle, slot, seconds, rc, lines[-1] if lines else "", path, size)


def _set_up(cli, plan) -> list[Record]:
    if plan.correlation_file is not None:
        from hardedge.montecarlo import exponential_correlation

        np.savetxt(plan.correlation_file,
                   exponential_correlation(workloads.MC_P, workloads.MC_DECAY),
                   delimiter=",", fmt="%.17g")
    return [_invoke(cli, list(argv), f"warmup-{i}.csv", slot=i)
            for i, argv in enumerate(plan.warmups)]


def _repeat_set_up(args: argparse.Namespace, own: float) -> float:
    """Median set-up time of this process and of fresh set-up-only runs,
    each at reference speed."""
    times = [own]
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(command, capture_output=True, text=True, timeout=150,
                              cwd=ROOT)
        if done.returncode != 0:
            raise SystemExit(f"set-up run failed: {done.stderr.strip()}")
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return median(times)


def _timed_pass(cli, plan, seconds: int) -> tuple[list[Record], list[float]]:
    """Whole cycles until `seconds` are spent.

    After every invocation, calibration rounds run for CALIBRATION_SHARE of
    its time (one round at least), so the rounds sample the machine's speed
    weighted by time, as the invocations' total time does.
    """
    records, rounds, cycle = [], [], 0
    start = time.perf_counter()
    while cycle == 0 or time.perf_counter() - start < seconds:
        for slot in plan.slots:
            record = _invoke(cli, slot.argv_for(plan.seed, cycle),
                             f"c{cycle}-s{slot.index}.csv", cycle, slot.index)
            records.append(record)
            spent = 0.0
            while spent == 0.0 or spent < CALIBRATION_SHARE * record.seconds:
                rounds.append(calibration.round_seconds(plan.dense_calibration))
                spent += rounds[-1]
        cycle += 1
    return records, rounds


def _traced_pass(cli, plan) -> tuple[object, list[Record], list[Record]]:
    """Replay cycle 0 once with every layer function wrapped in a span.

    Each traced invocation sits between two untraced replays of the same
    command line, and the overhead compares it with their mean, which
    cancels the machine's drift over the run.
    """
    import tracing

    tracer = tracing.Tracer()
    traced, replays = [], []
    for slot in plan.slots:
        argv = slot.argv_for(plan.seed, 0)
        replays.append(_invoke(cli, argv, f"before-s{slot.index}.csv",
                               BEFORE_CYCLE, slot.index))
        tracer.invocation = f"s{slot.index}"
        tracer.install()
        try:
            traced.append(_invoke(cli, argv, f"trace-s{slot.index}.csv",
                                  TRACED_CYCLE, slot.index))
        finally:
            tracer.remove()
        replays.append(_invoke(cli, argv, f"after-s{slot.index}.csv",
                               AFTER_CYCLE, slot.index))
    return tracer, traced, replays


def _check(plan, records: list[Record], warmups: list[Record]) -> list[checks.Failure]:
    failures = [checks.Failure(-1 - r.slot, None, "warm-up", f"exit {r.rc}: {r.message}")
                for r in warmups if r.rc != 0]
    slots = {slot.index: slot for slot in plan.slots}
    first = {r.slot: r for r in records if r.cycle == 0 and r.rc == 0}
    for r in records:
        slot = slots[r.slot]
        if r.rc != 0:
            failures.append(checks.Failure(r.slot, r.cycle, "exit", f"exit {r.rc}: {r.message}"))
            continue
        problem = checks.check_output(slot, r.out, max(r.cycle, 0))
        if problem:
            failures.append(checks.Failure(r.slot, r.cycle, "output", problem))
        reference = first.get(r.slot)
        compare = slot.repeats or r.cycle < 0
        if compare and reference is not None and reference is not r:
            if Path(r.out).read_bytes() != Path(reference.out).read_bytes():
                failures.append(checks.Failure(r.slot, r.cycle, "determinism",
                                               "output differs from cycle 0"))
    # Identities are checked on cycle 0, which a slot repeats in every cycle
    # only when its command line never changes.
    broken = {f.slot for f in failures if f.cycle == 0 and f.check == "output"}
    sound = {s: r.out for s, r in first.items() if s not in broken}
    rng = np.random.default_rng([plan.seed, 7])
    for f in checks.check_identities(plan.slots, sound, rng):
        failures.append(f if slots[f.slot].repeats else replace(f, cycle=0))
    return failures


def _failed_invocations(records: list[Record], failures) -> set[tuple[int, int]]:
    failed = set()
    for f in failures:
        failed |= {(r.cycle, r.slot) for r in records
                   if r.slot == f.slot and f.cycle in (None, r.cycle)}
    return failed


def _path_rate(plan, records: list[Record], failed, path: str) -> float:
    """Items delivered per second of timed invocations on one path.

    A failed invocation's time counts; its items do not.
    """
    mine = [r for r in records if plan.slots[r.slot].path == path]
    items = sum(plan.slots[r.slot].items for r in mine if (r.cycle, r.slot) not in failed)
    return items / sum(r.seconds for r in mine)


def _tricomi_max_rel_err(samples, rng: np.random.Generator) -> float:
    """Largest relative error of recorded Tricomi U values against mpmath."""
    if not samples:
        return 0.0
    import mpmath

    mpmath.mp.dps = 30
    worst = 0.0
    chosen = rng.choice(len(samples), size=min(TRICOMI_SPOT_CHECKS, len(samples)),
                        replace=False)
    for index in sorted(chosen):
        a, b, z, log_value, sign = samples[index]
        reference = mpmath.hyperu(a, b, z)
        if sign != mpmath.sign(reference):
            return float("inf")
        worst = max(worst, abs(float(mpmath.expm1(log_value - mpmath.log(abs(reference))))))
    return worst


def _per_layer(plan, tracer, traced: list[Record], replays: list[Record],
               failed) -> dict[str, tuple[float, str]]:
    totals = tracer.totals()

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0))[0]

    def self_s(name: str) -> float:
        return totals.get(name, (0, 0.0))[1]

    slots = {slot.index: slot for slot in plan.slots}
    points = sum(slots[r.slot].items for r in traced
                 if slots[r.slot].kind != "mc" and (r.cycle, r.slot) not in failed)
    rng = np.random.default_rng([plan.seed, 11])
    metrics = {}
    for name in ("specfun.tricomi_u", "kernels.kernel_matrix", "kernels.border_column",
                 "pfaffian.pfaffian", "distributions.gap_finite",
                 "distributions.smallest_finite", "distributions.tabulate",
                 "microscopic.gap_micro", "microscopic.smallest_micro",
                 "montecarlo.svd", "cli.main"):
        metrics[f"{name}.calls"] = (calls(name), "count")
        metrics[f"{name}.self_s"] = (self_s(name), "s")
    tricomi_calls = calls("specfun.tricomi_u")
    metrics["specfun.tricomi_u.calls_per_point"] = (
        tricomi_calls / points if points else 0.0, "calls/point")
    metrics["specfun.tricomi_u.max_rel_err"] = (
        _tricomi_max_rel_err(tracer.tricomi_args, rng), "ratio")
    metrics["pfaffian.pfaffian.dim_max"] = (tracer.pfaffian_dim_max, "count")
    metrics["montecarlo.sample_batch.calls"] = (
        calls("montecarlo.sample_batch.plain") + calls("montecarlo.sample_batch.correlated"),
        "count")
    for name in ("montecarlo.sample_batch.plain", "montecarlo.sample_batch.correlated",
                 "montecarlo.ks_distance", "montecarlo.load_correlation"):
        metrics[f"{name}.self_s"] = (self_s(name), "s")
    metrics["cli.output_bytes"] = (sum(r.bytes for r in traced), "bytes")
    metrics["trace.overhead_frac"] = (
        2.0 * sum(r.seconds for r in traced) / sum(r.seconds for r in replays) - 1.0,
        "fraction")
    return metrics


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def _environment(args: argparse.Namespace) -> dict[str, object]:
    import mpmath
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hardedge").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {name: os.environ[name] for name in THREAD_VARIABLES},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def _failure_table(plan, failures) -> list[str]:
    slots = {slot.index: slot for slot in plan.slots}
    lines = ["failure table: workload | command | k | p | check | cycle | detail"]
    for f in failures:
        slot = slots.get(f.slot)
        if slot is None:
            command, k, p = " ".join(plan.warmups[-1 - f.slot]), "-", "-"
        else:
            command = " ".join(slot.argv_for(plan.seed, max(f.cycle or 0, 0)))
            k, p = slot.k, slot.p if slot.p is not None else ",".join(map(str, slot.sizes))
        cycle = CYCLE_NAMES.get(f.cycle, f.cycle)
        lines.append(f"  {plan.workload} | {command} | {k} | {p} | {f.check} | {cycle} | "
                     f"{f.detail}")
    if not failures:
        lines.append(f"  {plan.workload} | no failing case")
    return lines


def _run(args: argparse.Namespace, work: str) -> int:
    os.environ["HARDEDGE_OUTDIR"] = work
    cli = _import_cli()
    plan = workloads.build_plan(args.workload, args.seed,
                                os.path.join(work, "correlation.csv"))
    warmups = _set_up(cli, plan)
    own_setup = time.perf_counter() - _T0
    own_setup /= calibration.slowdown([calibration.round_seconds(plan.dense_calibration)
                                       for _ in range(SETUP_ROUNDS)])
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    if args.trace == 0:
        setup_s = _repeat_set_up(args, own_setup)
    records, rounds = _timed_pass(cli, plan, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced, replays = [], []
    if args.trace:
        tracer, traced, replays = _traced_pass(cli, plan)
    checked = records + traced + replays

    failures = _check(plan, checked, warmups)
    failed = _failed_invocations(checked, failures)
    slowdown = calibration.slowdown(rounds)
    raw_rates = {path: _path_rate(plan, records, failed, path) for path in ("base", "variant")}
    if args.trace:
        metrics = _per_layer(plan, tracer, traced, replays, failed)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "base_items_per_s": (raw_rates["base"] * slowdown, "1/s"),
            "variant_items_per_s": (raw_rates["variant"] * slowdown, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": not failures,
        "attempted": len(checked),
        "failed": len(failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    table = _failure_table(plan, failures)
    with open(f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({"environment": _environment(args), "result": result,
                   "failure_table": table, "slowdown": slowdown,
                   "raw_items_per_s": raw_rates, "calibration_rounds_s": rounds,
                   "invocations": [{"cycle": r.cycle, "slot": r.slot, "argv":
                                    plan.slots[r.slot].argv_for(args.seed, max(r.cycle, 0)),
                                    "seconds": r.seconds, "exit": r.rc, "bytes": r.bytes}
                                   for r in checked]},
                  handle, indent=1)
    if args.trace:
        tracer.write(f"{stem}-spans.json")
    print("\n".join(table))
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    (ROOT / ".bench").mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench")
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
