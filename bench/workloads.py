"""Seeded invocation plans for the three benchmark workloads.

A plan is one cycle of `hardedge` command lines (slots) that the timed pass
repeats, plus one cheap warm-up command line per kind of slot.  Every slot
belongs to the workload's `base` path or its `variant` path, which the
benchmark reports as separate rates:

- finite_large: base = plain Pfaffian (p=500, k=4); variant = bordered
  Pfaffian (p=1000, k=3).  Each case has a one-point `smallest` and `gap`
  invocation per cycle at a shared t; successive cycles sweep t across the
  bulk u = 4pt in ~[30, 350], starting mid-bulk.
- hard_edge: base = `micro` gap and smallest curves for k = 3, 4 across
  each k's bulk; variant = `converge` for the same k at three sizes below 50.
  It stops at k = 4 because a workload must be one on which no invocation
  fails: from k = 5 on, the curves miss P = -dE/dx by more than the
  checks' 1e-6 (by up to O(1) from k = 6).
- mc_validate: base = `mc` without a correlation; variant = `mc --c-file`
  with an exponential correlation.  Each invocation draws from its own
  sampler seed, derived from the workload seed, the cycle and the slot.

Invocations are kept short so that a run times many of them, which
averages out the machine's drifting speed.  The workload seed jitters the
grid ends and the start of the sweep, which leaves the cost of a point
unchanged, and fixes the sampler seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORKLOADS = ("finite_large", "hard_edge", "mc_validate")

FINITE_CASES = ((500, 4, "base"), (1000, 3, "variant"))
FINITE_BULK = (30.0, 350.0)
# Where the sweep starts, as a share of the bulk: far enough inside that the
# first cycle's row is one the identity check can use (1e-7 < E < 0.95).
FINITE_START = (0.3, 0.6)
GOLDEN = (5 ** 0.5 - 1) / 2

MICRO_BULK = {3: (20.0, 250.0), 4: (40.0, 400.0)}
MICRO_POINTS = 12
CONVERGE_SIZES = (10, 20, 40)
CONVERGE_POINTS = 3

MC_P, MC_NU, MC_SAMPLES = 200, 4, 200
MC_DECAY = 0.5

SEED_PLACEHOLDER = "{seed}"
SWEEP_PLACEHOLDER = "{x}"


@dataclass(frozen=True)
class Slot:
    """One command line of a cycle and what its output must satisfy."""

    index: int
    kind: str
    """Output form: finite-gap, finite-smallest, micro-gap, micro-smallest,
    converge or mc."""

    path: str
    """`base` or `variant`: which rate metric the slot counts towards."""

    argv: tuple[str, ...]
    """Arguments for `hardedge.cli.main`, without `--out`; an `mc` slot
    holds SEED_PLACEHOLDER where its per-cycle sampler seed goes."""

    items: int
    """Values the slot delivers when it succeeds: one per analytic value
    (a `converge` row counts once per column) or one per sampled matrix."""

    k: int
    p: int | None = None
    sizes: tuple[int, ...] = ()
    grid: tuple[float, ...] = ()
    """Abscissae of the output; empty for a sweep slot or an `mc` slot."""

    sweep: tuple[float, float, float] | None = None
    """(low, high, start share) of a slot that evaluates one point per
    cycle, at SWEEP_PLACEHOLDER; the points of successive cycles follow a
    golden-ratio sequence, which covers [low, high) evenly."""

    samples: int = 0

    @property
    def repeats(self) -> bool:
        """Whether every cycle runs the very same command line."""
        return self.sweep is None and SEED_PLACEHOLDER not in self.argv

    def grid_for(self, cycle: int) -> tuple[float, ...]:
        if self.sweep is None:
            return self.grid
        low, high, start = self.sweep
        return (low + (high - low) * ((start + cycle * GOLDEN) % 1.0),)

    def argv_for(self, workload_seed: int, cycle: int) -> list[str]:
        """The slot's command line in one cycle."""
        values = {SEED_PLACEHOLDER: str(sampler_seed(workload_seed, cycle, self.index))}
        if self.sweep is not None:
            values[SWEEP_PLACEHOLDER] = _fmt(self.grid_for(cycle)[0])
        return [values.get(arg, arg) for arg in self.argv]


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    slots: tuple[Slot, ...]
    warmups: tuple[tuple[str, ...], ...]
    correlation_file: str | None = None
    dense_calibration: bool = False
    """Whether the workload's time goes mostly to LAPACK (see calibration.py)."""


def sampler_seed(workload_seed: int, cycle: int, slot: int) -> int:
    """Sampler seed of one `mc` invocation, a pure function of its position."""
    state = np.random.SeedSequence([workload_seed, cycle, slot])
    return int(state.generate_state(1, dtype=np.uint32)[0])


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _jittered(rng: np.random.Generator, bulk: tuple[float, float]) -> tuple[float, float]:
    lo, hi = bulk
    return lo * rng.uniform(0.95, 1.05), hi * rng.uniform(0.95, 1.0)


def _finite_large(rng: np.random.Generator) -> tuple[list[Slot], list[tuple[str, ...]]]:
    slots, warmups = [], []
    for p, k, path in FINITE_CASES:
        u_lo, u_hi = _jittered(rng, FINITE_BULK)
        sweep = (u_lo / (4.0 * p), u_hi / (4.0 * p), rng.uniform(*FINITE_START))
        for quantity in ("smallest", "gap"):
            # A one-point grid needs some t-max above t-min; the bulk top is.
            argv = (quantity, "--p", str(p), "--k", str(k), "--t-min", SWEEP_PLACEHOLDER,
                    "--t-max", _fmt(sweep[1]), "--points", "1")
            slots.append(Slot(len(slots), f"finite-{quantity}", path, argv, 1, k, p=p,
                              sweep=sweep))
            if (p, k) == FINITE_CASES[0][:2]:
                warmups.append(argv[:6] + (_fmt(sweep[0]),) + argv[7:])
    return slots, warmups


def _hard_edge(rng: np.random.Generator) -> tuple[list[Slot], list[tuple[str, ...]]]:
    slots, warmups = [], []
    sizes = ",".join(str(p) for p in CONVERGE_SIZES)
    for k, bulk in MICRO_BULK.items():
        u_lo, u_hi = _jittered(rng, bulk)
        grid = tuple(np.linspace(u_lo, u_hi, MICRO_POINTS))
        for quantity in ("gap", "smallest"):
            argv = ("micro", "--quantity", quantity, "--k", str(k), "--u-min", _fmt(u_lo),
                    "--u-max", _fmt(u_hi), "--points", str(MICRO_POINTS))
            slots.append(Slot(len(slots), f"micro-{quantity}", "base", argv,
                              MICRO_POINTS, k, grid=grid))
            if k == min(MICRO_BULK):
                warmups.append(argv[:-1] + ("1",))
        argv = ("converge", "--k", str(k), "--p", sizes, "--u-min", _fmt(u_lo),
                "--u-max", _fmt(u_hi), "--points", str(CONVERGE_POINTS))
        slots.append(Slot(len(slots), "converge", "variant", argv,
                          CONVERGE_POINTS * (1 + len(CONVERGE_SIZES)), k,
                          sizes=CONVERGE_SIZES,
                          grid=tuple(np.linspace(u_lo, u_hi, CONVERGE_POINTS))))
        if k == min(MICRO_BULK):
            warmups.append(argv[:-1] + ("1",))
    return slots, warmups


def _mc_validate(correlation_file: str) -> tuple[list[Slot], list[tuple[str, ...]]]:
    common = ("mc", "--p", str(MC_P), "--nu", str(MC_NU), "--compare", "micro",
              "--seed", SEED_PLACEHOLDER)
    plain = common + ("--samples", str(MC_SAMPLES))
    correlated = plain + ("--c-file", correlation_file)
    slots = [Slot(0, "mc", "base", plain, MC_SAMPLES, MC_NU // 2, p=MC_P,
                  samples=MC_SAMPLES),
             Slot(1, "mc", "variant", correlated, MC_SAMPLES, MC_NU // 2, p=MC_P,
                  samples=MC_SAMPLES)]
    warm = [tuple("0" if a == SEED_PLACEHOLDER else a for a in argv) for argv in
            (common + ("--samples", "10"),
             common + ("--samples", "10", "--c-file", correlation_file))]
    return slots, warm


def build_plan(workload: str, seed: int, correlation_file: str) -> Plan:
    """The invocation plan of `workload` for one workload seed.

    `correlation_file` is where set-up writes the correlation matrix; only
    `mc_validate` uses it.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "finite_large":
        slots, warmups = _finite_large(rng)
        correlation_file = None
    elif workload == "hard_edge":
        slots, warmups = _hard_edge(rng)
        correlation_file = None
    elif workload == "mc_validate":
        slots, warmups = _mc_validate(correlation_file)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Plan(workload, seed, tuple(slots), tuple(warmups), correlation_file,
                dense_calibration=workload == "mc_validate")
