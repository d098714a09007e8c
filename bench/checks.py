"""Output checks for the benchmark's `hardedge` invocations.

Every invocation is checked for its exit code, a well-formed CSV with the
requested grid, the curve invariants of its quantity, a manifest sidecar,
and for analytic slots byte-identical output across cycles.  On top of
that, seeded rows are checked against independent library calls:

- identity: P = -dE/dt by a 5-point stencil of step 1e-3 x (x = t or u)
  on rows with 1e-7 < E < 0.95, to relative IDENTITY_TOL; the same four
  gap values interpolate E at x, which checks the gap row itself;
- sampler: the run's KS distance against the limiting law stays below the
  Kolmogorov critical value at level KS_LEVEL.

All checks run outside the timed pass.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

IDENTITY_TOL = 1e-6
GAP_RANGE = (1e-7, 0.95)
STENCIL_STEP = 1e-3
CURVE_SLACK = 1e-9
# A false alarm turns a correct commit into a failed run, and comparing two
# commits takes a few hundred `mc` invocations, so the level is far below
# the usual 1e-3: a per-invocation false-alarm rate of 1e-6.
KS_LEVEL = 1e-6
KS_CRITICAL = math.sqrt(math.log(2.0 / KS_LEVEL) / 2.0)

MICRO_ROWS = 3


@dataclass(frozen=True)
class Failure:
    slot: int
    cycle: int | None
    """None when the failure concerns the slot's output in every cycle."""
    check: str
    detail: str


def stencil(gap, x: float) -> tuple[float, float]:
    """Minus the derivative of `gap` at x, and gap interpolated at x.

    Both use gap at x - 2h, x - h, x + h, x + 2h with h = STENCIL_STEP * x.
    """
    h = STENCIL_STEP * x
    e2m, e1m, e1p, e2p = (gap(x + m * h) for m in (-2, -1, 1, 2))
    slope = -(e2m - 8.0 * e1m + 8.0 * e1p - e2p) / (12.0 * h)
    centre = (-e2m + 4.0 * e1m + 4.0 * e1p - e2p) / 6.0
    return slope, centre


def relative_error(value: float, reference: float) -> float:
    if reference == 0.0:
        return math.inf if value != 0.0 else 0.0
    return abs(value / reference - 1.0)


def identity_errors(gap, x: float, density: float,
                    gap_value: float | None = None) -> tuple[float, float | None]:
    """Relative errors of a density row and of a gap row (None if not
    given) against the stencil of `gap` at x."""
    slope, centre = stencil(gap, x)
    gap_error = None if gap_value is None else relative_error(gap_value, centre)
    return relative_error(density, slope), gap_error


def ks_bound(samples: int) -> float:
    return KS_CRITICAL / math.sqrt(samples)


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], np.array(rows[1:], dtype=float).reshape(len(rows) - 1, -1)


def _manifest_note(path: str, key: str) -> float | None:
    with open(path + ".manifest", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith(f"note: {key}: "):
                return float(line.split(": ")[2].split()[0])
    return None


def _curve_problems(kind: str, values: np.ndarray) -> str | None:
    if not np.all(np.isfinite(values)):
        return "non-finite value"
    if kind.endswith("gap"):
        if values.min() < -CURVE_SLACK or values.max() > 1.0 + CURVE_SLACK:
            return "gap value outside [0, 1]"
        if np.any(np.diff(values) > CURVE_SLACK):
            return "gap values increase"
    elif values.min() < -CURVE_SLACK:
        return "negative density"
    return None


def check_output(slot, path: str, cycle: int = 0) -> str | None:
    """Structural problems of one invocation's output in `cycle`, or None."""
    if not os.path.exists(path + ".manifest"):
        return "manifest missing"
    try:
        header, table = read_csv(path)
    except (OSError, IndexError, ValueError) as exc:
        return f"unreadable CSV: {exc}"
    if slot.kind == "mc":
        if header != ["sample_index", "smallest_eigenvalue"] or len(table) != slot.samples:
            return f"expected {slot.samples} sample rows, got {len(table)}"
        if not np.array_equal(table[:, 0], np.arange(slot.samples)):
            return "sample indices out of order"
        values = table[:, 1]
        if not np.all(np.isfinite(values)) or values.min() <= 0.0:
            return "sample values must be finite and positive"
        distance = _manifest_note(path, "ks_distance")
        if distance is None:
            return "manifest has no ks_distance"
        if not distance <= ks_bound(slot.samples):
            return f"ks_distance {distance:.4g} above {ks_bound(slot.samples):.4g}"
        return None
    grid = slot.grid_for(cycle)
    columns = 2 + len(slot.sizes) if slot.kind == "converge" else 2
    if table.shape != (len(grid), columns):
        return f"expected {len(grid)} x {columns} table, got {table.shape}"
    if not np.allclose(table[:, 0], grid, rtol=1e-15, atol=0.0):
        return "abscissae differ from the requested grid"
    for column in range(1, columns):
        problem = _curve_problems(slot.kind, table[:, column])
        if problem:
            return f"{header[column]}: {problem}"
    return None


def _identity_pair(gap, gap_slot, density_slot, gap_table, density_table,
                   rng, rows: int, label: str) -> list[Failure]:
    """Identity checks on up to `rows` seeded rows of a gap/density pair."""
    failures, checked = [], 0
    for row in rng.permutation(len(gap_table)):
        x, e_value = gap_table[row]
        if not GAP_RANGE[0] < e_value < GAP_RANGE[1]:
            continue
        p_error, e_error = identity_errors(gap, x, density_table[row, 1], e_value)
        if p_error > IDENTITY_TOL:
            failures.append(Failure(density_slot.index, None, "identity",
                                    f"{label} x={x:.6g}: P off -dE/dx by {p_error:.2e}"))
        if e_error > IDENTITY_TOL:
            failures.append(Failure(gap_slot.index, None, "identity",
                                    f"{label} x={x:.6g}: E off its stencil by {e_error:.2e}"))
        checked += 1
        if checked == rows:
            break
    if checked == 0:
        failures.append(Failure(gap_slot.index, None, "identity",
                                f"{label}: no row with {GAP_RANGE[0]} < E < {GAP_RANGE[1]}"))
    return failures


def _identity_converge(slot, table, rng) -> list[Failure]:
    """One seeded eligible row per converge column: limit and each size."""
    from hardedge.distributions import FiniteSpec, gap_finite
    from hardedge.microscopic import gap_micro

    failures = []
    columns = [(None, 1)] + [(p, 2 + i) for i, p in enumerate(slot.sizes)]
    for p, column in columns:
        if p is None:
            def gap(x, k=slot.k):
                return gap_micro(k, x)
            scale, label = 1.0, f"limit k={slot.k}"
        else:
            def gap(x, k=slot.k, p=p):
                return gap_finite(FiniteSpec(p=p, k=k, t=x))
            scale, label = 4.0 * p, f"p={p} k={slot.k}"
        for row in rng.permutation(len(table)):
            u = table[row, 0]
            x = u / scale if p is not None else u
            slope, centre = stencil(gap, x)
            if not GAP_RANGE[0] < centre < GAP_RANGE[1]:
                continue
            # converge tabulates the density in u, i.e. P(t) / (4p).
            error = relative_error(table[row, column] * scale, slope)
            if error > IDENTITY_TOL:
                failures.append(Failure(slot.index, None, "identity",
                                        f"{label} u={u:.6g}: P off -dE/dx by {error:.2e}"))
            break
        else:
            failures.append(Failure(slot.index, None, "identity",
                                    f"{label}: no row with {GAP_RANGE[0]} < E < {GAP_RANGE[1]}"))
    return failures


def check_identities(slots, outputs: dict[int, str], rng: np.random.Generator) -> list[Failure]:
    """Identity checks on the outputs of one cycle, keyed by slot index."""
    from hardedge.distributions import FiniteSpec, gap_finite
    from hardedge.microscopic import gap_micro

    failures = []
    by_kind = {}
    for slot in slots:
        if slot.index in outputs:
            by_kind[(slot.kind, slot.k, slot.p)] = slot
    for slot in slots:
        if slot.index not in outputs:
            continue
        table = read_csv(outputs[slot.index])[1]
        if slot.kind == "converge":
            failures += _identity_converge(slot, table, rng)
            continue
        if not slot.kind.endswith("smallest"):
            continue
        family = slot.kind.split("-")[0]
        gap_slot = by_kind.get((f"{family}-gap", slot.k, slot.p))
        if gap_slot is None:
            continue
        gap_table = read_csv(outputs[gap_slot.index])[1]
        if family == "finite":
            def gap(x, k=slot.k, p=slot.p):
                return gap_finite(FiniteSpec(p=p, k=k, t=x))
            rows, label = 1, f"p={slot.p} k={slot.k}"
        else:
            def gap(x, k=slot.k):
                return gap_micro(k, x)
            rows, label = MICRO_ROWS, f"limit k={slot.k}"
        failures += _identity_pair(gap, gap_slot, slot, gap_table, table, rng, rows, label)
    return failures
