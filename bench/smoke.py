"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

1. Runs every workload for one cycle, untraced and traced, and requires the
   result line to carry exactly the metrics and units of BENCHMARK.json.
2. Shows that the checks can fail: exact rows pass, while a density or gap
   row scaled by 1 + 1e-5, a broken curve, or a KS distance above the bound
   is rejected.
3. Reports the identity error of the hard-edge limit at k = 8, where
   P = -dE/du is known not to hold; it prints the figure, it does not gate.

Exits 0 when every requirement holds.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from hardedge.distributions import FiniteSpec, gap_finite, smallest_finite  # noqa: E402
from hardedge.microscopic import gap_micro, smallest_micro  # noqa: E402

PERTURBATION = 1.0 + 1e-5


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, cwd=ROOT)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}: "
                             f"{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = _run(workload["name"], trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1, result
            expected = {m["name"]: m["unit"] for m in spec[key]}
            found = {name: m["unit"] for name, m in result["metrics"].items()}
            assert found == expected, (workload["name"], trace, found)
            assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
            print(f"ok   {workload['name']} trace={trace}: {len(found)} metrics")


def _micro_pair(directory: str, scale_density: float) -> tuple[list, dict]:
    """A k=3 limit gap/density pair of CSVs, the density scaled as asked."""
    grid = tuple(float(u) for u in (60.0, 80.0, 100.0, 120.0))
    slots = [workloads.Slot(0, "micro-gap", "base", (), len(grid), 3, grid=grid),
             workloads.Slot(1, "micro-smallest", "base", (), len(grid), 3, grid=grid)]
    outputs = {}
    for slot, evaluate, scale in ((slots[0], gap_micro, 1.0),
                                  (slots[1], smallest_micro, scale_density)):
        path = f"{directory}/s{slot.index}.csv"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("u,value\n")
            for u in grid:
                handle.write(f"{u:.17g},{evaluate(3, u) * scale:.17g}\n")
        Path(path + ".manifest").write_text("command: micro\n")
        outputs[slot.index] = path
    return slots, outputs


def check_rejections() -> None:
    tol = checks.IDENTITY_TOL
    cases = (("finite p=500 k=4", lambda t: gap_finite(FiniteSpec(p=500, k=4, t=t)),
              lambda t: smallest_finite(FiniteSpec(p=500, k=4, t=t)), 0.1),
             ("limit k=3", lambda u: gap_micro(3, u), lambda u: smallest_micro(3, u), 100.0))
    for label, gap, density, x in cases:
        p_value, e_value = density(x), gap(x)
        p_error, e_error = checks.identity_errors(gap, x, p_value, e_value)
        assert p_error <= tol and e_error <= tol, (label, p_error, e_error)
        p_bad, _ = checks.identity_errors(gap, x, p_value * PERTURBATION)
        _, e_bad = checks.identity_errors(gap, x, p_value, e_value * PERTURBATION)
        assert p_bad > tol and e_bad > tol, (label, p_bad, e_bad)
        print(f"ok   {label}: exact rows pass ({p_error:.1e}, {e_error:.1e}); "
              f"scaled rows fail ({p_bad:.1e}, {e_bad:.1e})")

    with tempfile.TemporaryDirectory(dir=ROOT / ".bench") as directory:
        slots, outputs = _micro_pair(directory, 1.0)
        assert not checks.check_identities(slots, outputs, np.random.default_rng(1))
        assert all(checks.check_output(s, outputs[s.index]) is None for s in slots)
        slots, outputs = _micro_pair(directory, PERTURBATION)
        found = checks.check_identities(slots, outputs, np.random.default_rng(1))
        assert found and all(f.check == "identity" for f in found), found
        print(f"ok   limit k=3 CSV with P x {PERTURBATION}: {len(found)} rows rejected")

        gap_path = outputs[0]
        rows = Path(gap_path).read_text().splitlines()
        rows[2], rows[3] = rows[3], rows[2]
        Path(gap_path).write_text("\n".join(rows) + "\n")
        assert checks.check_output(slots[0], gap_path) is not None
        print("ok   gap CSV out of order: rejected")

        slot = workloads.Slot(0, "mc", "base", (), 4, 2, samples=4)
        mc_path = f"{directory}/mc.csv"
        Path(mc_path).write_text("sample_index,smallest_eigenvalue\n0,1\n1,2\n2,3\n3,4\n")
        for distance, passes in ((0.5 * checks.ks_bound(4), True),
                                 (1.01 * checks.ks_bound(4), False)):
            Path(mc_path + ".manifest").write_text(f"note: ks_distance: {distance:.6f}\n")
            assert (checks.check_output(slot, mc_path) is None) == passes
        print("ok   KS distance above the bound: rejected")


def report_known_defect() -> None:
    u = 500.0
    error, _ = checks.identity_errors(lambda x: gap_micro(8, x), u, smallest_micro(8, u))
    verdict = "fails" if error > checks.IDENTITY_TOL else "passes"
    print(f"note limit k=8 at u={u:g}: P off -dE/du by {error:.2e} "
          f"({verdict} the identity check)")


def main() -> int:
    (ROOT / ".bench").mkdir(exist_ok=True)
    check_rejections()
    report_known_defect()
    check_metric_names()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
