"""Machine-speed calibration for the benchmark's timings.

On a shared two-vCPU virtual machine, the same code runs up to ~1.7x
slower for minutes at a time, because of load outside the machine.  A fixed
round of interpreter and small-array numpy work, the mix that dominates
the analytic `hardedge` hot paths, slows down in step: over 20 s windows
of `gap --p 500` invocations, the spread of their mean time drops from
~17% to ~5% once divided by the rounds' mean time.  The sampler spends
most of its time in LAPACK, which the slow spells hurt less, so its
workload uses a `dense` round made mostly of singular values.

The benchmark interleaves calibration rounds with the invocations and
reports every end-to-end time at reference speed: a time t measured while
the rounds took c seconds on average is reported as t * REFERENCE_ROUND_S
/ c.  Means, not medians: the slow and fast spells mix in both the rounds
and the invocations, and means cancel the mix where medians jump between
the two.  A change to `hardedge` does not touch the rounds, so it shows in
full.
"""

from __future__ import annotations

import math
import time
from statistics import mean

import numpy as np

REFERENCE_ROUND_S = 0.01
"""Duration of one round on the reference machine: rates and set-up times
are reported as if measured there."""

_GRID = np.linspace(-3.0, 3.0, 96)
_MATRIX = np.random.default_rng(0).standard_normal((200, 204))


def round_seconds(dense: bool = False) -> float:
    """Time one fixed calibration round.

    With `dense`, a quarter of the interpreter work is kept and singular
    values of a 200 x 204 matrix take the rest, for workloads whose time
    goes mostly to LAPACK rather than to the interpreter.
    """
    start = time.perf_counter()
    acc = 0.0
    if dense:
        acc += float(np.linalg.svd(_MATRIX, compute_uv=False)[-1])
    for i in range(85 if dense else 340):
        a = 1.0 + 1e-3 * i
        v = a * _GRID - np.exp(_GRID) + np.log1p(np.exp(-np.abs(_GRID)))
        acc += float(np.dot(v, v))
        for j in range(60):
            acc += math.exp(-abs(a - 0.05 * j)) + math.log1p(a * j)
    elapsed = time.perf_counter() - start
    if not math.isfinite(acc):
        raise ArithmeticError("calibration round overflowed")
    return elapsed


def slowdown(rounds: list[float]) -> float:
    """How much slower than the reference machine the rounds ran."""
    return mean(rounds) / REFERENCE_ROUND_S
