"""Normalization check of the Wishart sampler.

E tr(W W^T) / (p n) equals the mean diagonal entry of the correlation
matrix.  trace_average estimates it from the very per-sample draws that
``hardedge.montecarlo.sample_batch`` reduces to smallest eigenvalues.
"""

from __future__ import annotations

import math

import numpy as np

from ..montecarlo import SamplerConfig, _Draws

__all__ = ["trace_average"]


def _trace(draws: _Draws, index: int) -> float:
    """tr(W W^T) of sample `index`.

    Bidiagonalization is orthogonal, so on the bidiagonal path this is the
    sum of the squared entries, a chi-square with p n degrees of freedom.
    On the triangular path it is tr(T^T T) = sum_ij d_j R_ij^2.
    """
    if draws.triangular:
        return float(np.sum(draws.triangle(index)[0] ** 2))
    return draws.scale * float(np.sum(draws.squares(index)))


def trace_average(config: SamplerConfig) -> tuple[float, float]:
    """Mean of tr(W W^T)/(p n) over the batch, with its standard error.

    Reads the same per-sample draws as `sample_batch`, bidiagonal entries or
    the factor T with tr(W W^T) = tr(T^T T).  The expectation is the mean
    diagonal entry of the correlation matrix; the batch needs two samples.
    """
    if config.num_samples < 2:
        raise ValueError(f"trace_average needs 2 or more samples, got {config.num_samples}")
    draws = _Draws(config)
    scale = config.p * config.n
    traces = np.array([_trace(draws, i) / scale for i in range(config.num_samples)])
    mean = float(np.mean(traces))
    error = float(np.std(traces, ddof=1) / math.sqrt(config.num_samples))
    return mean, error
