"""Pfaffians of real antisymmetric matrices.

The gap probability and smallest-eigenvalue density are assembled as
Pfaffians of small antisymmetric kernel matrices.  Dimensions up to four are
expanded in closed form; larger matrices go through a congruence reduction
with partial pivoting, which is numerically stable and costs O(dim^3).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["AntisymmetricMatrix", "pfaffian", "bordered_pfaffian"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class AntisymmetricMatrix:
    """A dense real antisymmetric matrix of even dimension."""

    data: np.ndarray
    """Full matrix, shape (dim, dim), satisfying data.T == -data."""

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] % 2 != 0:
            raise ValueError(
                f"antisymmetric matrices of odd dimension {arr.shape[0]} "
                "have no Pfaffian")
        object.__setattr__(self, "data", arr)

    @classmethod
    def from_upper(cls, dim: int,
                   entries: Sequence[float]) -> "AntisymmetricMatrix":
        """Build from the strictly-upper triangle in row-major order.

        For dim = 4 the order is (a01, a02, a03, a12, a13, a23).  The lower
        triangle and zero diagonal are filled in automatically, so the caller
        can never hand in an inconsistent matrix.
        """
        if dim % 2 != 0 or dim < 0:
            raise ValueError(f"dimension must be even and >= 0, got {dim}")
        flat = np.asarray(entries, dtype=float)
        expected = dim * (dim - 1) // 2
        if flat.shape != (expected,):
            raise ValueError(f"need {expected} strictly-upper entries for "
                             f"dim {dim}, got {flat.shape}")
        full = np.zeros((dim, dim))
        iu = np.triu_indices(dim, k=1)
        full[iu] = flat
        full -= full.T
        return cls(full)

    @property
    def dim(self) -> int:
        return self.data.shape[0]


def pfaffian(matrix: AntisymmetricMatrix) -> float:
    """Pfaffian of an antisymmetric matrix of even dimension.

    The empty matrix has Pfaffian 1.  Dimensions 2 and 4 use the explicit
    expansions; larger matrices are reduced by congruence transforms
    (partial pivoting on each even column) to a form whose Pfaffian is the
    running product of eliminated superdiagonal entries.  Congruence with a
    unit-determinant Gauss transform leaves the Pfaffian unchanged, and each
    transposition flips its sign.
    """
    a = matrix.data
    n = matrix.dim
    if n == 0:
        return 1.0
    if n == 2:
        return float(a[0, 1])
    if n == 4:
        return float(a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3]
                     + a[0, 3] * a[1, 2])

    a = a.copy()
    result = 1.0
    for k in range(0, n - 1, 2):
        pivot = k + 1 + int(np.argmax(np.abs(a[k, k + 1:])))
        if pivot != k + 1:
            a[[k + 1, pivot]] = a[[pivot, k + 1]]
            a[:, [k + 1, pivot]] = a[:, [pivot, k + 1]]
            result = -result
        if a[k, k + 1] == 0.0:
            return 0.0
        result *= a[k, k + 1]
        if k + 2 < n:
            tau = a[k, k + 2:] / a[k, k + 1]
            col = a[k + 2:, k + 1]
            a[k + 2:, k + 2:] += np.outer(tau, col) - np.outer(col, tau)
    return float(result)


def bordered_pfaffian(matrix: np.ndarray, border: np.ndarray) -> float:
    """Pfaffian of the antisymmetric k x k `matrix` bordered by the column
    `border`: [[matrix, border], [-border^T, 0]], of dimension k + 1."""
    k = border.shape[0]
    data = np.zeros((k + 1, k + 1))
    data[:k, :k] = matrix
    data[:k, k] = border
    data[k, :k] = -border
    return pfaffian(AntisymmetricMatrix(data=data))
