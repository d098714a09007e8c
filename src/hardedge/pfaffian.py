"""Pfaffians of real antisymmetric matrices.

The gap probability and smallest-eigenvalue density are assembled as
Pfaffians of small antisymmetric kernel matrices, bordered by one column
when the kernel block has odd size.  Dimension four is expanded in closed
form; every other even dimension goes through a congruence reduction with
partial pivoting, which is numerically stable and costs O(dim^3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["AntisymmetricMatrix", "pfaffian"]


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

    @property
    def dim(self) -> int:
        return self.data.shape[0]


def pfaffian(matrix: AntisymmetricMatrix) -> float:
    """Pfaffian of an antisymmetric matrix of even dimension.

    Dimension 4 uses the explicit expansion; every other dimension is
    reduced by congruence transforms (partial pivoting on each even column)
    to a form whose Pfaffian is the running product of eliminated
    superdiagonal entries.  Congruence with a unit-determinant Gauss
    transform leaves the Pfaffian unchanged, and each transposition flips
    its sign.  The empty matrix has Pfaffian 1.
    """
    a = matrix.data
    n = matrix.dim
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
