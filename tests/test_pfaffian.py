"""Tests for the antisymmetric-matrix Pfaffian."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from hardedge.pfaffian import AntisymmetricMatrix, pfaffian


def _from_upper(dim: int, entries) -> AntisymmetricMatrix:
    """The matrix with the given strictly-upper triangle in row-major order,
    e.g. (a01, a02, a03, a12, a13, a23) for dim = 4."""
    full = np.zeros((dim, dim))
    full[np.triu_indices(dim, k=1)] = entries
    return AntisymmetricMatrix(full - full.T)


def test_empty_matrix() -> None:
    assert pfaffian(_from_upper(0, [])) == 1.0


def test_dim_two() -> None:
    assert pfaffian(_from_upper(2, [7.5])) == 7.5


def test_dim_four_closed_form() -> None:
    # pf = a01 a23 - a02 a13 + a03 a12 = 6 - 10 + 12 = 8
    mat = _from_upper(4, [1, 2, 3, 4, 5, 6])
    assert pfaffian(mat) == pytest.approx(8.0, rel=1e-14)


def test_odd_dimension_rejected() -> None:
    with pytest.raises(ValueError):
        AntisymmetricMatrix(np.zeros((5, 5)))


def test_non_square_rejected() -> None:
    with pytest.raises(ValueError):
        AntisymmetricMatrix(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        AntisymmetricMatrix(np.zeros(4))


def test_matrix_is_antisymmetric() -> None:
    mat = _from_upper(4, [1, 2, 3, 4, 5, 6])
    assert np.array_equal(mat.data, -mat.data.T)
    assert np.all(np.diag(mat.data) == 0.0)


def test_pfaffian_squared_is_determinant() -> None:
    # 200 random matrices across dims 2..12, entries uniform in [-1, 1];
    # the determinant comes from LAPACK's LU, independent of the reduction
    # used for the Pfaffian.
    rng = np.random.default_rng(20240817)
    for trial in range(200):
        dim = 2 * int(rng.integers(1, 7))
        upper = rng.uniform(-1.0, 1.0, size=dim * (dim - 1) // 2)
        mat = _from_upper(dim, upper)
        pf = pfaffian(mat)
        det = float(np.linalg.det(mat.data))
        assert pf * pf == pytest.approx(det, rel=1e-10), \
            f"trial {trial}, dim {dim}"


def _permutation_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length, cur = 0, start
        while not seen[cur]:
            seen[cur] = True
            cur = perm[cur]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def test_pfaffian_permutation_covariance() -> None:
    # pf(P A P^T) = sign(P) pf(A) for every permutation, dims 4, 6, 8.
    rng = np.random.default_rng(7)
    for dim in (4, 6, 8):
        upper = rng.uniform(-1.0, 1.0, size=dim * (dim - 1) // 2)
        mat = _from_upper(dim, upper)
        base = pfaffian(mat)
        perms = (list(itertools.permutations(range(dim))) if dim == 4
                 else [tuple(rng.permutation(dim)) for _ in range(24)])
        for perm in perms:
            p = np.array(perm)
            permuted = AntisymmetricMatrix(mat.data[np.ix_(p, p)])
            want = _permutation_sign(perm) * base
            assert pfaffian(permuted) == pytest.approx(want, rel=1e-11)


def test_pfaffian_scaling() -> None:
    # pf(c A) = c^(dim/2) pf(A)
    rng = np.random.default_rng(11)
    for dim in (2, 6, 10):
        upper = rng.uniform(-1.0, 1.0, size=dim * (dim - 1) // 2)
        mat = _from_upper(dim, upper)
        base = pfaffian(mat)
        for c in (-2.0, 0.5):
            scaled = AntisymmetricMatrix(c * mat.data)
            assert pfaffian(scaled) == pytest.approx(c ** (dim // 2) * base,
                                                     rel=1e-11)


def test_pfaffian_singular_matrix() -> None:
    # A rank-deficient antisymmetric matrix has Pfaffian 0.
    v = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    w = np.array([6.0, 5.0, 4.0, 3.0, 2.0, 1.0])
    mat = AntisymmetricMatrix(np.outer(v, w) - np.outer(w, v))
    assert pfaffian(mat) == pytest.approx(0.0, abs=1e-12)
