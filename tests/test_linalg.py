import warnings

import numpy as np
import pytest

from ddefloquet import SingularMatrix, determinant, solve_linear
from ddefloquet.linalg import PIVOT_REL, solve_stack


def cofactor_det(a):
    """Independent oracle: Laplace expansion along the first row."""
    a = np.asarray(a)
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0 + 0.0j
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1) ** j * a[0, j] * cofactor_det(minor)
    return total


def test_identity_solve():
    x = solve_linear(np.eye(2), np.array([1.0, 1.0j]))
    assert np.allclose(x, [1.0, 1.0j])


def test_diagonal_solve():
    x = solve_linear(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
    assert np.allclose(x, [1.0, 1.0])


def test_random_solve_residual(rng):
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    x = solve_linear(a, b)
    assert np.linalg.norm(a @ x - b) < 1e-12 * np.linalg.norm(b)


def test_matrix_rhs_solve(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    x = solve_linear(a, b)
    assert np.max(np.abs(a @ x - b)) < 1e-11


def test_singular_matrix_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrix):
        solve_linear(a, np.array([1.0, 1.0]))


def test_determinant_identity_and_diagonal():
    assert determinant(np.eye(3)) == pytest.approx(1.0)
    assert determinant(np.diag([2.0, 3.0j])) == pytest.approx(6.0j)


def test_determinant_triangular_exact():
    a = np.triu(np.arange(1.0, 17.0).reshape(4, 4))
    assert determinant(a) == a[0, 0] * a[1, 1] * a[2, 2] * a[3, 3]


def test_determinant_cofactor_oracle(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert abs(determinant(a) - cofactor_det(a)) < 1e-12 * abs(cofactor_det(a))


def test_determinant_multiplicative(rng):
    for _ in range(5):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        lhs = determinant(a @ b)
        rhs = determinant(a) * determinant(b)
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def test_determinant_singular_returns_zero():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert determinant(a) == 0


def test_solve_stack_flags_the_singular_members_and_solves_the_rest(rng):
    # member 1 is exactly singular (a zero column), member 2 nearly so
    # (|det| 1e-15 against a Hadamard bound of about 2), member 3 carries a
    # NaN; the others are solved as LAPACK solves them one at a time
    shape = (6, 3, 3)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    b = rng.standard_normal((6, 3, 2)) + 1j * rng.standard_normal((6, 3, 2))
    a[1, :, 0] = 0.0
    a[2] = [[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-15, 0.0], [0.0, 0.0, 1.0]]
    a[3, 0, 2] = np.nan
    assert 1e-15 < PIVOT_REL * 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, singular = solve_stack(a, b)
        singles = [solve_stack(m, r) for m, r in zip(a, b)]
    assert singular.tolist() == [False, True, True, False, False, False]
    assert np.isnan(x[3]).all()
    for i in (0, 4, 5):
        assert np.array_equal(x[i], np.linalg.solve(a[i], b[i]))
    for i, (xi, si) in enumerate(singles):
        assert si == singular[i] and np.array_equal(xi, x[i], equal_nan=True)
