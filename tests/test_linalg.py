import numpy as np
import pytest

from ddefloquet import SingularMatrix, determinant, solve_linear


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
