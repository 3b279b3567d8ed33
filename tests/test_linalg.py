import numpy as np
import pytest

from ddefloquet import SingularMatrix, determinant, solve_linear
from ddefloquet.linalg import plane_solve


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


@pytest.mark.parametrize("d", [2, 3])
def test_plane_solve_matches_lapack(d):
    rng = np.random.default_rng(d)
    shape = (5, 3, 7, d, d)
    U = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # block (1, 0, 0): zero leading entry, nonsingular; block (3, 2, 5):
    # its first column is zero, an exactly singular inversion
    U[1, 0, 0, 0, 0] = 0.0
    U[3, 2, 5, :, 0] = 0.0
    planes = [np.moveaxis(x, (-2, -1), (0, 1)).copy() for x in (U, X)]
    Y, pivots = plane_solve(*planes)
    assert Y.shape == planes[1].shape and pivots.shape == (d,) + shape[:3]
    # the pivots are the diagonal of the eliminated U; the singular block
    # has an exactly zero one, after which its elimination is meaningless
    zero = ~pivots.all(axis=0)
    assert list(np.flatnonzero(zero)) == [np.ravel_multi_index((3, 2, 5), shape[:3])]
    det = np.abs(np.prod(pivots, axis=0))[~zero]
    ref_det = np.abs(np.linalg.det(U))[~zero]
    assert np.allclose(det, ref_det, rtol=1e-12, atol=0.0)
    ours = np.moveaxis(Y, (0, 1), (-2, -1))
    ok = np.arange(5) != 3
    ref = np.linalg.solve(U[ok], X[ok])
    assert np.allclose(ours[ok], ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())
