"""Small dense linear algebra: one batched elimination, LAPACK for the rest.

`plane_solve` is the one hand-written elimination of the package, the
batched small-block solve of its one caller, the n-diagonal ladder
passes: it takes its blocks as component planes, entry (i, j) of every
block one array, and returns the pivots instead of a mask, so the caller
keeps its singular rule, a pivot exactly zero, at its call site.  The
tridiagonal sweeps hand their brackets to LAPACK instead.

`determinant` and `solve_linear` hand one matrix, or for `determinant` a
stack of them, to LAPACK through numpy.  An exactly singular matrix has
determinant 0 and makes `solve_linear` raise SingularMatrix; a NaN or an
overflow in a member of a stack stays in that member, without a warning.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrix

__all__ = ["plane_solve", "solve_linear", "determinant"]


def _as_stack(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError("matrix must be square")
    return a


def plane_solve(U, X):
    """Solve U Y = X for a batch of small blocks held as component planes.

    U has shape (d, d, ...) and X shape (d, r, ...): U[i, j] is entry
    (i, j) of every block, one array over the trailing batch axes, so each
    step is one elementwise operation for the whole batch.  Gaussian
    elimination with partial pivoting on the rows of [U | X]: at column k
    each block takes as pivot the first row of largest |U[r, k]|, r >= k,
    the rows being swapped where it says so, and back substitution
    follows.  Returns (Y, pivots), pivots[k] being diagonal entry k of the
    eliminated U, so that |prod(pivots)| = |det U|.  Nothing is flagged
    here: the caller judges the pivots, and the Y of a block it finds
    singular is meaningless.
    """
    d = U.shape[0]
    aug = np.concatenate([U, X], axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(d):
            top = aug[k, k:]
            for r in range(k + 1, d):
                low = aug[r, k:]
                swap = np.abs(low[0]) > np.abs(top[0])
                held = top.copy()
                np.copyto(top, low, where=swap)
                np.copyto(low, held, where=swap)
            for r in range(k + 1, d):
                aug[r, k + 1 :] -= (aug[r, k] / top[0]) * top[1:]
        for k in reversed(range(d)):
            y = aug[k, d:]
            for c in range(k + 1, d):
                y -= aug[k, c] * aug[c, d:]
            y /= aug[k, k]
    diagonal = np.arange(d)
    return aug[:, d:], aug[diagonal, diagonal]


def solve_linear(a, b):
    """Solve a x = b for complex square a; b may carry extra columns.

    Raises SingularMatrix when a is exactly singular.
    """
    a = _as_stack(a)
    if a.ndim != 2:
        raise ValueError("solve_linear takes one matrix")
    b = np.asarray(b, dtype=complex)
    if b.shape[0] != a.shape[0]:
        raise ValueError("right hand side length does not match")
    try:
        x = np.linalg.solve(a, b.reshape(b.shape[0], -1))
    except np.linalg.LinAlgError as err:
        raise SingularMatrix(str(err)) from None
    return x.reshape(b.shape)


def determinant(a):
    """Determinant of one matrix (a complex) or of a stack (an array).

    A 1 x 1 matrix is its own determinant, exactly.
    """
    a = _as_stack(a)
    if a.shape[-1] == 1:
        det = a[..., 0, 0].copy()
    else:
        with np.errstate(invalid="ignore", over="ignore"):
            det = np.linalg.det(a)
    return complex(det) if a.ndim == 2 else det
