"""Small dense linear algebra, all of it handed to LAPACK through numpy.

`solve_stack` is the one stacked solve of the package: both continued
fraction closures, the ladder operators of `floquet` and the sweeps of
`risken`, solve a stack of matrices, one per lambda of a batch, in one
`np.linalg.solve` call.  It flags the singular members by one rule, a
determinant below PIVOT_REL times Hadamard's bound, and solves them
against I instead, since LAPACK would raise for the whole stack on an
exactly singular one.

`determinant` and `solve_linear` hand one matrix, or for `determinant` a
stack of them, to LAPACK.  An exactly singular matrix has determinant 0
and makes `solve_linear` raise SingularMatrix; a NaN or an overflow in a
member of a stack stays in that member, without a warning.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrix

__all__ = ["solve_stack", "solve_linear", "determinant"]

# a matrix whose |det| is below PIVOT_REL times the product of its row
# norms (Hadamard's bound) is singular, not a victim of roundoff
PIVOT_REL = 1e-13


def _as_stack(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError("matrix must be square")
    return a


def solve_stack(a, b):
    """Solve a x = b for every member of a stack of square matrices.

    a has shape (..., n, n) and b (..., n, r).  A member is singular where
    |det a| <= PIVOT_REL prod_i |row_i(a)|_2, a fraction of Hadamard's
    bound; it is solved against I instead, so its x is b and means
    nothing.  A member with an entry that is not finite is not singular
    and its x is NaN; it is solved against I too, since its LU may meet an
    exact zero pivot.  Returns (x, singular), singular a bool array over
    the stack.  Nothing warns.
    """
    finite = np.isfinite(a).all(axis=(-2, -1))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        hadamard = np.log(np.linalg.norm(a, axis=-1)).sum(axis=-1)
        singular = finite & (np.linalg.slogdet(a)[1] <= np.log(PIVOT_REL) + hadamard)
        a = np.where((singular | ~finite)[..., None, None], np.eye(a.shape[-1]), a)
        x = np.linalg.solve(a, b)
    x[~finite] = np.nan
    return x, singular


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
