"""Dense complex LU factorization, solves and determinants over a stack.

All matrices in this package are small (system dimension times a modest
block width), so a dense LU with partial pivoting is used throughout.  The
pivot threshold eps_pivot = 1e-13 * max row norm separates a genuinely
singular elimination step, which signals a continued fraction breakdown,
from ordinary roundoff.  Every routine works on a stack of matrices (one
per value of lambda) and applies the threshold to each matrix on its own:
a singular member is flagged in the returned mask and never aborts the
stack.  `solve_linear` and `determinant` of a single matrix are the
one-member case.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrix

__all__ = ["solve_batch", "solve_linear", "determinant"]

PIVOT_REL = 1e-13


def _as_stack(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError("matrix must be square")
    return a


def _lu(a: np.ndarray):
    """LU factorization with partial pivoting of each matrix of a stack.

    `a` has shape (N, d, d).  Returns (lu, perm, nswaps, ok): `ok[i]` is
    False when a pivot of matrix i fell below eps_pivot = 1e-13 times its
    largest row norm; the factors of such a member are meaningless.
    """
    lu = a.copy()
    count, d = a.shape[0], a.shape[1]
    rows = np.arange(count)
    row_norms = np.abs(a).sum(axis=2).max(axis=1)
    eps_pivot = PIVOT_REL * np.maximum(row_norms, 1e-300)
    perm = np.tile(np.arange(d), (count, 1))
    nswaps = np.zeros(count, dtype=int)
    ok = np.ones(count, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(d):
            p = k + np.argmax(np.abs(lu[:, k:, k]), axis=1)
            ok &= ~(np.abs(lu[rows, p, k]) < eps_pivot)
            top = lu[rows, k].copy()
            lu[rows, k] = lu[rows, p]
            lu[rows, p] = top
            top = perm[rows, k].copy()
            perm[rows, k] = perm[rows, p]
            perm[rows, p] = top
            nswaps += p != k
            lu[:, k + 1 :, k] /= lu[:, k, k, None]
            lu[:, k + 1 :, k + 1 :] -= lu[:, k + 1 :, k, None] * lu[:, k, None, k + 1 :]
    return lu, perm, nswaps, ok


def solve_batch(a, b):
    """Solve a[i] x[i] = b[i] for a stack of complex square matrices.

    `a` has shape (N, d, d) and `b` shape (N, d, r).  Returns (x, ok); the
    solution of a member whose pivot fell below the threshold is NaN and
    its `ok` entry is False.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("matrix stack must have shape (N, d, d)")
    if b.ndim != 3 or b.shape[:2] != a.shape[:2]:
        raise ValueError("right hand side length does not match")
    lu, perm, _, ok = _lu(a)
    x = _substitute(lu, perm, b)
    x[~ok] = np.nan
    return x, ok


def _substitute(lu, perm, b):
    d = lu.shape[1]
    y = b[np.arange(b.shape[0])[:, None], perm]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(1, d):
            y[:, k] -= (lu[:, k, None, :k] @ y[:, :k])[:, 0]
        for k in range(d - 1, -1, -1):
            y[:, k] = (y[:, k] - (lu[:, k, None, k + 1 :] @ y[:, k + 1 :])[:, 0]) / lu[
                :, k, k, None
            ]
    return y


def solve_linear(a, b, return_cond: bool = False):
    """Solve a x = b for complex square a; b may carry extra columns.

    Raises SingularMatrix when a pivot falls below the threshold.  With
    return_cond=True also returns a cheap condition estimate, the ratio of
    the largest to the smallest pivot magnitude.
    """
    a = _as_stack(a)
    if a.ndim != 2:
        raise ValueError("solve_linear takes one matrix; use solve_batch")
    b = np.asarray(b, dtype=complex)
    if b.shape[0] != a.shape[0]:
        raise ValueError("right hand side length does not match")
    cols = b.reshape(1, b.shape[0], -1)
    lu, perm, _, ok = _lu(a[None])
    if not ok[0]:
        raise SingularMatrix(f"pivot below {PIVOT_REL:.0e} of the largest row norm")
    x = _substitute(lu, perm, cols)[0].reshape(b.shape)
    if return_cond:
        diag = np.abs(np.diagonal(lu[0]))
        return x, float(diag.max() / diag.min())
    return x


def determinant(a):
    """LU based determinant of one matrix (a complex) or of a stack (an
    array); exact product of the diagonal for triangular members, 0 for
    singular ones."""
    a = _as_stack(a)
    one = a.ndim == 2
    stack = a[None] if one else a
    if stack.shape[-1] == 1:
        det = stack[:, 0, 0].copy()
    else:
        lu, _, nswaps, ok = _lu(stack)
        with np.errstate(invalid="ignore", over="ignore"):
            det = np.prod(np.diagonal(lu, axis1=1, axis2=2), axis=1)
        det = np.where(nswaps % 2 == 1, -det, det)
        det = np.where(ok, det, 0j)
        lower = np.any(np.tril(stack, -1), axis=(1, 2))
        upper = np.any(np.triu(stack, 1), axis=(1, 2))
        triangular = ~lower | ~upper
        if np.any(triangular):
            exact = np.prod(np.diagonal(stack, axis1=1, axis2=2), axis=1)
            det = np.where(triangular, exact, det)
    return complex(det[0]) if one else det
