"""Tridiagonal continued fraction route to the same closure problem.

Pairing even and odd Fourier indices stacks the banded recurrence into a
block tridiagonal one,

    Q_{-1,n+1} Phi_{n+1} + Q_{0,n} Phi_n + Q_{1,n-1} Phi_{n-1} = 0,

with Phi_n = (phi_{2n}, phi_{2n+1}).  Ladder operators R^+-_n then obey
one-directional recursions from the truncation boundary inward and close
the system at block zero.  Kernels wider than pentadiagonal are first
grouped into stacks of ceil(K/2) consecutive indices, which restores the
pentadiagonal pattern, and the same pairing is applied to the stacks.
Either way block n holds the unknowns phi_p with 2 w0 n <= p < 2 w0 (n+1),
so every Q block is an index slice of the banded recurrence matrix

    T_{p,q} = L_{p-q,q} - delta_{pq} (lambda + i p) I.

This module computes nothing of its own beyond block bookkeeping: T is
the exponential pencil of `model.hill_matrix`, the one evaluator of
T(lambda) that the contour, the modes and the Hill check use too, and
T_{p+m,q+m}(lambda) = T_{p,q}(lambda + i m) makes every block row of T
block row 0 at a shifted lambda, so every Q block is read off one
pencil on |p| <= 2 w0, which a search builds once.  Like the n-diagonal route
it evaluates one lambda or a 1-D array of lambda values with the same
code; a breakdown of one value marks only that value.  Its search is that
route's class loop (`floquet._search`) on the determinant of this closure
at the same window: the same contour classes, Newton budget, modes read
off the null vectors of T(lambda) and truncation check.

The up and down sweeps of `tridiagonal_closure` are independent, so they
run as one stack, the lambda values of the up sweep followed by those of
the down sweep, and each level is one stacked bracket product and one
`linalg.solve_stack`, the LAPACK solve that flags a bracket singular by
the same rule as the ladder operators of `floquet`; a breakdown reports
the first singular level of the up sweep, else of the down sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CfBreakdown
from .floquet import _search
from .linalg import determinant, solve_stack
from .model import FourierMatrixDensity, _guarded, hill_matrix
from .rootfind import DEFAULT_BOX

__all__ = [
    "TridiagonalBlocks",
    "assemble_blocks",
    "tridiagonal_closure",
    "closure_determinant_risken",
    "find_exponents_risken",
]

def _stack_width(bandwidth: int) -> int:
    return 1 if bandwidth <= 2 else (bandwidth + 1) // 2


@dataclass(frozen=True)
class TridiagonalBlocks:
    """Q blocks of the paired recurrence for one lambda or a 1-D array.

    `diag[i]`, `upper[i]` and `lower[i]` hold Q_{0,n}, Q_{-1,n+1} and
    Q_{1,n} for block index n = i - depth - 1, i.e. the slices T[R_n, R_n],
    T[R_n, R_{n+1}] and T[R_{n+1}, R_n] of the recurrence matrix; for an
    array of lambda they carry a leading lambda axis.  `dim` is the
    kernel's d, so a block is 2 w0 d square.
    """

    lam: complex | np.ndarray
    stack_width: int
    depth: int
    dim: int
    diag: np.ndarray
    upper: np.ndarray
    lower: np.ndarray

    @property
    def block_dim(self) -> int:
        return 2 * self.stack_width * self.dim

    def _at(self, blocks: np.ndarray, n: int) -> np.ndarray:
        i = n + self.depth + 1
        if not 0 <= i < blocks.shape[-3]:
            raise IndexError(f"block {n} outside depth {self.depth}")
        return blocks[..., i, :, :]

    def q_zero(self, n: int) -> np.ndarray:
        return self._at(self.diag, n)

    def q_minus(self, n: int) -> np.ndarray:
        """Q_{-1,n}: coupling of block row n-1 to block column n."""
        return self._at(self.upper, n - 1)

    def q_plus(self, n: int) -> np.ndarray:
        """Q_{1,n}: coupling of block row n+1 to block column n."""
        return self._at(self.lower, n)

    def residual_of(self, phi_blocks, n: int) -> np.ndarray:
        """Q_{-1,n+1} Phi_{n+1} + Q_{0,n} Phi_n + Q_{1,n-1} Phi_{n-1}."""
        return (
            self.q_minus(n + 1) @ phi_blocks[n + 1]
            + self.q_zero(n) @ phi_blocks[n]
            + self.q_plus(n - 1) @ phi_blocks[n - 1]
        )


def assemble_blocks(
    density: FourierMatrixDensity, lam, depth: int
) -> TridiagonalBlocks:
    """Blocks for |block index| <= depth (one more below), read off the
    exponential pencil of `model.hill_matrix`; `lam` is one value or a 1-D
    array of values.

    T_{p+m,q+m}(lambda) = T_{p,q}(lambda + i m), so block row n of T is
    block row 0 at lambda + 2 i w0 n: Q_{0,n} is T[R_0, R_0] there, and
    Q_{-1,n+1} and Q_{1,n} are T[R_-1, R_0] and T[R_0, R_-1] at the next
    shift, one evaluation of T on |p| <= 2 w0 per block row.  A lambda the
    exponent guard rejects raises ExponentOverflow on its own and has NaN
    blocks in an array.
    """
    return _read_blocks(_pencil(density), density, lam, depth)


def _pencil(density: FourierMatrixDensity):
    """lambda -> T(lambda) on |p| <= 2 w0, the `model.hill_matrix` off which
    every block row is read."""
    return hill_matrix(density, 2 * _stack_width(density.bandwidth))


def _read_blocks(pencil, density: FourierMatrixDensity, lam, depth: int):
    """`assemble_blocks` off `pencil`, the `_pencil` of `density`, which a
    search builds once for all its closure evaluations."""
    w0 = _stack_width(density.bandwidth)
    lams, _ = _guarded(lam, -density.delays[0])
    shifts = lams[..., None] + 2j * w0 * np.arange(-depth - 1, depth + 2)
    T = pencil(shifts.ravel())
    T = T.reshape(shifts.shape + T.shape[-2:])
    bd = 2 * w0 * density.dim  # R_-1 is T's first bd indices, R_0 the next
    diag = T[..., :-1, bd : 2 * bd, bd : 2 * bd]
    upper = T[..., 1:, :bd, bd : 2 * bd]
    lower = T[..., 1:, bd : 2 * bd, :bd]
    lam = complex(lam) if lams.ndim == 0 else lams
    return TridiagonalBlocks(lam, w0, depth, density.dim, diag, upper, lower)


def tridiagonal_closure(blocks: TridiagonalBlocks, depth: int | None = None):
    """Closure matrix [Q_{-1,1} R^+_0 + Q_{0,0} + Q_{1,-1} R^-_0].

    Both ladder recursions start from R = 0 at the boundary block and are
    exact single sweeps, inward from level +depth and from level -depth.
    The two sweeps are independent, so they run as one stack: the lambda
    values of the up sweep followed by those of the down sweep, and each
    of the `depth` steps is one bracket far @ R + near and one
    `linalg.solve_stack` for the whole stack, which flags a bracket B
    singular where |det B| <= PIVOT_REL prod_i |row_i(B)|_2, a fraction of
    Hadamard's bound.  For one lambda a breakdown raises CfBreakdown with
    the level of the first singular bracket of the up sweep, or else of
    the down sweep, attached; for an array it leaves NaN in the closure of
    that lambda.
    """
    if depth is None:
        depth = blocks.depth
    if not 1 <= depth <= blocks.depth:
        raise ValueError(f"depth must lie in 1..{blocks.depth}")
    one = np.ndim(blocks.lam) == 0
    diag, upper, lower = (
        b[None] if one else b for b in (blocks.diag, blocks.upper, blocks.lower)
    )
    off = blocks.depth + 1
    count = diag.shape[0]
    # step s solves level L = depth - s of the up sweep, bracket
    # Q_{-1,L+1} R^+ + Q_{0,L} with right side Q_{1,L-1}, and level
    # L = s - depth of the down sweep, bracket Q_{1,L-1} R^- + Q_{0,L} with
    # right side Q_{-1,L+1}; block L sits at index L + off
    up = np.arange(depth, 0, -1) + off
    down = np.arange(-depth, 0) + off

    def levels(up_blocks, down_blocks):
        # (depth, 2 * count, bd, bd): the lambda values of both sweeps
        return np.concatenate([up_blocks, down_blocks]).swapaxes(0, 1)

    far = levels(upper[:, up], lower[:, down - 1])
    near = levels(diag[:, up], diag[:, down])
    rhs = -levels(lower[:, up - 1], upper[:, down])
    sweep_sign = np.repeat([1, -1], count)
    level = np.zeros(2 * count, dtype=int)
    broken = np.zeros(2 * count, dtype=bool)
    r = np.zeros_like(near[0])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for s in range(depth):
            r, singular = solve_stack(far[s] @ r + near[s], rhs[s])
            fresh = singular & ~broken
            level[fresh] = sweep_sign[fresh] * (depth - s)
            broken |= fresh
        r_up, r_down = r[:count], r[count:]
        closure = upper[:, off] @ r_up + diag[:, off] + lower[:, off - 1] @ r_down
    up_broken, down_broken = broken[:count], broken[count:]
    level = np.where(up_broken, level[:count], level[count:])
    broken = up_broken | down_broken
    if one:
        if broken[0]:
            at = int(level[0])
            raise CfBreakdown(f"singular block at level {at}", level=at)
        return closure[0]
    closure[broken] = np.nan
    return closure


def closure_determinant_risken(density: FourierMatrixDensity, lam, depth: int):
    """Determinant of the tridiagonal closure: a complex for one lambda
    (raising CfBreakdown), an array with NaN at breakdowns for a 1-D
    array."""
    return determinant(tridiagonal_closure(assemble_blocks(density, lam, depth)))


def find_exponents_risken(
    density: FourierMatrixDensity,
    box=DEFAULT_BOX,
    depth: int = 10,
    tol: float = 1e-10,
):
    """One Floquet mode per exponent class whose strip value lies in `box`,
    refined on the determinant of the tridiagonal closure.

    The search is `floquet._search`, the class loop of
    `floquet.find_exponents`, at that route's window with n_win = depth:
    the contour runs on the Hill matrix T(lambda) on |n| <= 2 depth, each
    class starts at the translate where its null vector peaks at p = 0,
    inside block zero, where the closure determinant has its zero, the
    modes are cut to |n| <= depth of that T, and every root gets the same
    truncation check at 2 depth + 2.  The closure reads its Q blocks off
    its own pencil on |p| <= 2 w0, not off the search's class blocks, and
    builds that pencil once for the whole search.  Returns FloquetMode
    objects sorted by `rootfind.spectrum_key` of the strip representative.
    """
    pencil = _pencil(density)

    def closure(hill, lams):
        blocks = _read_blocks(pencil, density, lams, depth)
        return determinant(tridiagonal_closure(blocks))

    return _search(density, box, depth, depth, tol, closure)
