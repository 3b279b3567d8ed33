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

This module deliberately computes nothing of its own beyond block
bookkeeping: every Q block is gathered from the L table by
`model.recurrence_blocks`, which the n-diagonal ladder passes read their
coefficients with too, so any disagreement with the n-diagonal route
isolates the continued fraction iteration itself.  Like that route it
evaluates one lambda or a 1-D array of lambda values with the same code;
a breakdown of one value marks only that value.  Its search is that
route's class loop (`floquet._search`) on the determinant of this
closure: the same contour classes, Newton budget, modes read off the
null vectors of T(lambda) and truncation check.

The up and down sweeps of `tridiagonal_closure` are independent, so they
run as one batch: their blocks are gathered once as component planes, the
lambda values of the up sweep followed by those of the down sweep, and
each level is one elementwise bracket product and one call of the
package's batched elimination `linalg.plane_solve`.  A bracket is
singular where a pivot falls below PIVOT_REL times its largest row norm,
and a breakdown reports the first singular level of the up sweep, else of
the down sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CfBreakdown
from .floquet import _search
from .linalg import determinant, plane_solve
from .model import (
    FourierMatrixDensity,
    LMatrixTable,
    build_L,
    recurrence_blocks,
)
from .rootfind import DEFAULT_BOX

__all__ = [
    "TridiagonalBlocks",
    "assemble_blocks",
    "tridiagonal_closure",
    "closure_determinant_risken",
    "find_exponents_risken",
]

# a bracket pivot below PIVOT_REL times the bracket's largest row norm is
# a breakdown of the sweep, not roundoff
PIVOT_REL = 1e-13


def _stack_width(bandwidth: int) -> int:
    return 1 if bandwidth <= 2 else (bandwidth + 1) // 2


def _window(density: FourierMatrixDensity, depth: int) -> int:
    return 2 * _stack_width(density.bandwidth) * (depth + 1) + density.bandwidth


@dataclass(frozen=True)
class TridiagonalBlocks:
    """Q blocks of the paired recurrence for one lambda or a 1-D array.

    `diag[i]`, `upper[i]` and `lower[i]` hold Q_{0,n}, Q_{-1,n+1} and
    Q_{1,n} for block index n = i - depth - 1, i.e. the slices T[R_n, R_n],
    T[R_n, R_{n+1}] and T[R_{n+1}, R_n] of the recurrence matrix; for an
    array of lambda they carry a leading lambda axis.
    """

    lam: complex | np.ndarray
    stack_width: int
    depth: int
    table: LMatrixTable
    diag: np.ndarray
    upper: np.ndarray
    lower: np.ndarray

    @property
    def block_dim(self) -> int:
        return 2 * self.stack_width * self.table.dim

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
    """Blocks for |block index| <= depth (one more below), sliced from a
    shared L table; `lam` is one value or a 1-D array of values."""
    w0 = _stack_width(density.bandwidth)
    table = build_L(density, lam, _window(density, depth))
    size = 2 * w0
    starts = size * np.arange(-depth - 1, depth + 1)
    diag = recurrence_blocks(table, starts, starts, size)
    upper = recurrence_blocks(table, starts, starts + size, size)
    lower = recurrence_blocks(table, starts + size, starts, size)
    return TridiagonalBlocks(table.lam, w0, depth, table, diag, upper, lower)


def tridiagonal_closure(blocks: TridiagonalBlocks, depth: int | None = None):
    """Closure matrix [Q_{-1,1} R^+_0 + Q_{0,0} + Q_{1,-1} R^-_0].

    Both ladder recursions start from R = 0 at the boundary block and are
    exact single sweeps, inward from level +depth and from level -depth.
    The two sweeps are independent, so they run as one batch: the far,
    near and right-hand blocks of every level of both sweeps are gathered
    once as component planes over the lambda values of the up sweep
    followed by those of the down sweep, and each of the `depth` steps is
    one bracket far @ R + near, formed entry by entry, and one
    `plane_solve` for the whole batch.  A bracket is singular where a
    pivot falls below PIVOT_REL times its largest row norm.  For one
    lambda a breakdown raises CfBreakdown with the level of the first
    singular bracket of the up sweep, or else of the down sweep, attached;
    for an array it leaves NaN in the closure of that lambda.
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
    bd = blocks.block_dim
    # step s solves level L = depth - s of the up sweep, bracket
    # Q_{-1,L+1} R^+ + Q_{0,L} with right side Q_{1,L-1}, and level
    # L = s - depth of the down sweep, bracket Q_{1,L-1} R^- + Q_{0,L} with
    # right side Q_{-1,L+1}; block L sits at index L + off
    up = np.arange(depth, 0, -1) + off
    down = np.arange(-depth, 0) + off

    def planes(up_blocks, down_blocks):
        # (depth, bd, bd, 2 * count): the lambda axis of both sweeps last
        both = np.concatenate([up_blocks, down_blocks])
        return np.ascontiguousarray(both.transpose(1, 2, 3, 0))

    far = planes(upper[:, up], lower[:, down - 1])
    near = planes(diag[:, up], diag[:, down])
    rhs = -planes(lower[:, up - 1], upper[:, down])
    sweep_sign = np.repeat([1, -1], count)
    level = np.zeros(2 * count, dtype=int)
    broken = np.zeros(2 * count, dtype=bool)
    r = np.zeros((bd, bd, 2 * count), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for s in range(depth):
            bracket = far[s, :, :1] * r[0]
            for k in range(1, bd):
                bracket += far[s, :, k : k + 1] * r[k]
            bracket += near[s]
            r, pivots = plane_solve(bracket, rhs[s])
            row_norm = np.abs(bracket).sum(axis=1).max(axis=0)
            tiny = PIVOT_REL * np.maximum(row_norm, 1e-300)
            fresh = (np.abs(pivots) < tiny).any(axis=0) & ~broken
            level[fresh] = sweep_sign[fresh] * (depth - s)
            broken |= fresh
        r_up = r[..., :count].transpose(2, 0, 1)
        r_down = r[..., count:].transpose(2, 0, 1)
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
    `floquet.find_exponents`, on the Hill matrix T(lambda) of the L table
    window W the blocks are cut from: each class starts at the translate
    where its null vector peaks at p = 0, inside block zero, where the
    closure determinant has its zero.  The modes are cut to |n| <= depth
    of T on |n| <= W (n_win = depth, mode depth W - depth), and every root
    gets the same truncation check at W + 2.  Returns FloquetMode objects
    sorted by `rootfind.spectrum_key` of the strip representative.
    """

    def det_at(lams):
        return closure_determinant_risken(density, lams, depth)

    window = _window(density, depth)
    return _search(density, box, depth, window - depth, tol, det_at)
