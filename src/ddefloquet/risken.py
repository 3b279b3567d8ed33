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
bookkeeping: every matrix entry is read from dde-model's L table, so any
disagreement with the n-diagonal route isolates the continued fraction
iteration itself.  Like that route it evaluates one lambda or a 1-D array
of lambda values with the same code; a breakdown of one value marks only
that value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CfBreakdown
from .linalg import determinant, solve_batch
from .model import FourierMatrixDensity, LMatrixTable, build_L, table_nbytes
from .rootfind import DEFAULT_BOX, DEFAULT_GRID, find_roots, pad_box_im, strip_shift

__all__ = [
    "TridiagonalBlocks",
    "assemble_blocks",
    "tridiagonal_closure",
    "closure_determinant_risken",
    "find_exponents_risken",
]


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


def _slices(entries: np.ndarray, n_win: int, rows0, cols0, size: int) -> np.ndarray:
    """Blocks T[r0 : r0 + size, c0 : c0 + size] without the lambda shift,
    gathered from L table entries of shape (N, 2K+1, 2*n_win+1, d, d)."""
    K = (entries.shape[1] - 1) // 2
    i = np.arange(size)
    p = rows0[:, None, None] + i[None, :, None]
    q = cols0[:, None, None] + i[None, None, :]
    k = p - q
    band = np.abs(k) <= K
    kk = np.where(band, k, 0) + K
    qq = np.where(band, q, 0) + n_win
    out = entries[:, kk, qq]  # (N, blocks, size, size, d, d)
    out[:, ~band] = 0.0
    return out


def _flatten(blocks: np.ndarray) -> np.ndarray:
    """(N, nb, size, size, d, d) -> (N, nb, size*d, size*d)."""
    count, nb, size, _, d, _ = blocks.shape
    return blocks.transpose(0, 1, 2, 4, 3, 5).reshape(count, nb, size * d, size * d)


def assemble_blocks(
    density: FourierMatrixDensity, lam, depth: int
) -> TridiagonalBlocks:
    """Blocks for |block index| <= depth (one more below), sliced from a
    shared L table; `lam` is one value or a 1-D array of values."""
    w0 = _stack_width(density.bandwidth)
    table = build_L(density, lam, _window(density, depth))
    one = np.ndim(table.lam) == 0
    entries = table.entries[None] if one else table.entries
    lams = np.reshape(table.lam, -1)
    size = 2 * w0
    starts = size * np.arange(-depth - 1, depth + 1)
    diag = _slices(entries, table.n_win, starts, starts, size)
    ident = np.eye(table.dim, dtype=complex)
    for r in range(size):
        diag[:, :, r, r] -= (lams[:, None] + 1j * (starts + r))[..., None, None] * ident
    upper = _slices(entries, table.n_win, starts, starts + size, size)
    lower = _slices(entries, table.n_win, starts + size, starts, size)
    blocks = [_flatten(b) for b in (diag, upper, lower)]
    if one:
        blocks = [b[0] for b in blocks]
    return TridiagonalBlocks(table.lam, w0, depth, table, *blocks)


def tridiagonal_closure(blocks: TridiagonalBlocks, depth: int | None = None):
    """Closure matrix [Q_{-1,1} R^+_0 + Q_{0,0} + Q_{1,-1} R^-_0].

    Both ladder recursions start from R = 0 at the boundary block and are
    exact single sweeps, run over every lambda of the blocks at once.  For
    one lambda a breakdown raises CfBreakdown with the block index
    attached; for an array it leaves NaN in the closure of that lambda.
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
    level = np.zeros(count, dtype=int)
    broken = np.zeros(count, dtype=bool)

    def sweep(r, q_far, q_near, q_rhs, at_level):
        r, ok = solve_batch(q_far @ r + q_near, -q_rhs)
        fresh = ~ok & ~broken
        level[fresh] = at_level
        broken[fresh] = True
        return r

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r_up = np.zeros((count, bd, bd), dtype=complex)
        for n in range(depth - 1, -1, -1):
            # bracket Q_{-1,n+2} R^+ + Q_{0,n+1}, right side Q_{1,n}
            i = n + off
            r_up = sweep(r_up, upper[:, i + 1], diag[:, i + 1], lower[:, i], n + 1)
        r_down = np.zeros((count, bd, bd), dtype=complex)
        for n in range(-depth + 1, 1):
            # bracket Q_{1,n-2} R^- + Q_{0,n-1}, right side Q_{-1,n}
            i = n + off
            r_down = sweep(
                r_down, lower[:, i - 2], diag[:, i - 1], upper[:, i - 1], n - 1
            )
        closure = upper[:, off] @ r_up + diag[:, off] + lower[:, off - 1] @ r_down
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
    grid=DEFAULT_GRID,
):
    """Strip representatives of the closure determinant roots in `box`.

    Stacking makes the closure determinant periodic under lambda ->
    lambda + 2i w0, and each exponent class only produces zeros at the
    translates where a dominant Fourier component enters the block zero
    unknown; the scan band is therefore widened by one stack period in the
    imaginary direction (with a proportionally refined grid) and converged
    roots are kept whenever their strip representative falls in `box`.
    Returns (strip root, raw root) pairs sorted by (-Re, Im).
    """

    def det_at(lams):
        return closure_determinant_risken(density, lams, depth)

    # the closure determinant is periodic under lambda -> lambda + 2 i w0,
    # so a band of height 2 w0 plus margin is guaranteed to contain a zero
    # of every class
    w0 = _stack_width(density.bandwidth)
    sb, wide, wide_grid = pad_box_im(box, grid, w0 + 0.5)

    def accept(z):
        return sb.contains(z, slack=1e-6) or sb.contains(
            z - 1j * strip_shift(z), slack=1e-6
        )

    raw = find_roots(
        det_at,
        box=wide,
        grid=wide_grid,
        tol=tol,
        accept=accept,
        point_bytes=table_nbytes(density, _window(density, depth)),
    )
    by_class: dict = {}
    for root, ok in raw:
        if not ok:
            continue
        strip = root - 1j * strip_shift(root)
        key = None
        for existing in by_class:
            if abs(strip - existing) <= 10 * tol:
                key = existing
                break
        if key is None:
            by_class[strip] = root
        elif abs(root.imag) < abs(by_class[key].imag):
            by_class[key] = root
    out = [(root - 1j * strip_shift(root), root) for root in by_class.values()]
    out.sort(key=lambda t: (-t[0].real, t[0].imag))
    return out
