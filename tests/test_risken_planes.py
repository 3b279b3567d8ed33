"""The tridiagonal sweeps on component planes, both directions in one batch,
against the per-level sweep they replaced: one stacked `@` and one
`solve_batch` per level, the up sweep run to the end before the down sweep.
That sweep's stacked LU (`_lu`, `solve_batch`, `_substitute`) is kept here
as the reference, with the same PIVOT_REL rule.  With block dimension 2
the arithmetic is the same, so the closures must be bit-equal; wider
blocks sum the substitution in another order."""

import dataclasses

import numpy as np
import pytest

import ddefloquet as df
from ddefloquet import risken
from ddefloquet.errors import CfBreakdown
from ddefloquet.risken import PIVOT_REL

OVERFLOW = -800.0  # Re(lambda) * theta = 800 > 700 at theta = -1


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


def _level_sweeps(blocks, depth=None):
    """Reference closure: the per-level solve_batch sweep."""
    if depth is None:
        depth = blocks.depth
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
            i = n + off
            r_up = sweep(r_up, upper[:, i + 1], diag[:, i + 1], lower[:, i], n + 1)
        r_down = np.zeros((count, bd, bd), dtype=complex)
        for n in range(-depth + 1, 1):
            i = n + off
            r_down = sweep(
                r_down, lower[:, i - 2], diag[:, i - 1], upper[:, i - 1], n - 1
            )
        closure = upper[:, off] @ r_up + diag[:, off] + lower[:, off - 1] @ r_down
    if one:
        if broken[0]:
            raise CfBreakdown("singular block", level=int(level[0]))
        return closure[0]
    closure[broken] = np.nan
    return closure


def _grid(re, im, shape):
    r = np.linspace(re[0], re[1], shape[0])
    i = np.linspace(im[0], im[1], shape[1])
    return (r[:, None] + 1j * i[None, :]).ravel()


def _lams():
    return np.append(_grid((-3.0, 1.0), (-2.5, 2.5), (7, 9)), [OVERFLOW, -0.89 + 1.06j])


def _wide_band_density():
    """The K = 3 scalar kernel of tests/test_batch.py: stack width 2, bd 4."""
    coeffs = np.zeros((2, 7, 1, 1), dtype=complex)
    coeffs[0, 3, 0, 0] = -0.5
    coeffs[1, 3, 0, 0] = -0.3
    coeffs[1, 2, 0, 0] = coeffs[1, 4, 0, 0] = 0.05
    coeffs[1, 0, 0, 0] = coeffs[1, 6, 0, 0] = 0.01
    return df.FourierMatrixDensity(1.0, np.array([-1.0, 0.0]), coeffs)


def _pair_density(K, seed):
    """d = 2 kernel of bandwidth K with coupled components."""
    rng = np.random.default_rng(seed)
    shape = (2, 2 * K + 1, 2, 2)
    coeffs = 0.05 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    coeffs[0, K] += [[-0.5, 0.2], [0.1, -0.4]]
    coeffs[1, K] += [[-0.3, 0.05], [-0.1, -0.2]]
    return df.FourierMatrixDensity(1.0, np.array([-1.0, 0.0]), coeffs)


def _undelayed_blocks(lams, depth):
    """Blocks of the K = 1 kernel with its only point mass at theta = 0,
    whose first brackets of the two sweeps are Q_{0,+-depth}."""
    coeffs = np.zeros((1, 3, 1, 1), dtype=complex)
    coeffs[0, 1] = -0.5
    coeffs[0, 0] = coeffs[0, 2] = 0.1
    dens = df.FourierMatrixDensity(1.0, np.array([0.0]), coeffs)
    return risken.assemble_blocks(dens, lams, depth)


def _with_bare_brackets(blocks, entries):
    """The blocks with the bracket of level n of member i set to a given
    2 x 2 block: Q_{0,n} replaced and the coupling Q_{-1,n+1} (n > 0) or
    Q_{1,n-1} (n < 0) that multiplies the ladder operator in it zeroed."""
    diag, upper, lower = (b.copy() for b in (blocks.diag, blocks.upper, blocks.lower))
    off = blocks.depth + 1
    for (i, n), q in entries.items():
        diag[i, n + off] = q
        if n > 0:
            upper[i, n + off] = 0.0
        else:
            lower[i, n + off - 1] = 0.0
    return dataclasses.replace(blocks, diag=diag, upper=upper, lower=lower)


def _one(blocks, i):
    """Member i of a batch of blocks as a one-lambda object."""
    return dataclasses.replace(
        blocks,
        lam=complex(blocks.lam[i]),
        diag=blocks.diag[i],
        upper=blocks.upper[i],
        lower=blocks.lower[i],
    )


def _level_of(closure, blocks):
    with pytest.raises(CfBreakdown) as info:
        closure(blocks)
    return info.value.level


@pytest.mark.parametrize("depth", [10, 12])
def test_s3_closures_are_bit_equal(s3, depth):
    blocks = risken.assemble_blocks(s3, _lams(), depth)
    assert blocks.block_dim == 2
    ours = risken.tridiagonal_closure(blocks)
    ref = _level_sweeps(blocks)
    assert np.isnan(ref[-2]).all()
    assert np.array_equal(ours, ref, equal_nan=True)
    for shorter in (1, depth // 2):
        assert np.array_equal(
            risken.tridiagonal_closure(blocks, shorter),
            _level_sweeps(blocks, shorter),
            equal_nan=True,
        )


@pytest.mark.parametrize(
    "density, block_dim",
    [(_wide_band_density(), 4), (_pair_density(1, 1), 4), (_pair_density(3, 3), 8)],
    ids=["wide-band", "d2-K1", "d2-K3"],
)
def test_wider_blocks_match_the_level_sweeps(density, block_dim):
    blocks = risken.assemble_blocks(density, _lams(), 10)
    assert blocks.block_dim == block_dim
    ours = risken.tridiagonal_closure(blocks)
    ref = _level_sweeps(blocks)
    nan = np.isnan(ref).reshape(len(ref), -1).any(axis=1)
    assert np.array_equal(np.isnan(ours), np.isnan(ref))
    assert list(np.flatnonzero(nan)) == [len(ref) - 2]
    scale = np.abs(ref[~nan]).reshape((~nan).sum(), -1).max(axis=1)
    err = np.abs(ours[~nan] - ref[~nan]).reshape((~nan).sum(), -1).max(axis=1)
    assert np.all(err <= 1e-12 * scale)


def test_breakdown_in_the_down_sweep_reports_its_negative_level():
    depth = 4
    # Q_{0,depth} = [[u, 0.1], [0.1, u - i]] with u = -0.5 - (lambda + 2 i
    # depth) is singular where u (u - i) = 0.01; the down sweep starts at
    # Q_{0,-depth}, the same block with lambda + 2 i depth in place of
    # lambda - 2 i depth
    u = 0.5j * (1.0 - np.sqrt(0.96))
    bad = complex(-0.5, 2 * depth) - u
    lams = np.array([0.1 + 0.2j, bad, -1.0 + 0.3j])
    blocks = _undelayed_blocks(lams, depth)
    values = risken.tridiagonal_closure(blocks)
    nan = np.isnan(values).reshape(3, -1).any(axis=1)
    assert list(nan) == [False, True, False]
    assert np.array_equal(values, _level_sweeps(blocks), equal_nan=True)
    assert _level_of(risken.tridiagonal_closure, _one(blocks, 1)) == -depth
    assert _level_of(_level_sweeps, _one(blocks, 1)) == -depth


def test_breakdown_in_both_sweeps_reports_the_up_level():
    depth = 4
    lams = np.array([0.1 + 0.2j, -0.3 - 0.1j, -0.6 + 0.4j, -1.0 + 0.3j])
    rank_one = np.array([[1.0, 2.0], [0.5, 1.0]], dtype=complex)
    # members 0 and 1 break at the first down level, before the second and
    # third up levels at which they break too; member 2 breaks at the first
    # level of both sweeps
    blocks = _with_bare_brackets(
        _undelayed_blocks(lams, depth),
        {(0, depth - 1): rank_one, (0, -depth): rank_one,
         (1, depth - 2): rank_one, (1, -depth): rank_one,
         (2, depth): rank_one, (2, -depth): rank_one},
    )
    values = risken.tridiagonal_closure(blocks)
    nan = np.isnan(values).reshape(4, -1).any(axis=1)
    assert list(nan) == [True, True, True, False]
    assert np.array_equal(values, _level_sweeps(blocks), equal_nan=True)
    for i, level in ((0, depth - 1), (1, depth - 2), (2, depth)):
        assert _level_of(risken.tridiagonal_closure, _one(blocks, i)) == level
        assert _level_of(_level_sweeps, _one(blocks, i)) == level


def test_pivot_below_the_relative_threshold_is_singular():
    depth = 4
    blocks = _undelayed_blocks(np.array([0.1 + 0.2j, -0.3 - 0.1j]), depth)
    # the second pivot of [[1, 1], [1, 1 + eps]] is eps, nonzero but below
    # PIVOT_REL times the largest row norm 2 + eps
    eps = 1e-14
    nearly = np.array([[1.0, 1.0], [1.0, 1.0 + eps]], dtype=complex)
    assert 0 < eps < PIVOT_REL * 2.0
    blocks = _with_bare_brackets(blocks, {(0, depth): nearly})
    values = risken.tridiagonal_closure(blocks)
    assert list(np.isnan(values).reshape(2, -1).any(axis=1)) == [True, False]
    assert np.array_equal(values, _level_sweeps(blocks), equal_nan=True)
    assert _level_of(risken.tridiagonal_closure, _one(blocks, 0)) == depth
