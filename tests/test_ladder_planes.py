"""The insertion pass on component planes, which every d runs with
coefficients read from the coupled diagonals of T(lambda), against the
passes it replaced: the block pass, stacked `@` and one `np.linalg.solve`
per batch on (..., d, d) blocks with a one-lambda-at-a-time fallback when
LAPACK reports a singular member, and the scalar pass of d = 1, one
division by each bracket.  All run through the same `_run_passes`, so the
pass counts, breakdown masks and operators must agree, and against the
scalar pass bit for bit.  The passes form only the relations of coupled
offsets and the product terms of nonzero coefficient planes; against a
reference that forms the whole band and every term, that pruning must be
bit-identical."""

import numpy as np
import pytest

import ddefloquet as df
from ddefloquet import floquet
from ddefloquet.errors import CfBreakdown


def _block_passes(a_zero, a_stack, rhs_stack, m_list, neg_index, n_passes, live):
    """Reference pass: the plane inputs moved back to (..., d, d) blocks."""
    d = a_zero.shape[1]
    ident = np.eye(d, dtype=complex)
    a_zero, a_stack, rhs_stack = (
        np.moveaxis(x, (1, 2), (-2, -1)) for x in (a_zero, a_stack, rhs_stack)
    )

    def shift(excised, m):
        width = excised.shape[1]
        out = np.empty_like(excised)
        if m > 0:
            out[:, : width - m] = excised[:, m:]
            out[:, width - m :] = ident
        else:
            out[:, -m:] = excised[:, :m]
            out[:, :-m] = ident
        return out

    def step(S, rows):
        prod = a_stack[rows] @ S[:, neg_index]
        rs = a_zero[rows] + prod.sum(axis=1)
        brackets = np.empty_like(S)
        for j, m in enumerate(m_list):
            brackets[:, j] = shift(rs - prod[:, j], m)
        rhs = -rhs_stack[rows]
        singular = np.zeros(rows.size, dtype=bool)
        try:
            new = np.linalg.solve(brackets.reshape(-1, d, d), rhs.reshape(-1, d, d))
        except np.linalg.LinAlgError:
            new = np.full(rhs.shape, np.nan, dtype=complex)
            for i in range(rows.size):
                try:
                    new[i] = np.linalg.solve(brackets[i], rhs[i])
                except np.linalg.LinAlgError:
                    singular[i] = True
        return new.reshape(S.shape), singular

    S = np.zeros(rhs_stack.shape, dtype=complex)
    S, run, cause = floquet._run_passes(S, step, n_passes, live)
    return np.moveaxis(S, (-2, -1), (1, 2)), run, cause


def _scalar_passes(a_zero, a_stack, rhs_stack, m_list, neg_index, n_passes, live):
    """Reference pass of d = 1 in scalar arithmetic: the excised brackets
    shifted to their target level (1 where it leaves the window), one
    division by each, singular where a bracket is exactly zero."""
    a_zero, a_stack, rhs_stack = (x[:, 0, 0] for x in (a_zero, a_stack, rhs_stack))

    def shift(excised, m):
        width = excised.shape[-1]
        out = np.ones_like(excised)
        if m > 0:
            out[:, : width - m] = excised[:, m:]
        else:
            out[:, -m:] = excised[:, :m]
        return out

    def step(S, rows):
        prod = a_stack[rows] * S[:, neg_index]
        rs = a_zero[rows] + prod.sum(axis=1)
        brackets = np.empty_like(S)
        for j, m in enumerate(m_list):
            brackets[:, j] = shift(rs - prod[:, j], m)
        singular = (brackets == 0).any(axis=(1, 2))
        return -rhs_stack[rows] / brackets, singular

    S = np.zeros(rhs_stack.shape, dtype=complex)
    S, run, cause = floquet._run_passes(S, step, n_passes, live)
    return S[:, None, None], run, cause


def _on_blocks(f, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(floquet, "_matrix_passes", _block_passes)
        return f(*args)


def _assert_ladders_match(density, lams, n_win, depth, tie=None):
    """Operators and det M to 1e-12 relative, equal NaN masks, and equal
    pass counts except where `tie` marks lambda values whose last update
    lands within roundoff of EARLY_EXIT; those may run one pass more or
    less."""
    planes = floquet.ladder_operators(density, lams, n_win, depth)
    blocks = _on_blocks(floquet.ladder_operators, density, lams, n_win, depth)
    tie = np.zeros(len(lams), dtype=bool) if tie is None else tie
    assert np.array_equal(planes.passes[~tie], blocks.passes[~tie])
    assert np.all(np.abs(planes.passes[tie] - blocks.passes[tie]) <= 1)
    assert planes.ops.keys() == blocks.ops.keys()
    ours = np.stack([planes.ops[m] for m in sorted(planes.ops)], axis=1)
    ref = np.stack([blocks.ops[m] for m in sorted(blocks.ops)], axis=1)
    assert ours.shape == ref.shape
    assert ours.flags.c_contiguous
    assert np.array_equal(np.isnan(ours), np.isnan(ref))
    ok = ~np.isnan(ref).reshape(len(lams), -1).any(axis=1)
    scale = np.abs(ref[ok]).reshape(ok.sum(), -1).max(axis=1)
    err = np.abs(ours[ok] - ref[ok]).reshape(ok.sum(), -1).max(axis=1)
    assert np.all(err <= 1e-12 * np.maximum(scale, 1e-300))

    det = floquet.closure_determinant(density, lams, n_win, depth)
    det_ref = _on_blocks(floquet.closure_determinant, density, lams, n_win, depth)
    assert np.array_equal(np.isnan(det), np.isnan(det_ref))
    fine = ~np.isnan(det_ref)
    assert np.all(
        np.abs(det[fine] - det_ref[fine]) <= 1e-12 * np.abs(det_ref[fine])
    )
    return planes


def _grid(re, im, shape):
    r = np.linspace(re[0], re[1], shape[0])
    i = np.linspace(im[0], im[1], shape[1])
    return (r[:, None] + 1j * i[None, :]).ravel()


def _undelayed_density(l0, l1):
    """K = 1 kernel with its only point mass at theta = 0; the brackets of
    the first pass are then exactly l0 - (lambda + i p) I."""
    coeffs = np.zeros((1, 3) + np.shape(l0), dtype=complex)
    coeffs[0, 1] = l0
    coeffs[0, 0] = coeffs[0, 2] = l1
    return df.FourierMatrixDensity(1.0, np.array([0.0]), coeffs)


def _wide_band_scalar():
    """The d = 1, K = 3 wide-band kernel of tests/test_batch.py."""
    coeffs = np.zeros((2, 7, 1, 1), dtype=complex)
    coeffs[0, 3] = -0.5
    coeffs[1, 3] = -0.3
    coeffs[1, 2] = coeffs[1, 4] = 0.05
    coeffs[1, 0] = coeffs[1, 6] = 0.01
    return df.FourierMatrixDensity(1.0, np.array([-1.0, 0.0]), coeffs)


def _wide_band_pair():
    """The K = 3 wide-band weights of tests/test_batch.py on the diagonal of
    a d = 2 kernel, the two components coupled off the diagonal."""
    coeffs = np.zeros((2, 7, 2, 2), dtype=complex)
    coeffs[0, 3] = [[-0.5, 0.2], [0.1, -0.4]]
    coeffs[1, 3] = [[-0.3, 0.05], [-0.1, -0.2]]
    coeffs[1, 2] = coeffs[1, 4] = [[0.05, 0.02], [0.0, 0.04]]
    coeffs[1, 0] = coeffs[1, 6] = [[0.01, 0.0], [0.01, 0.02]]
    return df.FourierMatrixDensity(1.0, np.array([-1.0, 0.0]), coeffs)


def test_s2_scan_grid_matches_the_block_pass(vdp_linearization):
    density = vdp_linearization[0]
    # a 10 x 25 grid over the verify box (-0.6, 0.3) x (-1.5, 1.5)
    lams = _grid((-0.6, 0.3), (-1.5, 1.5), (10, 25))
    # the grid holds lambda = 0 and +-i, translates of the zero mode at
    # -0.000624: there the updates shrink by only about 0.45 a pass and the
    # last one lands within roundoff of EARLY_EXIT on either side
    tie = np.abs(lams - np.round(lams.imag) * 1j) < 1e-12
    assert tie.sum() == 3
    _assert_ladders_match(density, lams, 8, 8, tie)


def test_wide_band_pair_matches_the_block_pass():
    lams = _grid((-3.0, 1.0), (-2.5, 2.5), (4, 6))
    ladders = _assert_ladders_match(_wide_band_pair(), lams, 8, 8)
    assert ladders.table.dim == 2 and ladders.table.bandwidth == 3


def test_settling_d3_kernel_matches_the_block_pass():
    rng = np.random.default_rng(7)
    shape = (2, 5, 3, 3)
    coeffs = 0.1 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    coeffs[1, 2] -= 0.5 * np.eye(3)
    density = df.FourierMatrixDensity(1.0, np.array([-1.0, 0.0]), coeffs)
    lams = _grid((0.0, 1.0), (-0.8, 0.8), (4, 5))
    ladders = _assert_ladders_match(density, lams, 6, 6)
    budget = 2 * (6 + 6) + 1 + floquet.EXTRA_PASSES
    assert np.all(ladders.passes < budget)


def test_zero_leading_entry_takes_the_row_swap():
    # at lambda = -0.5 - 2i the first-pass bracket at level 2 is
    # [[0, 0.3], [0.3, 0.2]]: nonsingular, but column 0 has its only
    # nonzero entry in row 1, so elimination must swap the rows
    l0 = np.array([[-0.5, 0.3], [0.3, -0.3]])
    density = _undelayed_density(l0, 0.1 * np.eye(2))
    swap = complex(-0.5, -2.0)
    lams = np.array([0.1 + 0.2j, swap, -1.0 + 0.3j])
    ladders = _assert_ladders_match(density, lams, 4, 4)
    assert np.all(np.isfinite(ladders.ops[1]))


def test_exactly_zero_pivot_is_a_singular_level():
    density = _undelayed_density(np.diag([-0.5, -0.3]), np.diag([0.1, 0.2]))
    bad = complex(-0.5, -2.0)  # bracket entry (0, 0) and its column are zero
    with pytest.raises(CfBreakdown, match="singular inversion level"):
        floquet.ladder_operators(density, bad, 4, 4)
    with pytest.raises(CfBreakdown, match="singular inversion level"):
        _on_blocks(floquet.ladder_operators, density, bad, 4, 4)
    _assert_ladders_match(density, np.array([0.1 + 0.2j, bad, -1.0 + 0.3j]), 4, 4)


def test_scalar_kernels_match_the_block_pass(s3):
    lams = _grid((-3.0, 1.0), (-1.5, 1.5), (6, 7))
    assert _assert_ladders_match(s3, lams, 10, 10).table.dim == 1
    lams = _grid((-3.0, 1.0), (-2.5, 2.5), (4, 6))
    wide = _assert_ladders_match(_wide_band_scalar(), lams, 8, 8)
    assert sorted(wide.ops) == [-3, -1, 1, 3]
    density = _undelayed_density(np.array([[-0.5]]), np.array([[0.1]]))
    bad = complex(-0.5, -2.0)  # the first-pass bracket at level 2 is exactly zero
    _assert_ladders_match(density, np.array([0.1 + 0.2j, bad, -1.0 + 0.3j]), 4, 4)


def _on_scalars(f, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(floquet, "_matrix_passes", _scalar_passes)
        return f(*args)


def _assert_matches_the_scalar_pass(density, lams, n_win, depth):
    """A d = 1 plane pass is the scalar pass bit for bit: operators, pass
    counts, NaN masks and det M."""
    planes = floquet.ladder_operators(density, lams, n_win, depth)
    scalars = _on_scalars(floquet.ladder_operators, density, lams, n_win, depth)
    assert np.array_equal(planes.passes, scalars.passes)
    assert planes.ops.keys() == scalars.ops.keys()
    for m, ref in scalars.ops.items():
        assert np.array_equal(planes.ops[m], ref, equal_nan=True)
    det, det_ref = (
        floquet.determinant(floquet.assemble_M(density, lams, n_win, depth, ladders=x))
        for x in (planes, scalars)
    )
    assert np.array_equal(det, det_ref, equal_nan=True)
    return planes


def test_s3_band_matches_the_scalar_pass_bit_for_bit(s3):
    # the 61 x 91 band over Re (-3, 1), Im (-1.5, 1.5) and one lambda the
    # exponent guard rejects
    lams = np.append(_grid((-3.0, 1.0), (-1.5, 1.5), (61, 91)), -800.0)
    ladders = _assert_matches_the_scalar_pass(s3, lams, 10, 10)
    broken = np.isnan(ladders.ops[1]).reshape(len(lams), -1).any(axis=1)
    assert broken[-1] and not broken[:-1].all()


def test_wide_band_scalar_kernel_matches_the_scalar_pass_bit_for_bit():
    lams = np.append(_grid((-3.0, 1.0), (-2.5, 2.5), (4, 6)), -800.0)
    _assert_matches_the_scalar_pass(_wide_band_scalar(), lams, 8, 8)


def test_zero_bracket_matches_the_scalar_pass_bit_for_bit():
    density = _undelayed_density(np.array([[-0.5]]), np.array([[0.1]]))
    bad = complex(-0.5, -2.0)  # the first-pass bracket at level 2 is exactly zero
    with pytest.raises(CfBreakdown, match="singular inversion level"):
        floquet.ladder_operators(density, bad, 4, 4)
    with pytest.raises(CfBreakdown, match="singular inversion level"):
        _on_scalars(floquet.ladder_operators, density, bad, 4, 4)
    lams = np.array([0.1 + 0.2j, bad, -1.0 + 0.3j])
    ladders = _assert_matches_the_scalar_pass(density, lams, 4, 4)
    assert list(ladders.passes) == [ladders.passes[0], 0, ladders.passes[2]]
    assert list(np.isnan(ladders.ops[1][:, 0, 0, 0])) == [False, True, False]


def _full_plane_passes(a_zero, a_stack, rhs_stack, m_list, neg_index, n_passes, live):
    """Reference pass on component planes that forms every one of the d^3
    terms a[i, k] s[k, j], zero coefficient planes included."""
    d, n_ops, width = a_stack.shape[2:]
    level = np.arange(width) + np.array(m_list)[:, None]
    inside = (level >= 0) & (level < width)
    source = np.where(inside, np.arange(n_ops)[:, None] * width + level, n_ops * width)
    ident = np.eye(d, dtype=complex)[:, :, None, None]
    a_zero, a_stack, rhs = (
        np.moveaxis(x, 0, 2).copy() for x in (a_zero, a_stack, -rhs_stack)
    )

    def step(S, rows):
        a = a_stack[:, :, rows]
        s_neg = np.moveaxis(S, 0, 2)[:, :, :, neg_index]
        prod = a[:, :1] * s_neg[None, 0]
        for k in range(1, d):
            prod += a[:, k : k + 1] * s_neg[None, k]
        excised = (a_zero[:, :, rows] + prod.sum(axis=3))[:, :, :, None] - prod
        fill = np.broadcast_to(ident, (d, d, rows.size, 1))
        padded = np.concatenate([excised.reshape(d, d, rows.size, -1), fill], axis=-1)
        U = np.take(padded, source, axis=-1)
        Y, pivots = floquet.plane_solve(U, rhs[:, :, rows])
        return np.moveaxis(Y, 2, 0), ~pivots.all(axis=(0, 2, 3))

    S = np.zeros(rhs_stack.shape, dtype=complex)
    return floquet._run_passes(S, step, n_passes, live)


def _full_closure(density, lam, n_win, depth, ladders=None):
    """Reference M(lambda), summed over every offset of the band."""
    if ladders is None:
        ladders = floquet.ladder_operators(density, lam, n_win, depth)
    table = ladders.table
    K = table.bandwidth
    lam = np.asarray(lam, dtype=complex)[..., None, None]
    m = table.get(0, 0) - lam * np.eye(table.dim, dtype=complex)
    for k in range(-K, K + 1):
        if k:
            m = m + table.get(k, -k) @ ladders.get(-k, 0)
    return m


def _full_band(f, *args):
    """`f` with every relation m != 0 of the band formed, every plane term
    multiplied out and M(lambda) summed over the whole band."""

    def every_offset(density):
        K = density.bandwidth
        return [m for m in range(-K, K + 1) if m]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(floquet, "_coupled_offsets", every_offset)
        mp.setattr(floquet, "_matrix_passes", _full_plane_passes)
        mp.setattr(floquet, "assemble_M", _full_closure)
        return f(*args)


def _assert_bit_identical(pruned, full):
    """The pruned ladders hold a subset of the full band's offsets, with
    equal arrays; every offset left out is zero in the full band (NaN on
    the rows that broke down)."""
    assert np.array_equal(pruned.passes, full.passes)
    assert set(pruned.ops) <= set(full.ops)
    broken = None
    for m, ref in full.ops.items():
        if m in pruned.ops:
            assert np.array_equal(pruned.ops[m], ref, equal_nan=True)
            broken = np.isnan(ref)
        else:
            assert np.all((ref == 0) | np.isnan(ref))
    for m, ref in full.ops.items():
        if m not in pruned.ops:
            assert np.array_equal(np.isnan(ref), broken)


def _assert_prunes_bit_identically(density, lams, n_win, depth):
    pruned = floquet.ladder_operators(density, lams, n_win, depth)
    full = _full_band(floquet.ladder_operators, density, lams, n_win, depth)
    _assert_bit_identical(pruned, full)
    det = floquet.closure_determinant(density, lams, n_win, depth)
    det_full = _full_band(floquet.closure_determinant, density, lams, n_win, depth)
    assert np.array_equal(det, det_full, equal_nan=True)
    return pruned


def test_s2_prunes_to_the_even_offsets_bit_identically(vdp_linearization):
    density = vdp_linearization[0]
    lams = _grid((-0.6, 0.3), (-1.5, 1.5), (10, 25))
    ladders = _assert_prunes_bit_identically(density, lams, 8, 8)
    assert sorted(ladders.ops) == [-6, -4, -2, 2, 4, 6]
    # the three points of a pinched Newton step at the zero mode
    lam = -0.000624
    h = 1e-6 * (1.0 + abs(lam))
    triple = np.array([lam, lam + h, lam - h], dtype=complex)
    ladders = _assert_prunes_bit_identically(density, triple, 8, 8)
    assert np.all(ladders.passes == 2 * 16 + 1 + floquet.EXTRA_PASSES)


def test_scalar_band_with_only_the_second_harmonic():
    # d = 1, K = 3 with coefficients only at k = 0 and k = +-2
    coeffs = np.zeros((2, 7, 1, 1), dtype=complex)
    coeffs[0, 3] = -0.5
    coeffs[1, 3] = -0.3
    coeffs[0, 1] = coeffs[0, 5] = 0.08
    coeffs[1, 1] = coeffs[1, 5] = 0.05
    density = df.FourierMatrixDensity(1.0, np.array([-1.0, 0.0]), coeffs)
    lams = _grid((-2.0, 0.5), (-1.5, 1.5), (6, 7))
    ladders = _assert_prunes_bit_identically(density, lams, 6, 6)
    assert sorted(ladders.ops) == [-2, 2]


def test_d3_kernel_with_a_zero_block_row():
    rng = np.random.default_rng(11)
    shape = (2, 5, 3, 3)
    coeffs = 0.1 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    coeffs[1, 2] -= 0.5 * np.eye(3)
    # block row 1 of every L_m, m != 0, is zero, and so is column 2 of row 0
    coeffs[:, [0, 1, 3, 4], 1, :] = 0.0
    coeffs[:, [0, 1, 3, 4], 0, 2] = 0.0
    density = df.FourierMatrixDensity(1.0, np.array([-1.0, 0.0]), coeffs)
    lams = _grid((0.0, 1.0), (-0.8, 0.8), (4, 5))
    ladders = _assert_prunes_bit_identically(density, lams, 6, 6)
    assert sorted(ladders.ops) == [-2, -1, 1, 2]


def test_one_sided_offset_keeps_both_relations():
    # L_2 != 0 but L_{-2} = 0: S^{-2} is zero, yet both relations are formed
    coeffs = np.zeros((2, 5, 2, 2), dtype=complex)
    coeffs[0, 2] = [[-0.5, 0.2], [0.1, -0.4]]
    coeffs[1, 2] = [[-0.3, 0.05], [-0.1, -0.2]]
    coeffs[1, 4] = [[0.05, 0.02], [0.0, 0.04]]
    density = df.FourierMatrixDensity(1.0, np.array([-1.0, 0.0]), coeffs)
    lams = _grid((-2.0, 0.5), (-1.5, 1.5), (5, 6))
    ladders = _assert_prunes_bit_identically(density, lams, 6, 6)
    assert sorted(ladders.ops) == [-2, 2]
    assert np.all(ladders.ops[-2][np.isfinite(ladders.ops[-2])] == 0)
