"""Batched closure evaluations against one-lambda evaluations, per-lambda
masking of breakdowns, and the array form of the scan's seed picking."""

import warnings

import numpy as np
import pytest

import ddefloquet as df
from ddefloquet import floquet, rootfind
from ddefloquet.errors import CfBreakdown, ExponentOverflow
from ddefloquet.floquet import closure_determinant, ladder_operators
from ddefloquet.linalg import determinant
from ddefloquet.risken import closure_determinant_risken, tridiagonal_closure
from ddefloquet.rootfind import _minima_seeds, _newton

OVERFLOW = -800.0  # Re(lambda) * theta = 800 > 700 at theta = -1


def _grid(re, im, shape):
    r = np.linspace(re[0], re[1], shape[0])
    i = np.linspace(im[0], im[1], shape[1])
    return (r[:, None] + 1j * i[None, :]).ravel()


def _one_by_one(f, lams):
    out = []
    for lam in lams:
        try:
            out.append(complex(f(complex(lam))))
        except (CfBreakdown, ExponentOverflow):
            out.append(complex(np.nan, np.nan))
    return np.array(out)


def _assert_matches(batched, single):
    assert batched.shape == single.shape
    assert np.array_equal(np.isnan(batched), np.isnan(single))
    ok = ~np.isnan(single)
    scale = np.maximum(np.abs(single[ok]), 1e-300)
    assert np.max(np.abs(batched[ok] - single[ok]) / scale) <= 1e-12


def _wide_band_density():
    coeffs = np.zeros((2, 7, 1, 1), dtype=complex)
    coeffs[0, 3, 0, 0] = -0.5
    coeffs[1, 3, 0, 0] = -0.3
    coeffs[1, 2, 0, 0] = coeffs[1, 4, 0, 0] = 0.05
    coeffs[1, 0, 0, 0] = coeffs[1, 6, 0, 0] = 0.01
    return df.FourierMatrixDensity(1.0, np.array([-1.0, 0.0]), coeffs)


def _undelayed_density(diag0, diag1):
    """K = 1 kernel with its only point mass at theta = 0 and diagonal
    weights; the inversion brackets of the first pass are then exactly
    diag0 - (lambda + i p) on the diagonal."""
    d = len(diag0)
    coeffs = np.zeros((1, 3, d, d), dtype=complex)
    coeffs[0, 1] = np.diag(diag0)
    coeffs[0, 0] = coeffs[0, 2] = np.diag(diag1)
    return df.FourierMatrixDensity(1.0, np.array([0.0]), coeffs)


def test_s3_cf_batch_matches_one_lambda(s3):
    lams = np.append(_grid((-3.0, 1.0), (-1.5, 1.5), (6, 7)), [OVERFLOW, -0.89 + 1.06j])
    batched = closure_determinant(s3, lams, 10, 10)
    _assert_matches(
        batched, _one_by_one(lambda z: closure_determinant(s3, z, 10, 10), lams)
    )


def test_s3_risken_batch_matches_one_lambda(s3):
    lams = np.append(_grid((-3.0, 1.0), (-2.0, 2.0), (5, 7)), [OVERFLOW, -0.89 + 1.06j])
    batched = closure_determinant_risken(s3, lams, 12)
    _assert_matches(
        batched, _one_by_one(lambda z: closure_determinant_risken(s3, z, 12), lams)
    )


def test_wide_band_batch_matches_one_lambda():
    dens = _wide_band_density()
    lams = np.append(_grid((-3.0, 1.0), (-2.5, 2.5), (4, 6)), OVERFLOW)
    blocks = df.assemble_blocks(dens, lams, 6)
    assert blocks.stack_width == 2 and blocks.block_dim == 4
    _assert_matches(
        closure_determinant_risken(dens, lams, 6),
        _one_by_one(lambda z: closure_determinant_risken(dens, z, 6), lams),
    )
    _assert_matches(
        closure_determinant(dens, lams, 8, 8),
        _one_by_one(lambda z: closure_determinant(dens, z, 8, 8), lams),
    )


def test_s2_matrix_batch_matches_one_lambda(vdp_linearization):
    density = vdp_linearization[0]
    lams = np.append(_grid((-0.6, 0.3), (-1.5, 1.5), (3, 4)), OVERFLOW)
    _assert_matches(
        closure_determinant(density, lams, 8, 8),
        _one_by_one(lambda z: closure_determinant(density, z, 8, 8), lams),
    )


def test_characteristic_roots_do_not_depend_on_the_chunk(monkeypatch):
    box = (-3, 1, -2, 2)
    batched = df.characteristic_roots(0.0, -np.pi / 2, 1.0, 1.0, box=box, tol=1e-12)
    # one grid point per call of f: the one-lambda evaluation of the scan
    monkeypatch.setattr(rootfind, "CHUNK_BYTES", 1)
    single = df.characteristic_roots(0.0, -np.pi / 2, 1.0, 1.0, box=box, tol=1e-12)
    assert len(batched) == len(single) >= 2
    for a, b in zip(batched, single):
        assert abs(a - b) <= 1e-12 * abs(b)


def test_contour_raises_where_its_box_reaches_the_exponent_guard(s3):
    with pytest.raises(ExponentOverflow):
        rootfind.contour_classes(s3, (-800.0, 1.0, -0.5, 0.5), 4)


def test_contour_classes_do_not_depend_on_the_chunk(s3, monkeypatch):
    batched = rootfind.contour_classes(s3, (-3.0, 1.0, -0.5, 0.5), 20)
    # one contour node per call of the Hill matrix
    monkeypatch.setattr(rootfind, "CHUNK_BYTES", 1)
    single = rootfind.contour_classes(s3, (-3.0, 1.0, -0.5, 0.5), 20)
    assert len(batched) == len(single) >= 2
    for a, b in zip(batched, single):
        assert abs(a - b) <= 1e-12


def test_build_L_marks_only_the_overflowing_lambda(s3):
    lams = np.array([0.1 + 0.2j, OVERFLOW, -1.0 - 0.5j])
    table = df.build_L(s3, lams, 4)
    bad = ~np.isfinite(table.entries).reshape(3, -1).all(axis=1)
    assert list(bad) == [False, True, False]
    for i in (0, 2):
        assert np.array_equal(table.entries[i], df.build_L(s3, lams[i], 4).entries)
    with pytest.raises(ExponentOverflow):
        df.build_L(s3, OVERFLOW, 4)


def test_overflow_masks_one_lambda_on_every_route(s3):
    lams = np.array([-0.5 + 0.3j, OVERFLOW, 0.2 - 0.1j])
    for values in (
        closure_determinant(s3, lams, 6, 6),
        closure_determinant_risken(s3, lams, 6),
    ):
        assert list(np.isnan(values)) == [False, True, False]
    with pytest.raises(ExponentOverflow):
        closure_determinant(s3, OVERFLOW, 6, 6)


def test_risken_singular_block_masks_one_lambda():
    dens = _undelayed_density([-0.5], [0.1])
    depth = 4
    # the first bracket is Q_{0,depth} = [[u, 0.1], [0.1, u - i]] with
    # u = -0.5 - (lambda + 2 i depth); u (u - i) = 0.01 makes it singular,
    # up to the rounding of lambda, far below the pivot threshold
    u = 0.5j * (1.0 - np.sqrt(0.96))
    bad = complex(-0.5, -2 * depth) - u
    lams = np.array([0.1 + 0.2j, bad, -1.0 + 0.3j])
    values = closure_determinant_risken(dens, lams, depth)
    assert list(np.isnan(values)) == [False, True, False]
    for i in (0, 2):
        assert values[i] == closure_determinant_risken(dens, lams[i], depth)
    with pytest.raises(CfBreakdown) as info:
        tridiagonal_closure(df.assemble_blocks(dens, bad, depth))
    assert info.value.level == depth


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cf_singular_inversion_masks_one_lambda(dim):
    dens = _undelayed_density([-0.5, -0.3, -0.7][:dim], [0.1, 0.2, 0.15][:dim])
    bad = complex(-0.5, -2.0)  # bracket L_{0,2} - (lambda + 2i) is exactly zero
    lams = np.array([0.1 + 0.2j, bad, -1.0 + 0.3j])
    values = closure_determinant(dens, lams, 4, 4)
    assert list(np.isnan(values)) == [False, True, False]
    for i in (0, 2):
        assert values[i] == closure_determinant(dens, lams[i], 4, 4)
    with pytest.raises(CfBreakdown, match="singular inversion level"):
        ladder_operators(dens, bad, 4, 4)


def test_determinant_of_a_stack_is_the_determinant_of_each_member(rng):
    a = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    a[1, :, 2] = 0.0  # exactly singular
    a[2, 0, 1] = np.nan
    a[3] *= 1e200  # its determinant overflows
    a[4] = np.triu(a[4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dets = determinant(a)
        singles = [determinant(m) for m in a]
    assert np.array_equal(dets, np.array(singles), equal_nan=True)
    assert dets[1] == 0
    assert np.isnan(dets[2])
    assert not np.isfinite(dets[3])
    assert abs(dets[4] - np.prod(np.diagonal(a[4]))) < 1e-12 * abs(dets[4])
    assert abs(dets[0] - np.linalg.det(a[0])) < 1e-12 * abs(dets[0])
    scalars = rng.standard_normal((4, 1, 1)) + 1j * rng.standard_normal((4, 1, 1))
    assert np.array_equal(determinant(scalars), scalars[:, 0, 0])
    assert determinant(scalars[0]) == scalars[0, 0, 0]


def test_solve_linear_is_lapack_with_the_package_errors(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    for shape in ((4,), (4, 2)):
        b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert np.array_equal(df.solve_linear(a, b), np.linalg.solve(a, b))
    with pytest.raises(df.SingularMatrix):
        df.solve_linear(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2))
    with pytest.raises(ValueError):
        df.solve_linear(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        df.solve_linear(a, np.ones(3))


def test_newton_reports_unevaluable_points():
    root, ok = _newton(lambda z: np.full(z.shape, np.nan + 0j), 0.5 + 0.1j, 1e-10)
    assert (root, ok) == (0.5 + 0.1j, False)
    root, ok = _newton(lambda z: z * z - 2.0, 1.0 + 0.1j, 1e-12)
    assert ok and abs(root - np.sqrt(2.0)) < 1e-12


def test_passes_record_what_ran(s3, monkeypatch):
    lam = -0.4 + 0.15j
    lad = ladder_operators(s3, lam, 10, 10)
    budget = 2 * lad.bound + 1 + floquet.EXTRA_PASSES
    assert 1 <= lad.passes <= budget // 4
    batch = ladder_operators(s3, np.array([lam, 0.3 - 0.2j]), 10, 10)
    assert batch.passes[0] == lad.passes
    assert batch.passes[1] == ladder_operators(s3, 0.3 - 0.2j, 10, 10).passes
    # a budget of exactly the passes that ran reproduces the operators
    monkeypatch.setattr(floquet, "EXTRA_PASSES", lad.passes - (2 * lad.bound + 1))
    again = ladder_operators(s3, lam, 10, 10)
    assert again.passes == lad.passes
    for m in lad.ops:
        assert np.array_equal(again.ops[m], lad.ops[m])


def _minima_seeds_reference(logabs):
    """The scan's seed picking as a double loop over cells."""
    nr, ni = logabs.shape
    seeds = []
    for i in range(nr):
        for j in range(ni):
            v = logabs[i, j]
            if not np.isfinite(v):
                continue
            best = True
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    if di == 0 and dj == 0:
                        continue
                    a, b = i + di, j + dj
                    if 0 <= a < nr and 0 <= b < ni:
                        w = logabs[a, b]
                        if np.isfinite(w) and w < v:
                            best = False
                            break
                if not best:
                    break
            if best:
                seeds.append((i, j))
    return seeds


@pytest.mark.parametrize("seed", range(8))
def test_minima_seeds_match_the_double_loop(seed):
    rng = np.random.default_rng(seed)
    shape = tuple(rng.integers(1, 12, size=2))
    # few distinct levels make plateaus and ties between neighbors
    logabs = rng.integers(-3, 4, size=shape).astype(float)
    if seed % 2:
        logabs = logabs + 0.1 * rng.standard_normal(shape)
    logabs[rng.random(shape) < 0.15] = np.nan
    logabs[rng.random(shape) < 0.1] = -np.inf
    logabs[rng.random(shape) < 0.05] = np.inf
    assert _minima_seeds(logabs) == _minima_seeds_reference(logabs)
