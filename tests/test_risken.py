import warnings

import numpy as np

import ddefloquet as df
from ddefloquet.risken import (
    assemble_blocks,
    closure_determinant_risken,
    find_exponents_risken,
    tridiagonal_closure,
)
from ddefloquet.systems import constant_density, s3_density


def test_k0_closure_block_diagonal():
    dens = constant_density(-0.5, -0.3)
    lam = 0.2 + 0.1j
    blocks = assemble_blocks(dens, lam, 6)
    closure = tridiagonal_closure(blocks)
    tab = blocks.table
    want00 = tab.get(0, 0) - lam * np.eye(1)
    want11 = tab.get(0, 1) - (lam + 1j) * np.eye(1)
    assert abs(closure[0, 0] - want00[0, 0]) < 1e-14
    assert abs(closure[1, 1] - want11[0, 0]) < 1e-14
    assert abs(closure[0, 1]) < 1e-14 and abs(closure[1, 0]) < 1e-14


def test_block_entries_match_L_table(s3):
    # every Q sub-block must reproduce its L entry element by element
    lam = -0.4 + 0.15j
    blocks = assemble_blocks(s3, lam, 6)
    tab = blocks.table
    for n in (-2, 0, 1):
        q0 = blocks.q_zero(n)
        assert abs(q0[0, 0] - (tab.get(0, 2 * n)[0, 0] - (lam + 2j * n))) < 1e-14
        assert abs(q0[0, 1] - tab.get(-1, 2 * n + 1)[0, 0]) < 1e-14
        assert abs(q0[1, 0] - tab.get(1, 2 * n)[0, 0]) < 1e-14
        assert (
            abs(q0[1, 1] - (tab.get(0, 2 * n + 1)[0, 0] - (lam + 1j * (2 * n + 1))))
            < 1e-14
        )
        qm = blocks.q_minus(n + 1)
        assert abs(qm[0, 0] - tab.get(-2, 2 * n + 2)[0, 0]) < 1e-14
        assert abs(qm[0, 1]) == 0.0
        assert abs(qm[1, 0] - tab.get(-1, 2 * n + 2)[0, 0]) < 1e-14
        assert abs(qm[1, 1] - tab.get(-2, 2 * n + 3)[0, 0]) < 1e-14
        qp = blocks.q_plus(n - 1)
        assert abs(qp[0, 0] - tab.get(2, 2 * n - 2)[0, 0]) < 1e-14
        assert abs(qp[0, 1] - tab.get(1, 2 * n - 1)[0, 0]) < 1e-14
        assert abs(qp[1, 0]) == 0.0
        assert abs(qp[1, 1] - tab.get(2, 2 * n - 1)[0, 0]) < 1e-14


def test_stacked_recurrence_satisfied_by_mode(s3, s3_modes):
    # stacking phi into pairs must satisfy the block tridiagonal relation
    mode = s3_modes[0]
    lam = mode.lam_raw
    blocks = assemble_blocks(s3, lam, 3)
    nw = mode.n_win

    def phi_block(n):
        out = np.zeros(2, dtype=complex)
        if abs(2 * n) <= nw:
            out[0] = mode.component(2 * n)[0]
        if abs(2 * n + 1) <= nw:
            out[1] = mode.component(2 * n + 1)[0]
        return out

    phi = {n: phi_block(n) for n in range(-2, 3)}
    scale = max(np.max(np.abs(v)) for v in phi.values())
    for n in (-1, 0, 1):
        res = blocks.residual_of(phi, n)
        assert np.max(np.abs(res)) < 1e-8 * scale


def test_route_equivalence_on_s3(s3, s3_modes):
    rk = find_exponents_risken(s3, depth=12, tol=1e-12)
    assert len(rk) >= 2
    for mode in s3_modes:
        assert min(abs(mode.lam - other.lam) for other in rk) < 1e-10


def test_depth_convergence(s3):
    seed = complex(-0.8898044857539491, 1.0623037386232046)
    from ddefloquet.rootfind import _newton

    roots = {}
    for depth in (6, 8, 10, 11):
        f = lambda z, dd=depth: closure_determinant_risken(s3, z, dd)
        root, ok = _newton(f, seed, 1e-13)
        assert ok
        roots[depth] = root
    assert abs(roots[10] - roots[11]) < 1e-8


def test_null_vector_consistency(s3, s3_modes):
    # unstacked Phi_0 agrees with the n-diagonal phi_0, phi_1 up to scale
    mode = s3_modes[0]
    blocks = assemble_blocks(s3, mode.lam_raw, 12)
    closure = tridiagonal_closure(blocks)
    _, s, vh = np.linalg.svd(closure)
    vec = np.conj(vh[-1])
    want = np.array([mode.component(0)[0], mode.component(1)[0]])
    scale = np.vdot(vec, want) / np.vdot(vec, vec)
    assert np.linalg.norm(want - scale * vec) < 1e-8 * np.linalg.norm(want)


def test_wide_band_stacking_matches_cf():
    # K = 3 kernel goes through the stacked generalization; its exponents
    # must still match the n-diagonal route
    coeffs = np.zeros((2, 7, 1, 1), dtype=complex)
    coeffs[0, 3, 0, 0] = -0.5
    coeffs[1, 3, 0, 0] = -0.3
    coeffs[1, 2, 0, 0] = coeffs[1, 4, 0, 0] = 0.05
    coeffs[1, 0, 0, 0] = coeffs[1, 6, 0, 0] = 0.01
    dens = df.FourierMatrixDensity(1.0, np.array([-1.0, 0.0]), coeffs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cf = df.find_exponents(dens, n_win=8, depth=8, tol=1e-12)
        rk = find_exponents_risken(dens, depth=6, tol=1e-12)
    assert cf and rk
    # the n-diagonal root of this kernel is pinched against a truncation
    # resonance and is localized to the cluster scale only
    for mode in cf:
        assert min(abs(mode.lam - other.lam) for other in rk) < 1e-5
