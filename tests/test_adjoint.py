import warnings

import numpy as np
import pytest

import ddefloquet as df
from ddefloquet import (
    BilinearContext,
    ResonantForcing,
    ZeroPairing,
    adjoint_modes,
    bilinear,
    build_L,
    normalize,
    solve_inhomogeneous,
)
from ddefloquet.systems import constant_density, s3_density


@pytest.fixture(scope="module")
def s3_pairs(s3, s3_modes):
    out = []
    for mode in s3_modes:
        psi = adjoint_modes(s3, mode.lam_raw, mode.n_win, mode.depth)
        out.append((psi, mode))
    return out


def quadrature_pairing(density, psi, phi, xi, n_s=4000):
    """Independent oracle: brute force double integral of the pairing.

    Valid for kernels whose delayed slots carry only the k = 0 harmonic
    (true for the bundled parametric system), so the weight at the delay
    needs no history-phase correction.
    """
    lam = psi.lam_raw
    mu = phi.lam_raw
    wt = float(-density.delays[0])
    K = density.bandwidth

    def psi_seg(s):
        js = np.arange(-psi.n_win, psi.n_win + 1)
        ph = np.exp(-1j * js * xi) * np.exp(-(lam + 1j * js) * s)
        return ph @ psi.components

    def phi_seg(theta):
        return phi.segment(xi, theta)

    total = complex(psi_seg(0.0) @ phi_seg(0.0))
    # the kernel is a sum of point masses at the delays theta_j < 0, so
    # only the inner s integral needs quadrature
    for s_idx, theta in enumerate(density.delays):
        if theta >= 0.0:
            continue
        svals = np.linspace(0.0, theta, n_s)
        ks = np.arange(-K, K + 1)
        w = np.sum(
            density.coeffs[s_idx]
            * np.exp(1j * ks * (xi - theta))[:, None, None],
            axis=0,
        )
        integrand = np.array(
            [psi_seg(s - theta) @ (w @ phi_seg(s)) for s in svals]
        )
        total -= np.trapezoid(integrand, svals)
    return total


def test_k0_adjoint_is_left_eigvec():
    dens = constant_density(np.array([[0.0, 1.0], [-1.0, -0.5]]), np.zeros((2, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        modes = df.find_exponents(dens, box=(-1.5, 0.5, -2.0, 2.0), n_win=4, depth=4)
    mode = modes[0]
    psi = adjoint_modes(dens, mode.lam_raw, 4, 4)
    tab = build_L(dens, mode.lam_raw, 4)
    row = psi.component(0)
    res = row @ (tab.get(0, 0) - mode.lam_raw * np.eye(2))
    assert np.max(np.abs(res)) < 1e-9
    for j in (-2, -1, 1, 2):
        assert np.max(np.abs(psi.component(j))) < 1e-12


@pytest.fixture(scope="module")
def s2_modes(vdp_linearization):
    density = vdp_linearization[0]
    return df.find_exponents(
        density, box=(-0.6, 0.3, -0.5, 0.5), n_win=8, depth=8, tol=1e-9
    )


@pytest.fixture(scope="module")
def s2_zero_mode(s2_modes):
    return min(s2_modes, key=lambda m: abs(m.lam))


def test_adjoint_recurrence_residual(s3_pairs):
    for psi, _ in s3_pairs:
        assert psi.residual < 1e-8


def test_adjoint_spectrum_equals_primal(s3, s3_modes):
    # the adjoint is read off the same T(lambda) at the same root
    for mode in s3_modes:
        psi = adjoint_modes(s3, mode.lam_raw, mode.n_win, mode.depth)
        assert abs(psi.lam - mode.lam) < 1e-12


def test_bilinear_against_quadrature(s3, s3_pairs):
    ctx = BilinearContext(s3)
    psi, phi = s3_pairs[0]
    for xi in (0.0, 1.3):
        closed = ctx.pair(psi, phi, xi)
        brute = quadrature_pairing(s3, psi, phi, xi)
        assert abs(closed - brute) < 1e-8 * max(1.0, abs(closed))


def test_biorthogonality_distinct_roots(s3, s3_pairs):
    ctx = BilinearContext(s3)
    (psi1, phi1), (psi2, phi2) = s3_pairs[0], s3_pairs[1]
    assert abs(phi1.lam - phi2.lam) > 1e-3
    assert abs(ctx.pair(psi1, phi2, 0.0)) < 1e-8
    assert abs(ctx.pair(psi2, phi1, 0.0)) < 1e-8


def test_pairing_phase_independence(s3, s3_pairs):
    ctx = BilinearContext(s3)
    psi, phi = s3_pairs[0]
    base = ctx.pair(psi, phi, 0.0)
    for xi in np.linspace(0.3, 2 * np.pi, 7):
        assert abs(ctx.pair(psi, phi, xi) - base) < 1e-10 * max(1.0, abs(base))


def test_normalize_gives_unit_pairing(s3, s3_pairs):
    ctx = BilinearContext(s3)
    for psi, phi in s3_pairs:
        psi_n, phi_n, nfac = normalize(psi, phi, s3)
        assert abs(ctx.pair(psi_n, phi_n, 0.0) - 1.0) < 1e-10
        # normalizing twice is idempotent
        psi_2, phi_2, nfac2 = normalize(psi_n, phi_n, s3)
        assert abs(nfac2 - 1.0) < 1e-10


def test_k0_normalization_closed_form():
    # scalar a, b kernel: pairing of the mode with itself is 1 + b tau e^{-lam w tau}
    a, b, tau = -0.2, -0.4, 1.0
    dens = constant_density(a, b, omega=1.0, tau=tau)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        modes = df.find_exponents(dens, box=(-1.6, 0.5, -1.0, 1.0), n_win=5, depth=5)
    mode = modes[0]
    lam = mode.lam_raw
    psi = adjoint_modes(dens, lam, 5, 5)
    ctx = BilinearContext(dens)
    pair = ctx.pair(psi, mode, 0.0)
    phi0 = mode.component(0)[0]
    psi0 = psi.component(0)[0]
    want = psi0 * phi0 * (1.0 + b * tau * np.exp(-lam * tau))
    assert abs(pair - want) < 1e-10 * abs(want)


def test_bilinear_k0_reduction_matches_module(s3):
    # with the xi dependent part removed the context must reduce to the
    # constant coefficient pairing
    coeffs = s3.coeffs.copy()
    coeffs[:, 0] = 0.0
    coeffs[:, 2] = 0.0
    flat = df.FourierMatrixDensity(s3.omega, s3.delays, coeffs[:, 1:2])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        modes = df.find_exponents(flat, box=(-1.6, 0.5, -1.0, 1.0), n_win=5, depth=5)
    mode = modes[0]
    psi = adjoint_modes(flat, mode.lam_raw, 5, 5)
    pair = bilinear(BilinearContext(flat), psi, mode, 0.0)
    b = float(np.real(flat.coeffs[0, 0, 0, 0]))
    want = psi.component(0)[0] * mode.component(0)[0] * (
        1.0 + b * np.exp(-mode.lam_raw * 1.0)
    )
    assert abs(pair - want) < 1e-10 * abs(want)


def test_solve_inhomogeneous_zero_forcing(s3):
    sol, residual = solve_inhomogeneous(s3, 0.25 + 0.1j, {0: [0.0]}, n_win=6, depth=6)
    assert np.max(np.abs(sol)) < 1e-14


def test_solve_inhomogeneous_k0_closed_form():
    # constant coefficients, single harmonic forcing: phi_n solves
    # [(a + b e^{-(lam+in) w tau})/w - (lam + i n)] phi_n = b_n directly
    a, b = -0.3, -0.4
    dens = constant_density(a, b, omega=1.0, tau=1.0)
    lam = 0.2 + 0.3j
    chi = {1: [1.0]}
    sol, residual = solve_inhomogeneous(dens, lam, chi, n_win=5, depth=5)
    assert residual < 1e-12
    n = 1
    alpha = lam + 1j * n
    eff = 1.0 - b * (np.exp(-alpha) - 1.0) / alpha  # collapsed rhs
    coef = a + b * np.exp(-alpha) - alpha
    want = eff / coef
    assert abs(sol[n + 5, 0] - want) < 1e-12
    for m in (-5, -1, 0, 2):
        assert abs(sol[m + 5, 0]) < 1e-13


def test_resonant_forcing_reports_defect(s3, s3_pairs):
    psi, phi = s3_pairs[0]
    chi = {n: phi.component(n) for n in range(-6, 7)}
    with pytest.raises(ResonantForcing) as info:
        solve_inhomogeneous(s3, phi.lam_raw, chi, n_win=10, depth=10)
    assert info.value.defect is not None
    assert abs(info.value.defect) > 1e-6


def test_vdp_zero_mode_pairs_to_zero_with_amplitude_mode(
    vdp_linearization, s2_modes, s2_zero_mode
):
    # the adjoint of the neutral mode annihilates every other simple mode;
    # the amplitude mode is the other class find_exponents reports
    density = vdp_linearization[0]
    zero = s2_zero_mode
    (other,) = [m for m in s2_modes if m is not zero]
    assert abs(other.lam - (-0.0778793241)) < 1e-9
    psi0 = adjoint_modes(density, zero.lam_raw, 8, 8)
    ctx = BilinearContext(density)
    cross = abs(ctx.pair(psi0, other, 0.0))
    self_pair = abs(ctx.pair(psi0, zero, 0.0))
    assert cross < 1e-4 * self_pair


def test_zero_pairing_raises_for_degenerate_pair(s3, s3_pairs):
    psi1, phi1 = s3_pairs[0]
    hollow = df.AdjointMode(
        lam=phi1.lam,
        lam_raw=phi1.lam_raw,
        components=np.zeros_like(psi1.components),
        residual=psi1.residual,
        n_win=psi1.n_win,
        depth=psi1.depth,
        bandwidth=psi1.bandwidth,
    )
    with pytest.raises(ZeroPairing):
        normalize(hollow, phi1, s3)


@pytest.mark.parametrize("name", ["s2", "s3"])
def test_normalization_sum_is_the_phase_mean_of_the_pairing(
    name, s3, s3_pairs, vdp_linearization, s2_modes
):
    # pair(psi, phi, xi) is a trigonometric polynomial in xi of degree at
    # most 2 n_win + K whose mean is the collapsed sum, so M = 2 (2 n_win +
    # K) + 1 equispaced phases average it exactly
    if name == "s2":
        density = vdp_linearization[0]
        pairs = [
            (adjoint_modes(density, m.lam_raw, m.n_win, m.depth), m) for m in s2_modes
        ]
    else:
        density, pairs = s3, s3_pairs
    ctx = BilinearContext(density)
    assert pairs
    for psi, phi in pairs:
        M = 2 * (2 * phi.n_win + density.bandwidth) + 1
        phases = 2 * np.pi * np.arange(M) / M
        mean = np.mean([ctx.pair(psi, phi, xi) for xi in phases])
        total = ctx.normalization_sum(psi, phi)
        assert abs(total - mean) < 1e-13 * abs(total)


def _loop_pairing(density, psi, phi, xi):
    """The pairing term by term, one band offset k and delay slot at a
    time: the reference for the array expression of BilinearContext.pair."""
    lam, mu = psi.lam_raw, phi.lam_raw
    js = np.arange(-psi.n_win, psi.n_win + 1)[:, None]
    ns = np.arange(-phi.n_win, phi.n_win + 1)[None, :]
    pj, pn = psi.components, phi.components
    total = np.sum((pj @ pn.T) * np.exp(1j * xi * (ns - js)))
    K = density.bandwidth
    for k in range(-K, K + 1):
        for slot, theta in enumerate(density.delays):
            if theta < 0.0:
                sandwich = pj @ density.coeffs[slot, k + K] @ pn.T
                phase = np.exp(1j * xi * (ns + k - js))
                theta_fac = np.exp((lam + 1j * (js - k)) * theta)
                a = mu - lam + 1j * (ns + k - js)
                eint = np.where(
                    np.abs(a * theta) < 1e-8,
                    theta * (1.0 + a * theta / 2.0 + (a * theta) ** 2 / 6.0),
                    (np.exp(a * theta) - 1.0) / np.where(a == 0, 1.0, a),
                )
                total = total - np.sum(sandwich * phase * theta_fac * eint)
    return complex(total)


@pytest.mark.parametrize("name", ["s2", "s3"])
def test_pair_matches_the_term_by_term_loop(
    name, s3, s3_pairs, vdp_linearization, s2_modes
):
    # the array expression sums in another order than the loop: equal to
    # a few roundoffs of the O(1) terms, for matched and crossed pairs
    if name == "s2":
        density = vdp_linearization[0]
        pairs = [
            (adjoint_modes(density, m.lam_raw, m.n_win, m.depth), m) for m in s2_modes
        ]
    else:
        density, pairs = s3, s3_pairs
    ctx = BilinearContext(density)
    for psi, _ in pairs:
        for _, phi in pairs:
            for xi in (0.0, 0.7, -2.3):
                want = _loop_pairing(density, psi, phi, xi)
                got = ctx.pair(psi, phi, xi)
                assert abs(got - want) < 1e-13 * max(1.0, abs(want))
