"""Acceptance suite: one test per criterion, pinned tolerances, one
pass/fail line printed per criterion (run with -s or -v to see them)."""

import time
import warnings

import numpy as np
import pytest

import ddefloquet as df
from ddefloquet import (
    BilinearContext,
    adjoint_modes,
    characteristic_roots,
    expand_pl,
    expand_shohat,
    find_exponents,
    integrate_mos,
    monodromy_exponents,
    normalize,
    oscillator_residual,
    to_strip,
)
from ddefloquet.floquet import closure_determinant, extract_mode
from ddefloquet.model import rescale
from ddefloquet.rootfind import _newton
from ddefloquet.risken import find_exponents_risken
from ddefloquet.systems import s1_system, s2_model, s3_density
from ddefloquet.verify import check_zero_mode, cosine_similarity


def _report(name, passed, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, detail


def test_c01_zero_mode_theorem():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = check_zero_mode(mu=0.1, order=2, n_win=8, depth=8)
    _report("1 zero-mode", result.passed, result.detail)


def test_c02_constant_coefficient_exactness():
    dens = df.FourierMatrixDensity(
        omega=1.0,
        delays=np.array([-1.0, 0.0]),
        coeffs=np.array([[[[-np.pi / 2]]], [[[0.0]]]], dtype=complex),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        modes = find_exponents(dens, box=(-3, 1, -2, 2), n_win=6, depth=6, tol=1e-12)
    # the classes of Lambert-W branches k = 0, +-1 (raw Im +-pi/2 and
    # +-7.647); the window |n| <= 12 holds no translate of k = +-2
    char = characteristic_roots(
        0.0, -np.pi / 2, 1.0, 1.0, box=(-3, 1, -8, 8), grid=(61, 121), tol=1e-13
    )
    strips = sorted((to_strip(r) for r in char), key=lambda z: (z.imag, z.real))
    got = sorted((m.lam for m in modes), key=lambda z: (z.imag, z.real))
    worst = max(abs(a - b) for a, b in zip(got, strips))
    _report(
        "2 constant-coefficient",
        len(got) == len(strips) == 4 and worst < 1e-10,
        f"max |delta lambda| = {worst:.2e} (< 1e-10) over {len(got)} roots",
    )


@pytest.fixture(scope="module")
def s3_all_methods(s3):
    t0 = time.time()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cf = find_exponents(s3, n_win=10, depth=10, tol=1e-12)
        rk = find_exponents_risken(s3, depth=12, tol=1e-12)
        mono = monodromy_exponents(s3, re_min=-2.2)
    return cf, rk, mono, time.time() - t0


def test_c03_cross_method_agreement(s3_all_methods):
    cf, rk, mono, elapsed = s3_all_methods
    sets = {
        "cf": [m.lam for m in cf if m.lam.real > -2.0],
        "risken": [lam for lam, _ in rk if lam.real > -2.0],
        "monodromy": [lam for lam, _ in mono if lam.real > -2.0],
    }
    assert all(sets.values())
    worst = 0.0
    names = list(sets)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            for lam in sets[a]:
                worst = max(worst, min(abs(lam - other) for other in sets[b]))
    _report(
        "3 cross-method",
        worst < 1e-4 and elapsed < 180.0,
        f"max pairwise |delta| = {worst:.2e} (< 1e-4), runtime {elapsed:.0f}s (< 180s)",
    )


def test_c04_route_equivalence(s3_all_methods):
    cf, rk, _, _ = s3_all_methods
    worst = 0.0
    for mode in cf:
        worst = max(worst, min(abs(mode.lam - lam) for lam, _ in rk))
    _report("4 route-equivalence", worst < 1e-10, f"max |delta| = {worst:.2e} (< 1e-10)")


def test_c05_pl_residual_scaling():
    model = s2_model()
    mus = [0.01, 0.02, 0.05, 0.1]
    details = []
    ok = True
    for order in (1, 2):
        res = [oscillator_residual(expand_pl(model, mu, order)) for mu in mus]
        slope = float(np.polyfit(np.log(mus), np.log(res), 1)[0])
        ok = ok and abs(slope - (order + 1)) <= 0.5
        details.append(f"P={order}: slope {slope:.3f} (want {order + 1} +- 0.5)")
    _report("5 residual-scaling", ok, "; ".join(details))


def test_c06_shohat_consistency():
    model = s2_model()
    worst_ratio = 0.0
    for mu in (0.02, 0.05, 0.1):
        pl = expand_pl(model, mu, 2)
        sh = expand_shohat(model, mu, 2)
        diff = (pl.assemble() - sh.assemble()).norm()
        worst_ratio = max(worst_ratio, diff / (10.0 * mu**3))
    _report(
        "6 shohat-consistency",
        worst_ratio < 1.0,
        f"max |PL2 - Shohat2| / (10 mu^3) = {worst_ratio:.3f} (< 1)",
    )


def test_c07_mod_i_covariance(s3, s3_modes):
    worst_det = 0.0
    worst_cmp = 0.0
    for mode in s3_modes:
        shifted = mode.lam_raw + 1j
        at_root = abs(closure_determinant(s3, shifted, mode.n_win, mode.depth))
        nearby = abs(closure_determinant(s3, shifted + 0.1, mode.n_win, mode.depth))
        worst_det = max(worst_det, at_root / nearby)
        remode = extract_mode(s3, shifted, mode.n_win, mode.depth)
        orig = mode.components[1:]
        new = remode.components[:-1]
        scale = np.vdot(new, orig) / float(np.vdot(new, new).real)
        worst_cmp = max(
            worst_cmp,
            float(np.linalg.norm(orig - scale * new) / np.linalg.norm(orig)),
        )
    _report(
        "7 mod-i",
        worst_det < 1e-8 and worst_cmp < 1e-8,
        f"det suppression {worst_det:.1e} (< 1e-8), shifted components "
        f"{worst_cmp:.1e} (< 1e-8)",
    )


def test_c08_biorthonormality(s3, s3_modes):
    ctx = BilinearContext(s3)
    pairs = []
    for mode in s3_modes:
        psi = adjoint_modes(s3, mode.lam_raw, mode.n_win, mode.depth)
        psi_n, phi_n, _ = normalize(psi, mode, s3)
        pairs.append((psi_n, phi_n))
    worst_gram = 0.0
    for i, (psi_n, _) in enumerate(pairs):
        for j, (_, phi_n) in enumerate(pairs):
            val = ctx.pair(psi_n, phi_n, 0.0)
            want = 1.0 if i == j else 0.0
            worst_gram = max(worst_gram, abs(val - want))
    worst_phase = 0.0
    for psi_n, phi_n in pairs:
        base = ctx.pair(psi_n, phi_n, 0.0)
        for xi in np.linspace(0.0, 2 * np.pi, 8, endpoint=False):
            worst_phase = max(worst_phase, abs(ctx.pair(psi_n, phi_n, xi) - base))
    _report(
        "8 biorthonormality",
        worst_gram < 1e-8 and worst_phase < 1e-8,
        f"gram deviation {worst_gram:.1e} (< 1e-8), phase drift {worst_phase:.1e} "
        f"(< 1e-8) at 8 phases",
    )


def test_c09_semigroup_property():
    def two_leg_error(system, segment_fn, xi1, xi2, nsub=200):
        h = system.tau / nsub
        one = integrate_mos(system, segment_fn, xi1 + xi2, h)
        leg1 = integrate_mos(system, segment_fn, xi1, h)
        mid = leg1.segment(xi1, npts=nsub + 1)
        leg2 = integrate_mos(system, mid, xi2, h)
        return float(np.max(np.abs(leg2.at(xi2) - one.at(xi1 + xi2))))

    sys1 = rescale(s1_system(), 1.0)
    err1 = two_leg_error(sys1, lambda th: np.array([np.cos(th)]), 2.0, 1.5)
    model = s2_model()
    omega = expand_pl(model, 0.1, 1).omega()
    sys2 = rescale(model.to_dde(0.1), omega)
    err2 = two_leg_error(
        sys2,
        lambda th: np.array([2.0 * np.cos(th), -2.0 * np.sin(th)]),
        2.0 * sys2.tau,
        1.5 * sys2.tau,
    )
    err = max(err1, err2)
    _report("9 semigroup", err < 1e-8, f"two-leg vs one-leg error {err:.2e} (< 1e-8)")


def test_c10_truncation_convergence(s3, s3_modes):
    # window size alone controls the truncation here (depth 0), so the
    # decay of the root shift is visible before it saturates at roundoff
    lead = max(s3_modes, key=lambda m: m.lam.real)
    seed = lead.lam_raw
    lams = {}
    for nw in (4, 6, 8, 10, 12):
        f = lambda z, n=nw: closure_determinant(s3, z, n, 0)
        root, ok = _newton(f, seed, 1e-13)
        assert ok
        lams[nw] = root
    diffs = [abs(lams[n] - lams[n + 2]) for n in (4, 6, 8, 10)]
    # differences below the root solve tolerance are indistinguishable
    floor = 1e-14
    clamped = [max(d, floor) for d in diffs]
    monotone = all(b <= a for a, b in zip(clamped, clamped[1:]))
    _report(
        "10 convergence",
        monotone,
        "computed |lambda(N) - lambda(N+2)| = "
        + ", ".join(f"{d:.1e}" for d in diffs)
        + f" (non-increasing above the {floor:.0e} solve floor)",
    )
