import warnings

import numpy as np
import pytest

import ddefloquet as df
from ddefloquet import (
    assemble_M,
    build_L,
    closure_determinant,
    extract_mode,
    find_exponents,
    ladder_operators,
)
from ddefloquet.errors import NoRootsInBoxWarning
from ddefloquet.model import index_classes, truncated_matrix
from ddefloquet.systems import constant_density, parametric_density, s1_density
from test_cross_route import KERNELS


def test_k0_ladders_vanish():
    # the class of n = 0 is {0} alone: no other component follows from phi_0
    dens = constant_density(-0.5, -0.3)
    lad = ladder_operators(dens, 0.2 + 0.1j, 5, 5)
    assert lad.ops == {}


def test_k0_closure_is_L00_minus_lambda(monkeypatch):
    # M = L_00 - lambda I exactly, without a LAPACK call
    def forbidden(*args, **kwargs):
        raise AssertionError("a K = 0 closure called LAPACK")

    for name in ("solve", "slogdet", "det", "inv"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    for dens in (constant_density(-0.5, -0.3), KERNELS[2, 0]):
        d = dens.dim
        lams = np.array([0.4 - 0.2j, -1.0 + 0.3j])
        for lam in (lams[0], lams):
            m = assemble_M(dens, lam, 5, 5)
            tab = build_L(dens, lam, 0)
            want = tab.get(0, 0) - np.asarray(lam)[..., None, None] * np.eye(d)
            assert np.array_equal(m, want)


def test_single_cf_level_hand_unrolled():
    # tiny coupling c: S^{+1}_0 = -[L_{0,1} - (lam + i)]^{-1} L_{1,0} + O(c^3)
    c = 1e-3
    dens = parametric_density(-0.4, c, -0.3, tau=1.0, omega=1.0)
    lam = 0.1 + 0.05j
    lad = ladder_operators(dens, lam, 6, 6)
    tab = lad.table
    want = -np.linalg.solve(
        tab.get(0, 1) - (lam + 1j) * np.eye(1), tab.get(1, 0)
    )
    got = lad.ops[1]
    assert np.max(np.abs(got - want)) < 10 * c**3


def _class_of_zero(density, bound):
    """T's indices on the class of n = 0, and those of R, the class
    without block 0."""
    d = density.dim
    members = next(c for c in index_classes(density, bound) if 0 in c)
    at = ((members + bound)[:, None] * d + np.arange(d)).ravel()
    return at, at[np.repeat(members, d) != 0]


def _closure_kernel(name, s3, vdp_linearization):
    """(density, n_win, depth) of each kernel the closure is checked on."""
    if name == "s3":
        return s3, 10, 10
    if name == "s2":
        return vdp_linearization[0], 8, 8
    return KERNELS[2, 2], 10, 10


@pytest.mark.parametrize("name", ["s3", "s2", "seed7-d2-K2"])
def test_det_M_times_det_T_RR_is_det_T_on_the_class(name, s3, vdp_linearization):
    # M is the Schur complement of T onto block 0 on the class of n = 0
    density, n_win, depth = _closure_kernel(name, s3, vdp_linearization)
    bound = n_win + depth
    lams = np.array([0.1 + 0.2j, -0.45 - 0.3j, -1.7 + 0.05j, -2.6 + 0.4j])
    T = truncated_matrix(build_L(density, lams, bound), bound)
    whole, rest = _class_of_zero(density, bound)
    want = np.linalg.det(T[:, whole[:, None], whole])
    got = closure_determinant(density, lams, n_win, depth) * np.linalg.det(
        T[:, rest[:, None], rest]
    )
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12


@pytest.mark.parametrize("name", ["s3", "s2", "seed7-d2-K2"])
def test_ladders_at_a_root_give_the_mode(name, s3, vdp_linearization):
    # phi_m = S^m_0 phi_0 for every m of the window, with S^m_0 = 0 off the
    # class of n = 0, against the null vector of T that extract_mode reads
    density, n_win, depth = _closure_kernel(name, s3, vdp_linearization)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        modes = find_exponents(density, box=(-3.0, 1.0, -0.5, 0.5), n_win=n_win, depth=depth)
    assert modes
    for mode in modes:
        lad = ladder_operators(density, mode.lam_raw, n_win, depth)
        phi0 = mode.component(0)
        for m in range(-n_win, n_win + 1):
            if m == 0:
                continue
            want = lad.ops[m] @ phi0 if m in lad.ops else 0.0
            assert np.max(np.abs(mode.component(m) - want)) < 1e-10


def test_constant_coefficient_roots_match_characteristic():
    dens = s1_density()
    modes = find_exponents(dens, box=(-3, 1, -2, 2), n_win=6, depth=6, tol=1e-12)
    # raw roots of Lambert-W branches k = 0, +-1: Im +-pi/2 and +-7.647
    char = df.characteristic_roots(
        0.0, -np.pi / 2, 1.0, 1.0, box=(-3, 1, -8, 8), grid=(61, 121), tol=1e-12
    )
    assert len(modes) == len(char) == 4
    for m in modes:
        assert min(abs(m.lam_raw - r) for r in char) < 1e-10
        # strip representative reported alongside the raw root
        assert abs(m.lam.imag) <= 0.5 + 1e-12
        assert abs(m.lam - df.to_strip(m.lam_raw)) < 1e-14


def test_undelayed_scalar_single_root():
    dens = constant_density(-1.0, 0.0, omega=1.0, tau=1.0)
    modes = find_exponents(dens, box=(-2, 0.5, -0.5, 0.5), n_win=4, depth=4)
    assert len(modes) == 1
    assert abs(modes[0].lam + 1.0) < 1e-10


def test_k0_mode_components_localized():
    dens = constant_density(-1.0, 0.0)
    mode = extract_mode(dens, -1.0, 5, 5)
    comps = mode.components
    assert abs(comps[5, 0] - 1.0) < 1e-12  # phi_0 normalized to 1 for scalars
    others = np.delete(comps, 5, axis=0)
    assert np.max(np.abs(others)) < 1e-14


def test_s3_exponents_match_monodromy(s3, s3_modes):
    mono = df.monodromy_exponents(s3, re_min=-2.2)
    for mode in s3_modes:
        if mode.lam.real > -2.0:
            assert min(abs(mode.lam - lam) for lam, _ in mono) < 1e-4


def test_s3_mode_residual_small(s3_modes):
    for mode in s3_modes:
        assert mode.residual < 1e-8
        assert mode.converged


def test_recurrence_residual_definition(s3, s3_modes):
    mode = s3_modes[0]
    tab = build_L(s3, mode.lam_raw, mode.n_win)
    K = s3.bandwidth
    nw = mode.n_win
    scale = np.max(np.abs(mode.components))
    for n in range(-(nw - K), nw - K + 1):
        acc = -(mode.lam_raw + 1j * n) * mode.components[n + nw]
        for k in range(-K, K + 1):
            acc = acc + tab.get(k, n - k) @ mode.components[n - k + nw]
        assert np.max(np.abs(acc)) < 1e-10 * scale


def test_mod_i_covariance(s3, s3_modes):
    for mode in s3_modes:
        shifted = mode.lam_raw + 1j
        near = abs(closure_determinant(s3, shifted, mode.n_win, mode.depth))
        away = abs(closure_determinant(s3, shifted + 0.1, mode.n_win, mode.depth))
        assert near < 1e-8 * away
        remode = extract_mode(s3, shifted, mode.n_win, mode.depth)
        orig = mode.components[1:]
        new = remode.components[:-1]
        scale = np.vdot(new, orig) / np.vdot(new, new).real
        assert np.linalg.norm(orig - scale * new) < 1e-8 * np.linalg.norm(orig)


def test_conjugate_pairing(s3_modes):
    lams = [m.lam for m in s3_modes]
    for lam in lams:
        target = df.to_strip(np.conj(lam))
        assert min(abs(target - other) for other in lams) < 1e-10


def test_conjugate_pairs_list_their_lower_member_first(s3, s3_modes):
    # the members of a pair differ in Re by about an ulp; the spectrum key
    # ties them, so both routes and the monodromy oracle agree on the order
    risken = [m.lam for m in df.find_exponents_risken(s3)]
    monodromy = [lam for lam, _ in df.monodromy_exponents(s3, re_min=-3.0)]
    for lams in ([m.lam for m in s3_modes], risken, monodromy):
        assert len(lams) == 4
        for lower, upper in (lams[0:2], lams[2:4]):
            assert abs(lower - np.conj(upper)) < 1e-8
            assert lower.imag < 0 < upper.imag
    assert [np.round(m.lam.real, 4) for m in s3_modes] == [-0.8898] * 2 + [-2.7639] * 2


def test_truncation_convergence_monotone(s3):
    # |lambda(N) - lambda(N+2)| decreases (to the solver floor) as N grows
    from ddefloquet.rootfind import _newton

    seed = complex(-0.8898044857539491, 1.0623037386232046)
    lams = {}
    for nw in (4, 6, 8, 10, 12):
        f = lambda z, n=nw: closure_determinant(s3, z, n, n)
        root, ok = _newton(f, seed, 1e-13)
        assert ok
        lams[nw] = root
    diffs = [abs(lams[n] - lams[n + 2]) for n in (4, 6, 8, 10)]
    floor = 1e-14
    clamped = [max(d, floor) for d in diffs]
    assert all(b <= a for a, b in zip(clamped, clamped[1:]))


def test_no_roots_in_box_warns():
    dens = constant_density(-1.0, 0.0)
    with pytest.warns(NoRootsInBoxWarning):
        modes = find_exponents(dens, box=(5.0, 6.0, -0.4, 0.4), grid=(5, 5))
    assert modes == []


def test_breakdown_points_are_masked(s3):
    # scanning across a breakdown region must not abort the search
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        modes = find_exponents(s3, box=(-1.2, -0.5, -0.3, 0.3), grid=(7, 5))
    assert len(modes) >= 1
