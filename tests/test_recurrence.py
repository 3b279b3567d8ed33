"""The one assembler of the recurrence matrix T(lambda), the one damped
Newton loop, and the one mod-i class merge that every route shares."""

import warnings

import numpy as np
import pytest

import ddefloquet as df
from ddefloquet import floquet, rootfind
from ddefloquet.floquet import _hill_refine, find_exponents, recurrence_residual
from ddefloquet.model import HillBlocks, build_L, hill_matrix, truncated_matrix
from ddefloquet.risken import find_exponents_risken
from ddefloquet.rootfind import _damped_newton, contour_classes
from ddefloquet.systems import parametric_density, s3_density
from ddefloquet.verify import cosine_similarity
from test_cross_route import BOX, KERNELS

OVERFLOW = -800.0  # Re(lambda) * theta = 800 > 700 at theta = -1


def _matrix_band3_density(seed=7):
    """d = 2, K = 3 kernel with a point mass at theta = -1 and at 0."""
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(2, 7, 2, 2)) + 1j * rng.normal(size=(2, 7, 2, 2))
    return df.FourierMatrixDensity(1.0, np.array([-1.0, 0.0]), 0.1 * coeffs)


def test_truncated_matrix_blocks_are_the_recurrence():
    dens = _matrix_band3_density()
    lams = np.array([0.2 + 0.1j, OVERFLOW, -1.0 - 0.7j])
    bound, d = 5, 2
    table = build_L(dens, lams, bound)
    T = truncated_matrix(table, bound)
    assert T.shape == (3, (2 * bound + 1) * d, (2 * bound + 1) * d)
    assert np.isnan(T[1]).any()
    assert not np.isnan(T[[0, 2]]).any()
    for i in (0, 2):
        single = build_L(dens, lams[i], bound)
        assert np.array_equal(truncated_matrix(single, bound), T[i])
        for p in range(-bound, bound + 1):
            for q in range(-bound, bound + 1):
                want = single.get(p - q, q)
                if p == q:
                    want = want - (lams[i] + 1j * p) * np.eye(d)
                r, c = (p + bound) * d, (q + bound) * d
                assert np.array_equal(T[i, r : r + d, c : c + d], want)


@pytest.mark.parametrize("kernel", ["band3", "s3", "one-slot"])
def test_hill_matrix_is_the_gathered_matrix(kernel):
    # the exponential pencil gives the matrix gathered from the L table, up
    # to rounding, and NaN where the exponent guard rejects lambda; a kernel
    # with its only point mass at theta = 0 has no guard to reach
    coeffs = np.array([[[[-0.5]], [[0.2 - 0.1j]], [[-0.3]]]])
    dens = {
        "band3": _matrix_band3_density(),
        "s3": s3_density(),
        "one-slot": df.FourierMatrixDensity(1.0, np.array([0.0]), coeffs),
    }[kernel]
    lams = np.array([0.2 + 0.1j, OVERFLOW, -1.0 - 0.7j, 2.5j])
    bound = 5
    want = truncated_matrix(build_L(dens, lams, bound), bound)
    got = hill_matrix(dens, bound)(lams)
    assert got.shape == want.shape
    rejected = np.isnan(want).any(axis=(1, 2))
    assert rejected.tolist() == [False, kernel != "one-slot", False, False]
    assert np.isnan(got[rejected]).all()
    assert not np.isnan(got[~rejected]).any()
    for i in np.flatnonzero(~rejected):
        scale = np.max(np.abs(want[i]))
        assert np.max(np.abs(got[i] - want[i])) <= 1e-15 * scale
        one = hill_matrix(dens, bound)(lams[i])
        assert np.max(np.abs(one - want[i])) <= 1e-15 * scale


def _loop_residual(comps, table, left):
    """The residual as one sum per row: primal rows on the interior (the
    whole window when that is empty), adjoint entries on |j| <= n_win - K."""
    n_win = (len(comps) - 1) // 2
    K = table.bandwidth
    lam = table.lam
    inner = max(n_win - K, 0)
    if left:
        rows = range(-(n_win - K), n_win - K + 1)
    else:
        rows = range(-inner, inner + 1) if inner > 0 else range(-n_win, n_win + 1)
    worst = 0.0
    for n in rows:
        acc = -(lam + 1j * n) * comps[n + n_win]
        for k in range(-K, K + 1):
            if left:
                acc = acc + comps[n + k + n_win] @ table.get(k, n)
            elif abs(n - k) <= n_win:
                acc = acc + table.get(k, n - k) @ comps[n - k + n_win]
        worst = max(worst, float(np.max(np.abs(acc))))
    return worst / np.max(np.abs(comps))


@pytest.mark.parametrize("n_win", [6, 3, 2])
@pytest.mark.parametrize("left", [False, True])
def test_recurrence_residual_matches_the_row_sums(n_win, left):
    # rows of T @ phi (psi @ T) sum in another order than the loop: equal
    # to a few roundoffs of the O(1) terms
    dens = _matrix_band3_density()
    rng = np.random.default_rng(n_win)
    shape = (2 * n_win + 1, 2)
    comps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    table = build_L(dens, 0.3 - 0.2j, n_win + 2)
    got = recurrence_residual(comps, dens, 0.3 - 0.2j, left=left)
    want = _loop_residual(comps, table, left)
    assert abs(got - want) <= 1e-13 * max(want, 1.0)
    if left and n_win < dens.bandwidth:
        assert got == want == 0.0


def test_damped_newton_stops_on_a_failed_step():
    calls = []

    def step(lam):
        calls.append(lam)
        return None

    assert _damped_newton(step, 0.3 + 0.1j, 1e-10, 40) == (0.3 + 0.1j, False)
    assert len(calls) == 1


def test_damped_newton_zero_step_converges_in_place():
    lam0 = -0.25 + 0.4j
    root, ok = _damped_newton(lambda lam: 0.0, lam0, 1e-10, 40)
    assert ok and root == lam0


def _counted_steps(sizes):
    calls = []

    def step(lam):
        calls.append(lam)
        return sizes[len(calls) - 1]

    return step, calls


@pytest.mark.parametrize("radius", [None, 1e-4])
def test_damped_newton_travelling_run_is_not_stopped(radius):
    # steps of about 1e-6 that set no new smallest step for many steps are a
    # run still travelling: it runs on until a step within tol, with or
    # without a class radius that the run never leaves
    sizes = [1e-6, 1.2e-6, 1.1e-6] * 4 + [1e-7, 1e-10, 1e-18]
    step, calls = _counted_steps(sizes)
    root, ok = _damped_newton(step, 1.0, 1e-17, 60, radius=radius)
    assert ok and len(calls) == len(sizes)


def test_damped_newton_stops_at_the_first_iterate_outside_its_radius():
    # the first step lands 2e-4 from the seed, outside a radius of 1e-4: the
    # run stops there, unconverged, without taking the step that would
    # converge
    lam0 = 0.3 + 0.1j
    step, calls = _counted_steps([2e-4, 1e-13])
    assert _damped_newton(step, lam0, 1e-12, 8, radius=1e-4) == (lam0 - 2e-4, False)
    assert len(calls) == 1


def test_damped_newton_radius_is_taken_modulo_i():
    # an iterate translated by exactly i is the same exponent class
    lam0 = 0.3 + 0.1j
    step, calls = _counted_steps([-1j, 1e-13])
    root, ok = _damped_newton(step, lam0, 1e-12, 8, radius=1e-4)
    assert ok and len(calls) == 2
    assert root == lam0 + 1j - 1e-13


def test_damped_newton_small_step_outside_the_radius_does_not_converge():
    # the step is within tol, but its iterate has left the radius
    step, calls = _counted_steps([5e-4])
    assert _damped_newton(step, 1.0, 1e-3, 8, radius=1e-4) == (1.0 - 5e-4, False)
    assert len(calls) == 1


def test_damped_newton_without_radius_runs_on():
    # the scripts the radius stops after one step converge without it
    step, calls = _counted_steps([2e-4, 1e-13])
    assert _damped_newton(step, 1.0, 1e-12, 8) == (1.0 - 2e-4 - 1e-13, True)
    assert len(calls) == 2
    step, calls = _counted_steps([5e-4])
    assert _damped_newton(step, 1.0, 1e-3, 8, radius=None) == (1.0 - 5e-4, True)
    assert len(calls) == 1


S2_SETTINGS = dict(box=(-0.6, 0.3, -0.5, 0.5), n_win=8, depth=8, tol=1e-9)


def _spectra(density, settings):
    cf = find_exponents(density, **settings)
    rk = find_exponents_risken(density, box=settings["box"], tol=settings["tol"])
    fields = ("lam", "lam_raw", "components", "residual", "converged")
    return [[[getattr(m, name) for name in fields] for m in modes] for modes in (cf, rk)]


@pytest.mark.parametrize("case", ["s2", (1, 2), (2, 2)], ids=["s2", "d1-K2", "d2-K2"])
def test_the_class_radius_only_saves_work(case, request, monkeypatch):
    # the seeded runs that stop at the class radius would not have been
    # accepted had they run on: the answers are those of unbounded runs
    if case == "s2":
        density = request.getfixturevalue("vdp_linearization")[0]
        settings = S2_SETTINGS
    else:
        density = KERNELS[case]
        settings = dict(box=BOX, tol=1e-10)
    shipped = _spectra(density, settings)
    bounded = rootfind._damped_newton
    radii = []

    def unbounded(step, lam0, tol, max_iter, radius=None):
        radii.append(radius)
        return bounded(step, lam0, tol, max_iter)

    monkeypatch.setattr(rootfind, "_damped_newton", unbounded)
    free = _spectra(density, settings)
    assert rootfind.CLASS_TOL in radii
    for free_modes, shipped_modes in zip(free, shipped):
        assert len(free_modes) == len(shipped_modes)
        for got, want in zip(free_modes, shipped_modes):
            assert all(np.array_equal(x, y) for x, y in zip(got, want))


def test_s2_zero_mode_search_hands_pinched_runs_over_early(
    vdp_linearization, monkeypatch
):
    # on s2 at the verify settings every continued fraction Newton run
    # converges on the exact closure, each at its first step from the
    # contour eigenvalue, one ladder evaluation per class; a run that
    # pinches is still handed over to the Hill eigenvalue at its first
    # step outside its class, where spending each run's budget once took
    # 225 ladder evaluations
    density, _, state, _ = vdp_linearization
    calls = []
    ladders = floquet.ladder_operators

    def counted(density, lam, n_win, depth):
        calls.append(n_win)
        return ladders(density, lam, n_win, depth)

    monkeypatch.setattr(floquet, "ladder_operators", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        modes = find_exponents(
            density,
            box=(-0.6, 0.3, -0.5, 0.5),
            n_win=8,
            depth=8,
            grid=(10, 9),
            tol=1e-9,
        )
    assert len(calls) <= 120
    # the truncation check of a Hill root stays on the Hill determinant
    assert 10 not in calls
    mode = min(modes, key=lambda m: abs(m.lam))
    assert abs(mode.lam) < 5e-3
    deriv = state.derivative()
    nw, shift = mode.n_win, mode.strip_offset
    target = np.zeros((2 * nw + 1, 2), dtype=complex)
    for n in range(-nw, nw + 1):
        if abs(n + shift) <= deriv.cutoff:
            target[n + nw] = deriv.coefficient(n + shift)
    assert cosine_similarity(mode.components, target) > 0.999


def test_s2_reports_the_zero_and_the_amplitude_class(vdp_linearization):
    # both odd-family classes near Re 0 at the verify settings, real to
    # rounding on this real kernel, matching the monodromy oracle and
    # passing the truncation check
    density = vdp_linearization[0]
    modes = find_exponents(
        density, box=(-0.6, 0.3, -0.5, 0.5), n_win=8, depth=8, tol=1e-9
    )
    mono = [lam for lam, _ in df.monodromy_exponents(density, re_min=-0.6)]
    assert len(modes) == len(mono) == 2
    for mode, want in zip(modes, (-0.0006242654, -0.0778793241)):
        assert abs(mode.lam.real - want) < 1e-9
        assert abs(mode.lam.imag) < 1e-12
        assert min(abs(mode.lam - lam) for lam in mono) < 1e-6
        assert mode.converged


def test_hill_refine_converges_from_a_contour_value(vdp_linearization):
    # the contour value at bound 16 is within tol of the root at bound 18
    density = vdp_linearization[0]
    lam = contour_classes(HillBlocks(density, 16), S2_SETTINGS["box"])[0]
    assert abs(lam.real + 0.0006242654) < 1e-9
    root, ok = _hill_refine(HillBlocks(density, 18), lam, 1e-9)
    assert ok and abs(root - lam) < 1e-9


def test_hill_refine_stays_at_a_root_it_starts_on(vdp_linearization):
    # from the bound-18 root itself, where det T is roundoff, the run must
    # not move by more than roundoff, whatever its tol.  The root comes from
    # Newton with the exact derivative tr(T^-1 T'), T' = sum_j theta_j
    # exp(lambda theta_j) H_j - I, each H_j read off the pencil of a kernel
    # that keeps only slot j
    density, bound = vdp_linearization[0], 18

    def slot_pencil(slots):
        coeffs = np.zeros_like(density.coeffs)
        coeffs[slots] = density.coeffs[slots]
        kept = df.FourierMatrixDensity(density.omega, density.delays, coeffs)
        return hill_matrix(kept, bound)(0.0)

    diagonal = slot_pencil([])
    H = [slot_pencil([j]) - diagonal for j in range(len(density.delays))]
    for lam in (-0.0006242654 + 0j, -0.0778793241 + 0j):
        for _ in range(6):
            T = hill_matrix(density, bound)(lam)
            dT = sum(t * np.exp(lam * t) * h for t, h in zip(density.delays, H))
            lam -= 1.0 / np.trace(np.linalg.solve(T, dT - np.eye(len(T))))
        for tol in (1e-9, 1e-11, 1e-13):
            root, ok = _hill_refine(HillBlocks(density, bound), lam, tol)
            assert ok and abs(root - lam) < 1e-13


def test_hill_refine_converges_from_just_off_the_root():
    # from 4e-5i, 1e-4i and -1e-4 off the s3 root near -0.89 - 1.06i the run
    # converges back onto it; a start 1e-4 off lies on the edge of
    # CLASS_TOL, which is why the check runs with no radius
    s3 = s3_density()
    hill = HillBlocks(s3, 20)
    (lam,) = [z for z in contour_classes(hill, BOX) if abs(z + 0.89 + 1.06j) < 0.01]
    root, ok = _hill_refine(hill, lam, 1e-13)
    assert ok
    for offset in (4e-5j, 1e-4j, -1e-4):
        end, ok = _hill_refine(hill, root + offset, 1e-9)
        assert ok and abs(end - root) < 1e-12


def test_hill_refine_rejected_lambda_does_not_converge():
    dens = parametric_density(-0.4, 0.3, -0.3)
    assert _hill_refine(HillBlocks(dens, 6), complex(OVERFLOW, 0.2), 1e-10) == (
        complex(OVERFLOW, 0.2),
        False,
    )


def test_negative_multiplier_class_is_reported_once():
    # the class sits on the strip edge Im = 1/2 (a negative real multiplier);
    # its raw roots at +-1/2 are one class modulo i
    dens = parametric_density(-0.5, 2.0, -0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cf = [m.lam for m in find_exponents(dens, n_win=8, depth=8)]
        risken = [m.lam for m in find_exponents_risken(dens, depth=8)]
    mono = [lam for lam, _ in df.monodromy_exponents(dens)]
    assert len(mono) == 2
    for got in (cf, risken):
        assert len(got) == len(mono)
        for want in mono:
            near = [z for z in got if abs(df.to_strip(z - want)) < 1e-6]
            assert len(near) == 1
    assert sum(abs(z - (-0.685885 + 0.5j)) < 1e-6 for z in cf + risken) == 2
