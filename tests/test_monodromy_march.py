"""The oracles against a straight per-stage RK4 march.

The references below are the plain method of steps: one weight evaluation
and one cubic Lagrange read per RK4 stage, the history appended point by
point.  `integrate_mos` precomputes its stencils instead and must give the
same trajectory to the last bit.  The monodromy map is a Chebyshev
collocation, a different discretization, so its multipliers must land on
the reference's within the reference's own Richardson shift.
"""

import functools

import numpy as np
import pytest

from ddefloquet import integrate_mos, oracles
from ddefloquet.errors import GridTooCoarse
from ddefloquet.model import FourierMatrixDensity, rescale
from ddefloquet.systems import s2_model, s3_density
from ddefloquet.verify import s2_linearization

M_GRID = 40  # RK4 reference pair 40/80
DEGREE = 20  # the default collocation degree of monodromy_exponents


def _lagrange4(times, values, t):
    n = times.shape[0]
    i = int(np.searchsorted(times, t))
    lo = min(max(i - 2, 0), n - 4)
    ts = times[lo : lo + 4]
    out = 0.0
    for k in range(4):
        w = 1.0
        for l in range(4):
            if l != k:
                w *= (t - ts[l]) / (ts[k] - ts[l])
        out = out + w * values[lo + k]
    return out


def _reference_map(density, m_grid):
    """Period map by one weight evaluation and one read per RK4 stage."""
    delay = float(-density.delays[0])
    n = density.dim
    npts = m_grid + 1
    ncols = npts * n
    n_steps = int(np.ceil(2 * np.pi / (delay / m_grid)))
    h = 2 * np.pi / n_steps
    series = [density.weight_series(j) for j in range(len(density.delays))]

    times = np.empty(npts + n_steps)
    values = np.zeros((npts + n_steps, n, ncols), dtype=complex)
    times[:npts] = np.linspace(-delay, 0.0, npts)
    for i in range(npts):
        for d in range(n):
            values[i, d, i * n + d] = 1.0
    fill = npts

    def rhs(t, y):
        acc = series[-1].evaluate(t) @ y
        for th, w in zip(density.delays[:-1], series[:-1]):
            acc = acc + w.evaluate(t) @ _lagrange4(times[:fill], values[:fill], t + th)
        return acc

    t = 0.0
    y = values[npts - 1]
    for _ in range(n_steps):
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + h / 2 * k1)
        k3 = rhs(t + h / 2, y + h / 2 * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t = t + h
        times[fill] = t
        values[fill] = y
        fill += 1

    out = np.zeros((ncols, ncols), dtype=complex)
    for i, th in enumerate(np.linspace(-delay, 0.0, npts)):
        out[i * n : (i + 1) * n] = _lagrange4(times, values, 2 * np.pi + th)
    return out


def _reference_exponents(density, m_grid, re_min):
    """monodromy_exponents' Richardson selection on the reference maps.

    Returns (fine multiplier, its shift from the coarse one) pairs; each
    must pass the check monodromy_exponents applies, rich_tol = 1e-3.
    """
    rho_floor = np.exp(2 * np.pi * re_min)
    coarse = np.linalg.eigvals(_reference_map(density, m_grid))
    fine = np.linalg.eigvals(_reference_map(density, 2 * m_grid))
    out = []
    for r in coarse[np.abs(coarse) >= rho_floor]:
        near = fine[np.argmin(np.abs(fine - r))]
        assert abs(near - r) <= 1e-3 * max(abs(r), rho_floor)
        out.append((near, abs(near - r)))
    return out


def _real_pair():
    # (A + C cos xi) q + B q(xi - 1); real coefficients, conjugate symmetric
    a = np.array([[-0.4, 0.3], [-0.2, -0.6]])
    b = np.array([[-0.3, 0.1], [0.05, -0.4]])
    c = np.array([[0.1, 0.0], [0.2, -0.05]])
    coeffs = np.zeros((2, 3, 2, 2), dtype=complex)
    coeffs[0, 1] = b
    coeffs[1, 0] = coeffs[1, 2] = c / 2
    coeffs[1, 1] = a
    return FourierMatrixDensity(omega=1.0, delays=np.array([-1.0, 0.0]), coeffs=coeffs)


def _complex_pair():
    real = _real_pair()
    coeffs = np.array(real.coeffs)
    coeffs[1, 2] = coeffs[1, 2] * 1j  # C e^{i xi} / 2 turned by 90 degrees
    coeffs[0, 1, 0, 1] += 0.05j
    return FourierMatrixDensity(omega=1.0, delays=real.delays, coeffs=coeffs)


def _three_delays():
    # q' = (-0.3 + 0.1 cos xi) q - 0.3 q(xi - 1) + (-0.2 + 0.1 sin xi) q(xi - 0.4)
    coeffs = np.zeros((3, 3, 1, 1), dtype=complex)
    coeffs[0, 1] = -0.3
    coeffs[1, 0] = 0.05j
    coeffs[1, 1] = -0.2
    coeffs[1, 2] = -0.05j
    coeffs[2, 0] = coeffs[2, 2] = 0.05
    coeffs[2, 1] = -0.3
    return FourierMatrixDensity(
        omega=1.0, delays=np.array([-1.0, -0.4, 0.0]), coeffs=coeffs
    )


def _delays(delays):
    return FourierMatrixDensity(
        omega=1.0, delays=np.array(delays), coeffs=_three_delays().coeffs
    )


# name: (kernel, re_min)
KERNELS = {
    "s3": (s3_density, -1.5),
    "real-d2": (_real_pair, -1.5),
    "complex-d2": (_complex_pair, -1.5),
    "three-delays": (_three_delays, -1.5),
    "s2": (lambda: s2_linearization()[0], -0.6),
}
# a read at xi - 0.03 lands inside the piece it is collocated on; with a
# delay longer than the period the period is one piece, and the exponents
# crowd so fast below Re -0.25 that the RK4 pair 40/80 resolves no more
EXTREME = {(-1.0, -0.03, 0.0): -1.5, (-8.0, -0.4, 0.0): -0.25}


@functools.lru_cache(maxsize=None)
def _reference(name):
    build, re_min = KERNELS[name]
    return _reference_exponents(build(), M_GRID, re_min)


def _assert_on_reference(got, want):
    """Same count, and each reference multiplier within its own shift."""
    assert len(got) == len(want) > 0
    for rho, shift in want:
        assert min(abs(r - rho) for r in got) <= shift


@pytest.mark.parametrize("name", KERNELS)
def test_map_matches_the_per_stage_march(name):
    density = KERNELS[name][0]()
    got = oracles._monodromy_matrix(density, DEGREE)
    assert got.shape == ((DEGREE + 1) * density.dim,) * 2
    assert np.isrealobj(got) == density.is_real()
    rho = np.linalg.eigvals(got)
    for want, shift in _reference(name):
        assert np.min(np.abs(rho - want)) <= shift


@pytest.mark.parametrize("delays", EXTREME)
def test_extreme_delays_match_the_per_stage_march(delays):
    density = _delays(delays)
    want = _reference_exponents(density, M_GRID, EXTREME[delays])
    got = oracles.monodromy_exponents(density, re_min=EXTREME[delays])
    _assert_on_reference([rho for _, rho in got], want)


def test_a_long_delay_asks_for_a_higher_degree():
    # a delay eight times the period packs so many exponents into
    # Re > -1.5 that no degree resolves them all (20 to 200 all fail), and
    # RK4 at 400/800 fails the same check there
    with pytest.raises(GridTooCoarse, match="from degree 20 to 40; raise m_grid"):
        oracles.monodromy_exponents(_delays((-8.0, -0.4, 0.0)), re_min=-1.5)


@pytest.mark.parametrize("name", KERNELS)
def test_exponents_match_the_reference_route(name):
    density, re_min = KERNELS[name][0](), KERNELS[name][1]
    got = oracles.monodromy_exponents(density, re_min=re_min)
    _assert_on_reference([rho for _, rho in got], _reference(name))


def test_conjugate_pairs_list_the_lower_member_first():
    out = oracles.monodromy_exponents(s3_density(), re_min=-1.5)
    keys = [(-abs(rho), lam.imag) for lam, rho in out]
    assert keys == sorted(keys)
    pairs = [(a, b) for a, b in zip(out, out[1:]) if abs(a[1]) == abs(b[1])]
    assert pairs
    for (lam_a, rho_a), (lam_b, rho_b) in pairs:
        assert rho_a == np.conj(rho_b) and lam_a.imag < 0 < lam_b.imag


def _reference_trajectory(system, segment, xi_end, h):
    """integrate_mos by one cubic Lagrange read per RK4 stage."""
    times = list(segment.grid)
    values = list(np.asarray(segment.values, dtype=float))

    def rhs(t, y):
        qd = _lagrange4(np.asarray(times), np.asarray(values), t - system.tau)
        return system.rhs(y, qd)

    t = 0.0
    y = values[-1]
    for _ in range(int(np.ceil(xi_end / h - 1e-12))):
        step = min(h, xi_end - t)
        k1 = rhs(t, y)
        k2 = rhs(t + step / 2, y + step / 2 * k1)
        k3 = rhs(t + step / 2, y + step / 2 * k2)
        k4 = rhs(t + step, y + step * k3)
        y = y + step / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t = t + step
        times.append(t)
        values.append(y)
    return np.asarray(times), np.asarray(values)


def test_integrate_mos_matches_the_per_stage_march():
    # nonlinear delayed van der Pol, with a short last step
    system = rescale(s2_model().to_dde(0.1), 1.0)
    h = system.tau / 40
    seg = oracles.SegmentState.from_callable(
        lambda th: np.array([2.0 * np.cos(th), -2.0 * np.sin(th)]), system.tau, 41
    )
    traj = integrate_mos(system, seg, 3.3 * system.tau + 0.3 * h, h)
    times, values = _reference_trajectory(system, seg, 3.3 * system.tau + 0.3 * h, h)
    # the same arithmetic in the same order: equal to the last bit
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.values, values)
    probes = np.linspace(-system.tau, times[-1], 13)
    want = np.array([_lagrange4(times, values, x) for x in probes])
    assert np.array_equal(traj.at(probes), want)
