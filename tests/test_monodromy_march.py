"""The array marches of the oracles against a straight per-stage march.

The references below are the plain method of steps the oracles are defined
by: one weight evaluation and one cubic Lagrange read per RK4 stage, the
history appended point by point.  The oracles precompute stencils (and, for
the linear monodromy march, per-step propagators) instead; both must give
the same period map and the same trajectory.
"""

import numpy as np
import pytest

from ddefloquet import integrate_mos, oracles, rootfind
from ddefloquet.model import FourierMatrixDensity, rescale
from ddefloquet.systems import s2_model, s3_density

M_GRID = 40


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
    """monodromy_exponents' Richardson selection on the reference maps."""
    rho_floor = np.exp(2 * np.pi * re_min)
    coarse = np.linalg.eigvals(_reference_map(density, m_grid))
    fine = np.linalg.eigvals(_reference_map(density, 2 * m_grid))
    return [fine[np.argmin(np.abs(fine - r))] for r in coarse if abs(r) >= rho_floor]


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


KERNELS = {
    "s3": s3_density,
    "real-d2": _real_pair,
    "complex-d2": _complex_pair,
    "three-delays": _three_delays,
}


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("name", KERNELS)
def test_map_matches_the_per_stage_march(name):
    density = KERNELS[name]()
    got = oracles._monodromy_matrix(density, M_GRID)
    assert got.shape == ((M_GRID + 1) * density.dim,) * 2
    assert np.isrealobj(got) == density.is_real()
    assert _rel(got, _reference_map(density, M_GRID)) < 1e-11


@pytest.mark.parametrize("name", KERNELS)
def test_map_does_not_depend_on_the_block_size(name, monkeypatch):
    density = KERNELS[name]()
    blocked = oracles._monodromy_matrix(density, M_GRID)
    monkeypatch.setattr(rootfind, "CHUNK_BYTES", 1)
    stepwise = oracles._monodromy_matrix(density, M_GRID)
    assert _rel(stepwise, blocked) < 1e-13


@pytest.mark.parametrize("delays", [(-1.0, -0.03, 0.0), (-8.0, -0.4, 0.0)])
def test_extreme_delays_match_the_per_stage_march(delays):
    # a read at xi - 0.03 lands within one step of the march front, so every
    # block is a single step and the stencil clamps onto the newest points;
    # a delay longer than the period keeps every point of the march
    density = FourierMatrixDensity(
        omega=1.0, delays=np.array(delays), coeffs=_three_delays().coeffs
    )
    got = oracles._monodromy_matrix(density, M_GRID)
    assert _rel(got, _reference_map(density, M_GRID)) < 1e-11


def test_history_serves_only_the_last_delay_window(s3):
    npts = M_GRID + 1
    init = np.eye(npts).reshape(npts, 1, npts)
    history = oracles._linear_march(s3, init, 2 * np.pi)
    assert history(2 * np.pi - 1.0).shape == (1, npts)
    with pytest.raises(ValueError):
        history(2 * np.pi - 1.2)


@pytest.mark.parametrize("name", ["s3", "complex-d2"])
def test_exponents_match_the_reference_route(name):
    density = KERNELS[name]()
    re_min = -1.5
    want = _reference_exponents(density, M_GRID, re_min)
    got = oracles.monodromy_exponents(density, M_GRID, re_min=re_min)
    assert len(got) == len(want) > 0
    for _, rho in got:
        near = min(want, key=lambda r: abs(r - rho))
        assert abs(near - rho) <= 1e-10 * abs(near)


def test_conjugate_pairs_list_the_lower_member_first():
    out = oracles.monodromy_exponents(s3_density(), M_GRID, re_min=-1.5)
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
