import numpy as np
import pytest

import ddefloquet as df
from ddefloquet import (
    BlowUp,
    SegmentState,
    StepTooLarge,
    characteristic_roots,
    integrate_mos,
    monodromy_exponents,
    oracles,
)
from ddefloquet.model import DdeSystem, MonomialTerm, rescale
from ddefloquet.systems import constant_density, linear_scalar_system, s1_system


def test_undelayed_exponential_decay():
    # q' = -q with an irrelevant delay slot still in the system
    sys0 = DdeSystem(1, 1.0, (MonomialTerm(-1.0, 0, (1,), (0,)),))
    traj = integrate_mos(sys0, lambda th: np.array([np.exp(-th)]), 1.0, 0.02)
    assert abs(traj.at(1.0)[0] - np.exp(-1.0)) < 1e-8


def test_cosine_solution_of_pure_delay():
    # q'(xi) = -q(xi - pi/2) solved exactly by cos(xi)
    sys0 = linear_scalar_system(0.0, -1.0, np.pi / 2)
    traj = integrate_mos(sys0, lambda th: np.array([np.cos(th)]), 2 * np.pi, np.pi / 200)
    xi = np.linspace(0.5, 2 * np.pi, 40)
    err = max(abs(traj.at(x)[0] - np.cos(x)) for x in xi)
    assert err < 1e-6


def test_step_too_large_rejected():
    sys0 = linear_scalar_system(0.0, -1.0, 1.0)
    with pytest.raises(StepTooLarge):
        integrate_mos(sys0, lambda th: np.array([1.0]), 1.0, 0.5)


def test_blowup_guard():
    sys0 = DdeSystem(1, 1.0, (MonomialTerm(30.0, 0, (1,), (0,)),))
    with pytest.raises(BlowUp):
        integrate_mos(sys0, lambda th: np.array([1.0]), 5.0, 0.02)


def test_segment_state_validation():
    with pytest.raises(ValueError):
        SegmentState(np.linspace(-1.0, 0.0, 5), np.zeros((5, 1)))  # too few
    undelayed = df.FourierMatrixDensity(1.0, [0.0], [[[[-1.0]]]])
    with pytest.raises(ValueError, match="theta < 0"):
        monodromy_exponents(undelayed)
    grid = np.linspace(-1.0, 0.0, 41)
    seg = SegmentState(grid, np.ones((41, 1)))
    assert seg.delay == pytest.approx(1.0)


def test_semigroup_property():
    sys0 = rescale(s1_system(), 1.0)
    h = sys0.tau / 200
    one = integrate_mos(sys0, lambda th: np.array([np.cos(th)]), 3.5, h)
    leg1 = integrate_mos(sys0, lambda th: np.array([np.cos(th)]), 2.0, h)
    mid = leg1.segment(2.0, npts=201)
    leg2 = integrate_mos(sys0, mid, 1.5, h)
    assert np.max(np.abs(leg2.at(1.5) - one.at(3.5))) < 1e-8


def test_monodromy_constant_decay():
    # scalar a = -1, b = 0: rho = exp(-2 pi / omega), lambda = -1/omega
    dens = constant_density(-1.0, 0.0, omega=1.0, tau=1.0)
    out = monodromy_exponents(dens, 40, re_min=-1.5)
    lam, rho = out[0]
    assert abs(rho - np.exp(-2 * np.pi)) < 1e-8
    assert abs(lam - (-1.0)) < 1e-8


def test_monodromy_matches_characteristic_roots():
    dens = constant_density(0.0, -np.pi / 2, omega=1.0, tau=1.0)
    out = monodromy_exponents(dens, re_min=-0.5)
    lams = sorted((lam for lam, _ in out), key=lambda z: z.imag)
    assert len(lams) >= 2
    # leading multipliers on the unit circle at strip positions of +-i pi/2
    want = sorted(
        (df.to_strip(1j * np.pi / 2), df.to_strip(-1j * np.pi / 2)),
        key=lambda z: z.imag,
    )
    for got, expect in zip(lams[:2], want):
        assert abs(got - expect) < 1e-5
    for _, rho in out[:2]:
        assert abs(abs(rho) - 1.0) < 1e-5


def test_monodromy_grid_refinement_converges():
    dens = constant_density(-0.2, -0.4, omega=1.0, tau=1.0)
    roots = [df.to_strip(r) for r in characteristic_roots(
        -0.2, -0.4, 1.0, 1.0, box=(-1.6, 0.5, -1.0, 1.0)
    )]

    def error(lam):
        return min(abs(lam - r) for r in roots)

    def leading(degree):
        rho = np.linalg.eigvals(oracles._monodromy_matrix(dens, degree))
        return np.log(rho[np.argmax(np.abs(rho))]) / (2 * np.pi)

    # spectral convergence: doubling the degree from 4 to 8 gains far more
    # than the 16x of a fourth order scheme (1.5e-4 -> 2.4e-10)
    assert error(leading(8)) < error(leading(4)) * 1e-4
    assert error(monodromy_exponents(dens, re_min=-1.6)[0][0]) < 1e-12


def test_characteristic_roots_scalar_cases():
    roots = characteristic_roots(-1.0, 0.0, 1.0, 1.0, box=(-2.0, 0.5, -0.5, 0.5))
    assert any(abs(r + 1.0) < 1e-12 for r in roots)

    roots = characteristic_roots(0.0, -np.pi / 2, 1.0, 1.0, box=(-1.0, 1.0, -2.0, 2.0))
    assert any(abs(r - 1j * np.pi / 2) < 1e-12 for r in roots)
    assert any(abs(r + 1j * np.pi / 2) < 1e-12 for r in roots)
    for r in roots:
        assert abs(r - (-np.pi / 2) * np.exp(-r)) < 1e-12


def test_characteristic_roots_block_diagonal_union():
    a = np.diag([-1.0, -0.3])
    b = np.diag([0.0, -0.2])
    roots2 = characteristic_roots(a, b, 1.0, 1.0, box=(-2.0, 0.5, -0.5, 0.5))
    r1 = characteristic_roots(-1.0, 0.0, 1.0, 1.0, box=(-2.0, 0.5, -0.5, 0.5))
    r2 = characteristic_roots(-0.3, -0.2, 1.0, 1.0, box=(-2.0, 0.5, -0.5, 0.5))
    for r in r1 + r2:
        assert min(abs(r - q) for q in roots2) < 1e-10


def test_mode_advances_by_multiplier(s3, s3_modes):
    # one period of the linearized flow multiplies an eigenmode segment by rho
    mode = s3_modes[0]
    delay = float(-s3.delays[0])
    degree = 20
    grid = delay * (oracles._lobatto(degree)[0] - 1.0) / 2
    init = np.array([mode.segment(0.0, th)[0] for th in grid])
    got = oracles._monodromy_matrix(s3, degree) @ init
    want = mode.multiplier * init
    rel = np.max(np.abs(got - want)) / np.max(np.abs(want))
    assert rel < 1e-4
