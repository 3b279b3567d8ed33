import numpy as np
import pytest

import ddefloquet as df
from ddefloquet import (
    CutoffTooSmall,
    DdeSystem,
    ExponentOverflow,
    FourierSeries,
    MonomialTerm,
    NonpositiveFrequency,
    build_L,
    linearize_about_orbit,
    rescale,
)
from ddefloquet.systems import constant_density, linear_scalar_system, s2_model


def test_rescale_identity_at_unit_frequency():
    sys0 = linear_scalar_system(-1.0, 0.5, 2.0)
    r = rescale(sys0, 1.0)
    assert r.tau == 2.0
    assert [t.coeff for t in r.terms] == [t.coeff for t in sys0.terms]


def test_rescale_divides_coefficients():
    sys0 = linear_scalar_system(0.0, -1.0, 1.0)
    r = rescale(sys0, 2.0)
    assert r.tau == 2.0
    assert r.terms[0].coeff == -0.5
    with pytest.raises(NonpositiveFrequency):
        rescale(sys0, 0.0)


def test_rescale_vdp_against_symbolic_substitution():
    model = s2_model()
    sys0 = model.to_dde(0.1)
    w = 1.3
    r = rescale(sys0, w)
    q = np.array([0.4, -0.2])
    qd = np.array([0.1, 0.3])
    assert np.allclose(r.rhs(q, qd), sys0.rhs(q, qd) / w)
    assert r.tau == pytest.approx(w * sys0.tau)


def test_monomial_powers_are_nonnegative_integers():
    # a power of -1 evaluated a reciprocal in rhs and a zero Jacobian in the
    # linearization
    with pytest.raises(ValueError):
        MonomialTerm(1.0, 0, (0,), (-1,))
    with pytest.raises(ValueError):
        MonomialTerm(1.0, 0, (2.5,), (0,))
    assert MonomialTerm(1.0, 0, (0,), (1,)).degree() == 1


def test_constant_orbit_gives_constant_jacobians():
    # q' = q - q^3 + 0.5 q_tau about the fixed point q* of the full rhs
    terms = (
        MonomialTerm(1.0, 0, (1,), (0,)),
        MonomialTerm(-1.0, 0, (3,), (0,)),
        MonomialTerm(0.5, 0, (0,), (1,)),
    )
    sys0 = DdeSystem(1, 1.0, terms)
    qstar = np.sqrt(1.5)  # q - q^3 + 0.5 q = 0
    orbit = FourierSeries.constant(np.array([qstar]))
    w = 1.0
    dens = linearize_about_orbit(sys0, orbit, w)
    assert dens.bandwidth == 0
    # undelayed jacobian 1 - 3 q*^2, delayed jacobian 0.5
    assert np.allclose(dens.coeffs[1, 0], (1 - 3 * qstar**2) / w)
    assert np.allclose(dens.coeffs[0, 0], 0.5 / w)


def test_linear_system_linearizes_to_itself():
    sys0 = linear_scalar_system(-0.3, -0.5, 1.0)
    orbit = FourierSeries.from_components([FourierSeries.cosine(0.7)])
    dens = linearize_about_orbit(sys0, orbit, 1.0)
    assert dens.bandwidth == 0
    assert np.allclose(dens.coeffs[1, 0], -0.3)
    assert np.allclose(dens.coeffs[0, 0], -0.5)


def test_vdp_density_against_finite_difference_jacobian(vdp_linearization_full):
    density, exp, state, omega = vdp_linearization_full
    sys_t = s2_model().to_dde(0.1)
    delay = omega * sys_t.tau
    for xi in np.linspace(0.0, 2 * np.pi, 64, endpoint=False):
        q0 = state.evaluate_real(xi)
        qd = state.evaluate_real(xi - delay)
        eps = 1e-6
        j0 = np.zeros((2, 2))
        jd = np.zeros((2, 2))
        for j in range(2):
            dq = np.zeros(2)
            dq[j] = eps
            j0[:, j] = (sys_t.rhs(q0 + dq, qd) - sys_t.rhs(q0 - dq, qd)) / (2 * eps)
            jd[:, j] = (sys_t.rhs(q0, qd + dq) - sys_t.rhs(q0, qd - dq)) / (2 * eps)
        assert np.max(np.abs(density.evaluate_weight(1, xi).real - j0 / omega)) < 1e-8
        assert np.max(np.abs(density.evaluate_weight(0, xi).real - jd / omega)) < 1e-8


def _random_system(rng, dim=3, tau=0.8):
    """A polynomial delay system whose first term has variable 0 both
    undelayed and delayed, plus random monomials of power <= 2 each."""
    terms = [MonomialTerm(float(rng.normal()), 1, (1, 1, 0), (2, 0, 1))]
    for _ in range(5):
        powers = tuple(int(p) for p in rng.integers(0, 3, dim))
        delayed = tuple(int(p) for p in rng.integers(0, 3, dim))
        target = int(rng.integers(dim))
        terms.append(MonomialTerm(float(rng.normal()), target, powers, delayed))
    return DdeSystem(dim, tau, tuple(terms))


@pytest.mark.parametrize("seed", range(4))
def test_random_density_against_finite_difference_jacobian(seed):
    rng = np.random.default_rng(seed)
    system = _random_system(rng)
    c = 0.4 * (rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3)))
    state = FourierSeries(c + np.conj(c[::-1]))  # real, cutoff 2
    omega = 1.3
    density = linearize_about_orbit(system, state, omega)
    delay = omega * system.tau
    eps = 1e-6
    for xi in np.linspace(0.0, 2 * np.pi, 16, endpoint=False):
        q0 = state.evaluate_real(xi)
        qd = state.evaluate_real(xi - delay)
        j0 = np.zeros((3, 3))
        jd = np.zeros((3, 3))
        for j in range(3):
            dq = np.zeros(3)
            dq[j] = eps
            j0[:, j] = (system.rhs(q0 + dq, qd) - system.rhs(q0 - dq, qd)) / (2 * eps)
            jd[:, j] = (system.rhs(q0, qd + dq) - system.rhs(q0, qd - dq)) / (2 * eps)
        tol = 1e-8 * max(1.0, np.max(np.abs(j0)), np.max(np.abs(jd)))
        assert np.max(np.abs(density.evaluate_weight(1, xi) - j0 / omega)) < tol
        assert np.max(np.abs(density.evaluate_weight(0, xi) - jd / omega)) < tol


def _s2_kernel_inputs(mu, order):
    model = s2_model()
    state, omega = df.orbit_to_state(df.expand_pl(model, mu, order))
    return model.to_dde(mu), state, omega


def test_an_explicit_bandwidth_that_drops_too_much_raises():
    args = _s2_kernel_inputs(0.3, 2)
    with pytest.raises(CutoffTooSmall):
        linearize_about_orbit(*args, bandwidth=6, tail_frac=1e-4)


def test_an_explicit_bandwidth_above_the_products_pads_the_default_kernel():
    system, state, omega = _s2_kernel_inputs(0.1, 2)
    default = linearize_about_orbit(system, state, omega)
    wide = system.degree() * state.cutoff + 2
    padded = linearize_about_orbit(system, state, omega, bandwidth=wide)
    assert padded.bandwidth == wide
    K, pad = default.bandwidth, wide - default.bandwidth
    assert np.array_equal(padded.coeffs[:, pad : pad + 2 * K + 1], default.coeffs)
    assert not padded.coeffs[:, :pad].any() and not padded.coeffs[:, -pad:].any()


def test_density_real_symmetry(vdp_linearization_full):
    density = vdp_linearization_full[0]
    assert density.is_real()


def test_build_L_single_zero_delay_slot():
    # a kernel supported only at theta = 0 gives L independent of lambda, n
    coeffs = np.zeros((1, 3, 1, 1), dtype=complex)
    coeffs[0, :, 0, 0] = [0.1, -0.4, 0.1]
    dens = df.FourierMatrixDensity(1.0, np.array([0.0]), coeffs)
    t1 = build_L(dens, 0.3 + 1j, 3)
    t2 = build_L(dens, -2.0, 3)
    for k in (-1, 0, 1):
        for n in (-3, 0, 2):
            assert t1.get(k, n) == pytest.approx(t2.get(k, n))
            assert t1.get(k, n)[0, 0] == pytest.approx(coeffs[0, k + 1, 0, 0])


def test_build_L_constant_scalar_values():
    # a = 0, b = -pi/2, omega = tau = 1: L_00(i pi/2) = i pi/2
    dens = constant_density(0.0, -np.pi / 2, 1.0, 1.0)
    tab = build_L(dens, 1j * np.pi / 2, 1)
    assert tab.get(0, 0)[0, 0] == pytest.approx(1j * np.pi / 2, abs=1e-14)
    # lambda = 0, n = 0: L_00 = (a + b)/omega
    tab0 = build_L(constant_density(0.5, -1.0, 2.0, 1.0), 0.0, 0)
    assert tab0.get(0, 0)[0, 0] == pytest.approx((0.5 - 1.0) / 2.0)


def test_build_L_quadrature_oracle(vdp_linearization):
    density = vdp_linearization[0]
    lam = 0.2 + 0.3j
    tab = build_L(density, lam, 4)
    K = density.bandwidth
    for k in (-2, 0, 1):
        for n in (-3, 0, 4):
            want = np.zeros((2, 2), dtype=complex)
            for s, theta in enumerate(density.delays):
                want += density.coeffs[s, k + K] * np.exp((lam + 1j * n) * theta)
            assert np.max(np.abs(tab.get(k, n) - want)) < 1e-12


def test_build_L_reality_relation(vdp_linearization):
    # L_{-k,n}(lam) = conj(L_{k,-n}(conj(lam))) for real kernels
    density = vdp_linearization[0]
    lam = -0.4 + 0.7j
    t1 = build_L(density, lam, 5)
    t2 = build_L(density, np.conj(lam), 5)
    for k in range(-density.bandwidth, density.bandwidth + 1):
        for n in (-4, -1, 0, 2, 5):
            assert np.max(np.abs(t1.get(-k, n) - np.conj(t2.get(k, -n)))) < 1e-12


def test_build_L_overflow_guard():
    dens = constant_density(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ExponentOverflow):
        build_L(dens, 1e4, 1)
