import numpy as np
import pytest

import ddefloquet as df
from ddefloquet import DrivenOscillator, expand_pl, expand_shohat, orbit_to_state
from ddefloquet.errors import CutoffTooSmall, DegenerateSecularWarning
from ddefloquet.orbit import orbit_residual_series
from ddefloquet.systems import S2_TAU, s2_model


def closed_form_vdp_order1(omega0, tau):
    """First order solvability of f = (1 - q^2) q'_tau in closed form.

    The sine condition -A cos(w0 tau) (1 - A^2/4) = 0 fixes A = 2 and the
    cosine condition A sin(w0 tau)(1 - 3A^2/4) + 2 w1 A = 0 then gives
    w1 = sin(w0 tau).
    """
    return 2.0, np.sin(omega0 * tau)


def test_mu_zero_is_pure_cosine(vdp_model):
    exp = expand_pl(vdp_model, 0.0, 0)
    assert exp.omega() == pytest.approx(1.0)
    x = exp.assemble()
    assert abs(x.coefficient(1) - exp.amplitudes[0] / 2) < 1e-12
    assert x.cutoff == 1 or x.trim().cutoff == 1


def test_vdp_order1_closed_form(vdp_model):
    exp = expand_pl(vdp_model, 0.05, 1)
    a0, w1 = closed_form_vdp_order1(1.0, S2_TAU)
    assert exp.amplitudes[0] == pytest.approx(a0, abs=1e-10)
    assert exp.freq_coeffs[1] == pytest.approx(w1, abs=1e-10)


def test_vdp_order1_closed_form_other_delay():
    model = DrivenOscillator(
        omega0=1.0, tau=0.8, forcing=((1.0, (0, 0, 0, 1)), (-1.0, (2, 0, 0, 1)))
    )
    exp = expand_pl(model, 0.02, 1)
    assert exp.amplitudes[0] == pytest.approx(2.0, abs=1e-10)
    assert exp.freq_coeffs[1] == pytest.approx(np.sin(0.8), abs=1e-10)


def test_no_secular_terms(vdp_orbit2):
    assert max(vdp_orbit2.secular_defects) < 1e-10


def test_initial_condition_convention(vdp_orbit2):
    for m, xm in enumerate(vdp_orbit2.x_orders):
        assert float(np.real(xm.evaluate(0.0))) == pytest.approx(
            vdp_orbit2.amplitudes[m], abs=1e-12
        )
        assert abs(np.real(xm.derivative().evaluate(0.0))) < 1e-12


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_residual_slope_is_order_plus_one(vdp_model, order):
    mus = [0.01, 0.02, 0.05, 0.1]
    res = [df.oscillator_residual(expand_pl(vdp_model, mu, order)) for mu in mus]
    slope = np.polyfit(np.log(mus), np.log(res), 1)[0]
    assert abs(slope - (order + 1)) < 0.5


def test_series_residual_matches_pointwise(vdp_orbit2):
    series_norm = orbit_residual_series(vdp_orbit2).norm()
    point_rms = df.oscillator_residual(vdp_orbit2)
    # same quantity through two routes, different norms but same order
    assert 0.1 < series_norm / point_rms < 10.0


def test_shohat_matches_pl_for_small_mu(vdp_model):
    mu = 1e-3
    pl = expand_pl(vdp_model, mu, 1)
    sh = expand_shohat(vdp_model, mu, 1)
    assert (pl.assemble() - sh.assemble()).norm() < 50 * mu**2
    assert abs(pl.omega() - sh.omega()) < 50 * mu**2


def test_shohat_frequency_reconstruction(vdp_model):
    sh = expand_shohat(vdp_model, 0.1, 2)
    rho = sh.parameter
    omegas = sh.freq_coeffs
    want = omegas[0] + rho * (omegas[1] - omegas[0]) + rho**2 * (omegas[2] - omegas[1])
    assert sh.omega() == pytest.approx(want, abs=1e-14)
    assert rho == pytest.approx(0.1 / 1.1)
    assert omegas[0] == pytest.approx(1.0)


def test_shohat_order1_equals_pl_shifted(vdp_model):
    # Omega_1 = omega0 + omega_1 at first order
    sh = expand_shohat(vdp_model, 0.05, 1)
    assert sh.freq_coeffs[1] == pytest.approx(1.0 + np.sin(S2_TAU), abs=1e-10)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_shohat_residual_also_scales(vdp_model, order):
    mus = [0.02, 0.05, 0.1]
    res = [df.oscillator_residual(expand_shohat(vdp_model, mu, order)) for mu in mus]
    slope = np.polyfit(np.log(mus), np.log(res), 1)[0]
    assert abs(slope - (order + 1)) < 0.7


def test_cutoff_keeps_an_orbit_that_fits_and_refuses_one_that_does_not(
    vdp_model, vdp_orbit2
):
    assert [x.cutoff for x in vdp_orbit2.x_orders] == [1, 3, 5]
    for cutoff in (5, 9):
        exp = expand_pl(vdp_model, 0.1, 2, cutoff=cutoff)
        for got, want in zip(exp.x_orders, vdp_orbit2.x_orders):
            assert np.array_equal(got.coeffs, want.coeffs)
        assert exp.freq_coeffs == vdp_orbit2.freq_coeffs
        assert exp.amplitudes == vdp_orbit2.amplitudes
    with pytest.raises(CutoffTooSmall):
        expand_pl(vdp_model, 0.1, 2, cutoff=3)


@pytest.mark.parametrize(
    "exponents", [(-1, 0, 0, 1), (0, 0, 1), (0, 0, 0, 1, 0), (2.5, 0, 0, 1)]
)
def test_forcing_exponents_are_four_nonnegative_integers(exponents):
    # a negative exponent used to expand as exponent 0
    with pytest.raises(ValueError):
        DrivenOscillator(omega0=1.0, tau=0.5, forcing=((-1.0, exponents),))


def test_orbit_to_state_mu_zero(vdp_model):
    exp = expand_pl(vdp_model, 0.0, 0)
    state, omega = orbit_to_state(exp)
    a0 = exp.amplitudes[0]
    xi = np.linspace(0, 2 * np.pi, 33)
    vals = state.evaluate_real(xi)
    assert np.max(np.abs(vals[:, 0] - a0 * np.cos(xi))) < 1e-12
    assert np.max(np.abs(vals[:, 1] + a0 * omega * np.sin(xi))) < 1e-12


def test_state_second_component_is_omega_dx(vdp_orbit2):
    state, omega = orbit_to_state(vdp_orbit2)
    d1 = df.FourierSeries(state.coeffs[:, 0]).derivative().scale(omega)
    diff = d1 - df.FourierSeries(state.coeffs[:, 1])
    assert diff.norm() < 1e-12


def test_state_grid_roundtrip(vdp_orbit2):
    state, _ = orbit_to_state(vdp_orbit2)
    N = state.cutoff
    xi = np.linspace(0.0, 2 * np.pi, 4 * (2 * N + 1), endpoint=False)
    vals = state.evaluate(xi)
    for n in range(-N, N + 1):
        proj = np.mean(vals * np.exp(-1j * n * xi)[:, None], axis=0)
        assert np.max(np.abs(proj - state.coefficient(n))) < 1e-12


def test_degenerate_forcing_flags_amplitude():
    # pure cubic restoring force: no sine harmonic, amplitude stays free
    duffing = DrivenOscillator(omega0=1.0, tau=0.5, forcing=((1.0, (3, 0, 0, 0)),))
    with pytest.warns(DegenerateSecularWarning):
        exp = expand_pl(duffing, 0.05, 1, a_start=1.0)
    assert exp.flags
    # with A = 1 and a softening +q^3 forcing the shift is -3 A^2 / 8
    assert exp.freq_coeffs[1] == pytest.approx(-3.0 / 8.0, abs=1e-10)
