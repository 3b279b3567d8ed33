import numpy as np
import pytest

from ddefloquet import CutoffTooSmall, FourierSeries


def grid_project(f, cutoff, npts=256):
    """Independent oracle: pointwise values -> discrete Fourier projection."""
    xi = np.linspace(0.0, 2 * np.pi, npts, endpoint=False)
    vals = f(xi)
    coeffs = np.array(
        [np.mean(vals * np.exp(-1j * n * xi)) for n in range(-cutoff, cutoff + 1)]
    )
    return coeffs


def test_cos_times_cos_identity():
    c = FourierSeries.cosine(1.0)
    p = c.convolve(c)
    # cos^2 = 1/2 + 1/2 cos(2 xi)
    assert abs(p.coefficient(0) - 0.5) < 1e-15
    assert abs(p.coefficient(2) - 0.25) < 1e-15
    assert abs(p.coefficient(1)) < 1e-15


def test_harmonic_times_constant():
    e = FourierSeries(np.array([0.0, 0.0, 1.0]))  # exp(i xi)
    one = FourierSeries.constant(1.0)
    p = e.convolve(one)
    assert abs(p.coefficient(1) - 1.0) < 1e-15
    assert p.norm() == pytest.approx(1.0)


def test_cos_cubed_against_grid_oracle():
    c = FourierSeries.cosine(1.0)
    cube = c.convolve(c).convolve(c)
    want = grid_project(lambda xi: np.cos(xi) ** 3, cube.cutoff)
    got = np.array([cube.coefficient(n) for n in range(-cube.cutoff, cube.cutoff + 1)])
    assert np.max(np.abs(got - want)) < 1e-12
    # closed form: 3/4 cos + 1/4 cos 3xi
    assert abs(cube.coefficient(1) - 0.375) < 1e-14
    assert abs(cube.coefficient(3) - 0.125) < 1e-14


def test_product_equals_pointwise_multiplication(rng):
    a = FourierSeries(rng.standard_normal(7) + 1j * rng.standard_normal(7))
    b = FourierSeries(rng.standard_normal(9) + 1j * rng.standard_normal(9))
    p = a.convolve(b)
    xi = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    direct = a.evaluate(xi) * b.evaluate(xi)
    assert np.max(np.abs(p.evaluate(xi) - direct)) < 1e-12


def test_cutoff_too_small_raises():
    c = FourierSeries.cosine(1.0, n=3)
    with pytest.raises(CutoffTooSmall):
        c.convolve(c).truncate(2, tail_frac=1e-10)


def test_truncation_keeps_small_tail():
    c = FourierSeries.cosine(1.0)
    p = c.convolve(c).truncate(2, tail_frac=1e-10)
    assert p.cutoff == 2


def test_shift_and_periodicity():
    c = FourierSeries.cosine(2.0) + FourierSeries.sine(0.5, n=3)
    xi = np.linspace(0.0, 2 * np.pi, 17)
    shifted = c.shift(0.8)
    assert np.max(np.abs(shifted.evaluate(xi) - c.evaluate(xi - 0.8))) < 1e-13
    assert np.max(np.abs(c.evaluate(xi) - c.evaluate(xi + 2 * np.pi))) < 1e-12


def test_derivative_matches_finite_differences():
    c = FourierSeries.cosine(1.3) + FourierSeries.sine(-0.4, n=2)
    xi = np.linspace(0.0, 2 * np.pi, 11)
    h = 1e-6
    fd = (c.evaluate(xi + h) - c.evaluate(xi - h)) / (2 * h)
    assert np.max(np.abs(c.derivative().evaluate(xi) - fd)) < 1e-7


def test_real_series_symmetry_enforced():
    arr = np.zeros(3, dtype=complex)
    arr[2] = 1.0 + 0.5j  # n = +1 only: not a real series
    s = FourierSeries(arr)
    assert not s.is_real()
    sym = s.symmetrized()
    assert sym.is_real()
    xi = np.linspace(0, 2 * np.pi, 9)
    assert np.max(np.abs(np.imag(sym.evaluate(xi)))) < 1e-15


def test_matrix_vector_convolution():
    m = FourierSeries.constant(np.array([[0.0, 1.0], [1.0, 0.0]]))
    v = FourierSeries(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 2.0]]))  # n = 1
    p = m.convolve(v)
    assert np.allclose(p.coefficient(1), [2.0, 1.0])


def test_vector_vector_product_rejected():
    v = FourierSeries.constant(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        v.convolve(v)
