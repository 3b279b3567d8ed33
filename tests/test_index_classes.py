"""T(lambda) couples only indices whose difference is a multiple of the gcd
g of the band offsets with a nonzero coefficient, so up to a permutation
it is block-diagonal over the residues of n mod g.  The partition follows
the exact-zero rule, and every factorization on the class blocks gives
what the whole T gives, up to rounding."""

import numpy as np
import pytest

import ddefloquet as df
from ddefloquet import cli, floquet, model
from ddefloquet.floquet import _hill_logdet, _null_vector
from ddefloquet.model import HillBlocks, hill_matrix, index_classes
from ddefloquet.rootfind import contour_classes
from ddefloquet.systems import s3_density
from ddefloquet.verify import cosine_similarity, s2_linearization
from test_cross_route import BOX, KERNELS

S2_BOX = (-0.6, 0.3, -0.5, 0.5)
OVERFLOW = -800.0  # Re(lambda) * theta beyond the exponent guard at theta = -1


def _harmonics_3_and_6():
    """A real d = 2 kernel whose only harmonics are k = 0, +-3 and +-6."""
    rng = np.random.default_rng(3)
    c = np.zeros((2, 13, 2, 2), dtype=complex)
    for k in (0, 3, 6):
        draw = rng.normal(0, 0.4, (2, 2, 2)) + 1j * rng.normal(0, 0.4, (2, 2, 2))
        c[:, 6 + k] = draw * 0.25 ** (k // 3)
    c[:, 6 - 3], c[:, 6 - 6] = np.conj(c[:, 6 + 3]), np.conj(c[:, 6 + 6])
    c[:, 6] = c[:, 6].real
    c[1, 6] -= 0.5 * np.eye(2)
    return df.FourierMatrixDensity(1.0, np.array([-1.0, 0.0]), c)


def _kernel(name):
    """(density, box, bound) of each kernel the class split is checked on."""
    if name == "s2-verify":
        return s2_linearization(0.1, 2)[0], S2_BOX, 16
    if name == "s2-cli":
        cfg = dict(cli.DEFAULTS, system="builtin:s2")
        return cli._density_from_config(cfg), BOX, 20
    if name == "d2-K0":
        return KERNELS[2, 0], BOX, 20
    return _harmonics_3_and_6(), BOX, 20


def _whole_window(density, bound):
    return [np.arange(-bound, bound + 1)]


def test_the_coupling_rule_is_said_once():
    # the ladders of floquet solve on model's class of n = 0, so the Hill
    # blocks and the continued fraction read one rule
    assert floquet.index_classes is model.index_classes
    assert not hasattr(floquet, "_coupled_offsets")


def test_s2_splits_into_even_and_odd(vdp_linearization):
    density = vdp_linearization[0]
    even, odd = index_classes(density, 16)
    assert np.array_equal(even, np.arange(-16, 17, 2))
    assert np.array_equal(odd, np.arange(-15, 16, 2))


def test_s3_is_one_class():
    (whole,) = index_classes(s3_density(), 20)
    assert np.array_equal(whole, np.arange(-20, 21))


def test_a_k0_kernel_leaves_every_index_alone():
    assert KERNELS[2, 0].bandwidth == 0
    classes = index_classes(KERNELS[2, 0], 20)
    assert [c.tolist() for c in classes] == [[n] for n in range(-20, 21)]
    # a band whose every offset carries exact zeros couples nothing either
    coeffs = np.pad(KERNELS[2, 0].coeffs, ((0, 0), (2, 2), (0, 0), (0, 0)))
    wide = df.FourierMatrixDensity(1.0, KERNELS[2, 0].delays, coeffs)
    assert [c.tolist() for c in index_classes(wide, 3)] == [[n] for n in range(-3, 4)]


def test_harmonics_3_and_6_give_three_classes():
    classes = index_classes(_harmonics_3_and_6(), 20)
    assert [c.tolist() for c in classes] == [list(range(r, 21, 3)) for r in (-20, -19, -18)]


def test_a_tiny_coefficient_still_couples(vdp_linearization):
    # the rule is exact zeros, not a threshold
    density = vdp_linearization[0]
    coeffs = density.coeffs.copy()
    coeffs[0, density.bandwidth + 1, 0, 1] = 1e-300
    tiny = df.FourierMatrixDensity(density.omega, density.delays, coeffs)
    (whole,) = index_classes(tiny, 16)
    assert np.array_equal(whole, np.arange(-16, 17))


@pytest.mark.parametrize("name", ["s2-verify", "s2-cli", "d2-K0", "harmonics-3-6"])
def test_the_contour_on_the_classes_is_the_contour_on_the_whole_t(name, monkeypatch):
    density, box, bound = _kernel(name)
    assert len(index_classes(density, bound)) > 1
    split = contour_classes(HillBlocks(density, bound), box)
    with monkeypatch.context() as mp:
        mp.setattr(model, "index_classes", _whole_window)
        (rows,) = HillBlocks(density, bound).rows
        assert np.array_equal(rows, np.arange((2 * bound + 1) * density.dim)[None])
        whole = contour_classes(HillBlocks(density, bound), box)
    assert len(split) == len(whole) >= 1
    for a, b in zip(split, whole):
        assert abs(a - b) < 1e-13


@pytest.mark.parametrize("name", ["s2-verify", "s2-cli", "d2-K0", "harmonics-3-6"])
def test_hill_logdet_on_the_classes_is_slogdet_of_the_whole_t(name):
    density, box, bound = _kernel(name)
    lams = np.array([0.1 + 0.2j, OVERFLOW / -density.delays[0], -1.3 - 0.4j, box[0] + 0.5j])
    sign, logabs = _hill_logdet(HillBlocks(density, bound), lams)
    with np.errstate(invalid="ignore"):
        want_sign, want_log = np.linalg.slogdet(hill_matrix(density, bound)(lams))
    rejected = np.isnan(want_log)
    assert rejected.tolist() == [False, True, False, False]
    assert np.isnan(sign[rejected]).all() and np.isnan(logabs[rejected]).all()
    assert np.abs(sign[~rejected] - want_sign[~rejected]).max() < 1e-12
    scale = np.maximum(np.abs(want_log[~rejected]), 1.0)
    assert (np.abs(logabs[~rejected] - want_log[~rejected]) / scale).max() < 1e-12


@pytest.mark.parametrize("left", [False, True])
def test_the_null_vector_on_the_classes_is_that_of_the_whole_t(
    vdp_linearization, left, monkeypatch
):
    # at the zero mode the class with the smallest singular value holds the
    # vector, and the second singular value is the whole T's s[-2]
    density = vdp_linearization[0]
    modes = df.find_exponents(density, box=S2_BOX, n_win=8, depth=8, tol=1e-9)
    lam = min(modes, key=lambda m: abs(m.lam)).lam_raw
    split = _null_vector(density, lam, 8, 8, left)
    with monkeypatch.context() as mp:
        mp.setattr(model, "index_classes", _whole_window)
        whole = _null_vector(density, lam, 8, 8, left)
    comps, residual, least, second = split
    assert np.abs(comps - whole[0]).max() < 1e-12
    assert abs(residual - whole[1]) < 1e-13
    s = np.linalg.svd(hill_matrix(density, 16)(lam), compute_uv=False)
    assert abs(least - s[-1]) < 1e-13 * s[0] and abs(least - whole[2]) < 1e-13 * s[0]
    assert abs(second - s[-2]) < 1e-13 * s[0] and abs(second - whole[3]) < 1e-13 * s[0]


def test_a_translate_whose_class_lacks_n0_is_scaled_by_its_largest_entry(
    vdp_linearization,
):
    # each s2 mode is reported at the translate where its null vector peaks
    # at n = 0, so at lambda + i the vector lives in the other class and
    # block 0 is exactly zero: the cut is scaled by its largest entry
    # instead, and the primal one is the same eigensolution shifted by one
    # index, T(lambda + i) being T(lambda) with its indices shifted by one
    density = vdp_linearization[0]
    for mode in df.find_exponents(density, box=S2_BOX, n_win=8, depth=8, tol=1e-9):
        primal = df.extract_mode(density, mode.lam_raw + 1j, 8, 8)
        adjoint = df.adjoint_modes(density, mode.lam_raw + 1j, 8, 8)
        for other in (primal, adjoint):
            assert not other.components[8].any()
            assert abs(np.abs(other.components).max() - 1.0) < 1e-15
            assert other.residual < 1e-12
        assert cosine_similarity(primal.components[:-1], mode.components[1:]) > 1 - 1e-9
