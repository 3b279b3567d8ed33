"""Every route finds the same exponent classes of small random real kernels.

The kernels dq/dxi = W_1(xi) q(xi - 1) + W_2(xi) q(xi) have d in {1, 2}
components and harmonics |k| <= K in {0, 1, 2}, coefficient magnitudes
falling by 4 per harmonic and a damping -0.5 I on the undelayed weight.
They are drawn once, from a fixed seed, before any route runs.  Inside
the CLI default box the contour solve on the Hill matrix, both continued
fraction routes and the monodromy oracle must agree class for class, and
for K = 0 so must the characteristic roots.
"""

import warnings

import numpy as np
import pytest

from ddefloquet import (
    FourierMatrixDensity,
    adjoint_modes,
    characteristic_roots,
    find_exponents,
    monodromy_exponents,
)
from ddefloquet.errors import NewtonStallWarning
from ddefloquet.risken import find_exponents_risken
from ddefloquet.rootfind import contour_classes, to_strip

SEED = 7
BOX = (-3.0, 1.0, -0.5, 0.5)
CASES = [(d, K) for d in (1, 2) for K in (0, 1, 2)]


def _draw_kernels(seed):
    rng = np.random.default_rng(seed)
    kernels = {}
    for d, K in CASES:
        shape = (2, 2 * K + 1, d, d)
        c = rng.normal(0.0, 0.4, shape) + 1j * rng.normal(0.0, 0.4, shape)
        c *= (0.25 ** np.abs(np.arange(-K, K + 1)))[None, :, None, None]
        # a real kernel: C_{-k} = conj(C_k)
        c = 0.5 * (c + np.conj(c[:, ::-1]))
        c[1, K] -= 0.5 * np.eye(d)
        kernels[d, K] = FourierMatrixDensity(1.0, np.array([-1.0, 0.0]), c)
    return kernels


KERNELS = _draw_kernels(SEED)


def _same_classes(name, got, want, tol=1e-6):
    """Each value of `got` within tol of one of `want` modulo i, and back."""
    assert len(got) == len(want), (name, got, want)
    for z in got:
        assert min(abs(to_strip(z - w)) for w in want) < tol, (name, z)
    for w in want:
        assert min(abs(to_strip(z - w)) for z in got) < tol, (name, w)


@pytest.mark.parametrize("d, K", CASES, ids=[f"d{d}-K{K}" for d, K in CASES])
def test_routes_agree_class_for_class(d, K):
    density = KERNELS[d, K]
    mono = [
        lam
        for lam, _ in monodromy_exponents(density, re_min=BOX[0])
        if lam.real <= BOX[1]
    ]
    assert mono
    modes = find_exponents(density, box=BOX)
    risken = find_exponents_risken(density, box=BOX)
    # every mode of either route passes the truncation check, whichever
    # Newton run or contour value produced it, and solves the recurrence
    for m in modes + risken:
        assert m.converged and m.residual < 1e-8
    # and every adjoint solves the left recurrence
    for m in modes:
        assert adjoint_modes(density, m.lam_raw, m.n_win, m.depth).residual < 1e-8
    routes = {
        # the Hill window of find_exponents at its defaults, |n| <= 20
        "contour": contour_classes(density, BOX, 20),
        "cf": [m.lam for m in modes],
        "risken": [m.lam for m in risken],
    }
    if K == 0:
        a, b = density.coeffs[1, 0], density.coeffs[0, 0]
        # raw roots, which reach Im +-10 in Re >= -3; the grid scan drops
        # the seeds that lead nowhere with a warning
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NewtonStallWarning)
            routes["characteristic"] = characteristic_roots(
                a, b, box=(BOX[0], BOX[1], -12.0, 12.0), grid=(41, 241)
            )
    for name, got in routes.items():
        _same_classes(name, got, mono)


def test_risken_flags_the_pair_its_window_truncates():
    # seed 8, d = 2, K = 1: the pair -2.9048 +- 0.2955i peaks at the edge of
    # the window and its Hill root moves under the enlarged truncation.
    # The tridiagonal route must not report it as converged: its two roots
    # are not conjugates of each other on this real kernel
    modes = find_exponents_risken(_draw_kernels(8)[2, 1], box=BOX)
    lams = [m.lam for m in modes]
    for m in modes:
        if m.converged:
            assert min(abs(to_strip(np.conj(m.lam)) - z) for z in lams) < 1e-10
    pair = [m for m in modes if abs(abs(m.lam.imag) - 0.2955) < 1e-3]
    assert len(pair) == 2
    assert all(abs(m.lam.real + 2.9048) < 1e-3 for m in pair)
    assert not any(m.converged for m in pair)
