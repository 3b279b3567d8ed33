"""Every route finds the same exponent classes of small random real kernels.

The kernels dq/dxi = W_1(xi) q(xi - 1) + W_2(xi) q(xi) have d in {1, 2}
components and harmonics |k| <= K in {0, 1, 2}, coefficient magnitudes
falling by 4 per harmonic and a damping -0.5 I on the undelayed weight.
They are drawn once, from a fixed seed, before any route runs.  Inside
the CLI default box the contour solve on the Hill matrix, both continued
fraction routes and the monodromy oracle must agree class for class, and
for K = 0 so must the characteristic roots.  The continued fraction
closure is the exact Schur complement of T(lambda) onto block 0, so its
Newton run converges from every contour eigenvalue, K = 2 included.
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
from ddefloquet import floquet, rootfind
from ddefloquet.errors import ContourCountWarning, NewtonStallWarning
from ddefloquet.model import HillBlocks
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


def newton_runs(monkeypatch, fn, *args, **kwargs):
    """fn(*args, **kwargs), one record per `floquet._newton` run it made, and
    the Hill bounds of the `_hill_logdet` calls made outside every run.

    A record holds the bounds of the class blocks of T off which the run
    evaluated det M, the bounds at which it evaluated the Hill determinant,
    its number of `_hill_logdet` calls and whether it converged.
    """
    runs, outside = [], []
    newton = floquet._newton
    determinant, logdet = floquet._closure_determinant, floquet._hill_logdet
    active = False

    def run(*a, **k):
        nonlocal active
        runs.append({"closures": set(), "bounds": set(), "logdets": 0})
        active = True
        try:
            root, ok = newton(*a, **k)
        finally:
            active = False
        runs[-1]["ok"] = ok
        return root, ok

    def closure(blocks, lams):
        runs[-1]["closures"].add(blocks.bound)
        return determinant(blocks, lams)

    def hill(blocks, lams):
        if active:
            runs[-1]["bounds"].add(blocks.bound)
            runs[-1]["logdets"] += 1
        else:
            outside.append(blocks.bound)
        return logdet(blocks, lams)

    with monkeypatch.context() as mp:
        mp.setattr(floquet, "_newton", run)
        mp.setattr(floquet, "_closure_determinant", closure)
        mp.setattr(floquet, "_hill_logdet", hill)
        result = fn(*args, **kwargs)
    return result, runs, outside


def _monodromy_classes(density):
    """The oracle's exponents in BOX."""
    return [
        lam
        for lam, _ in monodromy_exponents(density, re_min=BOX[0])
        if lam.real <= BOX[1]
    ]


def _same_classes(name, got, want, tol=1e-6):
    """Each value of `got` within tol of one of `want` modulo i, and back."""
    assert len(got) == len(want), (name, got, want)
    for z in got:
        assert min(abs(to_strip(z - w)) for w in want) < tol, (name, z)
    for w in want:
        assert min(abs(to_strip(z - w)) for z in got) < tol, (name, w)


@pytest.mark.parametrize("d, K", CASES, ids=[f"d{d}-K{K}" for d, K in CASES])
def test_routes_agree_class_for_class(d, K, monkeypatch):
    density = KERNELS[d, K]
    mono = _monodromy_classes(density)
    assert mono
    modes, runs, outside = newton_runs(monkeypatch, find_exponents, density, box=BOX)
    # each class gets one converged Newton run on det M at the search
    # window, then one truncation check: a run of the same Newton on the
    # Hill determinant of the window enlarged by two, evaluating no closure
    assert len(runs) == 2 * len(modes) and not outside
    for closure, check in zip(runs[0::2], runs[1::2]):
        assert closure["closures"] == {20} and closure["ok"]
        assert not closure["bounds"]
        assert check["bounds"] == {22} and not check["closures"]
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
        "contour": contour_classes(HillBlocks(density, 20), BOX),
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


@pytest.mark.parametrize("seed", [10, 8], ids=["seed10-d2-K0", "seed8-d2-K0"])
def test_the_contour_faults_agree_with_monodromy(seed):
    # two d = 2, K = 0 kernels the contour got wrong at 64 nodes per side
    # with its strip edge fixed at Im = -1/4.  Seed 10: a class's translate
    # sat 0.038 inside the upper edge, and two classes came back 0.504 off
    # monodromy, unconverged.  Seed 8: a ContourCountWarning, 6 eigenvalues
    # against a winding number of 5 in Re [-3, -2.5]
    density = _draw_kernels(seed)[2, 0]
    mono = _monodromy_classes(density)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        routes = {
            "cf": find_exponents(density, box=BOX),
            "risken": find_exponents_risken(density, box=BOX),
        }
    assert not caught, [str(w.message) for w in caught]
    for name, modes in routes.items():
        assert all(m.converged for m in modes), name
        _same_classes(name, [m.lam for m in modes], mono)


def test_a_rectangle_returns_no_eigenvalue_that_fails_the_residual_check(monkeypatch):
    # seed 10 d2-K0 with the strip edge held at -1/4 and no moves left: of
    # the Beyn step's eigenvalues inside, one is 0.11 off every class, and
    # its residual |T v| / (|T|_F |v|) is about 1e-3
    density = _draw_kernels(10)[2, 0]
    checked = []
    acceptance = rootfind._acceptance

    def recorded(hill, lams, vecs):
        residuals = acceptance(hill, lams, vecs)
        checked.extend(zip(lams, residuals))
        return residuals

    monkeypatch.setattr(rootfind, "_acceptance", recorded)
    hill = HillBlocks(density, 20)
    with pytest.warns(ContourCountWarning, match="1 rejected by the residual check"):
        found = rootfind._contour_solve(hill, -3.0, 1.0, rootfind.STRIP_EDGE, 64, 0)
    passed = [lam for lam, r in checked if r <= rootfind.ACCEPT_TOL]
    rejected = [lam for lam, r in checked if r > rootfind.ACCEPT_TOL]
    assert len(rejected) == 1 and [lam for lam, _ in found] == passed
    mono = _monodromy_classes(density)
    for lam in passed:
        assert min(abs(to_strip(lam - w)) for w in mono) < 1e-6
    assert min(abs(to_strip(rejected[0] - w)) for w in mono) > 0.1
