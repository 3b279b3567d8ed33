"""The benchmark's traced run wraps ddefloquet functions by name from
outside the package; a rename or a changed call shape must fail here, not
silently in the trace."""

import dataclasses
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import ddefloquet as df
from ddefloquet import (
    adjoint,
    cli,
    errors,
    floquet,
    linalg,
    model,
    oracles,
    orbit,
    risken,
    rootfind,
)
from ddefloquet.systems import constant_density, s2_model
from test_cross_route import BOX as CROSS_BOX
from test_cross_route import KERNELS as CROSS_KERNELS
from test_cross_route import newton_runs
from test_risken_planes import _wide_band_density

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_resolves():
    wrapped = _load_spans().WRAPPED
    assert wrapped
    for name, (modname, attr) in wrapped.items():
        owner = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            target = getattr(owner, cls_name).__dict__.get(meth)
        else:
            target = getattr(owner, attr, None)
        assert callable(target), f"{name}: {modname}.{attr} does not resolve"


def test_special_wrappers_match_the_call_shapes():
    # the SPECIAL wrappers of the traced run take `f` as the first argument
    # of find_roots and _newton, unpack (root, ok) from _newton and count
    # len() of what find_exponents returns
    for fn in (rootfind.find_roots, rootfind._newton):
        assert next(iter(inspect.signature(fn).parameters)) == "f"
    out = rootfind._newton(lambda z: z - 0.5, 0.4 + 0.1j, 1e-12)
    assert isinstance(out, tuple) and len(out) == 2
    dens = constant_density(-1.0, 0.0, omega=1.0, tau=1.0)
    modes = floquet.find_exponents(dens, box=(-2, 0.5, -0.5, 0.5), n_win=4, depth=4)
    assert isinstance(modes, list) and len(modes) == 1
    # the benchmark passes these by keyword, and nothing else is settable;
    # `grid` is unused and stays only because the benchmark passes it
    assert list(inspect.signature(floquet.find_exponents).parameters) == [
        "density", "box", "n_win", "depth", "tol", "grid"
    ]


def test_the_widened_grid_scan_is_gone():
    # the contour solve on T(lambda) locates every class once: no widened
    # scan band, no refinement hook, no window null space retry, no grid
    assert not hasattr(rootfind, "find_classes")
    assert not hasattr(floquet, "IM_PAD")
    assert not hasattr(floquet, "_window_null_mode")
    assert list(inspect.signature(rootfind.find_roots).parameters) == [
        "f", "box", "grid", "tol", "point_bytes"
    ]
    assert "grid" not in inspect.signature(risken.find_exponents_risken).parameters
    assert "grid" not in cli.DEFAULTS


def _run_fresh(script):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, timeout=120
    )
    assert done.returncode == 0, done.stderr.decode()


def test_a_search_leaves_numpy_random_unimported():
    # the contour probe is deterministic; importing numpy.random alone adds
    # about 5 MB to the peak memory the benchmark bounds
    _run_fresh(
        "import sys\n"
        "from ddefloquet import find_exponents\n"
        "from ddefloquet.systems import s3_density\n"
        "assert len(find_exponents(s3_density())) == 4\n"
        "assert 'numpy.random' not in sys.modules\n"
    )


def test_the_collocation_oracle_imports_no_polynomial_library():
    # the Chebyshev nodes, weights and differentiation matrix are written in
    # closed form, so neither the import the benchmark's setup_s times nor a
    # monodromy run pulls in scipy or numpy.polynomial
    _run_fresh(
        "import sys\n"
        "import ddefloquet\n"
        "def clean():\n"
        "    return not {'scipy', 'numpy.polynomial'} & set(sys.modules)\n"
        "assert clean()\n"
        "from ddefloquet.systems import s3_density\n"
        "assert len(ddefloquet.monodromy_exponents(s3_density())) == 4\n"
        "assert clean()\n"
    )


def test_the_rk4_period_map_is_gone():
    # the RK4 map lives on only as the reference of test_monodromy_march
    assert not hasattr(oracles, "_linear_march")
    assert not hasattr(oracles, "_rk4_increment")


def test_one_continued_fraction_run_per_class_on_s3(s3, monkeypatch):
    # each class gets one converged Newton run on det M at the search window
    # (10, 10), then one truncation check: a run of the same Newton on the
    # Hill determinant at bound 22 that evaluates no closure.  No continued
    # fraction is re-run at (12, 12)
    modes, runs, outside = newton_runs(monkeypatch, floquet.find_exponents, s3)
    assert len(modes) == 4
    closure = {"windows": {(10, 10)}, "bounds": set(), "logdets": 0, "ok": True}
    assert runs[0::2] == [closure] * 4
    assert [(r["windows"], r["bounds"]) for r in runs[1::2]] == [(set(), {22})] * 4
    assert len(runs) == 8 and not outside


def test_the_truncation_check_is_a_run_of_the_shared_newton(s3, monkeypatch):
    # each check is one `_newton` step from its converged root, so one
    # `_hill_logdet` call, made inside that run; the check has no Newton
    # loop or budget of its own
    assert not hasattr(floquet, "HILL_MAX_ITER")
    _, runs, outside = newton_runs(monkeypatch, floquet.find_exponents, s3)
    assert [r["logdets"] for r in runs] == [0, 1] * 4
    assert not outside


def test_both_searches_run_one_class_loop(s3, monkeypatch):
    # the two continued fraction searches differ only in the closure whose
    # determinant Newton refines and in the window; the contour, the Newton
    # budget, the modes and the truncation check are one loop, and the
    # tridiagonal route keeps no loop or drop path of its own
    assert risken._search is floquet._search
    shared = floquet._search
    windows = []

    def recorded(density, box, n_win, depth, tol, det_at):
        windows.append((n_win, depth))
        return shared(density, box, n_win, depth, tol, det_at)

    for module in (floquet, risken):
        monkeypatch.setattr(module, "_search", recorded)
    assert len(floquet.find_exponents(s3)) == len(risken.find_exponents_risken(s3)) == 4
    assert windows == [(10, 10), (10, 10)]
    for name in ("_newton", "contour_classes", "NewtonStallWarning"):
        assert not hasattr(risken, name)


def test_both_searches_hand_the_contour_the_cf_window(s3, monkeypatch):
    # the contour, the modes and the truncation check run on |n| <= n_win +
    # depth, the window of the continued fraction, on both routes, also
    # where the tridiagonal blocks stack two indices per half block
    bounds = []

    def recorded(hill, box):
        bounds.append(hill.bound)
        return []

    monkeypatch.setattr(floquet, "contour_classes", recorded)
    assert floquet.find_exponents(s3) == risken.find_exponents_risken(s3) == []
    assert bounds == [20, 20]
    wide = _wide_band_density()
    assert risken._stack_width(wide.bandwidth) == 2
    risken.find_exponents_risken(wide, depth=10)
    assert bounds[-1] == 2 * 10


def test_one_newton_stopping_rule():
    # a damped Newton run stops on a failed step, on leaving its radius, on
    # a step within tol or at the end of its budget; no stall floor and no
    # loose acceptance
    assert not hasattr(rootfind, "FLOOR_TOL")
    assert not hasattr(rootfind, "STALL_STEPS")
    assert list(inspect.signature(rootfind._damped_newton).parameters) == [
        "step", "lam0", "tol", "max_iter", "radius"
    ]


def _search_window_evaluations(monkeypatch, density, **settings):
    """The lambda values passed to det M at the search window by one
    find_exponents call, and the number of classes it reports."""
    n_win, depth = settings.get("n_win", 10), settings.get("depth", 10)
    determinant = floquet.closure_determinant
    count = 0

    def counted(density, lam, nw, dp):
        nonlocal count
        if (nw, dp) == (n_win, depth):
            count += np.size(lam)
        return determinant(density, lam, nw, dp)

    with monkeypatch.context() as patch:
        patch.setattr(floquet, "closure_determinant", counted)
        modes = floquet.find_exponents(density, **settings)
    return count, len(modes)


def test_a_pinched_run_stops_after_one_newton_step(vdp_linearization, monkeypatch):
    # every continued fraction run on s2 leaves its class on its first step;
    # spending the SEEDED_ITER budget took 48 evaluations of det M
    count, classes = _search_window_evaluations(
        monkeypatch,
        vdp_linearization[0],
        box=(-0.6, 0.3, -0.5, 0.5),
        n_win=8,
        depth=8,
        tol=1e-9,
    )
    assert classes == 2
    assert count == 3 * classes
    # the seeded d = 1, K = 2 kernel pinches at each of its six classes,
    # which took 144 evaluations
    count, classes = _search_window_evaluations(
        monkeypatch, CROSS_KERNELS[1, 2], box=CROSS_BOX
    )
    assert classes == 6
    assert count <= 3 * classes


def test_monodromy_spans_split_the_march_from_eigvals(monkeypatch):
    # oracles.monodromy.march_s is the time in _monodromy_matrix and
    # eigvals_s the rest of monodromy_exponents, so the map must come back
    # whole from _monodromy_matrix and its eigenvalues be taken outside it
    assert list(inspect.signature(oracles._monodromy_matrix).parameters) == [
        "density", "m_grid"
    ]
    dens = constant_density(np.diag([-1.0, -0.5]), np.diag([0.0, -0.2]))
    events = []
    march, eigvals = oracles._monodromy_matrix, np.linalg.eigvals

    def traced_march(*args):
        events.append("march")
        out = march(*args)
        events.append("map")
        return out

    def traced_eigvals(m):
        events.append("eigvals")
        return eigvals(m)

    monkeypatch.setattr(np.linalg, "eigvals", traced_eigvals)
    side = oracles._monodromy_matrix(dens, 20).shape
    assert side == (21 * 2, 21 * 2) and events == []
    monkeypatch.setattr(oracles, "_monodromy_matrix", traced_march)
    oracles.monodromy_exponents(dens, 20, re_min=-1.2)
    assert events == ["march", "map", "eigvals"] * 2


def test_risken_reads_no_l_table_and_eliminates_through_lapack(monkeypatch):
    # the tridiagonal route reads its blocks off the pencil, and it and the
    # ladder operators solve through the one stacked LAPACK solve of linalg:
    # one call per sweep level, one per ladder evaluation
    for name in ("build_L", "LMatrixTable", "recurrence_blocks", "_window"):
        assert not hasattr(risken, name)
    callers = []
    for module in (floquet, risken):

        def counted(a, b, module=module):
            callers.append(module.__name__.rsplit(".", 1)[1])
            return linalg.solve_stack(a, b)

        monkeypatch.setattr(module, "solve_stack", counted)
    coeffs = np.zeros((1, 3, 2, 2), dtype=complex)
    coeffs[0, 1] = [[-0.5, 0.3], [0.3, -0.3]]
    coeffs[0, 0] = coeffs[0, 2] = 0.1 * np.eye(2)
    dens = df.FourierMatrixDensity(1.0, np.array([0.0]), coeffs)
    risken.closure_determinant_risken(dens, 0.1 + 0.2j, 2)
    assert callers == ["risken"] * 2
    callers.clear()
    floquet.closure_determinant(dens, np.array([0.1 + 0.2j, 0.3j]), 2, 2)
    assert callers == ["floquet"]


def test_the_insertion_passes_are_gone():
    # the ladder operators are one exact solve: no module keeps a pass, its
    # budget, its stopping rules or the hand-written elimination it ran on
    deleted = (
        "plane_solve",
        "_run_passes",
        "_matrix_passes",
        "EXTRA_PASSES",
        "EARLY_EXIT",
        "DIVERGENCE_GUARD",
    )
    for info in pkgutil.iter_modules(df.__path__):
        module = importlib.import_module(f"ddefloquet.{info.name}")
        for name in deleted:
            assert not hasattr(module, name), (info.name, name)
    assert not hasattr(df, "plane_solve")
    assert "passes" not in {f.name for f in dataclasses.fields(floquet.LadderSet)}


def test_one_adjoint_route_and_one_hand_written_elimination(s3, s3_modes, monkeypatch):
    # linalg writes no elimination of its own, and adjoint_modes and
    # extract_mode read the null vectors of T(lambda) without a ladder or a
    # closure matrix
    for name in ("_lu", "_substitute", "solve_batch"):
        assert not hasattr(linalg, name)
    assert not hasattr(errors, "PrescriptionFallbackWarning")
    for module, name in ((adjoint, "_transposed_ladders"), (floquet, "_climb")):
        assert not hasattr(module, name)

    def forbidden(*args, **kwargs):
        raise AssertionError("a mode called the continued fraction")

    for name in ("ladder_operators", "assemble_M"):
        monkeypatch.setattr(floquet, name, forbidden)
        monkeypatch.setattr(adjoint, name, forbidden, raising=False)
    monkeypatch.delattr(adjoint, "solve_linear")
    mode = s3_modes[0]
    adjoint.adjoint_modes(s3, mode.lam_raw, mode.n_win, mode.depth)
    floquet.extract_mode(s3, mode.lam_raw, mode.n_win, mode.depth)


def test_the_contour_builds_the_hill_matrix_once_without_an_l_table(
    s3, vdp_linearization, monkeypatch
):
    # the contour evaluates the exponential pencil of model.hill_matrix at
    # its nodes: no L table per node, and no pencil per node either; s2
    # splits into even and odd indices of two sizes, one pencil each
    calls = []
    for module in (model, rootfind, floquet, adjoint, risken):
        for name in ("build_L", "hill_matrix"):
            if hasattr(module, name):
                original = getattr(module, name)

                def counted(*args, name=name, original=original):
                    calls.append(name)
                    return original(*args)

                monkeypatch.setattr(module, name, counted)
    found = rootfind.contour_classes(model.HillBlocks(s3, 20), (-3.0, 1.0, -0.5, 0.5))
    assert len(found) >= 2
    assert calls == ["hill_matrix"]
    calls.clear()
    hill = model.HillBlocks(vdp_linearization[0], 16)
    found = rootfind.contour_classes(hill, (-0.6, 0.3, -0.5, 0.5))
    assert len(found) == 2
    assert calls == ["hill_matrix"] * 2

    # a whole search builds each pencil once, whatever its number of
    # classes: at the window for the contour and the mode SVDs, at the
    # window enlarged by two for the Hill check, one per class size at
    # each, and on |n| <= n_win for the mode residuals.  The Gauss rule of
    # the contour is computed once per process.
    builds = []
    rules = []
    hill_matrix = model.hill_matrix
    leggauss = np.polynomial.legendre.leggauss

    def built(density, bound, members=None):
        builds.append((bound, None if members is None else np.shape(members)[1]))
        return hill_matrix(density, bound, members)

    def rule(*args):
        rules.append(args)
        return leggauss(*args)

    for module in (model, floquet):
        monkeypatch.setattr(module, "hill_matrix", built)
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", rule)
    rootfind._gauss_rule.cache_clear()
    for density, boxes, n_win, counts, want in (
        (
            s3,
            [(-3.0, 1.0, -0.5, 0.5), (-1.0, 0.0, 0.0, 0.5)],
            10,
            [4, 1],
            [(20, 41), (22, 45), (10, None)],
        ),
        (
            vdp_linearization[0],
            [(-0.6, 0.3, -0.5, 0.5), (-0.04, 0.3, -0.5, 0.5)],
            8,
            [2, 1],
            [(16, 17), (16, 16), (18, 19), (18, 18), (8, None)],
        ),
    ):
        for box, count in zip(boxes, counts):
            builds.clear()
            modes = floquet.find_exponents(
                density, box=box, n_win=n_win, depth=n_win, tol=1e-9
            )
            assert len(modes) == count
            assert builds == want
    # a search that finds no class builds only the contour's pencils
    builds.clear()
    with pytest.warns(errors.NoRootsInBoxWarning):
        assert floquet.find_exponents(s3, box=(0.2, 1.0, -0.5, 0.5)) == []
    assert builds == [(20, 41)]
    assert len(rules) == 1


def test_lapack_factors_the_class_blocks_not_the_whole_t(
    s3, vdp_linearization, monkeypatch
):
    # every T that the contour, the Hill check and the mode SVD hand to
    # solve, slogdet or svd is a class block: 34 x 34 and 32 x 32 for the
    # even and odd indices of s2 at bound 16, the whole 41 x 41 on s3 at
    # bound 20, whose indices are all coupled; the only other matrix is
    # the contour's moment matrix, T's height by the probe columns.  The
    # ladder solve of det M hands over T_RR alone, the class of n = 0
    # without block 0: 32 x 32, the even indices of s2 but 0, and 40 x 40
    # on s3
    shapes = []
    for name in ("solve", "slogdet", "svd"):
        original = getattr(np.linalg, name)

        def recorded(a, *args, original=original, **kwargs):
            shapes.append(np.shape(a)[-2:])
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    for density, box, bound, blocks, rest in (
        (vdp_linearization[0], (-0.6, 0.3, -0.5, 0.5), 16, {(34, 34), (32, 32)}, 32),
        (s3, (-3.0, 1.0, -0.5, 0.5), 20, {(41, 41)}, 40),
    ):
        shapes.clear()
        hill = model.HillBlocks(density, bound)
        lam = rootfind.contour_classes(hill, box)[0]
        root, ok = floquet._hill_refine(hill, lam, 1e-9)
        floquet._null_vector(density, root, bound // 2, bound - bound // 2)
        assert ok
        square = {s for s in shapes if s[0] == s[1]}
        assert square == blocks
        size = (2 * bound + 1) * density.dim
        assert all(s[0] == size and s[1] < size for s in shapes if s[0] != s[1])
        shapes.clear()
        floquet.closure_determinant(density, root, bound // 2, bound - bound // 2)
        assert shapes and set(shapes) == {(rest, rest)}


def test_an_order_two_expansion_evaluates_the_hierarchy_eleven_times(monkeypatch):
    # orders 1, 2 and 3 sample the secular polynomial at 4, 2 and 2
    # amplitudes and check the defect once each; x_m is solved with the
    # I_m of that check, so it is not evaluated again
    calls = []
    original = orbit._Hierarchy.forcing_series

    def counted(self, *args):
        calls.append(len(args[0]))
        return original(self, *args)

    monkeypatch.setattr(orbit._Hierarchy, "forcing_series", counted)
    orbit.expand_pl(s2_model(), 0.1, 2)
    assert calls == [1] * 5 + [2] * 3 + [3] * 3


def test_the_kernel_is_linearized_on_coefficient_arrays(monkeypatch):
    # linearize_about_orbit multiplies coefficient rows by np.convolve: no
    # table of component powers, no product of FourierSeries objects
    assert not hasattr(model, "_component_powers")
    s2 = s2_model()
    state, omega = orbit.orbit_to_state(orbit.expand_pl(s2, 0.1, 2))

    def refuse(*args):
        raise AssertionError("FourierSeries.convolve called")

    monkeypatch.setattr(df.FourierSeries, "convolve", refuse)
    density = model.linearize_about_orbit(s2.to_dde(0.1), state, omega)
    assert density.coeffs.shape[1:] == (2 * density.bandwidth + 1, 2, 2)
