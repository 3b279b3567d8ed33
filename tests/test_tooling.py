"""The benchmark's traced run wraps ddefloquet functions by name from
outside the package; a rename or a changed call shape must fail here, not
silently in the trace."""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys

import numpy as np

import ddefloquet as df
from ddefloquet import (
    adjoint,
    cli,
    errors,
    floquet,
    linalg,
    model,
    oracles,
    risken,
    rootfind,
)
from ddefloquet.systems import constant_density
from test_cross_route import BOX as CROSS_BOX
from test_cross_route import KERNELS as CROSS_KERNELS

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
    # each class gets one Newton run on det M at the search window (10, 10),
    # and one truncation check on the Hill determinant at bound 22, with no
    # continued fraction re-run at (12, 12)
    windows = []
    bounds = []
    determinant, newton = floquet.closure_determinant, floquet._newton
    hill_refine = floquet._hill_refine

    def recorded(density, lam, n_win, depth):
        windows[-1].add((n_win, depth))
        return determinant(density, lam, n_win, depth)

    def counted(*args, **kwargs):
        windows.append(set())
        return newton(*args, **kwargs)

    def checked(density, lam0, bound, tol):
        bounds.append(bound)
        return hill_refine(density, lam0, bound, tol)

    monkeypatch.setattr(floquet, "closure_determinant", recorded)
    monkeypatch.setattr(floquet, "_newton", counted)
    monkeypatch.setattr(floquet, "_hill_refine", checked)
    modes = floquet.find_exponents(s3)
    assert len(modes) == 4
    assert windows == [{(10, 10)}] * 4
    assert bounds == [22] * 4


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
    assert windows == [(10, 10), (10, risken._window(s3, 10) - 10)]
    for name in ("_newton", "contour_classes", "NewtonStallWarning"):
        assert not hasattr(risken, name)


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


def test_both_routes_eliminate_through_one_plane_solve(monkeypatch):
    # the d > 1 ladder passes and the tridiagonal sweeps share the one
    # batched elimination of linalg; floquet keeps no copy of its own
    assert not hasattr(floquet, "_plane_solve")
    callers = []
    for module in (floquet, risken):
        assert module.plane_solve is linalg.plane_solve

        def counted(U, X, name=module.__name__):
            callers.append(name)
            return linalg.plane_solve(U, X)

        monkeypatch.setattr(module, "plane_solve", counted)
    coeffs = np.zeros((1, 3, 2, 2), dtype=complex)
    coeffs[0, 1] = [[-0.5, 0.3], [0.3, -0.3]]
    coeffs[0, 0] = coeffs[0, 2] = 0.1 * np.eye(2)
    dens = df.FourierMatrixDensity(1.0, np.array([0.0]), coeffs)
    floquet.ladder_operators(dens, 0.1 + 0.2j, 2, 2)
    assert set(callers) == {"ddefloquet.floquet"}
    risken.closure_determinant_risken(dens, 0.1 + 0.2j, 2)
    assert set(callers) == {"ddefloquet.floquet", "ddefloquet.risken"}


def test_scalar_kernels_take_the_plane_pass_and_read_t(monkeypatch):
    # d = 1 has no pass of its own, and the ladders read their coefficients
    # from one recurrence_blocks call instead of shifting L themselves
    for name in ("_scalar_passes", "_brackets", "_shift_to_target"):
        assert not hasattr(floquet, name)
    calls = []
    for module, name in ((floquet, "plane_solve"), (floquet, "recurrence_blocks")):
        original = getattr(module, name)

        def counted(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    coeffs = np.zeros((2, 3, 1, 1), dtype=complex)
    coeffs[:, 1] = [[[-0.5]], [[-0.3]]]
    coeffs[1, 0] = coeffs[1, 2] = 0.05
    dens = df.FourierMatrixDensity(1.0, np.array([-1.0, 0.0]), coeffs)
    ladders = floquet.ladder_operators(dens, np.array([-0.3 + 0.2j, 0.1j]), 4, 4)
    assert calls.count("recurrence_blocks") == 1
    assert calls.count("plane_solve") == int(ladders.passes.max())


def test_s2_passes_form_only_the_even_offsets(vdp_linearization, monkeypatch):
    # the s2 linearization has only even harmonics, so the relations of
    # m = +-1, +-3, +-5 are never formed
    seen = []
    passes = floquet._matrix_passes

    def recorded(a_zero, a_stack, rhs_stack, m_list, *rest):
        seen.append(list(m_list))
        assert a_stack.shape[3] == rhs_stack.shape[3] == len(m_list)
        return passes(a_zero, a_stack, rhs_stack, m_list, *rest)

    monkeypatch.setattr(floquet, "_matrix_passes", recorded)
    density = vdp_linearization[0]
    assert density.bandwidth == 6
    floquet.ladder_operators(density, np.array([-0.3 + 0.2j, 0.1j]), 8, 8)
    assert seen == [[-6, -4, -2, 2, 4, 6]]


def test_band_without_coupled_offsets_takes_the_k0_return():
    coeffs = np.zeros((2, 5, 2, 2), dtype=complex)
    coeffs[0, 2] = [[-0.5, 0.2], [0.1, -0.4]]
    coeffs[1, 2] = [[-0.3, 0.05], [-0.1, -0.2]]
    wide = df.FourierMatrixDensity(1.0, np.array([-1.0, 0.0]), coeffs)
    narrow = df.FourierMatrixDensity(1.0, wide.delays, coeffs[:, 2:3])
    assert wide.bandwidth == 2 and narrow.bandwidth == 0
    lams = np.array([-0.3 + 0.2j, 0.4 - 0.1j])
    for lam in (lams[0], lams):
        ladders = floquet.ladder_operators(wide, lam, 4, 4)
        assert ladders.ops == {}
        assert np.array_equal(ladders.passes, np.zeros(np.shape(lam), dtype=int))
        k0 = floquet.ladder_operators(narrow, lam, 4, 4)
        assert np.array_equal(ladders.passes, k0.passes)
        assert np.array_equal(
            floquet.assemble_M(wide, lam, 4, 4, ladders=ladders),
            floquet.assemble_M(narrow, lam, 4, 4),
        )


def test_one_adjoint_route_and_one_hand_written_elimination(s3, s3_modes, monkeypatch):
    # linalg keeps plane_solve as its only elimination, and adjoint_modes and
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


def test_the_contour_builds_the_hill_matrix_once_without_an_l_table(s3, monkeypatch):
    # the contour evaluates the exponential pencil of model.hill_matrix at
    # its nodes: no L table per node, and no pencil per node either
    calls = []
    for module in (model, rootfind, floquet, adjoint, risken):
        for name in ("build_L", "hill_matrix"):
            if hasattr(module, name):
                original = getattr(module, name)

                def counted(*args, name=name, original=original):
                    calls.append(name)
                    return original(*args)

                monkeypatch.setattr(module, name, counted)
    found = rootfind.contour_classes(s3, (-3.0, 1.0, -0.5, 0.5), 20)
    assert len(found) >= 2
    assert calls == ["hill_matrix"]
