"""The benchmark's traced run wraps ddefloquet functions by name from
outside the package; a rename or a changed call shape must fail here, not
silently in the trace."""

import importlib
import importlib.util
import inspect
import os

import numpy as np

import ddefloquet as df
from ddefloquet import adjoint, errors, floquet, linalg, oracles, risken, rootfind
from ddefloquet.systems import constant_density

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
    # the benchmark passes these by keyword, and nothing else is settable
    assert list(inspect.signature(floquet.find_exponents).parameters) == [
        "density", "box", "n_win", "depth", "tol", "grid"
    ]


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
    # linalg keeps plane_solve as its only elimination, and adjoint_modes
    # takes its Z ladders from one batched transposed ladder call, with no
    # per-level prescription solve and no fallback warning
    for name in ("_lu", "_substitute", "solve_batch"):
        assert not hasattr(linalg, name)
    assert not hasattr(errors, "PrescriptionFallbackWarning")
    calls = []
    transposed = adjoint._transposed_ladders

    def counted(*args):
        calls.append(args)
        return transposed(*args)

    monkeypatch.delattr(adjoint, "solve_linear")
    monkeypatch.setattr(adjoint, "_transposed_ladders", counted)
    mode = s3_modes[0]
    adjoint.adjoint_modes(s3, mode.lam_raw, mode.n_win, mode.depth)
    assert len(calls) == 1
