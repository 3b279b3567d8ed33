"""Fast tests of the benchmark's own reference, checker and span recorder."""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import reference  # noqa: E402
from spans import SpanRecorder, instrument  # noqa: E402
from workloads import DRAW_A, DRAW_B, DRAW_C, S3, make_spec  # noqa: E402

BOX = (-3.0, 1.0, -0.5, 0.5)


def test_reference_s1_closed_form():
    # q' = -pi/2 q(xi - 1): exponents +-i pi/2 on branches 0 and -1
    roots = reference.scalar_exponents(0.0, -np.pi / 2, 0.0, 1.0)
    assert abs(roots[0] - 1j * np.pi / 2) < 1e-13
    assert abs(roots[-1] + 1j * np.pi / 2) < 1e-13


def test_reference_c0_is_lambert_w():
    a, b, tau = -0.3, -0.5, 1.0
    roots = reference.scalar_exponents(a, b, 0.0, tau)
    lambert = reference.lambert_roots(a, b, tau)
    for k, lam in roots.items():
        assert abs(lam - lambert[k]) < 1e-12
        assert abs(lam - a - b * np.exp(-lam * tau)) < 1e-12


def test_reference_s3_pairs():
    got = reference.box_exponents(S3["a"], S3["b"], S3["c"], S3["tau"], BOX)
    assert len(got) == 4
    for want in (-2.763907918 + 0.461916054j, -0.889804486 + 0.062303739j):
        for z in (want, want.conjugate()):
            assert min(abs(g - z) for g in got) < 1e-8


def test_draw_ranges_keep_the_fold_pair_outside_the_box():
    # corners of the draw ranges: only the k = 0 pair is in the box, and
    # the outermost branches certify completeness with a margin
    for a in DRAW_A:
        for b in DRAW_B:
            for c in DRAW_C:
                got = reference.box_exponents(a, b, c, 1.0, BOX, margin=0.05)
                assert len(got) == 2
                raw = reference.scalar_exponents(a, b, c, 1.0)
                assert raw[1].real < BOX[0] - 0.1
                assert 0.7 < raw[0].imag < 0.96


def test_specs_repeat_per_seed():
    assert make_spec("scalar-spectrum", 5) == make_spec("scalar-spectrum", 5)
    assert make_spec("scalar-spectrum", 5) != make_spec("scalar-spectrum", 6)


def _orbit_mode():
    # q0 = (cos xi, -sin xi): harmonics at +-1, derivative i*m*q_m
    coeffs = np.zeros((3, 2), dtype=complex)
    coeffs[0] = [0.5, -0.5j]
    coeffs[2] = [0.5, 0.5j]
    deriv = reference.derivative_harmonics(coeffs, 1)
    comps = np.zeros((9, 2), dtype=complex)
    comps[3:6] = deriv
    return deriv, comps


def test_zero_mode_check_accepts_the_orbit_derivative():
    deriv, comps = _orbit_mode()
    ok, lam_abs, sim = reference.zero_mode_check(1e-4, 0, 2.0 * comps, deriv, 1)
    assert ok and sim > 1 - 1e-12


def test_zero_mode_check_rejects_a_perturbed_mode():
    deriv, comps = _orbit_mode()
    bent = comps.copy()
    bent[5, 1] += 0.1
    assert not reference.zero_mode_check(1e-4, 0, bent, deriv, 1)[0]
    # right components, exponent too far from zero
    assert not reference.zero_mode_check(1e-2, 0, comps, deriv, 1)[0]
    # right components paired against the wrong harmonics
    assert not reference.zero_mode_check(1e-4, 1, comps, deriv, 1)[0]


def test_self_times_of_nested_spans():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    rec = SpanRecorder(clock=lambda: next(ticks))
    with rec.span("root"):            # 0 .. 10
        with rec.span("a"):           # 1 .. 4
            with rec.span("leaf"):    # 2 .. 3
                pass
        with rec.span("b"):           # 5 .. 9
            pass
    assert rec.self_times() == [3.0, 2.0, 1.0, 4.0]
    assert rec.totals() == {"root": (1, 3.0), "a": (1, 2.0), "leaf": (1, 1.0), "b": (1, 4.0)}
    assert sum(rec.self_times()) == rec.ends[0] - rec.starts[0]
    assert rec.children_named("root", "a") == 1
    assert rec.children_named("root", "leaf") == 0


def test_spans_must_close_in_order():
    rec = SpanRecorder()
    outer = rec.open("outer")
    rec.open("inner")
    with pytest.raises(RuntimeError):
        rec.close(outer)


def test_instrument_counts_under_callers_names_and_restores():
    import ddefloquet
    from ddefloquet import adjoint, floquet
    from ddefloquet.systems import s3_density

    orig = floquet.ladder_operators
    rec = SpanRecorder()
    restore = instrument(rec)
    try:
        assert adjoint.ladder_operators is floquet.ladder_operators is not orig
        ddefloquet.closure_determinant(s3_density(), -0.9 + 0.06j, 4, 4)
    finally:
        restore()
    assert floquet.ladder_operators is orig and adjoint.ladder_operators is orig
    tot = rec.totals()
    for name in ("floquet.assemble_M", "floquet.ladder_operators", "model.build_L",
                 "linalg.determinant"):
        assert tot[name][0] == 1
    assert rec.children_named("floquet.assemble_M", "floquet.ladder_operators") == 1
