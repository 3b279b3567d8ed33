"""Independent references the benchmark checks the program's outputs against.

Nothing here imports ddefloquet: the exponents of the scalar kernel

    dq/dxi = (a + c cos xi) q(xi) + b q(xi - tau)

come from the Lambert-W roots of the c = 0 kernel, continued in c by Newton
on a Hill determinant built here, with an analytic logarithmic derivative.
The zero-mode check applies Floquet's theorem to a periodic orbit: the
orbit's derivative is an eigensolution with exponent 0.
"""

from __future__ import annotations

import numpy as np
from scipy.special import lambertw

BRANCHES = range(-3, 4)
HILL_N = 30  # Hill window |n| <= HILL_N
CONTINUATION_STEPS = 10
NEWTON_TOL = 1e-14
NEWTON_MAX = 50
TRUNCATION_TOL = 1e-12


class ReferenceError(RuntimeError):
    """The reference could not certify its own answer."""


def to_strip(lam: complex) -> complex:
    """Representative of lam mod i with Im in (-1/2, 1/2]."""
    return lam - 1j * np.ceil(lam.imag - 0.5)


def lambert_roots(a: float, b: float, tau: float) -> dict:
    """Roots of lam = a + b exp(-lam tau), keyed by Lambert-W branch."""
    x = b * tau * np.exp(-a * tau)
    return {k: complex(a + lambertw(x, k) / tau) for k in BRANCHES}


def hill_logderiv(lam: complex, a: float, b: float, c: float, tau: float, n_max: int) -> complex:
    """d/dlam log det H(lam) on the Fourier window |n| <= n_max.

    H is tridiagonal: H_nn = a + b exp(-(lam + i n) tau) - (lam + i n) and
    H_n,n+-1 = c/2; only the diagonal depends on lam, so the derivative is
    tr(H^-1 H') with H' diagonal.
    """
    z = lam + 1j * np.arange(-n_max, n_max + 1)
    delayed = b * np.exp(-z * tau)
    h = np.diag(a + delayed - z) + np.diag(np.full(2 * n_max, c / 2), 1)
    h += np.diag(np.full(2 * n_max, c / 2), -1)
    return complex(np.trace(np.linalg.solve(h, np.diag(-tau * delayed - 1.0))))


def hill_newton(lam: complex, a, b, c, tau, n_max: int = HILL_N) -> complex:
    for _ in range(NEWTON_MAX):
        step = 1.0 / hill_logderiv(lam, a, b, c, tau, n_max)
        lam -= step
        if abs(step) <= NEWTON_TOL * (1.0 + abs(lam)):
            return lam
    raise ReferenceError(f"Hill Newton did not converge near {lam:.6g}")


def scalar_exponents(a: float, b: float, c: float, tau: float = 1.0) -> dict:
    """Raw exponents of the scalar kernel, keyed by Lambert-W branch.

    Each c = 0 root is continued in CONTINUATION_STEPS equal steps of c;
    the end point is re-solved on a wider window and must not move by more
    than TRUNCATION_TOL.
    """
    out = {}
    for k, lam in lambert_roots(a, b, tau).items():
        for j in range(1, CONTINUATION_STEPS + 1):
            lam = hill_newton(lam, a, b, c * j / CONTINUATION_STEPS, tau)
        wider = hill_newton(lam, a, b, c, tau, HILL_N + 10)
        if abs(wider - lam) > TRUNCATION_TOL * (1.0 + abs(lam)):
            raise ReferenceError(f"branch {k} moved by {abs(wider - lam):.2e}")
        out[k] = lam
    return out


def box_exponents(a, b, c, tau, box, margin: float = 0.0) -> list:
    """Strip exponents with Re in [box[0], box[1]].

    Raises ReferenceError unless the outermost branches (|k + 1/2| > 2)
    lie left of the box by `margin` or more: those branches have the most
    negative real parts, so the branch list then holds every exponent in
    the box.
    """
    roots = scalar_exponents(a, b, c, tau)
    for k, lam in roots.items():
        if abs(k + 0.5) > 2 and lam.real >= box[0] - margin:
            raise ReferenceError(f"branch {k} at {lam:.6g} reaches the box")
    return sorted(
        (to_strip(lam) for lam in roots.values() if box[0] <= lam.real <= box[1]),
        key=lambda z: (-z.real, z.imag),
    )


def match_exponents(got, want, tol: float) -> str | None:
    """None when every value of `got` is within tol of one of `want` and
    every value of `want` within tol of one of `got`; else the reason."""
    for z in got:
        if not want or min(abs(z - w) for w in want) > tol:
            return f"spurious exponent {z:.10g}"
    for w in want:
        if not got or min(abs(z - w) for z in got) > tol:
            return f"missed exponent {w:.10g}"
    return None


def zero_mode_check(lam, strip_offset: int, components, deriv_coeffs, deriv_cutoff: int,
                    lam_tol: float = 5e-3, sim_tol: float = 0.999):
    """Floquet's theorem for a periodic orbit q0: dq0/dxi is an eigensolution
    with exponent 0.

    `components[n + n_win]` are the mode's Fourier components, indexed
    against the raw root lam + i*strip_offset, so component n pairs with
    the derivative's harmonic n + strip_offset.  `deriv_coeffs[m + cutoff]`
    are the harmonics of dq0/dxi.  Returns (passed, |lam|, similarity).
    """
    comps = np.asarray(components)
    n_win = (comps.shape[0] - 1) // 2
    target = np.zeros_like(comps)
    for n in range(-n_win, n_win + 1):
        m = n + strip_offset
        if abs(m) <= deriv_cutoff:
            target[n + n_win] = deriv_coeffs[m + deriv_cutoff]
    u, v = comps.ravel(), target.ravel()
    sim = float(abs(np.vdot(u, v)) / max(np.linalg.norm(u) * np.linalg.norm(v), 1e-300))
    return bool(abs(lam) < lam_tol and sim > sim_tol), abs(lam), sim


def derivative_harmonics(coeffs, cutoff: int) -> np.ndarray:
    """Harmonics i*m*q_m of d/dxi of a series with harmonics q_m, |m| <= cutoff."""
    m = np.arange(-cutoff, cutoff + 1).reshape((-1,) + (1,) * (np.ndim(coeffs) - 1))
    return 1j * m * np.asarray(coeffs)
