"""Adjoint eigenproblem, bilinear pairing and biorthonormalization.

The adjoint Fourier components obey the left sided recurrence

    0 = sum_k psi_{j+k} [L_{k,j} - delta_{k0} (lambda + i j) I],

that is psi T(lambda) = 0 with the Hill matrix T of the primal
recurrence: the adjoint mode is T's left null vector at the root, read by
the same SVD as the primal mode (see `floquet`).

The delay adapted bilinear pairing between adjoint and primal segments is

    (psi_xi, phi_xi)_xi = <psi_xi(0), phi_xi(0)>
        - int_{-wt}^0 dtheta int_0^theta ds <psi_xi(s - theta),
          Omega_{xi+s-theta}(theta) phi_xi(s)>,

with a plain (non conjugating) scalar product.  For point mass kernels the
double integral collapses into finite sums of closed form exponential
integrals, evaluated here without quadrature.  Eigenmode pairs at distinct
exponents pair to zero and the pairing of a matched pair is independent of
the phase xi, both up to truncation error.  The collapsed normalization
sum and the effective forcing are array expressions over the banded
coefficients C_{p-q,j} (zero where |p - q| > K) that `hill_matrix` reads
too; they loop over the delay slots only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ResonantForcing, ZeroPairing
from .floquet import FloquetMode, _null_vector, closure_determinant

# nothing here calls ladder_operators; the binding stays for
# bench/test_bench.py::test_instrument_counts_under_callers_names_and_restores,
# which checks that the instrumentation rewraps a second binding
from .floquet import ladder_operators  # noqa: F401
from .linalg import solve_linear
from .model import FourierMatrixDensity, _band, hill_matrix
from .rootfind import _newton, to_strip

__all__ = [
    "AdjointMode",
    "BilinearContext",
    "adjoint_modes",
    "bilinear",
    "normalize",
    "solve_inhomogeneous",
]

# solve_inhomogeneous refuses a lambda this close to a Floquet root
RESONANCE_TOL = 1e-6


@dataclass(frozen=True)
class AdjointMode:
    """Adjoint eigensolution: row vector components psi_j, |j| <= n_win.

    The segment profile is psi_j(s) = psi_j exp(-(lam_raw + i j) s) on
    s in [0, omega*tau]; components are indexed against `lam_raw`.
    """

    lam: complex
    lam_raw: complex
    components: np.ndarray
    residual: float
    n_win: int
    depth: int
    bandwidth: int

    def component(self, j: int) -> np.ndarray:
        return self.components[j + self.n_win]


def adjoint_modes(
    density: FourierMatrixDensity, lam: complex, n_win: int, depth: int, hill=None
) -> AdjointMode:
    """Adjoint eigensolution at a root `lam` (raw, not strip mapped): the
    left null vector psi of the Hill matrix T(lambda) on |n| <= n_win +
    depth (psi T = 0), cut to the window, with the largest entry of psi_0
    scaled to 1 (psi_0 = 1 for d = 1).  `hill` is T's class blocks of
    `floquet._null_vector`, if the caller holds them: a job that pairs
    several modes of one kernel builds them once."""
    lam = complex(lam)
    comps, residual, _, _ = _null_vector(density, lam, n_win, depth, True, hill)
    return AdjointMode(
        lam=to_strip(lam),
        lam_raw=lam,
        components=comps,
        residual=residual,
        n_win=n_win,
        depth=depth,
        bandwidth=density.bandwidth,
    )


def _eint(a, theta: float):
    """(exp(a*theta) - 1)/a elementwise, with the a -> 0 limit theta."""
    z = a * theta
    return np.where(
        np.abs(z) < 1e-8,
        theta * (1.0 + z / 2.0 + z * z / 6.0),
        (np.exp(z) - 1.0) / np.where(a == 0, 1.0, a),
    )


@dataclass(frozen=True)
class BilinearContext:
    """Pairing engine for one kernel; all integrals in closed form."""

    density: FourierMatrixDensity

    def pair(self, psi: AdjointMode, phi: FloquetMode, xi: float = 0.0) -> complex:
        """Bilinear pairing (psi_xi, phi_xi)_xi of two eigenmodes: per delay
        slot one sum over the band k and the harmonics j of psi and n of
        phi, the sandwich <psi_j, C_{k,slot} phi_n> times its closed form
        phase and integral."""
        lam, mu = psi.lam_raw, phi.lam_raw
        pj, pn = psi.components, phi.components
        j = np.arange(-psi.n_win, psi.n_win + 1)[:, None]
        n = np.arange(-phi.n_win, phi.n_win + 1)
        total = np.sum((pj @ pn.T) * np.exp(1j * xi * (n - j)))
        K = self.density.bandwidth
        for C, theta in zip(self.density.coeffs, self.density.delays):
            live = np.flatnonzero(np.any(C, axis=(1, 2)))  # the k with C_k != 0
            if theta < 0.0 and live.size:
                k = (live - K)[:, None, None]
                shift = n + k - j  # [k, j, n]
                factor = np.exp(1j * xi * shift + (lam + 1j * (j - k)) * theta)
                sandwich = pj @ C[live] @ pn.T  # [k, j, n]
                total -= np.sum(sandwich * factor * _eint(mu - lam + 1j * shift, theta))
        return complex(total)

    def normalization_sum(self, psi: AdjointMode, phi: FloquetMode) -> complex:
        """sum_{n,j} <Psi_j, (delta_{jn} I - sum_slots theta e^{(lam+in)theta}
        C_{j-n}) Phi_n>, the collapsed xi independent pairing."""
        lam = phi.lam_raw
        pj, pn = psi.components, phi.components
        n = np.arange(-phi.n_win, phi.n_win + 1)
        total = complex(np.sum(pj * pn))  # diagonal j = n term
        for C, theta in zip(_band(self.density, n), self.density.delays):
            if theta < 0.0:
                w = -theta * np.exp((lam + 1j * n) * theta)
                total += np.einsum("ja,jnab,nb->", pj, C, pn * w[:, None])
        return total


def bilinear(ctx: BilinearContext, psi: AdjointMode, phi: FloquetMode, xi: float = 0.0):
    return ctx.pair(psi, phi, xi)


def normalize(
    psi: AdjointMode, phi: FloquetMode, density: FourierMatrixDensity
) -> tuple:
    """Scale a matched pair so their bilinear pairing equals one.

    Both members are multiplied by N = P^(-1/2) (principal branch), P being
    the collapsed pairing sum; normalizing twice is idempotent up to sign.
    Raises ZeroPairing for a defective or mismatched pair.
    """
    if abs(psi.lam_raw - phi.lam_raw) > 1e-6 * (1 + abs(phi.lam_raw)):
        raise ValueError("normalize expects modes computed at the same raw root")
    ctx = BilinearContext(density)
    p = ctx.normalization_sum(psi, phi)
    scale = max(
        float(np.max(np.abs(psi.components)) * np.max(np.abs(phi.components))), 1e-300
    )
    if abs(p) < 1e-12 * scale:
        raise ZeroPairing(f"pairing {abs(p):.3e} below 1e-12 of component scale")
    nfac = 1.0 / np.sqrt(p)
    return (
        replace(psi, components=psi.components * nfac),
        replace(phi, components=phi.components * nfac),
        complex(nfac),
    )


def _forcing_to_array(chi, n_win: int, dim: int) -> np.ndarray:
    if isinstance(chi, dict):
        arr = np.zeros((2 * n_win + 1, dim), dtype=complex)
        for n, vec in chi.items():
            if abs(n) > n_win:
                raise ValueError(f"forcing harmonic {n} outside window {n_win}")
            arr[n + n_win] = np.asarray(vec, dtype=complex)
        return arr
    arr = np.asarray(chi, dtype=complex)
    if arr.shape != (2 * n_win + 1, dim):
        raise ValueError("forcing array must have shape (2*n_win+1, dim)")
    return arr


def solve_inhomogeneous(
    density: FourierMatrixDensity,
    lam: complex,
    chi,
    n_win: int = 10,
    depth: int = 10,
):
    """Particular solution components phi_n(0) of the forced recurrence.

    `chi` holds the Fourier components chi_n of a forcing that is constant
    along the history variable (dict {n: vector} or a full window array).
    The effective right hand side

        b_n = chi_n - sum_k sum_slots C_{k,slot} E(lam + i(n-k), theta_slot)
              chi_{n-k},       E(a, t) = (exp(a t) - 1)/a,

    is solved against the truncated banded recurrence directly, which on
    the truncation window is exactly what the ladder sweep would produce.

    Raises ResonantForcing when lambda sits within RESONANCE_TOL of a Floquet
    root; the exception carries the solvability defect
    sum_n psi_n b_n = (1/2pi) int (psi_xi, chi_xi)_xi dxi.
    """
    lam = complex(lam)
    d = density.dim
    b = _effective_rhs(density, lam, _forcing_to_array(chi, n_win, d), n_win)

    def det_at(lams):
        return closure_determinant(density, lams, n_win, depth)

    root, ok = _newton(det_at, lam, tol=1e-12, max_iter=15)
    if ok and abs(root - lam) <= RESONANCE_TOL:
        psi = adjoint_modes(density, root, n_win, depth)
        defect = complex(np.sum(psi.components * b))
        raise ResonantForcing(
            f"lambda = {lam:.6g} is within {RESONANCE_TOL:.0e} of root {root:.6g}",
            defect=defect,
        )

    B = n_win + depth
    T = hill_matrix(density, B)(lam)
    b_full = np.pad(b, ((depth, depth), (0, 0)))
    x = solve_linear(T, b_full.reshape(-1)).reshape(2 * B + 1, d)
    residual = float(
        np.max(np.abs(T @ x.reshape(-1) - b_full.reshape(-1)))
        / max(np.max(np.abs(b_full)), 1e-300)
    )
    return x[B - n_win : B + n_win + 1], residual


def _effective_rhs(density, lam, chi_arr, n_win) -> np.ndarray:
    m = np.arange(-n_win, n_win + 1)
    out = chi_arr.astype(complex)
    for C, theta in zip(_band(density, m), density.delays):
        if theta < 0.0:
            src = _eint(lam + 1j * m, float(theta))[:, None] * chi_arr
            out -= np.einsum("nmab,mb->na", C, src)
    return out
