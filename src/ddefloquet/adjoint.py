"""Adjoint eigenproblem, bilinear pairing and biorthonormalization.

The adjoint Fourier components obey the left sided recurrence

    0 = sum_k psi_{j+k} [L_{k,j} - delta_{k0} (lambda + i j) I],

whose ladder operators Z^m_j (psi_{j+m} = psi_j Z^m_j) are computed as
primal ladders of the transposed recurrence, by the same continued
fraction passes and in one batched call.  They are linked to the primal
ones by the prescription

    L_{k,n-k} S^{-k}_n = Z^{-k}_n L_{-k,n},

an identity between the two ladder families that the tests check, not a
second route: it cannot give Z where L_{-k,n} is singular, and
structurally rank deficient coupling matrices are common (the delayed
van der Pol kernel has them at every level).

The delay adapted bilinear pairing between adjoint and primal segments is

    (psi_xi, phi_xi)_xi = <psi_xi(0), phi_xi(0)>
        - int_{-wt}^0 dtheta int_0^theta ds <psi_xi(s - theta),
          Omega_{xi+s-theta}(theta) phi_xi(s)>,

with a plain (non conjugating) scalar product.  For point mass kernels the
double integral collapses into finite sums of closed form exponential
integrals, evaluated here without quadrature.  Eigenmode pairs at distinct
exponents pair to zero and the pairing of a matched pair is independent of
the phase xi, both up to truncation error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResonantForcing, ZeroPairing
from .floquet import (
    FloquetMode,
    _climb,
    assemble_M,
    closure_determinant,
    ladder_operators,
    recurrence_residual,
)
from .linalg import solve_linear
from .model import FourierMatrixDensity, build_L, truncated_matrix
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


def _transposed_ladders(density, lam, n_win, depth):
    """Direct Z route: primal style ladders of the transposed recurrence.

    Transposing the adjoint recurrence and relabeling indices turns it into
    a primal shaped one whose table is T_{k,n} = (L_{-k,n+k})^T, realized
    by a kernel with coefficients (C_{-k,s})^T exp(i k theta_s).
    """
    K = density.bandwidth
    ks = np.arange(-K, K + 1)
    phases = np.exp(1j * np.multiply.outer(density.delays, ks))  # [s, k]
    coeffs = np.transpose(density.coeffs[:, ::-1], (0, 1, 3, 2)).copy()
    coeffs *= phases[:, :, None, None]
    flipped = FourierMatrixDensity(
        omega=density.omega, delays=density.delays, coeffs=coeffs
    )
    return ladder_operators(flipped, lam, n_win, depth)


def adjoint_modes(
    density: FourierMatrixDensity,
    lam: complex,
    n_win: int,
    depth: int,
) -> AdjointMode:
    """Adjoint eigensolution at a verified root `lam` (raw, not strip mapped).

    psi_0 is the left null direction of the same closure matrix M(lambda)
    that defines the primal mode; the remaining components follow from the
    Z ladders, the transposes of the primal style ladders of the transposed
    recurrence (`_transposed_ladders`).  The prescription
    L_{k,n-k} S^{-k}_n = Z^{-k}_n L_{-k,n} holds between them and the
    primal ladders wherever both sides are defined.
    """
    lam = complex(lam)
    K = density.bandwidth
    d = density.dim
    ladders = ladder_operators(density, lam, n_win, depth)
    table = ladders.table
    m_mat = assemble_M(density, lam, n_win, depth, ladders=ladders)
    if d == 1:
        psi0 = np.ones(1, dtype=complex)
    else:
        u, s, _ = np.linalg.svd(m_mat)
        psi0 = np.conj(u[:, -1])
    direct = _transposed_ladders(density, lam, n_win, depth)
    comps = _climb(psi0, n_win, K, lambda m, src, v: v @ direct.get(m, src).T)
    return AdjointMode(
        lam=to_strip(lam),
        lam_raw=lam,
        components=comps,
        residual=recurrence_residual(comps, table, left=True),
        n_win=n_win,
        depth=depth,
        bandwidth=K,
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
        """Bilinear pairing (psi_xi, phi_xi)_xi of two eigenmodes."""
        lam = psi.lam_raw
        mu = phi.lam_raw
        pj = psi.components  # (2Nj+1, d) rows
        pn = phi.components  # (2Nn+1, d)
        Nj = psi.n_win
        Nn = phi.n_win
        js = np.arange(-Nj, Nj + 1)
        ns = np.arange(-Nn, Nn + 1)

        base = pj @ pn.T  # [j, n] = <psi_j, phi_n>
        phase0 = np.exp(1j * xi * (ns[None, :] - js[:, None]))
        total = np.sum(base * phase0)

        dens = self.density
        K = dens.bandwidth
        for k in range(-K, K + 1):
            for s_idx, theta in enumerate(dens.delays):
                if theta >= 0.0:
                    continue
                c = dens.coeffs[s_idx, k + K]
                if not np.any(c):
                    continue
                sandwich = pj @ c @ pn.T  # [j, n]
                phase = np.exp(1j * xi * (ns[None, :] + k - js[:, None]))
                theta_fac = np.exp((lam + 1j * (js[:, None] - k)) * theta)
                a = mu - lam + 1j * (ns[None, :] + k - js[:, None])
                eint = _eint(a, theta)
                total = total - np.sum(sandwich * phase * theta_fac * eint)
        return complex(total)

    def normalization_sum(self, psi: AdjointMode, phi: FloquetMode) -> complex:
        """sum_{n,j} <Psi_j, (delta_{jn} I - sum_slots theta e^{(lam+in)theta}
        C_{j-n}) Phi_n>, the collapsed xi independent pairing."""
        lam = phi.lam_raw
        pj = psi.components
        pn = phi.components
        Nw = phi.n_win
        total = complex(np.sum(pj * pn))  # diagonal j = n term
        dens = self.density
        K = dens.bandwidth
        for j in range(-Nw, Nw + 1):
            for n in range(max(-Nw, j - K), min(Nw, j + K) + 1):
                k = j - n
                for s_idx, theta in enumerate(dens.delays):
                    if theta >= 0.0:
                        continue
                    c = dens.coeffs[s_idx, k + K]
                    w = -theta * np.exp((lam + 1j * n) * theta)
                    total += w * (pj[j + Nw] @ c @ pn[n + Nw])
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
    psi2 = AdjointMode(
        lam=psi.lam,
        lam_raw=psi.lam_raw,
        components=psi.components * nfac,
        residual=psi.residual,
        n_win=psi.n_win,
        depth=psi.depth,
        bandwidth=psi.bandwidth,
    )
    phi2 = FloquetMode(
        lam=phi.lam,
        lam_raw=phi.lam_raw,
        components=phi.components * nfac,
        residual=phi.residual,
        n_win=phi.n_win,
        depth=phi.depth,
        bandwidth=phi.bandwidth,
        converged=phi.converged,
    )
    return psi2, phi2, complex(nfac)


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
    chi_arr = _forcing_to_array(chi, n_win, d)

    def det_at(lams):
        return closure_determinant(density, lams, n_win, depth)

    root, ok = _newton(det_at, lam, tol=1e-12, max_iter=15)
    if ok and abs(root - lam) <= RESONANCE_TOL:
        psi = adjoint_modes(density, root, n_win, depth)
        b = _effective_rhs(density, lam, chi_arr, n_win)
        defect = complex(np.sum(psi.components * b))
        raise ResonantForcing(
            f"lambda = {lam:.6g} is within {RESONANCE_TOL:.0e} of root {root:.6g}",
            defect=defect,
        )

    B = n_win + depth
    T = truncated_matrix(build_L(density, lam, B), B)
    b_full = np.zeros((2 * B + 1, d), dtype=complex)
    b_full[B - n_win : B + n_win + 1] = _effective_rhs(density, lam, chi_arr, n_win)
    x = solve_linear(T, b_full.reshape(-1)).reshape(2 * B + 1, d)
    residual = float(
        np.max(np.abs(T @ x.reshape(-1) - b_full.reshape(-1)))
        / max(np.max(np.abs(b_full)), 1e-300)
    )
    return x[B - n_win : B + n_win + 1], residual


def _effective_rhs(density, lam, chi_arr, n_win) -> np.ndarray:
    K = density.bandwidth
    d = density.dim
    out = chi_arr.astype(complex).copy()
    for n in range(-n_win, n_win + 1):
        for k in range(-K, K + 1):
            m = n - k
            if abs(m) > n_win:
                continue
            src = chi_arr[m + n_win]
            if not np.any(src):
                continue
            a = lam + 1j * m
            for s_idx, theta in enumerate(density.delays):
                if theta >= 0.0:
                    continue
                c = density.coeffs[s_idx, k + K]
                out[n + n_win] -= _eint(a, float(theta)) * (c @ src)
    return out
