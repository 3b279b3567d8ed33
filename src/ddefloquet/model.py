"""Delay systems with polynomial right hand sides and their linearization.

A system dq/dt = N(q(t), q(t - tau)) is stored as a list of monomial
terms, which makes Jacobians exact (symbolic differentiation of monomials)
and lets every Fourier operation use exact convolutions.  Linearizing about
a 2*pi periodic reference state in rescaled time xi = omega*t produces a
kernel with two point delays,

    Omega_xi(theta) = J_d(xi) delta(theta + omega*tau) + J_0(xi) delta(theta),

whose Fourier coefficients in xi feed the matrices

    L_{k,n}(lambda) = sum_j C_{k,j} exp((lambda + i n) theta_j),

evaluated here in closed form because the kernel is a sum of point masses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ExponentOverflow, NonpositiveFrequency
from .fourier import FourierSeries

__all__ = [
    "MonomialTerm",
    "DdeSystem",
    "FourierMatrixDensity",
    "LMatrixTable",
    "table_nbytes",
    "rescale",
    "linearize_about_orbit",
    "build_L",
]

EXP_GUARD = 700.0  # |Re(lambda)*theta| beyond this overflows double exp


@dataclass(frozen=True)
class MonomialTerm:
    """coeff * prod_j q_j^powers[j] * prod_j q_j(t-tau)^delayed_powers[j],
    added to component `target` of the right hand side."""

    coeff: float
    target: int
    powers: tuple
    delayed_powers: tuple

    def degree(self) -> int:
        return sum(self.powers) + sum(self.delayed_powers)


@dataclass(frozen=True)
class DdeSystem:
    """Autonomous polynomial delay system dq/dt = N(q(t), q(t - tau))."""

    dim: int
    tau: float
    terms: tuple

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("delay must be positive")
        for t in self.terms:
            if not (0 <= t.target < self.dim):
                raise ValueError(f"term target {t.target} outside dimension")
            if len(t.powers) != self.dim or len(t.delayed_powers) != self.dim:
                raise ValueError("power tuples must have length dim")
        object.__setattr__(self, "terms", tuple(self.terms))

    def degree(self) -> int:
        return max((t.degree() for t in self.terms), default=0)

    def rhs(self, q, q_delayed):
        """Evaluate N pointwise; q, q_delayed shaped (dim,) or (dim, m)."""
        q = np.asarray(q)
        qd = np.asarray(q_delayed)
        out = np.zeros(q.shape, dtype=np.result_type(q, qd, float))
        for t in self.terms:
            val = t.coeff
            for j, p in enumerate(t.powers):
                if p:
                    val = val * q[j] ** p
            for j, p in enumerate(t.delayed_powers):
                if p:
                    val = val * qd[j] ** p
            out[t.target] += val
        return out


def rescale(system: DdeSystem, omega: float) -> DdeSystem:
    """System in rescaled time xi = omega*t: dq/dxi = N/omega, delay omega*tau."""
    if omega <= 0:
        raise NonpositiveFrequency(f"omega = {omega}")
    terms = tuple(
        MonomialTerm(t.coeff / omega, t.target, t.powers, t.delayed_powers)
        for t in system.terms
    )
    return DdeSystem(system.dim, system.tau * omega, terms)


@dataclass(frozen=True)
class FourierMatrixDensity:
    """Point mass linearization kernel of a 2*pi periodic reference state.

    Parameters
    ----------
    omega : float
        Frequency of the reference state (rad per time unit).
    delays : ndarray, shape (J,)
        Kernel support points theta_j in [-omega*tau, 0], ascending,
        with theta_J = 0 present.
    coeffs : ndarray, complex, shape (J, 2K+1, n, n)
        Fourier coefficients C_{k,j} of the matrix weight at each delay,
        middle index k = -K..K.
    """

    omega: float
    delays: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        delays = np.asarray(self.delays, dtype=float)
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if delays.ndim != 1 or np.any(np.diff(delays) <= 0):
            raise ValueError("delays must be strictly ascending")
        if not np.all(np.isfinite(delays)) or delays[-1] != 0.0:
            raise ValueError("last delay slot must be theta = 0")
        if np.any(delays > 0):
            raise ValueError("delays must lie in [-omega*tau, 0]")
        if coeffs.ndim != 4 or coeffs.shape[0] != delays.shape[0]:
            raise ValueError("coeffs must have shape (J, 2K+1, n, n)")
        if coeffs.shape[1] % 2 != 1 or coeffs.shape[2] != coeffs.shape[3]:
            raise ValueError("coeffs must have shape (J, 2K+1, n, n)")
        delays.setflags(write=False)
        coeffs.setflags(write=False)
        object.__setattr__(self, "delays", delays)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def bandwidth(self) -> int:
        return (self.coeffs.shape[1] - 1) // 2

    @property
    def dim(self) -> int:
        return self.coeffs.shape[2]

    def is_real(self, tol: float = 1e-12) -> bool:
        flipped = np.conj(self.coeffs[:, ::-1])
        scale = max(1.0, float(np.max(np.abs(self.coeffs))))
        return float(np.max(np.abs(self.coeffs - flipped))) <= tol * scale

    def weight_series(self, slot: int) -> FourierSeries:
        """Matrix valued Fourier series of the weight at delay slot j."""
        return FourierSeries(self.coeffs[slot])

    def evaluate_weight(self, slot: int, xi):
        return self.weight_series(slot).evaluate(xi)


@dataclass(frozen=True)
class LMatrixTable:
    """Matrices L_{k,n}(lambda) on |k| <= K, |n| <= n_win.

    For a single lambda `entries` has shape (2K+1, 2*n_win+1, n, n); for a
    1-D array of lambda values it carries a leading lambda axis, and the
    entries of a lambda rejected by the exponent guard are NaN.
    """

    lam: complex | np.ndarray
    n_win: int
    entries: np.ndarray  # shape ([N,] 2K+1, 2*n_win+1, n, n)

    @property
    def bandwidth(self) -> int:
        return (self.entries.shape[-4] - 1) // 2

    @property
    def dim(self) -> int:
        return self.entries.shape[-1]

    def get(self, k: int, n: int) -> np.ndarray:
        """L_{k,n}; zero outside the k band, error outside the n window."""
        K = self.bandwidth
        if abs(k) > K:
            lead = self.entries.shape[:-4]
            return np.zeros(lead + (self.dim, self.dim), dtype=complex)
        if abs(n) > self.n_win:
            raise IndexError(f"n = {n} outside table window {self.n_win}")
        return self.entries[..., k + K, n + self.n_win, :, :]


def table_nbytes(density: FourierMatrixDensity, n_win: int) -> int:
    """Bytes of the L table of one lambda on |n| <= n_win."""
    d = density.dim
    return (2 * density.bandwidth + 1) * (2 * n_win + 1) * d * d * 16


def build_L(density: FourierMatrixDensity, lam, n_win: int) -> LMatrixTable:
    """Assemble L_{k,n} = sum_j C_{k,j} exp((lambda + i n) theta_j).

    Exact (no quadrature) because the kernel is a sum of point masses.
    `lam` is one value or a 1-D array of values.  A single lambda whose
    Re(lambda)*theta overflows exp raises ExponentOverflow; in an array
    only the offending lambda values are marked, by NaN entries.
    """
    if n_win < 0:
        raise ValueError("n_win must be nonnegative")
    lams = np.asarray(lam, dtype=complex)
    if lams.ndim > 1:
        raise ValueError("lambda must be a scalar or a 1-D array")
    worst = np.abs(lams.real) * float(np.max(np.abs(density.delays)))
    over = worst > EXP_GUARD
    if lams.ndim == 0:
        if over:
            raise ExponentOverflow(
                f"Re(lambda)*theta = {float(worst):.1f} overflows exp"
            )
        lam = complex(lam)
    n_idx = np.arange(-n_win, n_win + 1)
    # phases[l, j, i] = exp((lam_l + i*n) * theta_j)
    safe = np.where(over, 0.0, lams).reshape(-1)
    phases = np.exp(
        density.delays[None, :, None] * (safe[:, None, None] + 1j * n_idx)
    )
    entries = np.einsum("jknm,lji->lkinm", density.coeffs, phases)
    entries[over.reshape(-1)] = np.nan
    if lams.ndim == 0:
        return LMatrixTable(lam, n_win, entries[0])
    return LMatrixTable(lams, n_win, entries)


def _component_powers(state: FourierSeries, max_powers):
    """Per component powers q_j^p as scalar series, p = 0..max_powers[j]."""
    pows = []
    for j, pmax in enumerate(max_powers):
        comp = state.component(j)
        col = [FourierSeries.constant(1.0)]
        for _ in range(pmax):
            col.append(col[-1].convolve(comp).trim(1e-16))
        pows.append(col)
    return pows


def linearize_about_orbit(
    system: DdeSystem,
    orbit: FourierSeries,
    omega: float,
    bandwidth: int | None = None,
    tail_tol: float = 1e-12,
    tail_frac: float = 1e-9,
) -> FourierMatrixDensity:
    """Linearization kernel of the rescaled system about a periodic state.

    Parameters
    ----------
    system : DdeSystem
        The original (unrescaled) system; the 1/omega factor of the
        rescaled equation is applied here.
    orbit : FourierSeries
        2*pi periodic reference state in xi, vector valued with
        dim = system.dim.
    omega : float
        Orbit frequency; the delayed argument shift is omega*tau.
    bandwidth : int, optional
        Harmonic cutoff K of the returned kernel.  Defaults to
        degree(system) * orbit cutoff, then trimmed to drop only
        coefficients below `tail_tol` relative to the largest one.  An
        explicit bandwidth raises CutoffTooSmall when it would drop more
        than `tail_frac` of any entry's coefficient norm.

    Returns
    -------
    FourierMatrixDensity with slots theta_1 = -omega*tau and theta_2 = 0.
    """
    if omega <= 0:
        raise NonpositiveFrequency(f"omega = {omega}")
    n = system.dim
    if orbit.dim != n:
        raise ValueError("orbit dimension does not match the system")
    shift = omega * system.tau
    delayed = orbit.shift(shift)

    max_pow = [0] * n
    max_dpow = [0] * n
    for t in system.terms:
        for j in range(n):
            max_pow[j] = max(max_pow[j], t.powers[j])
            max_dpow[j] = max(max_dpow[j], t.delayed_powers[j])
    cap = max(system.degree(), 1) * max(orbit.cutoff, 1)
    pows = _component_powers(orbit, max_pow)
    dpows = _component_powers(delayed, max_dpow)

    # jac[slot][(i, l)] accumulates the scalar series of dN_i/dq_l
    jac = [dict(), dict()]

    def _accumulate(slot, i, l, series):
        key = (i, l)
        if key in jac[slot]:
            jac[slot][key] = jac[slot][key] + series
        else:
            jac[slot][key] = series

    for t in system.terms:
        # product of all factors except the one being differentiated
        for l in range(n):
            p = t.powers[l]
            if p:
                series = FourierSeries.constant(t.coeff * p)
                for j in range(n):
                    e = t.powers[j] - (1 if j == l else 0)
                    if e:
                        series = series.convolve(pows[j][e])
                for j in range(n):
                    if t.delayed_powers[j]:
                        series = series.convolve(dpows[j][t.delayed_powers[j]])
                _accumulate(1, t.target, l, series.trim(1e-16))
            pd = t.delayed_powers[l]
            if pd:
                series = FourierSeries.constant(t.coeff * pd)
                for j in range(n):
                    if t.powers[j]:
                        series = series.convolve(pows[j][t.powers[j]])
                for j in range(n):
                    e = t.delayed_powers[j] - (1 if j == l else 0)
                    if e:
                        series = series.convolve(dpows[j][e])
                _accumulate(0, t.target, l, series.trim(1e-16))

    K = cap if bandwidth is None else bandwidth
    coeffs = np.zeros((2, 2 * K + 1, n, n), dtype=complex)
    for slot in (0, 1):
        for (i, l), series in jac[slot].items():
            series = series.truncate(
                K, tail_frac=tail_frac if bandwidth is not None else None
            )
            pad = K - series.cutoff
            coeffs[slot, pad : 2 * K + 1 - pad, i, l] += series.coeffs / omega
    if bandwidth is None:
        # trim the band to the smallest window keeping the dropped tail tiny
        mags = np.abs(coeffs).reshape(2, 2 * K + 1, -1).max(axis=(0, 2))
        scale = max(float(mags.max()), 1e-300)
        keep = K
        while keep > 0 and mags[K - keep] <= tail_tol * scale and mags[K + keep] <= tail_tol * scale:
            keep -= 1
        if keep < K:
            coeffs = coeffs[:, K - keep : K + keep + 1]
    return FourierMatrixDensity(
        omega=omega, delays=np.array([-shift, 0.0]), coeffs=coeffs
    )
