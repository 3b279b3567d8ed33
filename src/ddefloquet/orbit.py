"""Periodic reference states of the driven oscillator model by perturbation
expansion.

The model class is a harmonic oscillator driven by a small nonlinear
delayed forcing,

    q'' + omega0^2 q = mu * f(q, q', q(t - tau), q'(t - tau)),

with polynomial f.  In rescaled time xi = omega(mu)*t the orbit is 2*pi
periodic and is computed order by order.  Two expansion parameters are
supported: the plain series in mu (Poincare-Lindstedt) and the series in
rho = mu/(1 + mu), which maps mu in [0, inf) to rho in [0, 1) and extends
the usable parameter range (Shohat).

Each order produces a linear oscillator equation x_m'' + x_m = I_m whose
resonant first harmonic must vanish; the pair (frequency coefficient,
previous order amplitude) is fixed by that solvability condition.  The
first harmonic of I_m is exactly polynomial in the amplitude and affine in
the frequency coefficient, so the solve reconstructs that polynomial from
samples and extracts the root closest to the starting guess; no numerical
differentiation is involved.  The I_m of the secular defect check is the one
the order m equation is then solved with, so each order evaluates it once.

The hierarchy runs on coefficient arrays.  A power series in the expansion
parameter whose coefficients are Fourier series is one complex array: row k
holds the coefficient of eps^k, column N + n its harmonic n, |n| <= N.  N is
the degree of f times the widest orbit order, so the exact np.convolve
products of the forcing are never cut.  The public values (`x_orders`,
`assemble`, `orbit_to_state`, `orbit_residual_series`) are FourierSeries.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSecularWarning,
    NonconvergentAmplitude,
    SecularSystemSingular,
)
from .fourier import FourierSeries
from .model import DdeSystem, MonomialTerm

__all__ = [
    "DrivenOscillator",
    "OrbitExpansion",
    "expand_pl",
    "expand_shohat",
    "orbit_to_state",
    "orbit_residual_series",
]


@dataclass(frozen=True)
class DrivenOscillator:
    """q'' + omega0^2 q = mu * f(q, q', q_tau, q'_tau) with polynomial f.

    `forcing` lists monomials (coeff, (e1, e2, e3, e4)) standing for
    coeff * q^e1 * q'^e2 * q_tau^e3 * q'_tau^e4, primes being time
    derivatives.
    """

    omega0: float
    tau: float
    forcing: tuple

    def __post_init__(self):
        if self.omega0 <= 0:
            raise ValueError("omega0 must be positive")
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")
        for _, ex in self.forcing:
            if len(ex) != 4 or any(e < 0 or e != int(e) for e in ex):
                raise ValueError(f"monomial {ex}: need 4 nonnegative integer exponents")
        object.__setattr__(
            self,
            "forcing",
            tuple((float(c), tuple(int(e) for e in ex)) for c, ex in self.forcing),
        )

    def degree(self) -> int:
        return max((sum(ex) for _, ex in self.forcing), default=0)

    def forcing_eval(self, x, v, xd, vd):
        out = np.zeros(np.broadcast(x, v, xd, vd).shape)
        for c, (e1, e2, e3, e4) in self.forcing:
            out = out + c * x**e1 * v**e2 * xd**e3 * vd**e4
        return out

    def to_dde(self, mu: float) -> DdeSystem:
        """First order form (q, q') as an autonomous polynomial system."""
        terms = [
            MonomialTerm(1.0, 0, (0, 1), (0, 0)),
            MonomialTerm(-self.omega0**2, 1, (1, 0), (0, 0)),
        ]
        for c, (e1, e2, e3, e4) in self.forcing:
            terms.append(MonomialTerm(mu * c, 1, (e1, e2), (e3, e4)))
        return DdeSystem(2, self.tau, tuple(terms))


@dataclass(frozen=True)
class OrbitExpansion:
    """Order by order Fourier representation of the periodic state.

    `x_orders[m]` is the full m-th order scalar series (its first harmonic
    carries the amplitude fixed by the next order's solvability), and
    `freq_coeffs[m]` is omega_m for the plain scheme or Omega_m for the
    Shohat scheme.
    """

    scheme: str
    model: DrivenOscillator
    mu: float
    parameter: float
    order: int
    x_orders: tuple
    freq_coeffs: tuple
    amplitudes: tuple
    secular_defects: tuple
    flags: tuple

    def frequency_series(self) -> np.ndarray:
        """Coefficients of omega(parameter) as a power series."""
        return _frequency_series(self.freq_coeffs, self.scheme)

    def omega(self) -> float:
        fs = self.frequency_series()
        return float(np.polyval(fs[::-1], self.parameter))

    def assemble(self) -> FourierSeries:
        """Summed orbit x(xi) = sum_m parameter^m x_m(xi)."""
        total = FourierSeries.zeros(0)
        for m, xm in enumerate(self.x_orders):
            total = total + xm.scale(self.parameter**m)
        return total.symmetrized()

    def state(self):
        return orbit_to_state(self)


def _frequency_series(freq, scheme: str) -> np.ndarray:
    """omega(eps) power series from the stored frequency coefficients.

    The plain scheme stores omega_m directly.  The Shohat scheme stores
    Omega_m, the coefficients of omega(rho)/(1 - rho), so omega_m is their
    first difference.
    """
    f = np.asarray(freq, dtype=float)
    if scheme == "shohat":
        out = f.copy()
        out[1:] = f[1:] - f[:-1]
        return out
    return f


# -- power series of Fourier series, as (order, harmonic) arrays --------


def _ps_diag(a, b):
    """Series product whose coefficients multiply harmonic by harmonic."""
    out = np.zeros_like(b)
    for q in range(len(out)):
        out[q:] += a[: len(out) - q] * b[q]
    return out


def _ps_mul(a, b):
    """Series product whose coefficients multiply by exact convolution.

    A full convolution of two rows spans -2N..2N; the hierarchy sizes N so
    that no product reaches past N, and the crop drops only exact zeros.
    """
    out = np.zeros_like(a)
    N = a.shape[1] // 2
    for i in range(len(a)):
        if a[i].any():
            for j in range(len(a) - i):
                out[i + j] += np.convolve(a[i], b[j])[N : 3 * N + 1]
    return out


def _orbit_rows(bases, amps, factors):
    """Orbit orders x_p = base_p + A_p cos(xi) as rows of harmonics -N..N.

    N is `factors` times the widest base, so that no product of that many
    orders is cut.
    """
    N = factors * max(b.cutoff for b in bases)
    X = np.zeros((len(bases), 2 * N + 1), dtype=complex)
    for p, b in enumerate(bases):
        X[p, N - b.cutoff : N + b.cutoff + 1] = b.coeffs
    X[:, N - 1] += 0.5 * np.asarray(amps)
    X[:, N + 1] += 0.5 * np.asarray(amps)
    return X


class _Hierarchy:
    """Order hierarchy shared by both expansion schemes.

    The rescaled equation of motion, multiplied through by mu^2 for the
    Shohat scheme, takes the generic form

        G(eps) x'' + H(eps) x = R(eps) f(args(eps)),

    with scalar power series G, H, R in the expansion parameter eps and
    G_0 = H_0 = omega0^2.  Collecting order m and dividing by omega0^2
    yields x_m'' + x_m = I_m.
    """

    def __init__(self, model: DrivenOscillator, scheme: str):
        self.model = model
        self.scheme = scheme
        self.w0 = model.omega0
        # a forcing monomial multiplies at most this many orbit factors
        self.factors = max(model.degree(), 1)

    def g_coeffs(self, freq, m):
        f = np.asarray(freq, dtype=float)
        g = np.convolve(f, f)
        return g[: m + 1]

    def h_coeffs(self, m):
        if self.scheme == "shohat":
            return self.w0**2 * np.arange(1, m + 2, dtype=float)
        h = np.zeros(m + 1)
        h[0] = self.w0**2
        return h

    def rhs_order(self, f_ser, m):
        if self.scheme == "shohat":
            weights = [math.comb(m - r + 1, 2) for r in range(m)]
            return np.asarray(weights, dtype=float) @ f_ser
        return f_ser[m - 1]

    def argument_series(self, X, freq):
        """Series of the four forcing arguments (x, v, x_tau, v_tau).

        X holds the orbit orders 0..R-1 as rows; freq at least R frequency
        coefficients.  Each argument is X times a series of harmonic-wise
        multipliers: v is omega(eps) d/dxi, and the delay xi -> xi -
        omega(eps) tau is exp(-i n omega(eps) tau) = exp(-i n omega_0 tau)
        exp(-i n tau Delta(eps)), Delta = sum_{r>=1} omega_r eps^r, whose
        exponential series ends at eps^(R-1) because Delta starts at eps.
        """
        R, W = X.shape
        n = np.arange(W) - W // 2
        fs = _frequency_series(freq, self.scheme)[:R]
        tau = self.model.tau
        omega = np.outer(fs, 1j * n)
        step = np.outer(fs, -1j * tau * n)
        step[0] = 0.0
        term = np.zeros((R, W), dtype=complex)
        term[0] = np.exp(-1j * n * (fs[0] * tau))
        delay = term
        for j in range(1, R):
            term = _ps_diag(term, step) / j
            delay = delay + term
        delayed_v = _ps_diag(omega, delay)
        return X, _ps_diag(omega, X), _ps_diag(delay, X), _ps_diag(delayed_v, X)

    def forcing_series(self, X, freq):
        args = self.argument_series(X, freq)
        total = np.zeros_like(X)
        for c, exponents in self.model.forcing:
            term = None
            for base, e in zip(args, exponents):
                for _ in range(e):
                    term = base if term is None else _ps_mul(term, base)
            if term is None:
                total[0, X.shape[1] // 2] += c
            else:
                total += c * term
        return total

    def inhomogeneity(self, m, X, freq):
        """I_m given the orbit orders X[0..m-1] (`_orbit_rows`, wide enough
        for every product of the forcing) and frequency coefficients
        through m."""
        n = np.arange(X.shape[1]) - X.shape[1] // 2
        f_ser = self.forcing_series(X, freq)
        G = self.g_coeffs(freq, m)
        H = self.h_coeffs(m)
        # sum over a = 1..m of G_a x''_{m-a} + H_a x_{m-a}, with x'' = -n^2 x
        lhs = (H[1:, None] - np.outer(G[1:], n**2)) * X[::-1]
        return (self.rhs_order(f_ser, m) - lhs.sum(axis=0)) / self.w0**2


def _poly_from_samples(nodes, values):
    """Exact coefficients (ascending) of the polynomial through the samples."""
    V = np.vander(np.asarray(nodes, dtype=float), increasing=True)
    return np.linalg.solve(V, np.asarray(values, dtype=complex))


def _solve_secular(hier, m, x_bases, amps, freq, a_start, flags):
    """Fix (A_{m-1}, w_m) from the vanishing first harmonic of I_m.

    The first harmonic c1(A, w) is exactly polynomial in A and affine in w
    with slope sigma(A) = A0/omega0 (A0 being the zeroth amplitude, equal
    to A itself when m = 1), so the solve is algebraic.  Returns A, w, the
    secular defect and the I_m it was read off, on the `_orbit_rows` window.
    """
    w0 = hier.w0

    def inhomogeneity(A, w):
        X = _orbit_rows(x_bases, amps + [A], hier.factors)
        return hier.inhomogeneity(m, X, freq + [w])

    def c1(I_m):
        return complex(I_m[len(I_m) // 2 + 1])

    deg = max(hier.model.degree(), 1) if m == 1 else 1
    spread = max(abs(a_start), 1.0)
    nodes = [a_start + spread * 0.8 * ((k + 1) // 2) * (-1) ** k for k in range(deg + 1)]
    coeffs = _poly_from_samples(nodes, [c1(inhomogeneity(a, 0.0)) for a in nodes])

    scale = max(float(np.max(np.abs(coeffs))), 1e-300)
    im = np.real(coeffs * -1j)  # imaginary parts, ascending
    vacuous_A = bool(np.all(np.abs(im) < 1e-12 * scale))
    if vacuous_A:
        A = a_start if m == 1 else 0.0
        flags.append(f"order {m}: sine condition vacuous, amplitude left at {A}")
        warnings.warn(flags[-1], DegenerateSecularWarning)
    else:
        roots = np.roots(im[::-1])
        real = [float(r.real) for r in roots if abs(r.imag) < 1e-8 * (1 + abs(r))]
        if m == 1:
            real = [r for r in real if abs(r) > 1e-8]
        if not real:
            raise SecularSystemSingular(
                f"order {m}: sine condition has no usable amplitude root"
            )
        A = min(real, key=lambda r: abs(r - a_start))

    # residual at w = 0 and the exact affine slope in w
    p_at_A = complex(np.polyval(coeffs[::-1], A))
    a0 = A if m == 1 else amps[0]
    sigma = a0 / w0
    if abs(sigma) < 1e-12:
        if abs(p_at_A.real) < 1e-10:
            w = freq[-1] if hier.scheme == "shohat" else 0.0
            flags.append(f"order {m}: cosine condition vacuous, frequency fixed at {w}")
            warnings.warn(flags[-1], DegenerateSecularWarning)
        else:
            raise SecularSystemSingular(
                f"order {m}: cosine condition unsatisfiable (slope {sigma:.2e})"
            )
    else:
        w = -p_at_A.real / sigma

    I_m = inhomogeneity(A, w)
    defect = abs(c1(I_m))
    if defect > 1e-9 * max(1.0, abs(A)):
        raise NonconvergentAmplitude(
            f"order {m}: secular defect {defect:.2e} after algebraic solve"
        )
    return float(A), float(w), defect, I_m


def _expand(model, mu, order, scheme, cutoff, a_start):
    if order < 0:
        raise ValueError("order must be nonnegative")
    if scheme == "shohat" and mu < 0:
        raise ValueError("shohat scheme requires mu >= 0")
    eps = mu / (1.0 + mu) if scheme == "shohat" else mu
    hier = _Hierarchy(model, scheme)

    x_bases = [FourierSeries.zeros(1)]  # zero initial condition part of x_0
    amps: list[float] = []
    freq: list[float] = [model.omega0]
    defects: list[float] = []
    flags: list[str] = []

    for m in range(1, order + 2):
        A, w, defect, I_m = _solve_secular(hier, m, x_bases, amps, freq, a_start, flags)
        amps.append(A)
        defects.append(defect)
        if m == order + 1:
            break  # A_P is fixed; the next frequency coefficient is not stored
        freq.append(w)
        I_m = FourierSeries(I_m).trim(1e-16)
        N = I_m.cutoff
        idx = np.arange(-N, N + 1)
        fac = np.zeros(2 * N + 1)
        mask = np.abs(idx) != 1
        fac[mask] = 1.0 / (1.0 - idx[mask].astype(float) ** 2)
        part = FourierSeries(I_m.coeffs * fac).symmetrized()
        v0 = float(np.real(part.evaluate(0.0)))
        d0 = float(np.real(part.derivative().evaluate(0.0)))
        base = part - FourierSeries.cosine(v0) - FourierSeries.sine(d0)
        if cutoff is not None:
            base = base.truncate(cutoff, tail_frac=1e-9)
        x_bases.append(base.trim(1e-15))

    x_orders = tuple(
        (x_bases[p] + FourierSeries.cosine(amps[p])).symmetrized()
        for p in range(order + 1)
    )
    return OrbitExpansion(
        scheme=scheme,
        model=model,
        mu=float(mu),
        parameter=float(eps),
        order=order,
        x_orders=x_orders,
        freq_coeffs=tuple(freq),
        amplitudes=tuple(amps[: order + 1]),
        secular_defects=tuple(defects),
        flags=tuple(flags),
    )


def expand_pl(
    model: DrivenOscillator,
    mu: float,
    order: int,
    cutoff: int | None = None,
    a_start: float = 1.0,
) -> OrbitExpansion:
    """Poincare-Lindstedt expansion of the periodic state to the given order.

    Each order m solves x_m'' + x_m = I_m with the resonant first harmonics
    of I_m removed by the choice of (omega_m, A_{m-1}); initial conditions
    are x_m(0) = A_m, x_m'(0) = 0.  The last amplitude A_P is fixed by the
    solvability condition of order P+1.
    """
    return _expand(model, mu, order, "pl", cutoff, a_start)


def expand_shohat(
    model: DrivenOscillator,
    mu: float,
    order: int,
    cutoff: int | None = None,
    a_start: float = 1.0,
) -> OrbitExpansion:
    """Expansion in rho = mu/(1+mu) after multiplying the equation by mu^2.

    Omega_0 = omega0 so the unperturbed frequency is recovered as mu -> 0.
    Convergence for large mu is plausible but not guaranteed; judge it from
    the reported residuals case by case.
    """
    return _expand(model, mu, order, "shohat", cutoff, a_start)


def orbit_to_state(exp: OrbitExpansion):
    """State space form (q, q') of the orbit and its frequency.

    The second component is the time derivative omega * dx/dxi, so at
    mu = 0 the state is (A0 cos xi, -A0 omega0 sin xi).
    """
    x = exp.assemble()
    w = exp.omega()
    state = FourierSeries.from_components([x, x.derivative().scale(w)])
    return state.symmetrized(), w


def orbit_residual_series(exp: OrbitExpansion) -> FourierSeries:
    """Exact Fourier residual of the summed orbit in the rescaled equation.

    Returns the series of omega^2 x'' + omega0^2 x - mu f(x, omega x',
    x(xi - omega tau), omega x'(xi - omega tau)); its norm scales like
    parameter^(order+1).
    """
    model = exp.model
    x = exp.assemble()
    w = exp.omega()
    shift = w * model.tau
    v = x.derivative().scale(w)
    xd = x.shift(shift)
    vd = v.shift(shift)
    res = x.derivative(2).scale(w**2) + x.scale(model.omega0**2)
    for c, (e1, e2, e3, e4) in model.forcing:
        term = FourierSeries.constant(exp.mu * c)
        for base, e in ((x, e1), (v, e2), (xd, e3), (vd, e4)):
            for _ in range(e):
                term = term.convolve(base)
        res = res - term
    return res.trim(1e-16)
