"""Delay systems with polynomial right hand sides and their linearization.

A system dq/dt = N(q(t), q(t - tau)) is stored as a list of monomial
terms, which makes Jacobians exact (symbolic differentiation of monomials)
and lets every Fourier operation use exact convolutions: the linearization
multiplies rows of orbit coefficients by `np.convolve`, cropped to a window
no product reaches past, as the orbit hierarchy does.  Linearizing about
a 2*pi periodic reference state in rescaled time xi = omega*t produces a
kernel with two point delays,

    Omega_xi(theta) = J_d(xi) delta(theta + omega*tau) + J_0(xi) delta(theta),

whose Fourier coefficients in xi feed the matrices

    L_{k,n}(lambda) = sum_j C_{k,j} exp((lambda + i n) theta_j),

evaluated here in closed form because the kernel is a sum of point masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CutoffTooSmall, ExponentOverflow, NonpositiveFrequency
from .fourier import FourierSeries

__all__ = [
    "MonomialTerm",
    "DdeSystem",
    "FourierMatrixDensity",
    "LMatrixTable",
    "rescale",
    "linearize_about_orbit",
    "build_L",
    "truncated_matrix",
    "hill_matrix",
    "index_classes",
    "HillBlocks",
]

EXP_GUARD = 700.0  # |Re(lambda)*theta| beyond this overflows double exp
# linearize_about_orbit trims a default band down to the coefficients above
# this fraction of the largest one
TAIL_TOL = 1e-12


@dataclass(frozen=True)
class MonomialTerm:
    """coeff * prod_j q_j^powers[j] * prod_j q_j(t-tau)^delayed_powers[j],
    added to component `target` of the right hand side."""

    coeff: float
    target: int
    powers: tuple
    delayed_powers: tuple

    def __post_init__(self):
        if any(p < 0 or p != int(p) for p in (*self.powers, *self.delayed_powers)):
            raise ValueError("monomial powers must be nonnegative integers")

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


def _guarded(lam, reach: float):
    """`lam` as an array, and the guard's mask for delays down to -reach."""
    lams = np.asarray(lam, dtype=complex)
    if lams.ndim > 1:
        raise ValueError("lambda must be a scalar or a 1-D array")
    worst = np.abs(lams.real) * reach
    if lams.ndim == 0 and worst > EXP_GUARD:
        raise ExponentOverflow(f"Re(lambda)*theta = {float(worst):.1f} overflows exp")
    return lams, worst > EXP_GUARD


def build_L(density: FourierMatrixDensity, lam, n_win: int) -> LMatrixTable:
    """Assemble L_{k,n} = sum_j C_{k,j} exp((lambda + i n) theta_j).

    Exact (no quadrature) because the kernel is a sum of point masses.
    `lam` is one value or a 1-D array of values.  A single lambda whose
    Re(lambda)*theta overflows exp raises ExponentOverflow; in an array
    only the offending lambda values are marked, by NaN entries.
    """
    if n_win < 0:
        raise ValueError("n_win must be nonnegative")
    lams, over = _guarded(lam, -density.delays[0])
    if lams.ndim == 0:
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


def truncated_matrix(table: LMatrixTable, bound: int) -> np.ndarray:
    """Full truncated recurrence matrix T(lambda) on |n| <= bound,

        T_{p,q}(lambda) = L_{p-q,q} - delta_{pq} (lambda + i p) I,

    gathered from the L table, whose window must hold |n| <= bound.

    Its determinant is entire in lambda (the Hill form of the closure
    condition) and vanishes at every in-window representative of an
    exponent class, which makes it the robust fallback wherever the
    continued fraction determinant pinches a zero against a breakdown
    pole.  For an array table the result is a stack of matrices, NaN
    where the exponent guard rejected lambda.
    """
    one = np.ndim(table.lam) == 0
    entries = table.entries[None] if one else table.entries
    K, d = table.bandwidth, table.dim
    n = np.arange(-bound, bound + 1)
    k = n[:, None] - n[None, :]
    band = np.abs(k) <= K
    out = entries[:, np.where(band, k, 0) + K, np.where(band, n, 0) + table.n_win]
    out[:, ~band] = 0.0  # (N, p, q, d, d)
    size = n.size * d
    out = out.transpose(0, 1, 3, 2, 4).reshape(-1, size * size)
    shift = np.reshape(table.lam, (-1, 1)) + 1j * np.repeat(n, d)
    out[:, :: size + 1] -= shift  # the diagonal
    out = out.reshape(-1, size, size)
    return out[0] if one else out


def _band(density: FourierMatrixDensity, n) -> np.ndarray:
    """C_{p-q,j} over the index pairs (p, q) of the last axis of `n`, zero
    where |p - q| > K: shape (J, *n.shape, m, d, d) for m = n.shape[-1]."""
    k = n[..., :, None] - n[..., None, :]
    inside = np.abs(k) <= density.bandwidth
    out = density.coeffs[:, np.where(inside, k, 0) + density.bandwidth]
    out[:, ~inside] = 0.0
    return out


def hill_matrix(density: FourierMatrixDensity, bound: int, members=None):
    """lambda -> T(lambda) on |n| <= bound, from the exponential pencil
    T(lambda) = sum_j exp(lambda theta_j) H_j + D - lambda I, whose H_j
    (block (p, q): C_{p-q,j} exp(i q theta_j)) and D = -diag(i p) (x) I_d
    are built once here.  A call takes lambda like `build_L` and is one
    (lambda x slot) @ (slot x entry) product plus the diagonal, giving
    `truncated_matrix` of the L table up to rounding, NaN where the
    exponent guard rejects lambda.

    `members`, a (c, m) array of indices in the window, builds the pencil
    on c index sets of m indices each instead, and lambda -> the stack of
    the c diagonal blocks T[members_i, members_i], shape ([N,] c, m d, m d).
    """
    n = np.arange(-bound, bound + 1)[None] if members is None else np.asarray(members)
    # pencil[j, c, p, q] = C_{p-q,j} exp(i q theta_j)
    pencil = _band(density, n) * np.exp(
        1j * density.delays[:, None, None] * n
    )[:, :, None, :, None, None]
    count, size = n.shape[0], n.shape[1] * density.dim
    pencil = pencil.transpose(0, 1, 2, 4, 3, 5).reshape(-1, count * size * size)
    shift, reach = np.repeat(1j * n, density.dim, axis=1), -density.delays[0]

    def at(lam):
        lams, over = _guarded(lam, reach)
        safe = np.where(over, 0.0, lams).reshape(-1)
        T = np.exp(safe[:, None] * density.delays) @ pencil
        T = T.reshape(-1, count, size * size)
        T[:, :, :: size + 1] -= safe[:, None, None] + shift  # the diagonal
        T[over.reshape(-1)] = np.nan
        T = T.reshape(-1, count, size, size)
        if members is None:
            T = T[:, 0]
        return T[0] if lams.ndim == 0 else T

    return at


def _coupled_offsets(density: FourierMatrixDensity) -> list:
    """The band offsets k != 0 that T(lambda) couples: those where C_k or
    C_{-k} has a nonzero coefficient at some delay.  The rule is exact
    zeros: a coefficient of 1e-300 couples.  The index classes of
    `index_classes` are read off it."""
    K = density.bandwidth
    weighted = (density.coeffs != 0).any(axis=(0, 2, 3))
    return [
        m for m in range(-K, K + 1) if m != 0 and (weighted[K + m] or weighted[K - m])
    ]


def index_classes(density: FourierMatrixDensity, bound: int) -> list:
    """The classes of the window |n| <= bound that T(lambda) never couples:
    the residues of n mod g, g the gcd of the coupled offsets
    (`_coupled_offsets`), each an ascending index array, ordered by their
    smallest member.  Where no offset is coupled every n is its own class."""
    n = np.arange(-bound, bound + 1)
    g = math.gcd(*_coupled_offsets(density)) or n.size
    return [n[n % g == r] for r in n[:g] % g]


class HillBlocks:
    """T(lambda) on |n| <= bound, factored over its index classes.

    Up to a permutation T is block-diag(T_r) over the classes of
    `index_classes`, so det T is the product of the det T_r, T^-1 acts
    class by class, and the singular values of T are those of all T_r
    together.  Classes of equal size are stacked: one pencil of
    `hill_matrix` per size, at most two, and one LAPACK call of each kind
    per size.  A kernel with one class is one stack of one block, the
    whole T, whose LAPACK calls are those on T itself.  The blocks,
    `solve` and `slogdet` take a batch of lambda at once, one call of each
    per size, and a search builds one HillBlocks per bound for its contour,
    mode SVDs and Hill check (`floquet._search`).  `rows` holds, per size,
    the positions of its classes' entries in T's index order; `order`, all
    of them one class after another, is the class order that `solve` works
    in; `entries` is the number of block entries per lambda; and `bound`
    is the truncation.
    """

    def __init__(self, density: FourierMatrixDensity, bound: int):
        d = density.dim
        classes = index_classes(density, bound)
        self.bound = bound
        self.size = (2 * bound + 1) * d
        self.rows, self._pencils = [], []
        for m in sorted({c.size for c in classes}, reverse=True):
            members = np.array([c for c in classes if c.size == m])
            at = (members + bound)[..., None] * d + np.arange(d)
            self.rows.append(at.reshape(len(members), m * d))
            self._pencils.append(hill_matrix(density, bound, members))
        self.order = np.concatenate([r.ravel() for r in self.rows])
        self.entries = sum(r.size * r.shape[1] for r in self.rows)

    def __call__(self, lam) -> list:
        """The blocks at lambda: per size, T on its classes, ([N,] c, s, s)."""
        return [at(lam) for at in self._pencils]

    def solve(self, blocks, rhs) -> np.ndarray:
        """T^-1 rhs at every lambda of `blocks`, with rhs (size, cols) and the
        result ([N,] size, cols) in class order: row i is row order[i] of T's
        index order.  Each stack's rows are a contiguous run, so nothing is
        gathered or scattered."""
        out, start = [], 0
        for T in blocks:
            c, m = T.shape[-3:-1]
            b = rhs[start : start + c * m].reshape(c, m, -1)
            X = np.linalg.solve(T, np.broadcast_to(b, T.shape[:-1] + b.shape[-1:]))
            out.append(X.reshape(X.shape[:-3] + (c * m, -1)))
            start += c * m
        return out[0] if len(out) == 1 else np.concatenate(out, axis=-2)

    def slogdet(self, blocks):
        """Sign and log magnitude of det T: the signs multiplied and the
        logs summed over the classes."""
        sign, logabs = 1.0, 0.0
        for T in blocks:
            s, a = np.linalg.slogdet(T)
            sign, logabs = sign * s.prod(axis=-1), logabs + a.sum(axis=-1)
        return sign, logabs

    def null_vector(self, blocks, left: bool = False):
        """For one lambda: the last row of vh in T's SVD, or for `left` the
        last column of u, in T's index order, and T's two smallest singular
        values, smallest first.  The vector is that of the class with the
        smallest singular value, zero outside it."""
        svds = [np.linalg.svd(T) for T in blocks]
        values = np.sort(np.concatenate([s.ravel() for _, s, _ in svds]))
        i = int(np.argmin([s[:, -1].min() for _, s, _ in svds]))
        u, s, vh = svds[i]
        c = int(np.argmin(s[:, -1]))
        vec = np.zeros(self.size, dtype=complex)
        vec[self.rows[i][c]] = u[c, :, -1] if left else vh[c, -1]
        return vec, values[0], values[1]


def linearize_about_orbit(
    system: DdeSystem,
    orbit: FourierSeries,
    omega: float,
    bandwidth: int | None = None,
    tail_frac: float = 1e-9,
) -> FourierMatrixDensity:
    """Linearization kernel of the rescaled system about a periodic state.

    The 2n arguments q_j(xi) and q_j(xi - omega*tau) are rows of harmonics
    -W..W, W = degree(system) * orbit cutoff, and each partial derivative
    of a monomial is a product of rows by exact convolution.  No product
    reaches past W, so cropping it to -W..W drops only exact zeros.

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
        Harmonic cutoff K of the returned kernel.  Defaults to W, then
        trimmed to drop only coefficients below TAIL_TOL relative to the
        largest one.  An explicit bandwidth raises CutoffTooSmall when it
        would drop more than `tail_frac` of any entry's coefficient norm.

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
    N = orbit.cutoff
    W = max(system.degree(), 1) * max(N, 1)
    # rows 0..n-1 hold q_j, rows n..2n-1 hold q_j(xi - omega*tau)
    args = np.concatenate([orbit.coeffs, orbit.shift(shift).coeffs], axis=1).T
    args = np.pad(args, ((0, 0), (W - N, W - N)))
    unit = np.zeros(2 * W + 1, dtype=complex)
    unit[W] = 1.0

    # jac[slot, k, i, l]: harmonic k of dN_i/dq_l / omega, slot 0 the delayed
    # argument and slot 1 the undelayed one
    jac = np.zeros((2, 2 * W + 1, n, n), dtype=complex)
    for t in system.terms:
        powers = (*t.powers, *t.delayed_powers)
        for a, e in enumerate(powers):
            if e:
                prod = unit
                for b, p in enumerate(powers):
                    for _ in range(p - (b == a)):
                        prod = np.convolve(prod, args[b])[W : 3 * W + 1]
                jac[1 - a // n, :, t.target, a % n] += t.coeff * e / omega * prod

    m = np.abs(np.arange(-W, W + 1))
    if bandwidth is None:
        # trim the band to the smallest window keeping the dropped tail tiny
        mags = np.abs(jac).max(axis=(0, 2, 3))
        K = int(m[mags > TAIL_TOL * max(mags.max(), 1e-300)].max(initial=0))
    else:
        K = bandwidth
        mass = np.abs(jac) ** 2
        total = np.sqrt(mass.sum(axis=1))
        tail = np.sqrt(mass[:, m > K].sum(axis=1))
        over = tail > tail_frac * total
        if over.any():
            raise CutoffTooSmall(
                f"cutoff {K} drops {tail[over][0]:.3e} of norm {total[over][0]:.3e}"
            )
    c = min(K, W)
    coeffs = np.zeros((2, 2 * K + 1, n, n), dtype=complex)
    coeffs[:, K - c : K + c + 1] = jac[:, W - c : W + c + 1]
    return FourierMatrixDensity(omega, np.array([-shift, 0.0]), coeffs)
