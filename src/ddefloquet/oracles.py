"""Brute force reference computations kept deliberately independent of the
continued fraction machinery.

The integrator is a classical fixed step RK4 with cubic Lagrange history
interpolation (method of steps).  The monodromy map advances a sampled
history segment over one period and its eigenvalues give reference Floquet
multipliers; the segment lives on a uniform grid, a different
discretization family from the Fourier window of the continued fractions,
so agreement between the two routes is evidence rather than shared bias.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowUp, GridTooCoarse, StepTooLarge
from .linalg import determinant
from .model import DdeSystem, FourierMatrixDensity
from .orbit import OrbitExpansion
from .rootfind import DEFAULT_BOX, DEFAULT_GRID, find_roots, to_strip

__all__ = [
    "SegmentState",
    "Trajectory",
    "integrate_mos",
    "monodromy_exponents",
    "characteristic_roots",
    "oscillator_residual",
]

MIN_SEGMENT_POINTS = 20
BLOWUP_NORM = 1e12


@dataclass(frozen=True)
class SegmentState:
    """History segment q(xi + theta) sampled on a uniform theta grid."""

    grid: np.ndarray  # theta_i on [-delay, 0], ascending, uniform
    values: np.ndarray  # shape (npts, dim)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values)
        if grid.ndim != 1 or grid.shape[0] < MIN_SEGMENT_POINTS + 1:
            raise ValueError(
                f"segment needs at least {MIN_SEGMENT_POINTS + 1} grid points"
            )
        steps = np.diff(grid)
        if np.any(steps <= 0) or not np.allclose(steps, steps[0], rtol=1e-9):
            raise ValueError("segment grid must be uniform ascending")
        if abs(grid[-1]) > 1e-12:
            raise ValueError("segment grid must end at theta = 0")
        if values.shape[0] != grid.shape[0]:
            raise ValueError("values and grid lengths differ")
        grid.setflags(write=False)
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def delay(self) -> float:
        return float(-self.grid[0])

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @classmethod
    def from_callable(cls, g, delay: float, npts: int = 101):
        grid = np.linspace(-delay, 0.0, npts)
        vals = np.array([np.atleast_1d(g(t)) for t in grid])
        return cls(grid, vals)


def _lagrange4(times: np.ndarray, values: np.ndarray, t: float):
    """Cubic Lagrange interpolation on the 4 nearest stored points."""
    n = times.shape[0]
    if n < 4:
        raise ValueError("need at least 4 history points")
    i = int(np.searchsorted(times, t))
    lo = min(max(i - 2, 0), n - 4)
    ts = times[lo : lo + 4]
    out = 0.0
    for k in range(4):
        w = 1.0
        for l in range(4):
            if l != k:
                w *= (t - ts[l]) / (ts[k] - ts[l])
        out = out + w * values[lo + k]
    return out


class _History:
    """Append-only record of (time, value) pairs with cubic interpolation."""

    def __init__(self, times, values):
        self.times = list(times)
        self.values = list(values)

    def append(self, t, v):
        self.times.append(t)
        self.values.append(v)

    def freeze(self):
        self._t = np.asarray(self.times)
        self._v = np.asarray(self.values)

    def __call__(self, t: float):
        return _lagrange4(self._t, self._v, t)


@dataclass(frozen=True)
class Trajectory:
    """Dense method of steps output; query with .at, slice with .segment."""

    times: np.ndarray
    values: np.ndarray
    delay: float

    def at(self, xi: float):
        return _lagrange4(self.times, self.values, float(xi))

    def segment(self, xi: float, npts: int | None = None) -> SegmentState:
        if xi > self.times[-1] + 1e-12 or xi - self.delay < self.times[0] - 1e-12:
            raise ValueError("segment extends outside the stored trajectory")
        if npts is None:
            spacing = self.times[-1] - self.times[-2]
            npts = max(int(round(self.delay / spacing)) + 1, MIN_SEGMENT_POINTS + 1)
        grid = np.linspace(-self.delay, 0.0, npts)
        vals = np.array([self.at(xi + th) for th in grid])
        return SegmentState(grid, vals)


def integrate_mos(
    system: DdeSystem, segment, xi_end: float, h: float
) -> Trajectory:
    """March the rescaled system from a history segment to xi_end.

    Classical RK4; delayed arguments are read from the accumulated history
    by cubic interpolation, which is valid because every stage looks back
    at least delay - h.  The step must satisfy h <= delay/20.
    """
    delay = system.tau
    if callable(segment):
        segment = SegmentState.from_callable(
            segment, delay, npts=max(101, MIN_SEGMENT_POINTS + 1)
        )
    if abs(segment.delay - delay) > 1e-9 * max(delay, 1.0):
        raise ValueError("segment delay does not match the system")
    if h > delay / MIN_SEGMENT_POINTS + 1e-15:
        raise StepTooLarge(f"h = {h} exceeds delay/{MIN_SEGMENT_POINTS}")
    if xi_end <= 0:
        raise ValueError("xi_end must be positive")

    hist = _History(list(segment.grid), list(np.asarray(segment.values, dtype=float)))
    hist.freeze()

    def rhs(t, y):
        qd = hist(t - delay)
        return system.rhs(y, qd)

    times = [0.0]
    values = [np.asarray(segment.values[-1], dtype=float)]
    n_steps = int(np.ceil(xi_end / h - 1e-12))
    t = 0.0
    y = values[0]
    for k in range(n_steps):
        step = min(h, xi_end - t)
        k1 = rhs(t, y)
        k2 = rhs(t + step / 2, y + step / 2 * k1)
        k3 = rhs(t + step / 2, y + step / 2 * k2)
        k4 = rhs(t + step, y + step * k3)
        y = y + step / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t = t + step
        if float(np.max(np.abs(y))) > BLOWUP_NORM:
            raise BlowUp(f"|q| exceeded {BLOWUP_NORM:.0e} at xi = {t:.3f}")
        hist.append(t, y)
        hist.freeze()
        times.append(t)
        values.append(y)

    all_t = np.concatenate([segment.grid[:-1], np.asarray(times)])
    all_v = np.vstack([segment.values[:-1], np.asarray(values)])
    return Trajectory(all_t, all_v, delay)


def _linear_march(density: FourierMatrixDensity, init_values: np.ndarray, period: float):
    """March dq/dxi = sum_j W_j(xi) q(xi + theta_j) over one period.

    init_values has shape (npts, n, ncols); all columns advance together.
    Returns a cubic interpolating history callable covering [-delay, period].
    """
    delay = float(-density.delays[0])
    npts = init_values.shape[0]
    grid_spacing = delay / (npts - 1)
    n_steps = int(np.ceil(period / grid_spacing))
    h = period / n_steps

    real_path = density.is_real() and np.all(np.isreal(init_values))
    dtype = float if real_path else complex
    weights = [density.weight_series(j) for j in range(len(density.delays))]

    def weight_at(series, t):
        w = series.evaluate(t)
        return w.real if real_path else w

    inner = [
        (float(th), weights[j]) for j, th in enumerate(density.delays) if th < 0.0
    ]
    w_here = weights[-1]

    total = npts + n_steps
    times = np.empty(total)
    values = np.empty((total,) + init_values.shape[1:], dtype=dtype)
    times[:npts] = np.linspace(-delay, 0.0, npts)
    values[:npts] = init_values.real if real_path else init_values
    fill = npts

    def interp(t):
        return _lagrange4(times[:fill], values[:fill], t)

    def rhs(t, y):
        acc = weight_at(w_here, t) @ y
        for th, w in inner:
            acc = acc + weight_at(w, t) @ interp(t + th)
        return acc

    t = 0.0
    y = values[npts - 1]
    for _ in range(n_steps):
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + h / 2 * k1)
        k3 = rhs(t + h / 2, y + h / 2 * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t = t + h
        times[fill] = t
        values[fill] = y
        fill += 1

    def history(tq):
        return _lagrange4(times[:fill], values[:fill], tq)

    return history


def _monodromy_matrix(density: FourierMatrixDensity, m_grid: int) -> np.ndarray:
    delay = float(-density.delays[0])
    n = density.dim
    npts = m_grid + 1
    ncols = npts * n
    init = np.zeros((npts, n, ncols), dtype=complex)
    for i in range(npts):
        for d in range(n):
            init[i, d, i * n + d] = 1.0
    history = _linear_march(density, init, 2.0 * np.pi)
    grid = np.linspace(-delay, 0.0, npts)
    out = np.zeros((ncols, ncols), dtype=complex)
    for i, th in enumerate(grid):
        out[i * n : (i + 1) * n] = history(2.0 * np.pi + th)
    return out


def monodromy_exponents(
    density: FourierMatrixDensity,
    m_grid: int = 200,
    re_min: float = -3.0,
    rich_tol: float = 1e-3,
):
    """Reference multipliers from a discretized period map, Richardson checked.

    The period-2*pi linear map on a sampled history segment is built column
    by column from unit impulses, eigendecomposed at resolutions m_grid and
    2*m_grid, and only eigenvalues that agree between the two resolutions
    to `rich_tol` (relative) are returned.  Exponents use the principal
    logarithm, lambda = log(rho)/(2*pi), so Im(lambda) lies in (-1/2, 1/2].

    Returns a list of (lambda, rho) sorted by descending |rho|.
    Raises GridTooCoarse when a retained multiplier fails the check.
    """
    if m_grid < MIN_SEGMENT_POINTS:
        raise ValueError(f"m_grid must be at least {MIN_SEGMENT_POINTS}")
    rho_floor = np.exp(2.0 * np.pi * re_min)
    coarse = np.linalg.eigvals(_monodromy_matrix(density, m_grid))
    fine = np.linalg.eigvals(_monodromy_matrix(density, 2 * m_grid))
    keep = [r for r in coarse if abs(r) >= rho_floor]
    results = []
    for rho in sorted(keep, key=abs, reverse=True):
        j = int(np.argmin(np.abs(fine - rho)))
        shift = abs(fine[j] - rho)
        if shift > rich_tol * max(abs(rho), rho_floor):
            raise GridTooCoarse(
                f"multiplier {rho:.6g} moved by {shift:.2e} under grid doubling"
            )
        refined = fine[j]
        lam = complex(np.log(refined) / (2.0 * np.pi))
        results.append((lam, complex(refined)))
    return results


def characteristic_roots(
    a,
    b,
    omega: float = 1.0,
    tau: float = 1.0,
    box=DEFAULT_BOX,
    tol: float = 1e-12,
    grid=DEFAULT_GRID,
):
    """Roots of det((a + b exp(-lambda omega tau))/omega - lambda I) in `box`.

    The constant coefficient reduction of the Fourier mode problem; used to
    cross check both continued fraction routes whenever the kernel carries
    no xi dependence.  Returned roots are raw (not strip mapped).
    """
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    b = np.atleast_2d(np.asarray(b, dtype=complex))
    n = a.shape[0]
    eye = np.eye(n)

    def f(lams):
        lams = lams[:, None, None]
        return determinant((a + b * np.exp(-lams * omega * tau)) / omega - lams * eye)

    found = find_roots(f, box=box, grid=grid, tol=tol, point_bytes=16 * n * n)
    return [root for root, ok in found if ok]


def oscillator_residual(exp: OrbitExpansion, n_grid: int = 512) -> float:
    """RMS residual of the summed orbit in the oscillator equation.

    Evaluates omega^2 x'' + omega0^2 x - mu f(x, omega x', delayed args)
    pointwise on a uniform xi grid; delayed arguments are direct
    trigonometric evaluations, independent of the Fourier convolution
    route used to build the orbit.
    """
    model = exp.model
    x = exp.assemble()
    w = exp.omega()
    xi = np.linspace(0.0, 2.0 * np.pi, n_grid, endpoint=False)
    xv = x.evaluate_real(xi)
    vv = w * x.derivative().evaluate_real(xi)
    acc = w * w * x.derivative(2).evaluate_real(xi)
    acc = acc + model.omega0**2 * xv
    xd = x.evaluate_real(xi - w * model.tau)
    vd = w * x.derivative().evaluate_real(xi - w * model.tau)
    acc = acc - exp.mu * model.forcing_eval(xv, vv, xd, vd)
    return float(np.sqrt(np.mean(acc**2)))
