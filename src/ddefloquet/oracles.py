"""Brute force reference computations kept deliberately independent of the
continued fraction machinery.

The integrator is a classical fixed step RK4 with cubic Lagrange history
interpolation (method of steps).  The monodromy map advances a sampled
history segment over one period and its eigenvalues give reference Floquet
multipliers; the segment lives on a uniform grid, a different
discretization family from the Fourier window of the continued fractions,
so agreement between the two routes is evidence rather than shared bias.

Both marches know every RK4 stage time before they start, so the cubic
stencils of every delayed read (index `lo` and four weights) are built once,
and every delayed read of a block of steps that only looks at stored points
is one array expression.  The monodromy march is linear, so it also
evaluates every weight at every stage time in one call and folds each RK4
step into y <- P_k y + g_k: the propagators P_k come from the undelayed
weight alone, the forcings g_k of a block from its delayed reads, and the
sequential part is one small matmul per step.  Blocks are capped at
rootfind.CHUNK_BYTES of delayed terms, and the march keeps only the points
a later read needs, in a ring of about one segment's rows.  A real kernel
gives a real map, and `eigvals` runs on it.  The discretization (grid, interpolation, RK4,
Richardson doubling) is the same as a straight per-stage march.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rootfind
from .errors import BlowUp, GridTooCoarse, StepTooLarge
from .fourier import FourierSeries
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


def _stencils(times: np.ndarray, s, upper):
    """Cubic Lagrange stencils of reads at s on the stored points times[:upper].

    Returns (lo, w) with q(s) ~ sum_i w[..., i] * values[lo + i]: the four
    points nearest s, clamped inside times[:upper].  `upper` broadcasts
    against s, so a march gives every read the number of points stored
    when it happens.
    """
    s = np.asarray(s, dtype=float)
    i = np.minimum(np.searchsorted(times, s), upper)
    lo = np.clip(i - 2, 0, np.asarray(upper) - 4)
    ts = times[lo[..., None] + np.arange(4)]
    w = np.ones(ts.shape)
    for k in range(4):
        for l in range(4):
            if l != k:
                w[..., k] *= (s - ts[..., l]) / (ts[..., k] - ts[..., l])
    return lo, w


def _interpolate(values: np.ndarray, lo: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Apply stencils: shape lo.shape + values.shape[1:], one point at a time.

    Point i is read from row i % len(values), so a march may keep its
    history in a ring of rows.
    """
    lift = lo.shape + (1,) * (values.ndim - 1)
    rows = values.shape[0]
    out = w[..., 0].reshape(lift) * values[lo % rows]
    for i in range(1, 4):
        out += w[..., i].reshape(lift) * values[(lo + i) % rows]
    return out


def _block_ends(lo: np.ndarray, npts: int, step_bytes: int):
    """Step blocks [k0, k1) whose stencils read only points stored before k0.

    Step k of a march stores point npts + k, so its reads lo (shape
    (n_steps, ...)) need the first lo.max() + 4 - npts steps done; that
    count never decreases with k.  A block's delayed terms, step_bytes per
    step, are kept within rootfind.CHUNK_BYTES (one step at least).
    """
    n_steps = lo.shape[0]
    cap = max(1, rootfind.CHUNK_BYTES // step_bytes)
    need = lo.reshape(n_steps, -1).max(axis=1) + 4 - npts
    k0 = 0
    while k0 < n_steps:
        k1 = min(int(np.searchsorted(need, k0, side="right")), k0 + cap)
        yield k0, k1
        k0 = k1


@dataclass(frozen=True)
class Trajectory:
    """Dense method of steps output; query with .at, slice with .segment."""

    times: np.ndarray
    values: np.ndarray
    delay: float

    def at(self, xi):
        """Cubic interpolant at scalar or array xi; shape xi.shape + (dim,)."""
        lo, w = _stencils(self.times, xi, self.times.shape[0])
        return _interpolate(self.values, lo, w)

    def segment(self, xi: float, npts: int | None = None) -> SegmentState:
        if xi > self.times[-1] + 1e-12 or xi - self.delay < self.times[0] - 1e-12:
            raise ValueError("segment extends outside the stored trajectory")
        if npts is None:
            spacing = self.times[-1] - self.times[-2]
            npts = max(int(round(self.delay / spacing)) + 1, MIN_SEGMENT_POINTS + 1)
        grid = np.linspace(-self.delay, 0.0, npts)
        return SegmentState(grid, self.at(xi + grid))


def integrate_mos(
    system: DdeSystem, segment, xi_end: float, h: float
) -> Trajectory:
    """March the rescaled system from a history segment to xi_end.

    Classical RK4; delayed arguments are read from the accumulated history
    by cubic interpolation, which is valid because every stage looks back
    at least delay - h.  The step must satisfy h <= delay/20.  The stage
    times are known in advance, so the stencils of every delayed read are
    built once, and the delayed values of a block of steps whose reads
    land on stored points are interpolated together.
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

    npts = segment.grid.shape[0]
    n_steps = int(np.ceil(xi_end / h - 1e-12))
    starts = np.empty(n_steps)
    steps = np.empty(n_steps)
    t = 0.0
    for k in range(n_steps):
        starts[k] = t
        steps[k] = min(h, xi_end - t)
        t = t + steps[k]
    stages = np.stack([starts, starts + steps / 2, starts + steps], axis=1)

    times = np.concatenate([segment.grid, stages[:, 2]])
    values = np.empty((npts + n_steps, segment.dim))
    values[:npts] = np.asarray(segment.values, dtype=float)
    lo, w = _stencils(times, stages - delay, npts + np.arange(n_steps)[:, None])

    y = values[npts - 1]
    for k0, k1 in _block_ends(lo, npts, 3 * values[0].nbytes):
        delayed = _interpolate(values, lo[k0:k1], w[k0:k1])
        for k in range(k0, k1):
            step = steps[k]
            da, db, dc = delayed[k - k0]
            r1 = system.rhs(y, da)
            r2 = system.rhs(y + step / 2 * r1, db)
            r3 = system.rhs(y + step / 2 * r2, db)
            r4 = system.rhs(y + step * r3, dc)
            y = y + step / 6 * (r1 + 2 * r2 + 2 * r3 + r4)
            if float(np.max(np.abs(y))) > BLOWUP_NORM:
                raise BlowUp(
                    f"|q| exceeded {BLOWUP_NORM:.0e} at xi = {times[npts + k]:.3f}"
                )
            values[npts + k] = y
    return Trajectory(times, values, delay)


def _rk4_increment(a: np.ndarray, f: np.ndarray, h: float) -> np.ndarray:
    """RK4 increment of z' = A(t) z + f(t) over one step from z = 0.

    a (..., 3, n, n) and f (..., 3, n, m) hold A and f at the stage times
    t, t + h/2 and t + h.  With f = A this is P - I of the step propagator,
    with f the delayed terms it is the forcing g of y <- P y + g.
    """
    z1 = f[..., 0, :, :]
    z2 = (h / 2) * (a[..., 1, :, :] @ z1) + f[..., 1, :, :]
    z3 = (h / 2) * (a[..., 1, :, :] @ z2) + f[..., 1, :, :]
    z4 = h * (a[..., 2, :, :] @ z3) + f[..., 2, :, :]
    return (h / 6) * (z1 + 2 * z2 + 2 * z3 + z4)


def _linear_march(density: FourierMatrixDensity, init_values: np.ndarray, period: float):
    """March dq/dxi = sum_j W_j(xi) q(xi + theta_j) over one period.

    init_values has shape (npts, n, ncols); all columns advance together.
    Returns a cubic interpolating history callable covering the last delay
    window [period - delay, period]; only the points it reads are kept.
    Each RK4 step is y <- P_k y + g_k, the forcings g_k formed a block of
    steps at a time; a real kernel on real data marches in real arithmetic.
    """
    delay = float(-density.delays[0])
    npts = init_values.shape[0]
    grid_spacing = delay / (npts - 1)
    n_steps = int(np.ceil(period / grid_spacing))
    h = period / n_steps

    real_path = density.is_real() and np.all(np.isreal(init_values))
    dtype = float if real_path else complex
    starts = h * np.arange(n_steps)
    stages = starts[:, None] + np.array([0.0, h / 2, h])
    # (n_steps, 3, J, n, n): every weight at every stage time
    weights = FourierSeries(np.moveaxis(density.coeffs, 0, 1)).evaluate(stages)
    if real_path:
        weights = weights.real
    here = weights[:, :, -1]
    inner = np.flatnonzero(density.delays < 0.0)

    grid = np.linspace(-delay, 0.0, npts)
    times = np.concatenate([grid, starts + h])
    lo, w = _stencils(
        times,
        stages[:, :, None] + density.delays[inner],
        npts + np.arange(n_steps)[:, None, None],
    )
    # point i is kept in row i % rows.  The oldest point a step reads never
    # moves back, so rows cover the longest look-back of a step and the
    # last delay window, which is all `history` serves.
    last = int(_stencils(times, period + grid, times.shape[0])[0].min())
    oldest = np.append(lo.reshape(n_steps, -1).min(axis=1), last)
    rows = int(np.max(npts + np.arange(n_steps + 1) - oldest))
    values = np.empty((rows,) + init_values.shape[1:], dtype=dtype)
    values[:npts] = init_values.real if real_path else init_values
    props = np.eye(density.dim) + _rk4_increment(here, here, h)

    for k0, k1 in _block_ends(lo, npts, 3 * values[0].nbytes):
        delayed = 0
        for m, j in enumerate(inner):
            read = _interpolate(values, lo[k0:k1, :, m], w[k0:k1, :, m])
            delayed = delayed + weights[k0:k1, :, j] @ read
        forcing = _rk4_increment(here[k0:k1], delayed, h)
        for k in range(k0, k1):
            y = values[(npts + k) % rows]
            np.matmul(props[k], values[(npts + k - 1) % rows], out=y)
            y += forcing[k - k0]

    def history(tq):
        lo, w = _stencils(times, tq, times.shape[0])
        if np.any(lo < last):
            raise ValueError("the march keeps only its last delay window")
        return _interpolate(values, lo, w)

    return history


def _monodromy_matrix(density: FourierMatrixDensity, m_grid: int) -> np.ndarray:
    """Period map on the (m_grid + 1)-point history grid, one column per impulse.

    Real for a real kernel, complex otherwise.
    """
    delay = float(-density.delays[0])
    npts = m_grid + 1
    side = npts * density.dim
    init = np.eye(side).reshape(npts, density.dim, side)
    history = _linear_march(density, init, 2.0 * np.pi)
    grid = np.linspace(-delay, 0.0, npts)
    return history(2.0 * np.pi + grid).reshape(side, side)


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

    Returns a list of (lambda, rho) sorted by descending |rho|, then by
    ascending Im(lambda), so a conjugate pair lists its lower member first.
    Raises GridTooCoarse when a retained multiplier fails the check.
    """
    if m_grid < MIN_SEGMENT_POINTS:
        raise ValueError(f"m_grid must be at least {MIN_SEGMENT_POINTS}")
    rho_floor = np.exp(2.0 * np.pi * re_min)
    # a real map whose eigenvalues are all real gives a real array
    coarse = np.linalg.eigvals(_monodromy_matrix(density, m_grid)).astype(complex)
    fine = np.linalg.eigvals(_monodromy_matrix(density, 2 * m_grid)).astype(complex)
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
    return sorted(results, key=lambda r: (-abs(r[1]), r[0].imag))


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

    return find_roots(f, box=box, grid=grid, tol=tol, point_bytes=16 * n * n)


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
