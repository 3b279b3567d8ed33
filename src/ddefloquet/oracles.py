"""Brute force reference computations kept deliberately independent of the
continued fraction machinery.

`integrate_mos` is a classical fixed step RK4 with cubic Lagrange history
interpolation (method of steps).  It knows every stage time before it
starts, so the cubic stencils of every delayed read (index `lo` and four
weights) are built once, and every delayed read of a block of steps that
only looks at stored points is one array expression.

The monodromy oracle is a piecewise Chebyshev collocation of the linear
kernel (Breda, Maset & Vermiglio, SIAM J. Numer. Anal. 50, 2012; Butcher
et al., Int. J. Numer. Meth. Eng. 59, 2004).  The history segment and each
piece of the period are polynomials on Chebyshev-Lobatto nodes, and the
period map on the history nodes is built from unit impulses, all columns
solved together; its eigenvalues give reference Floquet multipliers.  For
smooth periodic weights and point delays they converge spectrally in the
degree, and a time domain discretization shares nothing with the Fourier
window of the continued fractions, so agreement between the two routes is
evidence rather than shared bias.  A real kernel gives a real map, and
`eigvals` runs on it.
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


def _lobatto(degree: int):
    """Chebyshev-Lobatto nodes on [-1, 1], ascending, their barycentric
    weights and the differentiation matrix of the interpolant through them."""
    k = np.arange(degree + 1)
    x = np.sin(np.pi * (2 * k - degree) / (2 * degree))
    w = (-1.0) ** k
    w[[0, -1]] /= 2
    diff = x[:, None] - x
    np.fill_diagonal(diff, 1.0)
    dmat = w / w[:, None] / diff
    np.fill_diagonal(dmat, 0.0)
    np.fill_diagonal(dmat, -dmat.sum(axis=1))
    return x, w, dmat


def _barycentric(x: np.ndarray, nodes: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rows r with p(x) = sum_k r[..., k] p(nodes[k]); shape x.shape + (len(nodes),)."""
    diff = x[..., None] - nodes
    hit = diff == 0.0
    rows = w / np.where(hit, 1.0, diff)
    rows /= rows.sum(axis=-1, keepdims=True)
    return np.where(hit.any(axis=-1, keepdims=True), hit, rows)


def _monodromy_matrix(density: FourierMatrixDensity, m_grid: int) -> np.ndarray:
    """Period map on the (m_grid + 1)-node history segment, one column per impulse.

    The history on [-delay, 0] and each of the ceil(2*pi/delay) equal pieces
    of [0, 2*pi] is a degree m_grid polynomial on Chebyshev-Lobatto nodes; a
    piece starts at the last node of the one before it and is collocated at
    its other m_grid nodes.  A delayed read lands on the history, on an
    earlier piece or on the piece itself, where it couples the piece's own
    unknowns, so the pieces are solved in order, each one linear solve for
    all impulse columns at once.  Row block i of the map is the solution at
    2*pi + theta_i.  Real for a real kernel, complex otherwise.
    """
    delay = float(-density.delays[0])
    period = 2.0 * np.pi
    d, m = density.dim, m_grid
    pieces = int(np.ceil(period / delay - 1e-12))
    h = period / pieces
    x, w, dmat = _lobatto(m)
    dmat = dmat * (2.0 / h)
    inner = np.flatnonzero(density.delays < 0.0)

    # segment 0 is the history, segment p + 1 the piece [p h, (p + 1) h]
    starts = np.append(-delay, h * np.arange(pieces))
    widths = np.append(delay, np.full(pieces, h))

    def locate(s):
        seg = np.clip(np.searchsorted(starts, s, side="right") - 1, 0, pieces)
        local = np.clip(2.0 * (s - starts[seg]) / widths[seg] - 1.0, -1.0, 1.0)
        return seg, _barycentric(local, x, w)

    # collocation times (pieces, m) and every weight there (pieces, m, J, d, d)
    times = np.arange(pieces)[:, None] * h + (x[1:] + 1.0) * (h / 2)
    weights = FourierSeries(np.moveaxis(density.coeffs, 0, 1)).evaluate(times)
    if density.is_real():
        weights = weights.real
    seg, rows = locate(times[..., None] + density.delays[inner])
    # a read on its own piece couples that piece's unknowns, nodes 1..m
    own = (seg == np.arange(1, pieces + 1)[:, None, None])[..., None] * rows[..., 1:]

    lhs = np.einsum("ik,ab->iakb", dmat[1:, 1:], np.eye(d))
    lhs = lhs - np.einsum("ik,piab->piakb", np.eye(m), weights[:, :, -1])
    lhs -= np.einsum("pick,picab->piakb", own, weights[:, :, inner])
    lhs = lhs.reshape(pieces, m * d, m * d)

    side = (m + 1) * d
    # unknown nodes stay zero until solved, so an own-piece read below
    # takes only the piece's known first node
    values = np.zeros((pieces + 1, m + 1, d, side), dtype=weights.dtype)
    values[0] = np.eye(side).reshape(m + 1, d, side)
    for p in range(pieces):
        values[p + 1, 0] = values[p, m]
        rhs = -np.einsum("i,ac->iac", dmat[1:, 0], values[p + 1, 0])
        for c, j in enumerate(inner):
            read = np.einsum("ik,ikac->iac", rows[p, :, c], values[seg[p, :, c]])
            rhs += weights[p, :, j] @ read
        solved = np.linalg.solve(lhs[p], rhs.reshape(m * d, side))
        values[p + 1, 1:] = solved.reshape(m, d, side)

    out_seg, out_rows = locate(period + delay * (x - 1.0) / 2)
    return np.einsum("ik,ikac->iac", out_rows, values[out_seg]).reshape(side, side)


def monodromy_exponents(
    density: FourierMatrixDensity,
    m_grid: int = 20,
    re_min: float = -3.0,
    rich_tol: float = 1e-3,
):
    """Reference multipliers from a discretized period map, Richardson checked.

    The period-2*pi linear map on the history segment is built column by
    column from unit impulses, eigendecomposed at Chebyshev degrees m_grid
    and 2*m_grid, and only eigenvalues that agree between the two degrees
    to `rich_tol` (relative) are returned.  Exponents use the principal
    logarithm, lambda = log(rho)/(2*pi), so Im(lambda) lies in (-1/2, 1/2].

    Returns a list of (lambda, rho) sorted by descending |rho|, then by
    ascending Im(lambda), so a conjugate pair lists its lower member first.
    Raises GridTooCoarse when a retained multiplier fails the check, and
    ValueError when the kernel has no delay slot theta < 0.
    """
    if m_grid < MIN_SEGMENT_POINTS:
        raise ValueError(f"m_grid must be at least {MIN_SEGMENT_POINTS}")
    if density.delays[0] >= 0.0:
        raise ValueError("the kernel has no delay slot theta < 0 to march over")
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
                f"multiplier {rho:.6g} moved by {shift:.2e} from degree {m_grid} "
                f"to {2 * m_grid}; raise m_grid (monodromy_grid)"
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
